(* Worker-process supervision. See supervisor.mli for the contract.

   Parent-side shape: one slot per shard. A slot is Up (live child +
   control socket + reader thread), waiting out a restart backoff,
   sitting behind an open circuit breaker, or Down (pre-spawn /
   stopped). Queries acquire the slot's connection (respawning lazily
   when the backoff has elapsed), register a waiter under a fresh rid,
   write one frame and sleep on a condition variable; the reader thread
   routes replies back by rid and turns EOF into death bookkeeping.

   Workers are not forked from the daemon directly. fork(2) from a
   multi-domain-capable OCaml process that has grown dozens of live
   systhreads clones runtime bookkeeping for threads that do not exist
   in the child; a child that then spawns a domain can reach a
   stop-the-world section whose rendezvous never completes — compute
   wedges mid-GC with no OCaml-level deadline able to fire. The first
   worker generation (forked before the daemon creates any thread) was
   reliably fine and every wedge was a respawn, so the fix is to make
   every generation fork from a quiet process: a dedicated single-
   threaded spawner, forked once at [create] time, forks all workers on
   request and each worker connects back to the parent over a private
   unix socket. *)

module F = Resil.Faultpoint

type policy = {
  backoff_base_s : float;
  backoff_max_s : float;
  storm_limit : int;
  storm_window_s : float;
  cooloff_s : float;
}

let default_policy =
  {
    backoff_base_s = 0.05;
    backoff_max_s = 2.0;
    storm_limit = 5;
    storm_window_s = 10.0;
    cooloff_s = 1.0;
  }

type outcome = Pending | Got of Protocol.reply | Died

type waiter = {
  wm : Mutex.t;
  wc : Condition.t;
  mutable outcome : outcome;
}

type conn = {
  pid : int;
  fd : Unix.file_descr;
  send_lock : Mutex.t;
  (* Set under [send_lock] before [fd] is closed: a sender that checks
     it under the same lock can never write to a closed — and possibly
     already reused — descriptor. *)
  mutable dead : bool;
  pending : (int, waiter) Hashtbl.t;
  pending_lock : Mutex.t;
  mutable reader : Thread.t option;
}

type state =
  | Up of conn
  | Restarting of float  (* not before this wall-clock time *)
  | Circuit_open of float  (* closed again at this wall-clock time *)
  | Down

type slot = {
  idx : int;
  lock : Mutex.t;
  mutable state : state;
  mutable death_times : float list;  (* recent, newest first *)
}

(* The fork server: a single-threaded child that forks workers on
   request so their runtimes are never cloned from the busy parent. *)
type hatch = {
  spawner_pid : int;
  spawner_fd : Unix.file_descr;  (* spawn requests; EOF retires the spawner *)
  nursery_fd : Unix.file_descr;  (* listener fresh workers connect back to *)
  nursery_path : string;
  sock_dir : string;
  hatch_lock : Mutex.t;  (* serialises request + accept, so at most one
                            spawn is in flight and hellos cannot cross *)
}

type t = {
  procs : int;
  workers : int;
  policy : policy;
  execute : Nn.Qnet.t -> budget:Resil.Budget.t -> Protocol.query -> Protocol.answer;
  slots : slot array;
  nets : (string, string) Hashtbl.t;  (* digest -> serialised network *)
  nets_lock : Mutex.t;
  rid : int Atomic.t;
  restarts : int Atomic.t;
  deaths : int Atomic.t;
  stopping : bool Atomic.t;
  hatch : hatch;
}

let procs t = t.procs
let restarts t = Atomic.get t.restarts
let deaths t = Atomic.get t.deaths

let shard t digest =
  Int64.to_int
    (Int64.rem
       (Int64.logand (Resil.Ckpt.fnv1a64 digest) Int64.max_int)
       (Int64.of_int t.procs))

(* fork(2) copies the whole fd table, and the forking process's table
   holds entries its children must not: a dup of a worker's control
   socket masks the EOF that worker's death must deliver, a dup of a
   client connection keeps the peer readable after the parent hangs up,
   and a journal dup shares its file offset with the parent's appends.
   Close everything except [keep] and the stdio triple, by enumerating
   /proc/self/fd when available (the array is read before any close, so
   the directory fd's own entry going stale is harmless) and by
   sweeping a generous range otherwise. *)
let close_all_but ~keep =
  let keep_ns = List.map (fun fd -> (Obj.magic fd : int)) keep in
  let close_n n =
    if n > 2 && not (List.mem n keep_ns) then
      try Unix.close (Obj.magic n : Unix.file_descr) with Unix.Unix_error _ -> ()
  in
  match Sys.readdir "/proc/self/fd" with
  | entries ->
      Array.iter
        (fun e -> match int_of_string_opt e with Some n -> close_n n | None -> ())
        entries
  | exception Sys_error _ ->
      for n = 3 to 4095 do
        close_n n
      done

(* ---------- worker (grandchild) ---------- *)

(* Runs in a worker process; never returns. The worker is a fork of the
   single-threaded spawner, so it starts from a quiet runtime and can
   safely grow the Util.Parallel domain pool; warm sessions then
   accumulate per shard exactly as they do in an in-process daemon. *)
let worker_main ~execute ~workers fd : 'a =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* the CLI installs stop-the-daemon handlers in the parent; a worker
     must die plainly, not run the daemon's shutdown *)
  (try Sys.set_signal Sys.sigterm Sys.Signal_default with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint Sys.Signal_default with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigchld Sys.Signal_default with Invalid_argument _ -> ());
  Util.Parallel.reserve workers;
  let nets : (string, Nn.Qnet.t) Hashtbl.t = Hashtbl.create 8 in
  let nets_lock = Mutex.create () in
  let send_lock = Mutex.create () in
  let send env =
    Mutex.lock send_lock;
    (try Wire.write_frame fd (Protocol.encode_reply env) with _ -> ());
    Mutex.unlock send_lock
  in
  let handle_query rid digest query (budget : Protocol.budget_spec) =
    Util.Parallel.submit (fun () ->
        let reply =
          let net =
            Mutex.lock nets_lock;
            let r = Hashtbl.find_opt nets digest in
            Mutex.unlock nets_lock;
            r
          in
          match net with
          | None -> Protocol.Server_error ("unknown network digest " ^ digest)
          | Some net -> (
              let b =
                Resil.Budget.create ?timeout_s:budget.Protocol.timeout_s
                  ?conflicts:budget.Protocol.conflicts ()
              in
              match execute net ~budget:b query with
              | answer -> Protocol.Answer { cached = false; answer }
              | exception Invalid_argument msg ->
                  Protocol.Protocol_error ("unsupported query: " ^ msg)
              | exception e -> Protocol.Server_error (Printexc.to_string e))
        in
        send { Protocol.rid; reply })
  in
  (* Defense in depth: park in bounded select(2) slices rather than one
     indefinite read, so the receiving thread re-enters the runtime a
     few times a second even while idle. In a healthy worker this is
     invisible; if the runtime's domain-0 service machinery is ever
     degraded (the failure mode supervised forking exists to avoid),
     the periodic re-entry keeps stop-the-world sections serviced. *)
  let rec await_frame () =
    match Unix.select [ fd ] [] [] 0.05 with
    | [], _, _ -> await_frame ()
    | _ -> Wire.read_frame fd
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> await_frame ()
  in
  let rec loop () =
    match await_frame () with
    | Error _ ->
        (* parent went away (or stream damage we cannot resync from) *)
        Unix._exit 0
    | Ok payload ->
        (match Protocol.decode_request payload with
        | Error e -> send { rid = 0; reply = Protocol.Protocol_error e }
        | Ok { Protocol.rid; request } -> (
            match request with
            | Protocol.Ping -> send { rid; reply = Protocol.Pong }
            | Protocol.Metrics ->
                send
                  { rid; reply = Protocol.Protocol_error "workers serve no metrics" }
            | Protocol.Shutdown ->
                send { rid; reply = Protocol.Bye };
                (try Unix.close fd with _ -> ());
                Unix._exit 0
            | Protocol.Set_faults { spec } -> (
                F.clear ();
                match if spec <> "" then F.arm spec with
                | () -> send { rid; reply = Protocol.Pong }
                | exception Invalid_argument msg ->
                    send { rid; reply = Protocol.Server_error msg })
            | Protocol.Load { network } -> (
                match Nn.Qnet.of_string network with
                | Error e ->
                    send { rid; reply = Protocol.Server_error ("bad network: " ^ e) }
                | Ok net ->
                    let digest =
                      Digest.to_hex (Digest.string (Nn.Qnet.to_string net))
                    in
                    Mutex.lock nets_lock;
                    Hashtbl.replace nets digest net;
                    Mutex.unlock nets_lock;
                    send { rid; reply = Protocol.Loaded { digest } })
            | Protocol.Query { digest; query; budget } ->
                (* the kill schedule strikes here: the query is already
                   in flight from the client's point of view, and the
                   parent must turn the EOF into a typed reply *)
                if F.hit "serve.worker.kill" then Unix._exit 137;
                handle_query rid digest query budget));
        loop ()
  in
  loop ()

(* Fresh out of the spawner's fork: shed inherited descriptors (a kept
   dup of the request pipe would hold the spawner open past the
   daemon), connect back to the parent and identify this process so the
   parent can route the connection to the right slot. *)
let worker_boot ~execute ~workers ~nursery_path ~slot_idx : 'a =
  close_all_but ~keep:[];
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.connect fd (Unix.ADDR_UNIX nursery_path) with
  | () -> ()
  | exception _ -> Unix._exit 111);
  (match
     Wire.write_frame fd
       (Printf.sprintf "hello %d %d" slot_idx (Unix.getpid ()))
   with
  | () -> ()
  | exception _ -> Unix._exit 111);
  worker_main ~execute ~workers fd

(* ---------- spawner (fork server child) ---------- *)

(* The one process in the tree whose only job is fork(2). It is forked
   at [create] time — before the daemon binds its listener, opens the
   store, or creates a single thread — and it never creates threads or
   domains of its own, so every worker it forks begins life as a copy
   of a quiet single-threaded runtime no matter how hot the daemon is
   when the restart happens. Faultpoint tables armed before [create]
   are frozen into it and inherited by every worker generation. *)
let spawner_main ~execute ~workers ~nursery_path req_fd : 'a =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigterm Sys.Signal_default with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint Sys.Signal_default with Invalid_argument _ -> ());
  (* workers are the spawner's children; let the kernel reap them *)
  (try Sys.set_signal Sys.sigchld Sys.Signal_ignore with Invalid_argument _ -> ());
  close_all_but ~keep:[ req_fd ];
  let buf = Bytes.create 2 in
  let rec read_req off =
    if off = 2 then
      Some ((Char.code (Bytes.get buf 0) lsl 8) lor Char.code (Bytes.get buf 1))
    else
      match Unix.read req_fd buf off (2 - off) with
      | 0 -> None
      | k -> read_req (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_req off
      | exception _ -> None
  in
  let rec loop () =
    match read_req 0 with
    | None -> Unix._exit 0  (* request pipe closed: daemon is gone *)
    | Some slot_idx ->
        (match Unix.fork () with
        | 0 ->
            (try Unix.close req_fd with _ -> ());
            worker_boot ~execute ~workers ~nursery_path ~slot_idx
        | _ -> ()
        | exception Unix.Unix_error _ ->
            (* EAGAIN et al.: the parent times out on the nursery and
               backs off exactly as it would for a crashed worker *)
            ());
        loop ()
  in
  loop ()

let fresh_sock_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec go attempt =
    if attempt > 1000 then failwith "Supervisor: cannot create a socket directory";
    let path =
      Filename.concat base
        (Printf.sprintf "fannet-sup-%d-%d" (Unix.getpid ()) attempt)
    in
    match Unix.mkdir path 0o700 with
    | () -> path
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (attempt + 1)
  in
  go 0

let hatch_open ~execute ~workers =
  let sock_dir = fresh_sock_dir () in
  let nursery_path = Filename.concat sock_dir "nursery.sock" in
  let nursery_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let cleanup () =
    (try Unix.close nursery_fd with _ -> ());
    (try Unix.unlink nursery_path with _ -> ());
    try Unix.rmdir sock_dir with _ -> ()
  in
  (try
     Unix.bind nursery_fd (Unix.ADDR_UNIX nursery_path);
     Unix.listen nursery_fd 16
   with e ->
     cleanup ();
     raise e);
  let req_parent, req_child = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 -> spawner_main ~execute ~workers ~nursery_path req_child
  | pid ->
      (try Unix.close req_child with _ -> ());
      {
        spawner_pid = pid;
        spawner_fd = req_parent;
        nursery_fd;
        nursery_path;
        sock_dir;
        hatch_lock = Mutex.create ();
      }
  | exception e ->
      (try Unix.close req_parent with _ -> ());
      (try Unix.close req_child with _ -> ());
      cleanup ();
      raise e

(* ---------- parent ---------- *)

let next_rid t = Atomic.fetch_and_add t.rid 1

let send_request conn (env : Protocol.req_envelope) =
  Mutex.lock conn.send_lock;
  let ok =
    (not conn.dead)
    &&
    try
      Wire.write_frame conn.fd (Protocol.encode_request env);
      true
    with _ -> false
  in
  Mutex.unlock conn.send_lock;
  ok

let fail_pending conn =
  Mutex.lock conn.pending_lock;
  let ws = Hashtbl.fold (fun _ w acc -> w :: acc) conn.pending [] in
  Hashtbl.reset conn.pending;
  Mutex.unlock conn.pending_lock;
  List.iter
    (fun w ->
      Mutex.lock w.wm;
      (match w.outcome with Pending -> w.outcome <- Died | _ -> ());
      Condition.signal w.wc;
      Mutex.unlock w.wm)
    ws

(* Retire [pid]. Workers are the spawner's children, not ours, so
   waitpid reports ECHILD and the kernel (via the spawner's ignored
   SIGCHLD) reaps the corpse; the poll-then-SIGKILL path still applies
   to the spawner itself, which is our child. *)
let reap pid =
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () < deadline then begin
          Thread.delay 0.01;
          poll ()
        end
        else begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
  in
  poll ()

let record_death t slot =
  Atomic.incr t.deaths;
  Mutex.lock slot.lock;
  let now = Unix.gettimeofday () in
  slot.death_times <-
    now
    :: List.filter (fun ts -> now -. ts < t.policy.storm_window_s) slot.death_times;
  let recent = List.length slot.death_times in
  (if Atomic.get t.stopping then slot.state <- Down
   else if recent > t.policy.storm_limit then
     slot.state <- Circuit_open (now +. t.policy.cooloff_s)
   else
     let backoff =
       Float.min t.policy.backoff_max_s
         (t.policy.backoff_base_s *. (2.0 ** float_of_int (recent - 1)))
     in
     slot.state <- Restarting (now +. backoff));
  Mutex.unlock slot.lock

let reader t slot conn () =
  let rec loop () =
    match Wire.read_frame conn.fd with
    | Ok payload -> (
        match Protocol.decode_reply payload with
        | Ok { Protocol.rid; reply } ->
            let w =
              Mutex.lock conn.pending_lock;
              let w = Hashtbl.find_opt conn.pending rid in
              Hashtbl.remove conn.pending rid;
              Mutex.unlock conn.pending_lock;
              w
            in
            (match w with
            | Some w ->
                Mutex.lock w.wm;
                w.outcome <- Got reply;
                Condition.signal w.wc;
                Mutex.unlock w.wm
            | None -> () (* fire-and-forget load/shutdown ack *));
            loop ()
        | Error _ ->
            (* a worker writing garbage on its own control stream is as
               dead to us as one that closed it *)
            death ())
    | Error _ -> death ()
  and death () =
    (* Ordering is load-bearing. (1) Take the slot out of [Up] first, so
       no new query acquires the dead connection. (2) Mark the conn dead
       and close its fd under [send_lock]: a sender that raced past
       acquire can no longer write — the kernel may reuse the fd number
       immediately, and a late write would land in an unrelated stream.
       (3) Fail the waiters; any waiter registered after this snapshot
       belongs to a sender whose [send_request] will now return false
       and error out on its own. (4) Reap last — it can take seconds and
       must not extend the window where stale sends are possible. *)
    record_death t slot;
    Mutex.lock conn.send_lock;
    conn.dead <- true;
    (try Unix.close conn.fd with _ -> ());
    Mutex.unlock conn.send_lock;
    fail_pending conn;
    reap conn.pid
  in
  loop ()

(* Ask the spawner for a fresh worker for [slot] and wait for it to
   connect back. Called with [slot.lock] held; [hatch_lock] keeps one
   spawn in flight at a time so an accepted hello always belongs to the
   newest request — a straggler from an abandoned earlier spawn carries
   a stale slot index and is closed (its process sees EOF and exits). *)
let spawn t slot =
  let h = t.hatch in
  Mutex.lock h.hatch_lock;
  let result =
    let req = Bytes.create 2 in
    Bytes.set req 0 (Char.chr ((slot.idx lsr 8) land 0xff));
    Bytes.set req 1 (Char.chr (slot.idx land 0xff));
    match Unix.write h.spawner_fd req 0 2 with
    | exception e -> Error ("spawner unreachable: " ^ Printexc.to_string e)
    | _ ->
        let deadline = Unix.gettimeofday () +. 5.0 in
        let rec await () =
          let left = deadline -. Unix.gettimeofday () in
          if left <= 0. then Error "worker did not report back in time"
          else
            match Unix.select [ h.nursery_fd ] [] [] left with
            | [], _, _ -> Error "worker did not report back in time"
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> await ()
            | _ -> (
                match Unix.accept h.nursery_fd with
                | exception Unix.Unix_error _ -> await ()
                | fd, _ -> (
                    (* bound the hello read: a half-connected straggler
                       must not hold the hatch lock open forever *)
                    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0
                     with Unix.Unix_error _ -> ());
                    match Wire.read_frame fd with
                    | exception _ ->
                        (try Unix.close fd with _ -> ());
                        await ()
                    | Error _ ->
                        (try Unix.close fd with _ -> ());
                        await ()
                    | Ok hello -> (
                        match
                          Scanf.sscanf hello "hello %d %d" (fun a b -> (a, b))
                        with
                        | idx, pid when idx = slot.idx ->
                            (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.
                             with Unix.Unix_error _ -> ());
                            Ok (fd, pid)
                        | _ | (exception _) ->
                            (try Unix.close fd with _ -> ());
                            await ())))
        in
        await ()
  in
  Mutex.unlock h.hatch_lock;
  match result with
  | Error e -> failwith e
  | Ok (parent_fd, pid) ->
      let conn =
        {
          pid;
          fd = parent_fd;
          send_lock = Mutex.create ();
          dead = false;
          pending = Hashtbl.create 16;
          pending_lock = Mutex.create ();
          reader = None;
        }
      in
      (* Fault-table replay: the worker boots with whatever was armed
         when the spawner froze at [create]; bring it to the parent's
         current view, so arming or clearing between restarts steers
         every later generation (live workers keep the table they were
         last sent). Stream ordering puts this ahead of any query. *)
      ignore
        (send_request conn
           {
             rid = next_rid t;
             request = Protocol.Set_faults { spec = F.snapshot () };
           });
      (* replay the shard's networks before the slot goes Up: the
         control stream orders these ahead of any later query *)
      Mutex.lock t.nets_lock;
      let owned =
        Hashtbl.fold
          (fun digest network acc ->
            if shard t digest = slot.idx then (digest, network) :: acc else acc)
          t.nets []
      in
      Mutex.unlock t.nets_lock;
      List.iter
        (fun (_, network) ->
          ignore
            (send_request conn
               { rid = next_rid t; request = Protocol.Load { network } }))
        owned;
      conn.reader <- Some (Thread.create (reader t slot conn) ());
      conn

let respawn_locked t slot ~count_restart =
  match spawn t slot with
  | conn ->
      if count_restart then Atomic.incr t.restarts;
      slot.state <- Up conn;
      Ok conn
  | exception e ->
      (* spawner unreachable or worker never connected: back off like a
         death *)
      slot.state <- Restarting (Unix.gettimeofday () +. t.policy.backoff_base_s);
      Error (Printf.sprintf "worker %d spawn failed: %s" slot.idx (Printexc.to_string e))

let acquire_conn t slot =
  Mutex.lock slot.lock;
  let now = Unix.gettimeofday () in
  let r =
    if Atomic.get t.stopping then Error "daemon stopping"
    else
      match slot.state with
      | Up conn -> Ok conn
      | Down -> respawn_locked t slot ~count_restart:false
      | Restarting ready when now >= ready ->
          respawn_locked t slot ~count_restart:true
      | Restarting _ ->
          Error
            (Printf.sprintf "worker %d restarting after crash; retry shortly"
               slot.idx)
      | Circuit_open until when now >= until ->
          slot.death_times <- [];
          respawn_locked t slot ~count_restart:true
      | Circuit_open _ ->
          Error
            (Printf.sprintf
               "worker %d unavailable: restart storm, circuit open; retry later"
               slot.idx)
  in
  Mutex.unlock slot.lock;
  r

let query t ~digest ~query ~budget =
  let slot = t.slots.(shard t digest) in
  match acquire_conn t slot with
  | Error e -> Error e
  | Ok conn -> (
      let rid = next_rid t in
      let w = { wm = Mutex.create (); wc = Condition.create (); outcome = Pending } in
      Mutex.lock conn.pending_lock;
      Hashtbl.replace conn.pending rid w;
      Mutex.unlock conn.pending_lock;
      if
        not
          (send_request conn
             { rid; request = Protocol.Query { digest; query; budget } })
      then begin
        Mutex.lock conn.pending_lock;
        Hashtbl.remove conn.pending rid;
        Mutex.unlock conn.pending_lock;
        Error
          (Printf.sprintf "worker %d unreachable (crashed mid-send)" slot.idx)
      end
      else begin
        Mutex.lock w.wm;
        while (match w.outcome with Pending -> true | _ -> false) do
          Condition.wait w.wc w.wm
        done;
        let o = w.outcome in
        Mutex.unlock w.wm;
        match o with
        | Got reply -> Ok reply
        | Died ->
            Error (Printf.sprintf "worker %d died mid-query" slot.idx)
        | Pending -> assert false
      end)

let load t ~digest ~network =
  Mutex.lock t.nets_lock;
  Hashtbl.replace t.nets digest network;
  Mutex.unlock t.nets_lock;
  let slot = t.slots.(shard t digest) in
  Mutex.lock slot.lock;
  let conn = match slot.state with Up conn -> Some conn | _ -> None in
  Mutex.unlock slot.lock;
  match conn with
  | None -> () (* replay covers it at the next (re)spawn *)
  | Some conn ->
      ignore
        (send_request conn { rid = next_rid t; request = Protocol.Load { network } })

let create ?(policy = default_policy) ~procs ~workers ~execute () =
  let procs = Stdlib.max 1 procs in
  let workers = Stdlib.max 1 workers in
  (* children must not inherit a SIGPIPE death sentence *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* the spawner forks here, before the eager spawns below create any
     reader threads — keep it that way *)
  let hatch = hatch_open ~execute ~workers in
  let t =
    {
      procs;
      workers;
      policy;
      execute;
      slots =
        Array.init procs (fun idx ->
            { idx; lock = Mutex.create (); state = Down; death_times = [] });
      nets = Hashtbl.create 8;
      nets_lock = Mutex.create ();
      rid = Atomic.make 1;
      restarts = Atomic.make 0;
      deaths = Atomic.make 0;
      stopping = Atomic.make false;
      hatch;
    }
  in
  Array.iter
    (fun slot ->
      Mutex.lock slot.lock;
      (match respawn_locked t slot ~count_restart:false with
      | Ok _ -> ()
      | Error _ -> () (* lazily retried by the first query *));
      Mutex.unlock slot.lock)
    t.slots;
  t

let stop t =
  if Atomic.compare_and_set t.stopping false true then begin
    let conns =
      Array.to_list t.slots
      |> List.filter_map (fun slot ->
             Mutex.lock slot.lock;
             let c = match slot.state with Up conn -> Some conn | _ -> None in
             slot.state <- Down;
             Mutex.unlock slot.lock;
             c)
    in
    List.iter
      (fun conn ->
        ignore
          (send_request conn { rid = next_rid t; request = Protocol.Shutdown });
        (* EOF wakes the child's read loop even mid-compute; its reader
           here then reaps it (SIGKILL after the grace) *)
        try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with _ -> ())
      conns;
    List.iter
      (fun conn -> match conn.reader with Some th -> Thread.join th | None -> ())
      conns;
    (* retire the spawner: EOF on the request pipe is its shutdown *)
    let h = t.hatch in
    (try Unix.close h.spawner_fd with _ -> ());
    reap h.spawner_pid;
    (try Unix.close h.nursery_fd with _ -> ());
    (try Unix.unlink h.nursery_path with _ -> ());
    try Unix.rmdir h.sock_dir with _ -> ()
  end
