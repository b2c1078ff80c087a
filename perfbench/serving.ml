(* Workloads [serve-hot] and [serve-cold]: the real `fannet serve`
   binary, driven over fannet-wire/1 on a Unix socket by [nproc] client
   domains in a closed loop (each client waits for its reply before it
   sends the next request, as Serve.Client callers do).

   Latency is taken at the client, from writing the request frame to
   holding the decoded reply. The daemon runs in its own process, so its
   internals are read from outside: the framed Metrics request, replays
   of captured reply bytes through Protocol, replays of queries through
   the library calls the daemon makes, and Store calls on a scratch copy
   of the journal. *)

module P = Serve.Protocol

let work_dir () =
  let d = ".perfbench_work" in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let fannet_exe = Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "fannet_cli.exe"))

(* ---------- daemon processes ---------- *)

type daemon = { pid : int; sock : string; drain : Thread.t }

(* Every daemon started and not yet reaped; killed at exit whatever
   happens, so a failed run leaves no process behind. *)
let live : int list ref = ref []

let reap pid =
  let rec wait () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        !live)

(* Start a daemon and wait until it reports that it listens. Returns the
   handle and the start-to-ready time: process start, journal recovery
   and certificate re-validation included. *)
let spawn ~sock ~workers ~cache ?store () =
  if Sys.file_exists sock then Sys.remove sock;
  let args =
    [ fannet_exe; "serve"; "--socket"; sock; "--workers"; string_of_int workers;
      "--cache"; string_of_int cache ]
    @ match store with Some s -> [ "--store"; s ] | None -> []
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let log =
    Unix.openfile (Filename.concat (work_dir ()) "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let t0 = Obs.Clock.now_ns () in
  let pid = Unix.create_process fannet_exe (Array.of_list args) Unix.stdin out_w log in
  live := pid :: !live;
  Unix.close out_w;
  Unix.close log;
  let ic = Unix.in_channel_of_descr out_r in
  let line = try input_line ic with End_of_file -> "" in
  let ready_s = Obs.Clock.elapsed_s ~since:t0 in
  if not (String.starts_with ~prefix:"fannetd listening" line) then
    failwith ("fannet serve did not start (see .perfbench_work/daemon.log): " ^ line);
  let drain =
    Thread.create
      (fun () ->
        (try
           while true do
             ignore (input_line ic)
           done
         with End_of_file | Sys_error _ -> ());
        close_in_noerr ic)
      ()
  in
  ({ pid; sock; drain }, ready_s)

(* ---------- one connection ---------- *)

type conn = { fd : Unix.file_descr; mutable rid : int }

let connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  { fd; rid = 0 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* One round trip; the raw reply frame and its decoding. A broken
   connection is an [Error], like a frame the codec rejects. *)
let rpc c request =
  c.rid <- c.rid + 1;
  match
    Serve.Wire.write_frame c.fd (P.encode_request { P.rid = c.rid; request });
    Serve.Wire.read_frame c.fd
  with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | Error e -> Error (Serve.Wire.error_to_string e)
  | Ok raw -> (
      match P.decode_reply raw with
      | Ok env when env.P.rid = c.rid || env.P.rid = 0 -> Ok (raw, env.P.reply)
      | Ok _ -> Error "reply id does not echo the request"
      | Error e -> Error e)

(* Graceful stop through the protocol's Shutdown request (the daemon
   drains, closes its journal and exits); a daemon still running 30 s
   later is killed. *)
let stop d =
  (try
     let c = connect d.sock in
     ignore (rpc c P.Shutdown);
     close c
   with Unix.Unix_error _ | Failure _ -> ());
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ -> (
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap d.pid)
    | _ -> live := List.filter (( <> ) d.pid) !live
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> live := List.filter (( <> ) d.pid) !live
  in
  wait ();
  Thread.join d.drain

let load c net =
  match rpc c (P.Load { network = Nn.Qnet.to_string net }) with
  | Ok (_, P.Loaded { digest }) -> digest
  | Ok (raw, _) -> failwith ("load: unexpected reply " ^ raw)
  | Error e -> failwith ("load: " ^ e)

let server_stats c =
  match rpc c P.Metrics with
  | Ok (_, P.Metrics_reply { stats; obs }) -> (stats, obs)
  | Ok (raw, _) -> failwith ("metrics: unexpected reply " ^ String.sub raw 0 (min 200 (String.length raw)))
  | Error e -> failwith ("metrics: " ^ e)

(* The bytes of a reply envelope after its id field: identical for two
   replies of the same query from the cache, whatever their ids. *)
let after_id raw =
  let key = "\"id\":" in
  let kl = String.length key and n = String.length raw in
  let rec find i =
    if i + kl > n then 0 else if String.sub raw i kl = key then i + kl else find (i + 1)
  in
  let i = ref (find 0) in
  while !i < n && (match raw.[!i] with '0' .. '9' | '-' -> true | _ -> false) do
    incr i
  done;
  !i

let same_tail raw ~reference =
  let i = after_id raw in
  String.length raw - i = String.length reference
  && (let ok = ref true and j = ref 0 in
      let len = String.length reference in
      while !ok && !j < len do
        if String.unsafe_get raw (i + !j) <> String.unsafe_get reference !j then ok := false;
        incr j
      done;
      !ok)

(* ---------- the library calls the daemon makes ---------- *)

let execute net (q : P.query) : P.answer =
  match q with
  | P.Exists_flip { backend; spec; input; label } ->
      P.Verdict (Fannet.Backend.exists_flip backend net spec ~input ~label)
  | P.Tolerance { backend; bias_noise; max_delta; input; label } ->
      P.Min_flip (Fannet.Tolerance.input_min_flip_delta_b backend net ~bias_noise ~max_delta ~input ~label)
  | P.Sensitivity { spec; input; label } ->
      P.Sidedness (Fannet.Sensitivity.formal_sidedness_b ~jobs:1 net spec ~inputs:[| (input, label) |])
  | P.Certify { spec; input; label } ->
      let cv = Fannet.Backend.certified_exists_flip net spec ~input ~label in
      P.Certified { verdict = cv.Fannet.Backend.cv_verdict; cert = cv.Fannet.Backend.cv_cert }
  | P.Count { spec; input; label; mode } ->
      let mode =
        match mode with
        | P.Count_exact { certify } -> Fannet.Robustness.Exact_mode { certify }
        | P.Count_approx { epsilon; delta; seed } -> Fannet.Robustness.Approx_mode { epsilon; delta; seed }
      in
      let r = Fannet.Robustness.probability ~mode net spec ~input ~label in
      P.Counted
        (Result.map
           (fun () ->
             { P.flips = r.Fannet.Robustness.flips; total = r.total; count_cert = r.certificate })
           r.Fannet.Robustness.status)

let answer_bytes a = Util.Json.to_string (P.answer_json a)

(* A certified answer re-checked by lib/cert through Backend. *)
let check_cert net (q : P.query) (a : P.answer) =
  match (q, a) with
  | P.Certify { spec; input; label }, P.Certified { verdict; cert } -> (
      match
        Spans.with_ "cert.check" (fun () ->
            Fannet.Backend.check_certified net spec ~input ~label
              { Fannet.Backend.cv_verdict = verdict; cv_cert = cert })
      with
      | Ok () -> Fannet.Backend.(match verdict with Unknown _ -> false | _ -> true)
      | Error _ -> false)
  | _ -> false

(* ---------- closed-loop clients ---------- *)

type client_log = {
  lat : (Gen.kind * float) list ref;  (** in completion order, ms *)
  mutable sent : int;
  mutable bad : int;  (** overloaded / server error / protocol error / undecided *)
  mutable mismatch : int;  (** replies that failed a per-reply gate *)
  raws : (Gen.kind * string) list ref;  (** kept reply bytes, for gates and replays *)
}

let new_log () = { lat = ref []; sent = 0; bad = 0; mismatch = 0; raws = ref [] }

(* Send [item]; returns the raw reply and its decoded answer when it was
   a decided answer. Times the round trip into [log]. *)
let one ~(log : client_log) c ~digest_of (it : Gen.item) =
  let kind = Gen.kind_of it.query in
  let request = P.Query { digest = digest_of it.target; query = it.query; budget = P.no_budget } in
  log.sent <- log.sent + 1;
  let t0 = Obs.Clock.now_ns () in
  let r = Spans.with_ ~rid:(c.rid + 1) ("rpc." ^ Gen.kind_name kind) (fun () -> rpc c request) in
  let ms = 1e3 *. Obs.Clock.elapsed_s ~since:t0 in
  match r with
  | Ok (raw, P.Answer { cached; answer }) when P.answer_decided answer ->
      log.lat := (kind, ms) :: !(log.lat);
      Some (raw, cached, answer)
  | Ok _ | Error _ ->
      log.bad <- log.bad + 1;
      None

(* Run [clients] client domains for [seconds]: each connects, then
   calls [step] until the time is up or [step] returns false. *)
let load_phase ~sock ~clients ~seconds step =
  let start = Obs.Clock.now_ns () in
  let logs = Array.init clients (fun _ -> new_log ()) in
  let worker k () =
    let c = connect sock in
    Fun.protect ~finally:(fun () -> close c) @@ fun () ->
    let continue = ref true in
    while !continue && Obs.Clock.elapsed_s ~since:start < seconds do
      continue := step k c logs.(k)
    done
  in
  let ds = Array.init clients (fun k -> Domain.spawn (worker k)) in
  Array.iter Domain.join ds;
  (logs, Obs.Clock.elapsed_s ~since:start)

let latencies logs kind =
  Array.to_list logs
  |> List.concat_map (fun l -> List.filter_map (fun (k, ms) -> if k = kind then Some ms else None) !(l.lat))
  |> Array.of_list

let sum f logs = Array.fold_left (fun acc l -> acc + f l) 0 logs

let decided logs = Array.fold_left (fun acc l -> acc + List.length !(l.lat)) 0 logs

let pct a p = Bstats.supported a p

let p50 a = if Array.length a = 0 then 0. else Bstats.median a

(* ---------- replays for the traced run ---------- *)

let timed f =
  let t0 = Obs.Clock.now_ns () in
  let r = f () in
  (r, Obs.Clock.elapsed_s ~since:t0)

(* Decode and re-encode captured reply frames through Protocol, as the
   client and the daemon do: medians per reply, and the frame sizes. *)
let codec_replay raws =
  let raws = Array.of_list raws in
  if Array.length raws = 0 then (0., 0., 0.)
  else begin
    let dec = Array.make (Array.length raws) 0. and enc = Array.make (Array.length raws) 0. in
    Array.iteri
      (fun i raw ->
        let env, d =
          timed (fun () ->
              Spans.with_ "protocol.decode_reply" (fun () ->
                  match P.decode_reply raw with Ok e -> e | Error e -> failwith e))
        in
        let _, e = timed (fun () -> Spans.with_ "protocol.encode_reply" (fun () -> P.encode_reply env)) in
        dec.(i) <- d;
        enc.(i) <- e)
      raws;
    ( Bstats.median enc,
      Bstats.median dec,
      Bstats.median (Array.map (fun r -> float_of_int (String.length r)) raws) )
  end

(* Store.open_ and Store.append on scratch copies of a journal. *)
let store_replay journal =
  let dir = work_dir () in
  let copy = Filename.concat dir "replay.store" and fresh = Filename.concat dir "append.store" in
  let copy_file src dst =
    match Host.read_file src with
    | Some s -> Out_channel.with_open_bin dst (fun oc -> output_string oc s)
    | None -> failwith ("cannot read " ^ src)
  in
  (* One open: recovery re-validates every certificate, so a cold
     journal of a few hundred records takes seconds. *)
  copy_file journal copy;
  let open_s, stats, records =
    let r, s = timed (fun () -> Spans.with_ "store.open" (fun () -> Serve.Store.open_ ~path:copy)) in
    match r with
    | Ok (st, records) ->
        let stats = Serve.Store.stats st in
        Serve.Store.close st;
        (s, stats, records)
    | Error e -> failwith ("store replay: " ^ e)
  in
  if Sys.file_exists fresh then Sys.remove fresh;
  let appends, compactions =
    match Serve.Store.open_ ~path:fresh with
    | Error e -> failwith ("store replay: " ^ e)
    | Ok (st, _) ->
        let a =
          List.map
            (fun (key, answer) ->
              snd (timed (fun () -> Spans.with_ "store.append" (fun () -> Serve.Store.append st ~key answer))))
            records
        in
        let c = (Serve.Store.stats st).Serve.Store.compactions in
        Serve.Store.close st;
        (Array.of_list a, c)
  in
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ copy; fresh ];
  [
    ("store.open_s", open_s);
    ("store.recovered", float_of_int stats.Serve.Store.recovered);
    ("store.dropped", float_of_int stats.Serve.Store.dropped);
    ("store.append_ms", if Array.length appends = 0 then 0. else 1e3 *. Bstats.median appends);
    ("store.file_bytes", float_of_int (Unix.stat journal).Unix.st_size);
    ("store.compactions", float_of_int compactions);
  ]

(* ---------- shared workload shape ---------- *)

let setup_reps = 5

let cert_text_bytes (a : P.answer) =
  match a with
  | P.Certified { cert = Some c; _ } ->
      String.length (Cert.Verdict.to_dimacs c)
      + (match Cert.Verdict.to_drup c with Some d -> String.length d | None -> 0)
  | _ -> 0

(* Runs [f] against a measured daemon and returns its result with
   [setup_reps] start-to-ready times: two starts (and stops) before the
   measured daemon, its own start, and two after it stopped, so that the
   median samples the host over the whole run. [cycle_store] is the
   journal the extra starts use; [before] runs ahead of every start. *)
let with_measured_daemon ~before ~sock ~workers ~cache ~store ~cycle_store f =
  let cycle () =
    before ();
    let d, s = spawn ~sock ~workers ~cache ~store:cycle_store () in
    stop d;
    s
  in
  let pre = List.init ((setup_reps - 1) / 2) (fun _ -> cycle ()) in
  before ();
  let d, s0 = spawn ~sock ~workers ~cache ~store () in
  let r = Fun.protect ~finally:(fun () -> stop d) (fun () -> f d) in
  let post = List.init (setup_reps - 1 - List.length pre) (fun _ -> cycle ()) in
  (r, Array.of_list (pre @ (s0 :: post)))

let paper_pipeline ~trace =
  if trace then Layers.pipeline_stages Fannet.Pipeline.default_config
  else (Fannet.Pipeline.run (), [])

(* The two measured halves of a traced run, or one untraced phase. The
   traced half records client spans; the overhead compares the two. *)
let phases ~trace ~seconds run =
  if not trace then [ run seconds ]
  else begin
    let a = run (seconds /. 2.) in
    Spans.enable ();
    let b = run (seconds /. 2.) in
    [ a; b ]
  end

let overhead_pct traced untraced =
  if Array.length traced = 0 || Array.length untraced = 0 then 0.
  else 100. *. (Bstats.median traced -. Bstats.median untraced) /. Bstats.median untraced

(* Replays of the compute layers with the Obs registry on: certify
   (SAT with DRUP logging, then the independent check) and exact counts. *)
let compute_replay ~net_of (certs : Gen.item list) (counts : Gen.item list) =
  Obs.Report.reset ();
  Obs.Report.enable ();
  let solve =
    List.map
      (fun (it : Gen.item) ->
        let a, s = timed (fun () -> Spans.with_ "certify.solve" (fun () -> execute (net_of it.target) it.query)) in
        let _, c = timed (fun () -> check_cert (net_of it.target) it.query a) in
        (s, c, cert_text_bytes a))
      certs
  in
  let count =
    List.map
      (fun (it : Gen.item) ->
        snd (timed (fun () -> Spans.with_ "count.exact" (fun () -> execute (net_of it.target) it.query))))
      counts
  in
  let reg = Layers.registry_metrics ~units:(max 1 (List.length counts)) in
  Obs.Report.disable ();
  let med f l = if l = [] then 0. else Bstats.median (Array.of_list (List.map f l)) in
  [
    ("certify.solve_ms", 1e3 *. med (fun (s, _, _) -> s) solve);
    ("cert.check_ms", 1e3 *. med (fun (_, c, _) -> c) solve);
    ("cert.proof_bytes", med (fun (_, _, b) -> float_of_int b) solve);
    ("count.exact_ms", 1e3 *. med Fun.id count);
  ]
  @ List.filter
      (fun (n, _) ->
        List.mem n [ "sat.conflicts"; "sat.propagations"; "smtlite.clauses_per_query"; "count.cubes"; "count.solver_calls" ])
      reg

(* Counters from the daemon's own fannet.obs/1 snapshot (its registry
   is always on), per decided plain reply. *)
let obs_counter obs name =
  let ( >>= ) o k = Option.bind o (Util.Json.member k) in
  match Some obs >>= "metrics" >>= "counters" >>= name with
  | Some (Util.Json.Int n) -> float_of_int n
  | Some (Util.Json.Float f) -> f
  | _ -> 0.

let daemon_metrics (stats : P.server_stats) obs ~plain_replies =
  let lookups = stats.cache_hits + stats.cache_misses in
  let per x = if plain_replies = 0 then 0. else x /. float_of_int plain_replies in
  let hits = obs_counter obs "backend.cascade.interval_hits"
  and esc = obs_counter obs "backend.cascade.escalations" in
  [
    ("tolerance.probes", per (obs_counter obs "tolerance.probes"));
    ("backend.cascade.interval_hits", per hits);
    ("backend.cascade.escalations", per esc);
    ("backend.cascade.hit_ratio", if hits +. esc = 0. then 0. else hits /. (hits +. esc));
    ("lru.hits", float_of_int stats.cache_hits);
    ("lru.misses", float_of_int stats.cache_misses);
    ("lru.hit_ratio", if lookups = 0 then 0. else float_of_int stats.cache_hits /. float_of_int lookups);
    ("lru.entries", float_of_int stats.cache_len);
    ("serve.rejected", float_of_int stats.rejected);
    ("serve.failed", float_of_int stats.failed);
  ]

let codec_metrics ~plain_p50_ms logs =
  let raws kind = Array.to_list logs |> List.concat_map (fun l -> List.filter_map (fun (k, r) -> if k = kind then Some r else None) !(l.raws)) in
  let pe, pd, pb = codec_replay (raws Gen.Plain) in
  let ce, cd, cb = codec_replay (raws Gen.Cert) in
  [
    ("protocol.encode_plain_us", 1e6 *. pe);
    ("protocol.decode_plain_us", 1e6 *. pd);
    ("protocol.encode_cert_ms", 1e3 *. ce);
    ("protocol.decode_cert_ms", 1e3 *. cd);
    ("reply.plain_bytes", pb);
    ("reply.cert_bytes", cb);
    ("serve.plain_other_ms", plain_p50_ms -. (1e3 *. (pe +. pd)));
  ]

let accounting_gate (s : P.server_stats) =
  ("served + rejected + failed = submitted", s.served + s.rejected + s.failed = s.submitted)

let keep_raw (log : client_log) kind raw ~cap =
  if List.length (List.filter (fun (k, _) -> k = kind) !(log.raws)) < cap then
    log.raws := (kind, raw) :: !(log.raws)

let e2e_rows ~workload ~setup_times ~peak ~qps ~n_decided logs =
  let plain = latencies logs Gen.Plain and cert = latencies logs Gen.Cert and count = latencies logs Gen.Count in
  let r name a p = Ledger.row ~samples:(Array.length a) name "ms" (pct a p) in
  [
    Ledger.row ~samples:setup_reps "setup_s (daemon start to ready)" "s" (Some (Bstats.median setup_times));
    Ledger.row "peak_rss_mb (daemon)" "MB" (Some peak);
    Ledger.row ~samples:n_decided "qps (decided replies/s)" "1/s" (Some qps);
    r "plain_p50_ms" plain 50.;
    r "plain_p90_ms" plain 90.;
  ]
  @ (if workload = "serve-hot" then [ r "plain_p99_ms" plain 99. ] else [])
  @ [ r "cert_p50_ms" cert 50.; r "cert_p90_ms" cert 90. ]
  @ (if workload = "serve-cold" then [ r "count_p50_ms" count 50. ] else [])
  @ Ledger.tail_row "plain" ~unit_:"ms" ~scale:1. plain
  @ Ledger.tail_row "cert" ~unit_:"ms" ~scale:1. cert
  @ if workload = "serve-cold" then Ledger.tail_row "count" ~unit_:"ms" ~scale:1. count else []

let outcome ~workload ~seed ~trace ~nproc ~gates ~logs ~extra_facts ~metrics ~rows =
  let attempted = sum (fun l -> l.sent) logs and failed = sum (fun l -> l.bad) logs in
  {
    Ledger.correct = List.for_all snd gates && failed = 0;
    attempted = max 1 attempted;
    failed;
    metrics;
    rows;
    facts =
      Host.facts ~workload ~seed ~trace
        ~extra:([ ("workers", Util.Json.Int nproc); ("clients", Util.Json.Int nproc) ] @ extra_facts);
    gates;
  }

(* The gated slots: [light] is the cheaper of the workload's two timed
   classes (plain hits on serve-hot, exact counts on serve-cold), heavy
   is certified replies on both. *)
let e2e ~light ~setup_times ~peak ~qps logs =
  [
    ("setup_s", Bstats.median setup_times);
    ("peak_rss_mb", peak);
    ("ops_per_s", qps);
    ("light_p50_ms", p50 (latencies logs light));
    ("heavy_p50_ms", p50 (latencies logs Gen.Cert));
  ]

(* ---------- serve-hot ---------- *)

let hot ~seed ~seconds ~trace ~nproc =
  let dir = work_dir () in
  let p, stage_metrics = paper_pipeline ~trace in
  let paper = p.Fannet.Pipeline.qnet and e20 = Gen.e20_net () in
  let net_of = function Gen.Paper -> paper | Gen.E20 -> e20 in
  let items = Gen.hot_set ~seed ~paper_inputs:(Fannet.Pipeline.analysis_inputs p) in
  let n_items = Array.length items in
  let sock = Filename.concat dir "hot.sock" and store = Filename.concat dir "hot.store" in
  if Sys.file_exists store then Sys.remove store;
  let workers = nproc and cache = 64 * 1024 * 1024 in
  (* 1. A first daemon computes the hot set into the journal. *)
  let d0, _ = spawn ~sock ~workers ~cache ~store () in
  let first =
    Fun.protect ~finally:(fun () -> stop d0) @@ fun () ->
    let c = connect sock in
    Fun.protect ~finally:(fun () -> close c) @@ fun () ->
    let dp = load c paper and de = load c e20 in
    let digest_of = function Gen.Paper -> dp | Gen.E20 -> de in
    Array.map
      (fun (it : Gen.item) ->
        match rpc c (P.Query { digest = digest_of it.target; query = it.query; budget = P.no_budget }) with
        | Ok (_, P.Answer { cached = false; answer }) when P.answer_decided answer -> answer
        | Ok (raw, _) -> failwith ("serve-hot: hot query not computed: " ^ String.sub raw 0 (min 200 (String.length raw)))
        | Error e -> failwith ("serve-hot: " ^ e))
      items
  in
  let certs_ok =
    Array.for_all2
      (fun (it : Gen.item) a -> Gen.kind_of it.query <> Gen.Cert || check_cert (net_of it.target) it.query a)
      items first
  in
  let reference =
    Array.map
      (fun a ->
        let s = P.encode_reply { P.rid = 1; reply = P.Answer { cached = true; answer = a } } in
        let i = after_id s in
        String.sub s i (String.length s - i))
      first
  in
  (* 2. Restarts on that journal: Store recovery plus certificate
     re-validation, measured as start-to-ready. *)
  let (logs, runs, stats, obs, peak), setup_times =
    with_measured_daemon ~before:ignore ~sock ~workers ~cache ~store ~cycle_store:store @@ fun d ->
  let ctl = connect sock in
  Fun.protect ~finally:(fun () -> close ctl) @@ fun () ->
  let dp = load ctl paper and de = load ctl e20 in
  let digest_of = function Gen.Paper -> dp | Gen.E20 -> de in
  let step k c (log : client_log) =
    let idx = (k + log.sent) mod n_items in
    let it = items.(idx) in
    (match one ~log c ~digest_of it with
    | Some (raw, cached, _) ->
        if not (cached && same_tail raw ~reference:reference.(idx)) then log.mismatch <- log.mismatch + 1;
        let kind = Gen.kind_of it.query in
        keep_raw log kind raw ~cap:(if kind = Gen.Cert then 4 else 32)
    | None -> ());
    true
  in
  (* Warm-up: every client asks the whole hot set once. *)
  let _ = load_phase ~sock ~clients:nproc ~seconds:60. (fun k c log -> ignore (step k c log); log.sent < n_items) in
  let runs = phases ~trace ~seconds (fun s -> load_phase ~sock ~clients:nproc ~seconds:s step) in
  let stats, obs = server_stats ctl in
  (Array.concat (List.map fst runs), runs, stats, obs, Host.peak_rss_mb d.pid)
  in
  let measured_s = List.fold_left (fun acc (_, s) -> acc +. s) 0. runs in
  let qps = float_of_int (decided logs) /. measured_s in
  let gates =
    [
      ("every certified reply passes check_certified", certs_ok);
      ("every reply is a cache hit with the first answer's bytes", sum (fun l -> l.mismatch) logs = 0);
      ("the measured daemon never missed its cache", stats.cache_misses = 0);
      accounting_gate stats;
    ]
  in
  let metrics =
    if not trace then e2e ~light:Gen.Plain ~setup_times ~peak ~qps logs
    else begin
      let a, b = match runs with [ (a, _); (b, _) ] -> (a, b) | _ -> assert false in
      let plain_p50_ms = p50 (latencies b Gen.Plain) in
      let plain_inputs =
        Array.to_list items
        |> List.filter_map (fun (it : Gen.item) ->
               match it.query with
               | P.Exists_flip { input; label; _ } | P.Tolerance { input; label; _ } | P.Sensitivity { input; label; _ } ->
                   Some (input, label)
               | _ -> None)
        |> Array.of_list
      in
      let bnb, _ = Layers.bnb_replay paper plain_inputs in
      let certs = List.filter (fun (it : Gen.item) -> Gen.kind_of it.query = Gen.Cert) (Array.to_list items) in
      Layers.complete
        (stage_metrics @ bnb
        @ compute_replay ~net_of certs []
        @ codec_metrics ~plain_p50_ms b
        @ daemon_metrics stats obs ~plain_replies:(Array.length (latencies logs Gen.Plain))
        @ store_replay store
        @ [
            ("trace.light_overhead_pct", overhead_pct (latencies b Gen.Plain) (latencies a Gen.Plain));
            ("trace.heavy_overhead_pct", overhead_pct (latencies b Gen.Cert) (latencies a Gen.Cert));
          ])
    end
  in
  if Sys.file_exists store then Sys.remove store;
  outcome ~workload:"serve-hot" ~seed ~trace ~nproc ~gates ~logs
    ~extra_facts:
      [ ("hot_set_digest", Util.Json.String (Gen.digest items)); ("hot_set_size", Util.Json.Int n_items);
        ("cache_bytes", Util.Json.Int cache) ]
    ~metrics
    ~rows:(e2e_rows ~workload:"serve-hot" ~setup_times ~peak ~qps ~n_decided:(decided logs) logs)

(* ---------- serve-cold ---------- *)

let cold_cache = 2 * 1024 * 1024
let cold_warmup = 8
let plain_sample = 8
let count_sample = 2
let cert_replay = 6

let cold ~seed ~seconds ~trace ~nproc =
  let dir = work_dir () in
  let p, stage_metrics = paper_pipeline ~trace in
  let paper = p.Fannet.Pipeline.qnet and e20 = Gen.e20_net () in
  let net_of = function Gen.Paper -> paper | Gen.E20 -> e20 in
  (* Far more distinct queries than a run can use: ~20 qps expected. *)
  let n = cold_warmup + max 400 (int_of_float (seconds *. 60.)) in
  let items =
    Gen.cold_list ~seed ~paper_net:paper ~paper_inputs:(Fannet.Pipeline.analysis_inputs p) ~n
  in
  let sock = Filename.concat dir "cold.sock" and store = Filename.concat dir "cold.store" in
  let cycle_store = Filename.concat dir "cold-setup.store" in
  let workers = nproc in
  let fresh_store () = if Sys.file_exists cycle_store then Sys.remove cycle_store in
  if Sys.file_exists store then Sys.remove store;
  let (stats, obs, peak, all_logs, runs, replies), setup_times =
    with_measured_daemon ~before:fresh_store ~sock ~workers ~cache:cold_cache ~store ~cycle_store
    @@ fun d ->
    let ctl = connect sock in
    Fun.protect ~finally:(fun () -> close ctl) @@ fun () ->
    let dp = load ctl paper and de = load ctl e20 in
    let digest_of = function Gen.Paper -> dp | Gen.E20 -> de in
    let next = Atomic.make 0 in
    (* Every reply's index and bytes: certified ones are all re-checked,
       a seeded sample of the rest recomputed in-process. *)
    let replies = Array.make n None in
    let step _ c (log : client_log) =
      let idx = Atomic.fetch_and_add next 1 in
      if idx >= n then false
      else begin
        (match one ~log c ~digest_of items.(idx) with
        | Some (raw, cached, _) ->
            if cached then log.mismatch <- log.mismatch + 1;
            let kind = Gen.kind_of items.(idx).query in
            if idx >= cold_warmup then replies.(idx) <- Some raw;
            keep_raw log kind raw ~cap:(if kind = Gen.Plain then 32 else 4)
        | None -> ());
        true
      end
    in
    let warm, _ =
      load_phase ~sock ~clients:nproc ~seconds:60. (fun k c log -> step k c log && Atomic.get next < cold_warmup)
    in
    let runs = phases ~trace ~seconds (fun s -> load_phase ~sock ~clients:nproc ~seconds:s step) in
    let stats, obs = server_stats ctl in
    (stats, obs, Host.peak_rss_mb d.pid, warm :: List.map fst runs, runs, replies)
  in
  let logs = Array.concat (List.map fst runs) in
  let measured_s = List.fold_left (fun acc (_, s) -> acc +. s) 0. runs in
  let qps = float_of_int (decided logs) /. measured_s in
  let answered kind =
    List.filter_map
      (fun i ->
        match replies.(i) with
        | Some raw when Gen.kind_of items.(i).query = kind -> (
            match P.decode_reply raw with
            | Ok { P.reply = P.Answer { answer; _ }; _ } -> Some (i, answer)
            | _ -> None)
        | _ -> None)
      (List.init n Fun.id)
  in
  let certs = answered Gen.Cert in
  let certs_ok = List.for_all (fun (i, a) -> check_cert e20 items.(i).query a) certs in
  (* Seeded samples: recompute through the library, compare the bytes. *)
  let sample kind k =
    let l = Array.of_list (answered kind) in
    Util.Rng.shuffle (Util.Rng.create (seed + 17)) l;
    Array.to_list (Array.sub l 0 (min k (Array.length l)))
  in
  let agrees (i, a) =
    let it = items.(i) in
    answer_bytes (Spans.with_ "replay.execute" (fun () -> execute (net_of it.target) it.query)) = answer_bytes a
  in
  let plains = sample Gen.Plain plain_sample and counts = sample Gen.Count count_sample in
  let gates =
    [
      ("every certified reply passes check_certified", certs <> [] && certs_ok);
      ("sampled plain verdicts agree with the library", plains <> [] && List.for_all agrees plains);
      ("sampled exact counts agree with the library", counts <> [] && List.for_all agrees counts);
      ("no cold query was served from the cache", sum (fun l -> l.mismatch) logs = 0);
      accounting_gate stats;
    ]
  in
  let metrics =
    if not trace then e2e ~light:Gen.Count ~setup_times ~peak ~qps logs
    else begin
      let a, b = match runs with [ (a, _); (b, _) ] -> (a, b) | _ -> assert false in
      let plain_p50_ms = p50 (latencies b Gen.Plain) in
      let plain_inputs =
        Array.to_list items
        |> List.filter_map (fun (it : Gen.item) ->
               match it.query with
               | P.Tolerance { input; label; _ } -> Some (input, label)
               | _ -> None)
        |> List.filteri (fun i _ -> i < 25)
        |> Array.of_list
      in
      let bnb, _ = Layers.bnb_replay paper plain_inputs in
      let pick kind k =
        List.filteri (fun i _ -> i < k) (List.map (fun (i, _) -> items.(i)) (sample kind k))
      in
      Layers.complete
        (stage_metrics @ bnb
        @ compute_replay ~net_of (pick Gen.Cert cert_replay) (pick Gen.Count count_sample)
        @ codec_metrics ~plain_p50_ms b
        @ daemon_metrics stats obs
            ~plain_replies:(Array.length (latencies (Array.concat all_logs) Gen.Plain))
        @ store_replay store
        @ [
            ("trace.light_overhead_pct", overhead_pct (latencies b Gen.Count) (latencies a Gen.Count));
            ("trace.heavy_overhead_pct", overhead_pct (latencies b Gen.Cert) (latencies a Gen.Cert));
          ])
    end
  in
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ store; cycle_store ];
  outcome ~workload:"serve-cold" ~seed ~trace ~nproc ~gates ~logs
    ~extra_facts:
      [ ("query_list_digest", Util.Json.String (Gen.digest items)); ("query_list_size", Util.Json.Int n);
        ("cache_bytes", Util.Json.Int cold_cache) ]
    ~metrics
    ~rows:
      (e2e_rows ~workload:"serve-cold" ~setup_times ~peak ~qps ~n_decided:(decided logs) logs
      @ [ Ledger.row ~samples:(List.length certs) "certified replies re-checked" "count" (Some (float_of_int (List.length certs))) ])
