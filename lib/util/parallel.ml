let override : int option Atomic.t = Atomic.make None

let set_default_jobs n = Atomic.set override (Option.map (max 1) n)

let env_jobs () =
  match Sys.getenv_opt "FANNET_JOBS" with
  | None -> None
  | Some s -> ( match int_of_string_opt s with Some n when n >= 1 -> Some n | _ -> None)

let default_jobs () =
  match Atomic.get override with
  | Some n -> n
  | None -> (
      match env_jobs () with
      | Some n -> n
      | None -> max 1 (Domain.recommended_domain_count ()))

let resolve ?jobs len =
  let j = match jobs with Some n -> max 1 n | None -> default_jobs () in
  max 1 (min j len)

(* Contiguous chunk bounds [lo, hi) covering [0, len); at most [jobs]
   chunks, sized within one element of each other. These only seed the
   per-worker ranges — stealing redistributes the tail at run time. *)
let chunk_bounds ~jobs len =
  let base = len / jobs and extra = len mod jobs in
  Array.init jobs (fun k ->
      let lo = (k * base) + min k extra in
      let hi = lo + base + if k < extra then 1 else 0 in
      (lo, hi))

type worker_stat = { busy_s : float; items : int; steals : int }

type probe = {
  now_s : unit -> float;
  record : stats:worker_stat array -> unit;
}

let probe : probe option Atomic.t = Atomic.make None

let set_probe p = Atomic.set probe p

(* ------------------------------------------------------------------ *)
(* The pool: the only place this codebase spawns a domain.             *)
(*                                                                     *)
(* One mutex guards one FIFO task queue, the live domain count and the *)
(* resident count that servers raise with [reserve]. Resident          *)
(* domains sleep on one condition when idle. Nothing starts the pool   *)
(* for [jobs = 1] or an empty range, because OCaml 5 refuses           *)
(* [Unix.fork] once any domain has ever existed, and the daemon's      *)
(* supervisor forks its workers first.                                 *)
(*                                                                     *)
(* Domains above the resident count do not sleep. Every domain, idle   *)
(* or not, takes part in each stop-the-world minor collection, and on  *)
(* a 2-core host one sleeping domain slowed the paper-analysis         *)
(* benchmark by a fifth. So a surplus domain that runs out of tasks    *)
(* spins for about the cost of a spawn and join, which lets            *)
(* back-to-back batches reuse it, and then exits. Nothing joins it.    *)
(* ------------------------------------------------------------------ *)

let pool_lock = Mutex.create ()

let pool_work = Condition.create ()

let tasks : (unit -> unit) Queue.t = Queue.create ()

(* Under [pool_lock]: live domains, and how many of them stay resident. *)
let width = ref 0

let resident = ref 0

let linger_cpu_s = 0.0015

let on_pool_domain : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let rec serve ~lingered =
  Mutex.lock pool_lock;
  match Queue.take_opt tasks with
  | Some task ->
      Mutex.unlock pool_lock;
      (* Tasks own their exceptions ([run] and batches transport them);
         a stray raise from a fire-and-forget task must not kill the
         domain. *)
      (try task () with _ -> ());
      serve ~lingered:false
  | None when !width <= !resident ->
      Condition.wait pool_work pool_lock;
      Mutex.unlock pool_lock;
      serve ~lingered:false
  | None when lingered ->
      decr width;
      Mutex.unlock pool_lock
  | None ->
      Mutex.unlock pool_lock;
      (* Process CPU time advances at least as fast as this spin. The
         unlocked emptiness test may be stale; it only decides when to
         look again under the lock. *)
      let until = Sys.time () +. linger_cpu_s in
      while Queue.is_empty tasks && Sys.time () < until do
        Domain.cpu_relax ()
      done;
      serve ~lingered:true

(* Batches and races never grow the pool past the core count: surplus
   helpers just queue, and their ranges are stolen, so results do not
   change. *)
let batch_width_cap = max 1 (Domain.recommended_domain_count () - 1)

(* Grow to [width] live domains and queue [batch] under one lock hold, so
   no domain can retire between the two and strand a task. *)
let enqueue ~width:n batch =
  Mutex.lock pool_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock pool_lock) @@ fun () ->
  while !width < n do
    ignore
      (Domain.spawn (fun () ->
           Domain.DLS.set on_pool_domain true;
           serve ~lingered:false));
    incr width
  done;
  List.iter
    (fun task ->
      Queue.push task tasks;
      Condition.signal pool_work)
    batch

let reserve n =
  Mutex.lock pool_lock;
  resident := !resident + n;
  let r = !resident in
  Mutex.unlock pool_lock;
  enqueue ~width:r []

let release n =
  Mutex.lock pool_lock;
  resident := max 0 (!resident - n);
  (* Sleeping domains wake to find out whether they are now surplus. *)
  Condition.broadcast pool_work;
  Mutex.unlock pool_lock

let submit task = enqueue ~width:1 [ task ]

let run f =
  if Domain.DLS.get on_pool_domain then f ()
  else begin
    let m = Mutex.create () and c = Condition.create () and cell = ref None in
    submit (fun () ->
        let r = try Ok (f ()) with e -> Error e in
        Mutex.lock m;
        cell := Some r;
        Condition.signal c;
        Mutex.unlock m);
    Mutex.lock m;
    while Option.is_none !cell do
      Condition.wait c m
    done;
    Mutex.unlock m;
    match Option.get !cell with Ok v -> v | Error e -> raise e
  end

(* ------------------------------------------------------------------ *)
(* Work-stealing batch engine.                                         *)
(*                                                                     *)
(* Every worker owns a range atom holding a [(lo, hi)] pair of indices *)
(* still to process, seeded with the contiguous chunk bounds above.    *)
(* The owner pops the front item by CASing [(lo, hi)] to [(lo+1, hi)]; *)
(* a worker whose range is empty scans the other workers and steals    *)
(* the upper half of the first non-empty range it finds, CASing the    *)
(* victim down to [(lo, mid)] and installing [(mid, hi)] as its own.   *)
(* Tuples are freshly allocated on every transition, so the CAS (which *)
(* compares physically) can never suffer ABA.                          *)
(*                                                                     *)
(* Each item's result is written at its original index, so the output  *)
(* is identical to the sequential order whatever the steal schedule —  *)
(* the jobs=1 ≡ jobs=N contract survives the dynamic split.            *)
(*                                                                     *)
(* The caller is worker 0 and queues one helper task per other worker. *)
(* A helper that is dequeued after the caller has closed the batch     *)
(* returns at once; the caller waits only for helpers that started.    *)
(* Their ranges are stolen like any other, so a batch whose helpers    *)
(* never start (every pool domain busy, or the batch nested inside a   *)
(* pool task) completes on the caller alone and cannot deadlock.       *)
(*                                                                     *)
(* Exceptions never short-circuit the batch: a failing item records    *)
(* [(index, exn)] (lowest index wins, resolved by CAS) and the batch   *)
(* keeps processing every other item, so by the time the exception     *)
(* re-raises every non-failing element has run to completion and every *)
(* started helper has finished. The winning exception is therefore     *)
(* deterministic — it belongs to the lowest-indexed failing item, not  *)
(* to whichever domain failed first in time.                           *)
(* ------------------------------------------------------------------ *)

let run_batch ?(probe = Atomic.get probe) ~workers ?(should_stop = fun () -> false)
    len f =
  let ranges = Array.map Atomic.make (chunk_bounds ~jobs:workers len) in
  let failure : (int * exn) option Atomic.t = Atomic.make None in
  let rec note_failure i e =
    match Atomic.get failure with
    | Some (j, _) when j <= i -> ()
    | cur ->
        if not (Atomic.compare_and_set failure cur (Some (i, e))) then
          note_failure i e
  in
  let stats = Array.make workers { busy_s = 0.; items = 0; steals = 0 } in
  let worker k =
    let busy = ref 0. and items = ref 0 and steals = ref 0 in
    let mine = ranges.(k) in
    let run_item i =
      (match probe with
      | None -> ( try f i with e -> note_failure i e)
      | Some p ->
          let t0 = p.now_s () in
          (try f i with e -> note_failure i e);
          busy := !busy +. (p.now_s () -. t0));
      incr items
    in
    let rec pop_own () =
      let (lo, hi) as cur = Atomic.get mine in
      if lo >= hi then false
      else if Atomic.compare_and_set mine cur (lo + 1, hi) then begin
        run_item lo;
        true
      end
      else pop_own ()
    in
    (* Scan victims in a fixed order starting after ourselves; the first
       worker with at least one pending item loses its upper half. A CAS
       failure means the victim's range just moved — retry it before
       moving on, so a losing race never skips available work. *)
    let try_steal () =
      let rec attempt victim =
        let (lo, hi) as cur = Atomic.get victim in
        if hi - lo <= 0 then false
        else
          let mid = lo + ((hi - lo) / 2) in
          if Atomic.compare_and_set victim cur (lo, mid) then begin
            Atomic.set mine (mid, hi);
            incr steals;
            true
          end
          else attempt victim
      in
      let rec scan off =
        if off >= workers then false
        else
          let v = (k + off) mod workers in
          if attempt ranges.(v) then true else scan (off + 1)
      in
      scan 1
    in
    let rec loop () =
      if should_stop () then ()
      else if pop_own () then loop ()
      else if try_steal () then loop ()
      else ()
    in
    (* A raising [should_stop] ranks after every item's exception. *)
    (try loop () with e -> note_failure len e);
    stats.(k) <- { busy_s = !busy; items = !items; steals = !steals }
  in
  let lock = Mutex.create () and finished = Condition.create () in
  let closed = ref false and running = ref 0 in
  let helper k () =
    Mutex.lock lock;
    let start = not !closed in
    if start then incr running;
    Mutex.unlock lock;
    if start then begin
      worker k;
      Mutex.lock lock;
      decr running;
      if !running = 0 then Condition.signal finished;
      Mutex.unlock lock
    end
  in
  if workers > 1 then
    enqueue
      ~width:(min (workers - 1) batch_width_cap)
      (List.init (workers - 1) (fun j -> helper (j + 1)));
  worker 0;
  (* Closing under [lock] also orders every started helper's writes
     (its [stats] entry, the caller's output array) before the reads
     below and in the caller. *)
  Mutex.lock lock;
  closed := true;
  while !running > 0 do
    Condition.wait finished lock
  done;
  Mutex.unlock lock;
  (match probe with None -> () | Some p -> p.record ~stats);
  match Atomic.get failure with Some (_, e) -> raise e | None -> ()

let extract out =
  Array.map (function Some v -> v | None -> assert false) out

let mapi ?jobs f arr =
  let len = Array.length arr in
  let workers = resolve ?jobs len in
  if workers = 1 then Array.mapi f arr
  else begin
    let out = Array.make len None in
    run_batch ~workers len (fun i -> out.(i) <- Some (f i arr.(i)));
    extract out
  end

let map ?jobs f arr = mapi ?jobs (fun _ x -> f x) arr

(* The [Some]-results of [out], in index order. *)
let somes out =
  Array.fold_right (fun o acc -> match o with Some y -> y :: acc | None -> acc) out []

let filter_mapi ?jobs f arr = somes (mapi ?jobs f arr)

let filter_map ?jobs f arr = filter_mapi ?jobs (fun _ x -> f x) arr

(* Poll [stop] before each element; once any worker observes [stop] the
   whole batch drains and returns [Error ()] — a sentinel, not an
   exception, so a genuine worker exception is never masked by a
   concurrent stop (the batch re-raises it first). *)

let map_until ?jobs ~stop f arr =
  let len = Array.length arr in
  let workers = resolve ?jobs len in
  let out = Array.make len None in
  let item i = out.(i) <- Some (f i arr.(i)) in
  let completed =
    if workers = 1 then
      let rec go i = i >= len || ((not (stop ())) && (item i; go (i + 1))) in
      go 0
    else begin
      let stopped = Atomic.make false in
      let should_stop () =
        Atomic.get stopped || (stop () && (Atomic.set stopped true; true))
      in
      run_batch ~workers ~should_stop len item;
      not (Atomic.get stopped)
    end
  in
  if completed then Ok (extract out) else Error ()

let exists ?jobs p arr =
  let len = Array.length arr in
  let workers = resolve ?jobs len in
  if workers = 1 then Array.exists p arr
  else begin
    let found = Atomic.make false in
    run_batch ~workers
      ~should_stop:(fun () -> Atomic.get found)
      len
      (fun i -> if p arr.(i) then Atomic.set found true);
    Atomic.get found
  end

(* ------------------------------------------------------------------ *)
(* Racing: a batch of one item per thunk, first normal return wins.    *)
(* ------------------------------------------------------------------ *)

let race ~cancel thunks =
  let n = Array.length thunks in
  if n = 0 then invalid_arg "Parallel.race: no thunks";
  let winner = Atomic.make (-1) in
  let outcomes = Array.make n None in
  run_batch ~probe:None ~workers:n n (fun k ->
      let r = match thunks.(k) () with v -> Ok v | exception e -> Error e in
      outcomes.(k) <- Some r;
      match r with
      | Ok _ ->
          if Atomic.compare_and_set winner (-1) k then ( try cancel () with _ -> ())
      | Error _ -> ());
  let outcomes =
    Array.map (function Some r -> r | None -> assert false) outcomes
  in
  match Atomic.get winner with
  | -1 -> (
      (* Every thunk raised: propagate the lowest-indexed exception. *)
      match outcomes.(0) with Error e -> raise e | Ok _ -> assert false)
  | k ->
      let v = match outcomes.(k) with Ok v -> v | Error _ -> assert false in
      ((k, v), outcomes)
