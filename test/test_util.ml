(* Tests for the util library: RNG determinism/distribution, statistics,
   and table rendering. *)

let test_rng_determinism () =
  let a = Util.Rng.create 42 in
  let b = Util.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Util.Rng.int64 a) (Util.Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Util.Rng.create 1 in
  let b = Util.Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Util.Rng.int64 a = Util.Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_copy_independent () =
  let a = Util.Rng.create 7 in
  ignore (Util.Rng.int64 a);
  let b = Util.Rng.copy a in
  let va = Util.Rng.int64 a in
  let vb = Util.Rng.int64 b in
  Alcotest.(check int64) "copy continues identically" va vb

let test_rng_split_independent () =
  let a = Util.Rng.create 7 in
  let b = Util.Rng.split a in
  let xs = Array.init 32 (fun _ -> Util.Rng.int64 a) in
  let ys = Array.init 32 (fun _ -> Util.Rng.int64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_rng_int_range () =
  let rng = Util.Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Util.Rng.int rng 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done

let test_rng_int_in_bounds () =
  let rng = Util.Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Util.Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in closed range" true (v >= -5 && v <= 5)
  done

let test_rng_int_in_hits_extremes () =
  let rng = Util.Rng.create 5 in
  let seen_lo = ref false and seen_hi = ref false in
  for _ = 1 to 2000 do
    let v = Util.Rng.int_in rng (-3) 3 in
    if v = -3 then seen_lo := true;
    if v = 3 then seen_hi := true
  done;
  Alcotest.(check bool) "lower bound reachable" true !seen_lo;
  Alcotest.(check bool) "upper bound reachable" true !seen_hi

let test_rng_int_uniformity () =
  (* 10k draws over 10 buckets: expected count 1000 per bucket, standard
     deviation ~30, so +-200 is a >6-sigma band. Catches gross defects
     (always-even values, truncated draws, sign bugs); SplitMix64 itself
     passes far stricter batteries. The modulo bias documented in rng.mli
     is ~bound/2^62 per value — invisible at this sample size. *)
  let rng = Util.Rng.create 23 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Util.Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d near uniform (got %d)" i c)
        true
        (c > 800 && c < 1200))
    buckets

let test_rng_float_unit_interval () =
  let rng = Util.Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Util.Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0. && v < 1.)
  done

let test_rng_gaussian_moments () =
  let rng = Util.Rng.create 13 in
  let xs = Array.init 20000 (fun _ -> Util.Rng.gaussian rng) in
  let mean = Util.Stats.mean xs in
  let std = Util.Stats.std xs in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "std near 1" true (Float.abs (std -. 1.) < 0.05)

let test_rng_shuffle_permutes () =
  let rng = Util.Rng.create 17 in
  let a = Array.init 50 (fun i -> i) in
  let orig = Array.copy a in
  Util.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check bool) "is a permutation" true (sorted = orig);
  Alcotest.(check bool) "usually not identity" true (a <> orig)

let test_stats_mean_variance () =
  let a = [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Util.Stats.mean a);
  Alcotest.(check (float 1e-9)) "variance" 1.25 (Util.Stats.variance a);
  Alcotest.(check (float 1e-9)) "std" (sqrt 1.25) (Util.Stats.std a)

let test_stats_minmax () =
  let a = [| 3.; -1.; 7.; 0. |] in
  Alcotest.(check (float 0.)) "min" (-1.) (Util.Stats.min a);
  Alcotest.(check (float 0.)) "max" 7. (Util.Stats.max a)

let test_stats_median () =
  Alcotest.(check (float 1e-9)) "odd" 2. (Util.Stats.median [| 3.; 1.; 2. |]);
  Alcotest.(check (float 1e-9)) "even" 2.5 (Util.Stats.median [| 4.; 1.; 2.; 3. |])

let test_stats_percentile () =
  let a = [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check (float 1e-9)) "p0" 1. (Util.Stats.percentile a 0.);
  Alcotest.(check (float 1e-9)) "p100" 5. (Util.Stats.percentile a 100.);
  Alcotest.(check (float 1e-9)) "p25" 2. (Util.Stats.percentile a 25.)

let test_stats_pearson () =
  let x = [| 1.; 2.; 3.; 4. |] in
  let y = [| 2.; 4.; 6.; 8. |] in
  Alcotest.(check (float 1e-9)) "perfect +" 1. (Util.Stats.pearson x y);
  let z = [| 8.; 6.; 4.; 2. |] in
  Alcotest.(check (float 1e-9)) "perfect -" (-1.) (Util.Stats.pearson x z);
  let c = [| 5.; 5.; 5.; 5. |] in
  Alcotest.(check (float 1e-9)) "zero variance" 0. (Util.Stats.pearson x c)

let test_stats_histogram () =
  let a = [| 0.1; 0.9; 0.5; -3.; 42. |] in
  let h = Util.Stats.histogram a ~bins:2 ~lo:0. ~hi:1. in
  Alcotest.(check int) "low bucket (incl clamped)" 2 h.(0);
  Alcotest.(check int) "high bucket (incl clamped)" 3 h.(1)

let test_stats_empty_raises () =
  Alcotest.check_raises "mean of empty"
    (Invalid_argument "Stats.mean: empty array") (fun () ->
      ignore (Util.Stats.mean [||]))

let test_stats_nan_rejected () =
  (* Regression: NaN used to sort unpredictably under polymorphic compare
     (skewing percentiles) and to land silently in histogram bucket 0. *)
  let poisoned = [| 1.; Float.nan; 3. |] in
  Alcotest.check_raises "percentile rejects NaN"
    (Invalid_argument "Stats.percentile: NaN in input") (fun () ->
      ignore (Util.Stats.percentile poisoned 50.));
  Alcotest.check_raises "median rejects NaN"
    (Invalid_argument "Stats.percentile: NaN in input") (fun () ->
      ignore (Util.Stats.median poisoned));
  Alcotest.check_raises "histogram rejects NaN"
    (Invalid_argument "Stats.histogram: NaN in input") (fun () ->
      ignore (Util.Stats.histogram poisoned ~bins:2 ~lo:0. ~hi:4.))

let test_stats_percentile_order_independent () =
  (* Float.compare gives rank statistics a fixed IEEE total order: any
     permutation of the input yields the identical percentile. *)
  let a = [| 5.; -0.; 1.; 0.; 3.; 2. |] in
  let b = [| 3.; 0.; 5.; 2.; -0.; 1. |] in
  List.iter
    (fun p ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "p%.0f" p)
        (Util.Stats.percentile a p) (Util.Stats.percentile b p))
    [ 0.; 25.; 50.; 75.; 100. ]

let test_table_render () =
  let t = Util.Table.create ~header:[ "name"; "value" ] in
  Util.Table.add_row t [ "alpha"; "1" ];
  Util.Table.add_row t [ "b"; "22" ];
  let s = Util.Table.to_string t in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "header + sep + 2 rows" 4 (List.length lines);
  (* All lines padded to equal visible width per column. *)
  (match lines with
  | _ :: sep :: _ -> Alcotest.(check bool) "separator dashes" true (String.contains sep '-')
  | _ -> Alcotest.fail "missing separator")

let test_table_row_arity_checked () =
  let t = Util.Table.create ~header:[ "a"; "b" ] in
  Alcotest.check_raises "bad arity"
    (Invalid_argument "Table.add_row: cell count differs from header")
    (fun () -> Util.Table.add_row t [ "only-one" ])

let test_table_int_row () =
  let t = Util.Table.create ~header:[ "k"; "x"; "y" ] in
  Util.Table.add_int_row t "row" [ 1; -2 ];
  let s = Util.Table.to_string t in
  Alcotest.(check bool) "renders ints" true
    (let contains sub =
       let n = String.length s and m = String.length sub in
       let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
       loop 0
     in
     contains "-2")

(* ---------- Parallel ---------- *)

let test_parallel_map_matches_array_map () =
  let arr = Array.init 103 (fun i -> i - 50) in
  let f x = (x * x) - (3 * x) in
  let expected = Array.map f arr in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "map jobs=%d" jobs)
        true
        (Util.Parallel.map ~jobs f arr = expected))
    [ 1; 2; 4 ]

let test_parallel_mapi_order () =
  let arr = Array.init 57 (fun i -> 2 * i) in
  let expected = Array.mapi (fun i x -> (i, x + 1)) arr in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "mapi jobs=%d" jobs)
        true
        (Util.Parallel.mapi ~jobs (fun i x -> (i, x + 1)) arr = expected))
    [ 1; 2; 4; 16 ]

let test_parallel_filter_map_order () =
  let arr = Array.init 101 (fun i -> i) in
  let f x = if x mod 3 = 0 then Some (x * 10) else None in
  let expected = List.filter_map f (Array.to_list arr) in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "filter_map jobs=%d" jobs)
        expected
        (Util.Parallel.filter_map ~jobs f arr))
    [ 1; 2; 4 ]

let test_parallel_exists () =
  let arr = Array.init 200 (fun i -> i) in
  List.iter
    (fun jobs ->
      Alcotest.(check bool) "hit" true
        (Util.Parallel.exists ~jobs (fun x -> x = 137) arr);
      Alcotest.(check bool) "miss" false
        (Util.Parallel.exists ~jobs (fun x -> x > 1000) arr))
    [ 1; 2; 4 ]

let test_parallel_empty_and_small () =
  Alcotest.(check bool) "empty map" true (Util.Parallel.map ~jobs:4 succ [||] = [||]);
  Alcotest.(check (list int)) "empty filter_map" []
    (Util.Parallel.filter_map ~jobs:4 (fun x -> Some x) [||]);
  Alcotest.(check bool) "more jobs than elements" true
    (Util.Parallel.map ~jobs:16 succ [| 1; 2; 3 |] = [| 2; 3; 4 |])

let test_parallel_worker_exception_propagates () =
  let arr = Array.init 64 (fun i -> i) in
  Alcotest.check_raises "re-raised" (Failure "boom") (fun () ->
      ignore (Util.Parallel.map ~jobs:4 (fun x -> if x = 60 then failwith "boom" else x) arr))

let test_parallel_joins_workers_before_reraise () =
  (* Regression: a failing chunk must not leak still-running domains. The
     calling domain's chunk (indices 0-3 at jobs=4) dies immediately while
     the spawned chunks are still sleeping; the pool has to join them all
     before re-raising, so by the time the exception surfaces every
     spawned element has run to completion. The pre-fix code re-raised
     without joining and left the workers mid-flight. *)
  let arr = Array.init 16 (fun i -> i) in
  let finished = Atomic.make 0 in
  (try
     ignore
       (Util.Parallel.map ~jobs:4
          (fun x ->
            if x < 4 then failwith "chunk0 dies"
            else begin
              Unix.sleepf 0.02;
              Atomic.incr finished;
              x
            end)
          arr);
     Alcotest.fail "expected the chunk-0 failure to propagate"
   with Failure m -> Alcotest.(check string) "chunk-0 exception" "chunk0 dies" m);
  Alcotest.(check int) "all spawned elements completed" 12 (Atomic.get finished)

let test_parallel_first_chunk_exception_wins () =
  (* When several chunks fail, the lowest-numbered chunk's exception is
     the one re-raised — even if a later chunk failed first in time. *)
  let arr = Array.init 16 (fun i -> i) in
  Alcotest.check_raises "chunk-order, not time-order" (Failure "early chunk")
    (fun () ->
      ignore
        (Util.Parallel.map ~jobs:4
           (fun x ->
             if x < 4 then begin
               (* Give the later chunks time to fail first. *)
               Unix.sleepf 0.02;
               failwith "early chunk"
             end
             else failwith "late chunk")
           arr))

let test_parallel_adversarial_delays () =
  (* Work stealing under adversarial per-item delays: a handful of slow
     items land in one seeded range, idle workers must steal around them
     and every combinator must still return the jobs=1 result in input
     order. Delay pattern: item 0 and every 17th item sleep, everything
     else is instant — under static chunking worker 0 would own almost
     all the slow items. *)
  let n = 97 in
  let arr = Array.init n (fun i -> i) in
  let f x =
    if x = 0 || x mod 17 = 0 then Unix.sleepf 0.01;
    (x * 7) mod 13
  in
  let fi i x = if f x = 0 then Some (i, x) else None in
  let expected_map = Util.Parallel.map ~jobs:1 f arr in
  let expected_fm = Util.Parallel.filter_mapi ~jobs:1 fi arr in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "map jobs=%d" jobs)
        true
        (Util.Parallel.map ~jobs f arr = expected_map);
      Alcotest.(check bool)
        (Printf.sprintf "filter_mapi jobs=%d" jobs)
        true
        (Util.Parallel.filter_mapi ~jobs fi arr = expected_fm))
    [ 2; 3; 4; 8 ]

let test_parallel_steals_balance_skew () =
  (* The probe must see the skew-adjusted picture: with one pathological
     item and plenty of cheap ones, stealing spreads the cheap items so
     no worker is left idle while another owns the whole tail. We assert
     on the recorded per-worker stats: all items accounted for exactly
     once and at least one steal happened. *)
  let recorded = ref [||] in
  Util.Parallel.set_probe
    (Some
       {
         Util.Parallel.now_s = (fun () -> Unix.gettimeofday ());
         record = (fun ~stats -> recorded := stats);
       });
  Fun.protect ~finally:(fun () -> Util.Parallel.set_probe None) @@ fun () ->
  let arr = Array.init 64 (fun i -> i) in
  let _ =
    Util.Parallel.map ~jobs:4
      (fun x ->
        if x = 1 then Unix.sleepf 0.05;
        x)
      arr
  in
  let stats = !recorded in
  Alcotest.(check int) "one stat per worker" 4 (Array.length stats);
  let items =
    Array.fold_left (fun acc s -> acc + s.Util.Parallel.items) 0 stats
  in
  Alcotest.(check int) "every item ran exactly once" 64 items;
  let steals =
    Array.fold_left (fun acc s -> acc + s.Util.Parallel.steals) 0 stats
  in
  Alcotest.(check bool) "sleeping owner got robbed" true (steals > 0)

let test_parallel_race_winner_cancels () =
  (* The fast thunk wins; the cancel callback fires exactly once and the
     slow thunks observe it and stop early. *)
  let cancelled = Atomic.make false in
  let cancel_calls = Atomic.make 0 in
  let cancel () =
    Atomic.incr cancel_calls;
    Atomic.set cancelled true
  in
  let slow id () =
    let rec wait n =
      if Atomic.get cancelled then `Stopped id
      else if n > 2000 then `Finished id
      else begin
        Unix.sleepf 0.001;
        wait (n + 1)
      end
    in
    wait 0
  in
  let fast () = `Finished 0 in
  let (w, v), outcomes =
    Util.Parallel.race ~cancel [| fast; slow 1; slow 2 |]
  in
  Alcotest.(check int) "fast thunk wins" 0 w;
  Alcotest.(check bool) "winner value" true (v = `Finished 0);
  Alcotest.(check int) "cancel called exactly once" 1 (Atomic.get cancel_calls);
  Alcotest.(check int) "every outcome reported" 3 (Array.length outcomes);
  Array.iteri
    (fun i o ->
      match o with
      | Ok (`Stopped id) -> Alcotest.(check int) "loser identity" i id
      | Ok (`Finished id) -> Alcotest.(check int) "winner identity" 0 id
      | Error _ -> Alcotest.fail "no thunk raised")
    outcomes

let test_parallel_race_all_raise () =
  (* Every thunk raising re-raises the lowest-indexed exception. *)
  let boom i () : unit =
    if i > 0 then Unix.sleepf 0.002;
    failwith (Printf.sprintf "thunk %d" i)
  in
  Alcotest.check_raises "lowest index wins" (Failure "thunk 0") (fun () ->
      ignore (Util.Parallel.race ~cancel:(fun () -> ()) [| boom 0; boom 1; boom 2 |]))

let test_parallel_race_skips_raising_loser () =
  (* A raising thunk must not beat a normally-returning one, whatever the
     timing. *)
  let (w, v), _ =
    Util.Parallel.race
      ~cancel:(fun () -> ())
      [|
        (fun () -> failwith "eager failure");
        (fun () ->
          Unix.sleepf 0.005;
          42);
      |]
  in
  Alcotest.(check int) "surviving thunk wins" 1 w;
  Alcotest.(check int) "its value" 42 v

let test_parallel_default_jobs_override () =
  let before = Util.Parallel.default_jobs () in
  Alcotest.(check bool) "at least 1" true (before >= 1);
  Util.Parallel.set_default_jobs (Some 3);
  Alcotest.(check int) "override" 3 (Util.Parallel.default_jobs ());
  Util.Parallel.set_default_jobs (Some 0);
  Alcotest.(check int) "clamped to 1" 1 (Util.Parallel.default_jobs ());
  Util.Parallel.set_default_jobs None;
  Alcotest.(check int) "restored" before (Util.Parallel.default_jobs ())

(* ---------- Resident pool ---------- *)

let test_pool_run_and_exceptions () =
  Alcotest.(check int) "result" 42 (Util.Parallel.run (fun () -> 42));
  (match Util.Parallel.run (fun () -> failwith "boom") with
  | exception Failure m -> Alcotest.(check string) "transported" "boom" m
  | _ -> Alcotest.fail "exception must propagate");
  (* The domain survived the raise. *)
  Alcotest.(check int) "still alive" 7 (Util.Parallel.run (fun () -> 7))

let test_pool_run_off_caller () =
  let id () = (Domain.self () :> int) in
  let caller = id () in
  for _ = 1 to 8 do
    Alcotest.(check bool) "not the caller's domain" true (Util.Parallel.run id <> caller)
  done;
  Alcotest.(check bool) "inline when called from a pool domain" true
    (Util.Parallel.run (fun () -> Util.Parallel.run id = id ()))

(* Poll [cond] for up to [timeout_s]; resident tasks finish
   asynchronously, so tests wait on their effects, never on a join. *)
let eventually ?(timeout_s = 10.) cond =
  let t0 = Unix.gettimeofday () in
  while (not (cond ())) && Unix.gettimeofday () -. t0 < timeout_s do
    Unix.sleepf 0.001
  done;
  cond ()

let test_pool_submit_runs_every_job () =
  let counter = Atomic.make 0 in
  for _ = 1 to 8 do
    Util.Parallel.submit (fun () -> Atomic.incr counter)
  done;
  (* A raising job is swallowed and must not stop later jobs. *)
  Util.Parallel.submit (fun () -> failwith "stray");
  Util.Parallel.submit (fun () -> Atomic.incr counter);
  Alcotest.(check bool) "all jobs ran" true
    (eventually (fun () -> Atomic.get counter = 9))

let nested_f x = (x * x) mod 97

let nested_arr = Array.init 41 (fun i -> i)

let test_pool_nested_map_in_run () =
  let expected = Util.Parallel.map ~jobs:1 nested_f nested_arr in
  Alcotest.(check (array int)) "map jobs=2 inside run" expected
    (Util.Parallel.run (fun () -> Util.Parallel.map ~jobs:2 nested_f nested_arr))

let test_pool_nested_map_in_batch () =
  let inner x =
    Array.fold_left ( + ) x (Util.Parallel.map ~jobs:2 nested_f nested_arr)
  in
  let outer = Array.init 9 (fun i -> i) in
  Alcotest.(check (array int)) "map jobs=2 inside a batch item"
    (Array.map (fun x -> Array.fold_left ( + ) x (Array.map nested_f nested_arr)) outer)
    (Util.Parallel.map ~jobs:2 inner outer)

(* Occupy the pool: queue more gated tasks than it has domains, so every
   domain blocks on the gate and any task queued afterwards (a batch's
   helpers) cannot start until [release] opens it. *)
let with_blocked_pool f =
  let n_blockers = 64 in
  let m = Mutex.create () and c = Condition.create () and open_ = ref false in
  let started = Atomic.make 0 and finished = Atomic.make 0 in
  Util.Parallel.reserve 2;
  for _ = 1 to n_blockers do
    Util.Parallel.submit (fun () ->
        Atomic.incr started;
        Mutex.lock m;
        while not !open_ do
          Condition.wait c m
        done;
        Mutex.unlock m;
        Atomic.incr finished)
  done;
  let release () =
    Mutex.lock m;
    open_ := true;
    Condition.broadcast c;
    Mutex.unlock m
  in
  Fun.protect
    ~finally:(fun () ->
      release ();
      ignore (eventually (fun () -> Atomic.get finished = n_blockers));
      Util.Parallel.release 2)
    (fun () ->
      Alcotest.(check bool) "pool domains are blocked" true
        (eventually (fun () -> Atomic.get started >= 2));
      f ())

let test_pool_batch_while_blocked () =
  let thirds x = if x mod 3 = 0 then Some x else None in
  let expected = Util.Parallel.map ~jobs:1 nested_f nested_arr in
  let expected_fm = Util.Parallel.filter_map ~jobs:1 thirds nested_arr in
  with_blocked_pool @@ fun () ->
  Alcotest.(check (array int)) "map completes on the caller" expected
    (Util.Parallel.map ~jobs:4 nested_f nested_arr);
  Alcotest.(check (list int)) "filter_map completes on the caller" expected_fm
    (Util.Parallel.filter_map ~jobs:4 thirds nested_arr);
  Alcotest.(check bool) "exists completes on the caller" true
    (Util.Parallel.exists ~jobs:4 (fun x -> x = 40) nested_arr);
  let (w, v), outcomes =
    Util.Parallel.race
      ~cancel:(fun () -> ())
      [| (fun () -> 1); (fun () -> 2); (fun () -> 3) |]
  in
  Alcotest.(check (pair int int)) "race completes on the caller" (0, 1) (w, v);
  Alcotest.(check int) "every thunk ran" 3
    (Array.fold_left (fun n o -> match o with Ok _ -> n + 1 | Error _ -> n) 0 outcomes)

let test_pool_stats_helpers_never_started () =
  let recorded = ref [||] in
  Util.Parallel.set_probe
    (Some
       {
         Util.Parallel.now_s = (fun () -> Unix.gettimeofday ());
         record = (fun ~stats -> recorded := stats);
       });
  Fun.protect ~finally:(fun () -> Util.Parallel.set_probe None) @@ fun () ->
  with_blocked_pool @@ fun () ->
  ignore (Util.Parallel.map ~jobs:4 nested_f nested_arr);
  let stats = !recorded in
  Alcotest.(check int) "one stat per worker" 4 (Array.length stats);
  Alcotest.(check int) "items sum to the batch length" (Array.length nested_arr)
    (Array.fold_left (fun acc s -> acc + s.Util.Parallel.items) 0 stats);
  Alcotest.(check int) "the caller ran every item" (Array.length nested_arr)
    stats.(0).Util.Parallel.items

let test_pool_race_in_run () =
  let cancelled = Atomic.make false in
  let slow id () =
    let rec wait n =
      if Atomic.get cancelled || n > 2000 then id
      else begin
        Unix.sleepf 0.001;
        wait (n + 1)
      end
    in
    wait 0
  in
  let (w, v), outcomes =
    Util.Parallel.run (fun () ->
        Util.Parallel.race
          ~cancel:(fun () -> Atomic.set cancelled true)
          [| (fun () -> 0); slow 1; slow 2 |])
  in
  Alcotest.(check (pair int int)) "thunk 0 wins" (0, 0) (w, v);
  Array.iteri
    (fun i o ->
      match o with
      | Ok id -> Alcotest.(check int) "outcome in index order" i id
      | Error _ -> Alcotest.fail "no thunk raised")
    outcomes

(* ---------- Json ---------- *)

let sample_json =
  Util.Json.(
    Obj
      [
        ("schema", String "test/1");
        ("ok", Bool true);
        ("none", Null);
        ("count", Int (-42));
        ("ratio", Float 2.5);
        ("text", String "a \"quoted\"\nline\twith\\escapes");
        ("items", List [ Int 1; Float 0.5; String "x"; List []; Obj [] ]);
      ])

let test_json_roundtrip_compact () =
  match Util.Json.of_string (Util.Json.to_string sample_json) with
  | Ok v -> Alcotest.(check bool) "compact roundtrip" true (v = sample_json)
  | Error e -> Alcotest.fail e

let test_json_roundtrip_pretty () =
  match Util.Json.of_string (Util.Json.pretty sample_json) with
  | Ok v -> Alcotest.(check bool) "pretty roundtrip" true (v = sample_json)
  | Error e -> Alcotest.fail e

let test_json_member () =
  Alcotest.(check bool) "present" true
    (Util.Json.member "count" sample_json = Some (Util.Json.Int (-42)));
  Alcotest.(check bool) "absent" true (Util.Json.member "nope" sample_json = None);
  Alcotest.(check bool) "non-object" true
    (Util.Json.member "x" (Util.Json.Int 3) = None)

let test_json_parse_errors () =
  let fails s =
    match Util.Json.of_string s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
    | Error e ->
        Alcotest.(check bool) "mentions byte offset" true
          (String.length e > 0
          && String.split_on_char ' ' e |> List.exists (( = ) "byte"))
  in
  List.iter fails
    [ "{"; "[1,]"; "tru"; "\"unterminated"; "{\"a\" 1}"; "1 2"; "[1] garbage" ]

let test_json_file_roundtrip () =
  let path = Filename.temp_file "fannet_json" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Util.Json.write_file path sample_json;
      match Util.Json.parse_file path with
      | Ok v -> Alcotest.(check bool) "file roundtrip" true (v = sample_json)
      | Error e -> Alcotest.fail e)

(* Floats travel with enough digits to read back as themselves: 0.1+0.2
   is not 0.3 on the wire, and non-finite floats are refused at emit. *)
let arb_any_float =
  QCheck.make ~print:(Printf.sprintf "%h")
    QCheck.Gen.(oneof [ float; map Int64.float_of_bits ui64; map (fun k -> float_of_int k /. 3.) int ])

let prop_json_float_roundtrip =
  QCheck.Test.make ~name:"of_string (to_string (Float f)) = Float f" ~count:2000 arb_any_float
    (fun f ->
      QCheck.assume (Float.is_finite f);
      Util.Json.of_string (Util.Json.to_string (Util.Json.Float f)) = Ok (Util.Json.Float f))

let test_json_float_repr () =
  let repr f = Util.Json.to_string (Util.Json.Float f) in
  Alcotest.(check string) "0.1+0.2" "0.30000000000000004" (repr (0.1 +. 0.2));
  Alcotest.(check string) "short stays short" "0.1" (repr 0.1);
  Alcotest.(check string) "integral" "3.0" (repr 3.);
  Alcotest.(check bool) "distinct past the 12th digit" true (repr 0.3 <> repr (0.3 +. 1e-13));
  (* 2^53 prints without a point or exponent under %.16g; it must still
     read back as a Float, not an Int. *)
  Alcotest.(check bool) "large integral float stays a float" true
    (Util.Json.of_string (repr 9007199254740992.) = Ok (Util.Json.Float 9007199254740992.));
  List.iter
    (fun f ->
      match Util.Json.to_string (Util.Json.List [ Util.Json.Float f ]) with
      | exception Util.Json.Non_finite g ->
          Alcotest.(check bool) "carries the value" true (Float.is_nan f = Float.is_nan g)
      | s -> Alcotest.failf "emitted %s" s)
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* The parser as it was before its string and integer fast paths - the
   oracle the fast paths must agree with. *)
let oracle_of_string s =
  let module J = Util.Json in
  let exception Parse_error of int * string in
  let len = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < len
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let n = String.length word in
    if !pos + n <= len && String.sub s !pos n = word then begin
      pos := !pos + n;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= len then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= len then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'
               | '\\' -> Buffer.add_char buf '\\'
               | '/' -> Buffer.add_char buf '/'
               | 'n' -> Buffer.add_char buf '\n'
               | 'r' -> Buffer.add_char buf '\r'
               | 't' -> Buffer.add_char buf '\t'
               | 'b' -> Buffer.add_char buf '\b'
               | 'f' -> Buffer.add_char buf '\012'
               | 'u' ->
                   if !pos + 4 >= len then fail "truncated \\u escape";
                   let hex = String.sub s (!pos + 1) 4 in
                   let code =
                     match int_of_string_opt ("0x" ^ hex) with
                     | Some c -> c
                     | None -> fail "bad \\u escape"
                   in
                   if code < 0x80 then Buffer.add_char buf (Char.chr code)
                   else Buffer.add_string buf (Printf.sprintf "\\u%s" hex);
                   pos := !pos + 4
               | c -> fail (Printf.sprintf "bad escape %C" c));
            advance ();
            loop ()
        | c ->
            Buffer.add_char buf c;
            advance ();
            loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < len && is_num_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text then
      match float_of_string_opt text with
      | Some f -> J.Float f
      | None -> fail (Printf.sprintf "bad number %S" text)
    else
      match int_of_string_opt text with
      | Some n -> J.Int n
      | None -> fail (Printf.sprintf "bad number %S" text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> J.String (parse_string ())
    | Some 't' -> literal "true" (J.Bool true)
    | Some 'f' -> literal "false" (J.Bool false)
    | Some 'n' -> literal "null" J.Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          J.List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          J.List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          J.Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            (k, parse_value ())
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          J.Obj (List.rev !fields)
        end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) -> Error (Printf.sprintf "at byte %d: %s" at msg)

let gen_json_string =
  QCheck.Gen.(
    string_size ~gen:(oneof [ char_range 'a' 'z'; oneofl [ '"'; '\\'; '\n'; '\t'; '\001'; ' '; '/'; '\xc3'; '\xa9' ] ])
      (0 -- 12))

let gen_json =
  QCheck.Gen.(
    sized_size (0 -- 4)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Util.Json.Null;
                 map (fun b -> Util.Json.Bool b) bool;
                 map (fun i -> Util.Json.Int i) (oneof [ small_signed_int; int; oneofl [ max_int; min_int; 0 ] ]);
                 map (fun f -> Util.Json.Float f) (oneof [ float_range (-1e6) 1e6; map (fun k -> float_of_int k *. 1e300) (-5 -- 5) ]);
                 map (fun s -> Util.Json.String s) gen_json_string;
               ]
           in
           if n = 0 then leaf
           else
             oneof
               [
                 leaf;
                 map (fun l -> Util.Json.List l) (list_size (0 -- 4) (self (n - 1)));
                 map (fun l -> Util.Json.Obj l) (list_size (0 -- 4) (pair gen_json_string (self (n - 1))));
               ]))

(* Documents as rendered, and damaged copies of them: a cut, a dropped
   byte or an inserted one - so both accepting and rejecting paths are
   compared. *)
let arb_json_text =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      let* v = gen_json in
      let* pretty = bool in
      let text = if pretty then Util.Json.pretty v else Util.Json.to_string v in
      let n = String.length text in
      let* i = 0 -- n in
      let* c = oneofl [ '"'; '\\'; '-'; '+'; '.'; 'e'; '0'; '9'; ' '; ','; ']'; 'x' ] in
      oneofl
        [
          text;
          String.sub text 0 i;
          (if i < n then String.sub text 0 i ^ String.sub text (i + 1) (n - i - 1) else text);
          String.sub text 0 i ^ String.make 1 c ^ String.sub text i (n - i);
        ])

let same_parse s =
  match (Util.Json.of_string s, oracle_of_string s) with
  | Ok a, Ok b -> a = b
  | Error _, Error _ -> true
  | _ -> false

let prop_json_scanner_oracle =
  QCheck.Test.make ~name:"fast-path scanner agrees with the old parser" ~count:2000 arb_json_text
    same_parse

let test_json_number_edges () =
  List.iter
    (fun s -> if not (same_parse s) then Alcotest.failf "scanner and oracle disagree on %S" s)
    [
      "0"; "-0"; "00"; "-"; "--1"; "1-2"; "1+2"; "1e5"; "1E5"; "-1.5e-3"; "123456789012345678";
      "1234567890123456789"; "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
      "-4611686018427387905"; "99999999999999999999"; "[1,-2,3]"; "[-]"; "[1.]"; "{\"a\":-12}";
      "\"plain\""; "\"esc\\\"aped\""; "\"\\u0041\""; "\"unterminated"; "\"a\\"; "1e999";
    ]

(* ---------- Bigcount ---------- *)

module Bc = Util.Bigcount

let bigcount = Alcotest.testable (Fmt.of_to_string Bc.to_string) Bc.equal

let test_bigcount_exact_arithmetic () =
  Alcotest.check bigcount "add" (Bc.of_int 7) (Bc.add (Bc.of_int 3) (Bc.of_int 4));
  Alcotest.check bigcount "mul" (Bc.of_int 12) (Bc.mul (Bc.of_int 3) (Bc.of_int 4));
  Alcotest.check bigcount "sum" (Bc.of_int 10)
    (Bc.sum [ Bc.of_int 1; Bc.of_int 2; Bc.of_int 3; Bc.of_int 4 ]);
  Alcotest.check bigcount "pow2 small" (Bc.of_int 1024) (Bc.pow2 10);
  Alcotest.check bigcount "pow" (Bc.of_int 81) (Bc.pow ~base:3 ~exp:4);
  Alcotest.check bigcount "mul by zero" Bc.zero (Bc.mul Bc.zero (Bc.pow2 100));
  Alcotest.(check bool) "is_zero" true (Bc.is_zero Bc.zero);
  Alcotest.(check bool) "one not zero" false (Bc.is_zero Bc.one);
  match Bc.of_int (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative counts must be rejected"

let test_bigcount_saturation () =
  (* Saturation marks the value as Huge instead of silently wrapping. *)
  let near = Bc.of_int max_int in
  (match Bc.add near near with
  | Bc.Huge l -> Alcotest.(check bool) "add log near 63" true (Float.abs (l -. 63.) < 0.01)
  | Bc.Exact n -> Alcotest.failf "add wrapped to %d" n);
  (match Bc.mul (Bc.pow2 40) (Bc.pow2 40) with
  | Bc.Huge l -> Alcotest.(check (float 1e-9)) "mul log adds" 80. l
  | Bc.Exact n -> Alcotest.failf "mul wrapped to %d" n);
  (* 1000^8 ≈ 2^79.7, the module's own motivating example. *)
  (match Bc.pow ~base:1000 ~exp:8 with
  | Bc.Huge l -> Alcotest.(check bool) "pow log" true (Float.abs (l -. 79.726) < 0.01)
  | Bc.Exact n -> Alcotest.failf "pow wrapped to %d" n);
  (* Huge propagates through further sums (log-sum-exp, monotone). *)
  match Bc.add (Bc.pow2 100) (Bc.pow2 100) with
  | Bc.Huge l -> Alcotest.(check (float 1e-6)) "log-sum-exp" 101. l
  | Bc.Exact n -> Alcotest.failf "huge sum collapsed to %d" n

let test_bigcount_ratio_and_order () =
  Alcotest.(check (float 1e-12)) "exact ratio" 0.25
    (Bc.ratio (Bc.of_int 1) (Bc.of_int 4));
  Alcotest.(check (float 1e-12)) "zero denominator" 0. (Bc.ratio Bc.one Bc.zero);
  Alcotest.(check (float 1e-9)) "huge ratio in log space" 0.25
    (Bc.ratio (Bc.pow2 100) (Bc.pow2 102));
  Alcotest.(check (float 1e-9)) "mixed exact/huge ratio" 0.5
    (Bc.ratio (Bc.of_int 1024) (Bc.mul (Bc.of_int 2) (Bc.of_int 1024)));
  Alcotest.(check bool) "order: zero < one" true (Bc.compare Bc.zero Bc.one < 0);
  Alcotest.(check bool) "order: exact < huge" true
    (Bc.compare (Bc.of_int max_int) (Bc.pow2 90) < 0);
  Alcotest.(check bool) "order: huge by log" true
    (Bc.compare (Bc.pow2 90) (Bc.pow2 91) < 0);
  Alcotest.(check bool) "log2 of zero" true (Bc.log2 Bc.zero = neg_infinity)

let test_bigcount_json_roundtrip () =
  let roundtrip c =
    match Bc.of_json (Bc.to_json c) with
    | Ok c' -> Alcotest.check bigcount "roundtrip" c c'
    | Error e -> Alcotest.failf "of_json failed: %s" e
  in
  List.iter roundtrip [ Bc.zero; Bc.one; Bc.of_int 123456; Bc.pow2 200 ];
  (* Deterministic bytes: the cache-key property. *)
  Alcotest.(check string) "bytes stable"
    (Util.Json.to_string (Bc.to_json (Bc.pow2 200)))
    (Util.Json.to_string (Bc.to_json (Bc.pow2 200)));
  match Bc.of_json (Util.Json.String "nope") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage JSON must be rejected"

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "copy independence" `Quick test_rng_copy_independent;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
          Alcotest.test_case "int_in extremes" `Quick test_rng_int_in_hits_extremes;
          Alcotest.test_case "int uniformity" `Quick test_rng_int_uniformity;
          Alcotest.test_case "float unit interval" `Quick test_rng_float_unit_interval;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/variance" `Quick test_stats_mean_variance;
          Alcotest.test_case "min/max" `Quick test_stats_minmax;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "pearson" `Quick test_stats_pearson;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "empty raises" `Quick test_stats_empty_raises;
          Alcotest.test_case "NaN rejected" `Quick test_stats_nan_rejected;
          Alcotest.test_case "percentile order-independent" `Quick
            test_stats_percentile_order_independent;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "row arity" `Quick test_table_row_arity_checked;
          Alcotest.test_case "int rows" `Quick test_table_int_row;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "map = Array.map" `Quick test_parallel_map_matches_array_map;
          Alcotest.test_case "mapi order" `Quick test_parallel_mapi_order;
          Alcotest.test_case "filter_map order" `Quick test_parallel_filter_map_order;
          Alcotest.test_case "exists" `Quick test_parallel_exists;
          Alcotest.test_case "empty/small arrays" `Quick test_parallel_empty_and_small;
          Alcotest.test_case "worker exception" `Quick test_parallel_worker_exception_propagates;
          Alcotest.test_case "joins workers before re-raise" `Quick
            test_parallel_joins_workers_before_reraise;
          Alcotest.test_case "first chunk's exception wins" `Quick
            test_parallel_first_chunk_exception_wins;
          Alcotest.test_case "adversarial delays deterministic" `Quick
            test_parallel_adversarial_delays;
          Alcotest.test_case "steals balance skew" `Quick
            test_parallel_steals_balance_skew;
          Alcotest.test_case "race winner cancels" `Quick
            test_parallel_race_winner_cancels;
          Alcotest.test_case "race all raise" `Quick test_parallel_race_all_raise;
          Alcotest.test_case "race skips raising loser" `Quick
            test_parallel_race_skips_raising_loser;
          Alcotest.test_case "default jobs override" `Quick test_parallel_default_jobs_override;
        ] );
      ( "pool",
        [
          Alcotest.test_case "run + exceptions" `Quick test_pool_run_and_exceptions;
          Alcotest.test_case "run off the caller's domain" `Quick test_pool_run_off_caller;
          Alcotest.test_case "submit runs every job" `Quick test_pool_submit_runs_every_job;
          Alcotest.test_case "nested map in run" `Quick test_pool_nested_map_in_run;
          Alcotest.test_case "nested map in batch item" `Quick test_pool_nested_map_in_batch;
          Alcotest.test_case "batch while every domain blocked" `Quick
            test_pool_batch_while_blocked;
          Alcotest.test_case "stats when helpers never start" `Quick
            test_pool_stats_helpers_never_started;
          Alcotest.test_case "race inside run" `Quick test_pool_race_in_run;
        ] );
      ( "json",
        [
          Alcotest.test_case "compact roundtrip" `Quick test_json_roundtrip_compact;
          Alcotest.test_case "pretty roundtrip" `Quick test_json_roundtrip_pretty;
          Alcotest.test_case "member" `Quick test_json_member;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "file roundtrip" `Quick test_json_file_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_float_roundtrip;
          Alcotest.test_case "float rendering" `Quick test_json_float_repr;
          QCheck_alcotest.to_alcotest prop_json_scanner_oracle;
          Alcotest.test_case "number edges" `Quick test_json_number_edges;
        ] );
      ( "bigcount",
        [
          Alcotest.test_case "exact arithmetic" `Quick test_bigcount_exact_arithmetic;
          Alcotest.test_case "saturation" `Quick test_bigcount_saturation;
          Alcotest.test_case "ratio and order" `Quick test_bigcount_ratio_and_order;
          Alcotest.test_case "json roundtrip" `Quick test_bigcount_json_roundtrip;
        ] );
    ]
