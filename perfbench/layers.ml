(* Per-layer measurement shared by the workloads. Everything here reads
   the program from outside: spans around public calls, the existing
   Obs registry and span tree, and the Util.Parallel probe hook. *)

(* ---------- pipeline stages ---------- *)

(* Stage times of one Pipeline.run, read from the spans the pipeline
   already opens when the Obs registry is on. *)
let pipeline_stages config =
  Obs.Report.reset ();
  Obs.Report.enable ();
  let p = Spans.with_ "pipeline.run" (fun () -> Fannet.Pipeline.run ~config ()) in
  Obs.Report.disable ();
  let run =
    List.find_opt (fun (s : Obs.Span.t) -> s.name = "pipeline.run") (Obs.Span.roots ())
  in
  let stage name =
    match run with
    | None -> 0.
    | Some r -> (
        match List.find_opt (fun (c : Obs.Span.t) -> c.name = name) (Obs.Span.children r) with
        | Some c -> Obs.Span.duration_s c
        | None -> 0.)
  in
  let metrics =
    [
      ("dataset.generate_s", stage "pipeline.dataset");
      ("mrmr.select_s", stage "pipeline.mrmr");
      ("train.train_s", stage "pipeline.train");
      ("quantize.quantize_s", stage "pipeline.quantize");
      ("validate.p1_s", stage "pipeline.validate");
    ]
  in
  Obs.Report.reset ();
  (p, metrics)

(* ---------- Util.Parallel ---------- *)

(* A probe of our own: per-batch items, steals and busy time as the
   pool reports them, plus the batch's overhead — its wall time (first
   item start to the end-of-batch report) minus the busiest worker's
   busy time. Spawn cost before the first item starts is not visible
   from outside the pool. *)
type par = {
  mutable batches : int;
  mutable items : int;
  mutable steals : int;
  mutable busy_s : float;
  mutable overhead_s : float;
}

let par = { batches = 0; items = 0; steals = 0; busy_s = 0.; overhead_s = 0. }
let first_start = Atomic.make infinity

let rec note_start t =
  let cur = Atomic.get first_start in
  if t < cur && not (Atomic.compare_and_set first_start cur t) then note_start t

let install_parallel_probe () =
  par.batches <- 0;
  par.items <- 0;
  par.steals <- 0;
  par.busy_s <- 0.;
  par.overhead_s <- 0.;
  Atomic.set first_start infinity;
  Util.Parallel.set_probe
    (Some
       {
         Util.Parallel.now_s =
           (fun () ->
             let t = Obs.Clock.now_s () in
             note_start t;
             t);
         record =
           (fun ~stats ->
             let wall = Obs.Clock.now_s () -. Atomic.exchange first_start infinity in
             let busiest = ref 0. in
             Array.iter
               (fun (w : Util.Parallel.worker_stat) ->
                 par.items <- par.items + w.items;
                 par.steals <- par.steals + w.steals;
                 par.busy_s <- par.busy_s +. w.busy_s;
                 if w.busy_s > !busiest then busiest := w.busy_s)
               stats;
             par.batches <- par.batches + 1;
             if Float.is_finite wall then par.overhead_s <- par.overhead_s +. Float.max 0. (wall -. !busiest));
       })

let remove_parallel_probe () = Util.Parallel.set_probe None

(* Per-unit averages over [units] (rounds or replayed queries). *)
let parallel_metrics ~units =
  let u = float_of_int (max 1 units) in
  [
    ("parallel.batches", float_of_int par.batches /. u);
    ("parallel.items", float_of_int par.items /. u);
    ("parallel.steals", float_of_int par.steals /. u);
    ("parallel.busy_s", par.busy_s /. u);
    ("parallel.overhead_s", par.overhead_s /. u);
  ]

(* ---------- Obs registry ---------- *)

let counter name = float_of_int (Obs.Metrics.counter_value (Obs.Metrics.counter name))

let hist_mean name =
  let v = Obs.Metrics.histogram_view (Obs.Metrics.histogram name) in
  if v.count = 0 then 0. else v.sum /. float_of_int v.count

(* Registry-backed counters, averaged per unit of work. *)
let registry_metrics ~units =
  let u = float_of_int (max 1 units) in
  let hits = counter "backend.cascade.interval_hits" and esc = counter "backend.cascade.escalations" in
  let solves = counter "sat.solves" in
  [
    ("tolerance.probes", counter "tolerance.probes" /. u);
    ("backend.cascade.interval_hits", hits /. u);
    ("backend.cascade.escalations", esc /. u);
    ("backend.cascade.hit_ratio", if hits +. esc = 0. then 0. else hits /. (hits +. esc));
    ("sat.conflicts", if solves = 0. then 0. else counter "sat.conflicts" /. solves);
    ("sat.propagations", if solves = 0. then 0. else counter "sat.propagations" /. solves);
    ("smtlite.clauses_per_query", hist_mean "smtlite.clauses_per_query");
    ("count.cubes", counter "count.cubes" /. u);
    ("count.solver_calls", counter "count.solver_calls" /. u);
  ]

(* ---------- Fannet.Bnb ---------- *)

(* The branch-and-bound engine's query latency on the workload's own
   paper-net inputs: each input at every range ±1..±40 through
   [Backend.exists_flip Bnb], cycling until at least [n] queries ran, so
   that p99 has ten samples beyond it. *)
let bnb_replay ?(n = 1000) net (inputs : Fannet.Validate.labelled array) =
  let lat = ref [] and count = ref 0 in
  while !count < n do
    Array.iter
      (fun (input, label) ->
        for d = 1 to 40 do
          let spec = Fannet.Noise.symmetric ~delta:d ~bias_noise:true in
          let t0 = Obs.Clock.now_ns () in
          ignore
            (Spans.with_ "backend.bnb.query" (fun () ->
                 Fannet.Backend.exists_flip Fannet.Backend.Bnb net spec ~input ~label));
          lat := (1e3 *. Obs.Clock.elapsed_s ~since:t0) :: !lat;
          incr count
        done)
      inputs
  done;
  let a = Array.of_list !lat in
  let pct p = Option.value ~default:0. (Bstats.supported a p) in
  ([ ("backend.bnb.query_p50_ms", pct 50.); ("backend.bnb.query_p99_ms", pct 99.) ], a)

(* Every per-layer name defaults to 0: a layer the workload does not
   reach did no work. Workload-specific values override. *)
let complete overrides =
  List.map
    (fun (m : Ledger.metric) ->
      (m.name, Option.value ~default:0. (List.assoc_opt m.name overrides)))
    Ledger.per_layer
