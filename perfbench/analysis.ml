(* Workload [paper-analysis]: the paper's battery on the trained 5-20-2
   Leukemia network, offline in one process.

   Set-up is Pipeline.run at the paper configuration (dataset seed 2028,
   init seed 7): mRMR and training land there. The workload seed
   permutes the analysed inputs — the order the per-input loops hand
   them to the Util.Parallel pool — and nothing else: another dataset
   seed trains another network, whose battery costs up to three times
   as much, so it would be another workload, not another draw of this
   one. The
   measured unit is one round of P1, P2 (network tolerance with the
   cascade backend up to ±60, the ±5..±40 sweep), P3 (extraction at
   ±20), bias, per-node sensitivity, formal sidedness at ±10/12/15 and
   the boundary to ±50. Rounds are dominated by Bnb and by many small
   Util.Parallel batches; the codec, the cache and the SAT solver are
   never touched. *)

open Fannet

let readme_tolerance = 9
let setup_reps = 5
let tol_max = 60
let sweep_deltas = [ 5; 10; 15; 20; 25; 30; 35; 40 ]
let extract_delta = 20
let formal_deltas = [ 10; 12; 15 ]
let boundary_max = 50

(* The analysed inputs in the order the seed gives them. *)
let inputs ~seed p =
  let a = Array.copy (Pipeline.analysis_inputs p) in
  Util.Rng.shuffle (Util.Rng.create seed) a;
  a
let sym d = Noise.symmetric ~delta:d ~bias_noise:true

type round = {
  p1_correct : int;
  tolerance : int;
  sweep : Tolerance.sweep_point list;
  vectors : int;
  extract_status : string;
  corpus : Extract.counterexample list;
  bias : Bias.report;
  per_node : Sensitivity.node_stats array;
  formal : Sensitivity.formal_side array list;
  boundary : Boundary.point array;
}

(* One round; returns the results, the P2 tolerance answer's wall time
   and the round's wall time. *)
let battery ~jobs ~inputs (p : Pipeline.t) =
  let net = p.qnet in
  let backend = Pipeline.analysis_backend in
  let span = Spans.with_ in
  let t0 = Obs.Clock.now_ns () in
  let p1 = span "validate.p1" (fun () -> Validate.p1 net ~inputs:p.test_inputs) in
  let t_tol = Obs.Clock.now_ns () in
  let tolerance =
    span "tolerance.network" (fun () ->
        Tolerance.network_tolerance ~jobs backend net ~bias_noise:true ~max_delta:tol_max ~inputs)
  in
  let tol_s = Obs.Clock.elapsed_s ~since:t_tol in
  let sweep =
    span "tolerance.sweep" (fun () ->
        Tolerance.sweep ~jobs backend net ~bias_noise:true ~deltas:sweep_deltas ~inputs)
  in
  let corpus, status =
    span "extract.for_inputs" (fun () -> Extract.for_inputs ~jobs net (sym extract_delta) ~inputs)
  in
  let bias =
    span "bias.analyze" (fun () ->
        Bias.analyze ~n_classes:2 ~training_labels:(Pipeline.training_labels p)
          ~analysed_labels:(Array.map snd inputs) corpus)
  in
  let per_node =
    span "sensitivity.per_node" (fun () ->
        Sensitivity.per_node (sym extract_delta) ~n_inputs:(Nn.Qnet.in_dim net) corpus)
  in
  let formal =
    span "sensitivity.formal" (fun () ->
        List.map (fun d -> Sensitivity.formal_sidedness ~jobs net (sym d) ~inputs) formal_deltas)
  in
  let boundary =
    span "boundary.analyze" (fun () ->
        Boundary.analyze ~jobs backend net ~bias_noise:true ~max_delta:boundary_max ~inputs)
  in
  let round_s = Obs.Clock.elapsed_s ~since:t0 in
  ( {
      p1_correct = p1.Validate.n_correct;
      tolerance;
      sweep;
      vectors = List.length corpus;
      extract_status = Extract.status_to_string status;
      corpus;
      bias;
      per_node;
      formal;
      boundary;
    },
    tol_s,
    round_s )

let digest (r : round) = Digest.to_hex (Digest.string (Marshal.to_string r [ Marshal.No_sharing ]))

(* Correctness gates, all outside the timed rounds. *)
let gates ~jobs ~inputs ~nets (p : Pipeline.t) (r : round) digests =
  let net = p.qnet in
  let expected =
    Array.fold_left
      (fun acc (pt : Boundary.point) ->
        match pt.min_flip_delta with Some d -> min acc (d - 1) | None -> acc)
      boundary_max r.boundary
  in
  let quiet_below =
    List.for_all
      (fun (sp : Tolerance.sweep_point) -> sp.delta > r.tolerance || sp.n_misclassified = 0)
      r.sweep
  in
  let flips_above =
    r.tolerance >= tol_max
    || Tolerance.misclassified_at ~jobs Pipeline.analysis_backend net ~bias_noise:true
         ~delta:(r.tolerance + 1) ~inputs
       <> []
  in
  let same = List.for_all (( = ) (List.hd digests)) digests in
  [
    ("tolerance = min over boundary of (min_flip - 1)", min r.tolerance boundary_max = expected);
    ("sweep: no flip at or below the tolerance", quiet_below);
    ("sweep: a flip at tolerance + 1", flips_above);
    ("every round returns identical results", same);
    ( "extraction not stopped by a budget",
      List.mem r.extract_status (List.map Extract.status_to_string [ Extract.Complete; Extract.Truncated ]) );
  ]
  @ [ (Printf.sprintf "tolerance is +-%d%% (the README's value)" readme_tolerance, r.tolerance = readme_tolerance) ]
  @ [ ("every set-up trains the same network", List.for_all (( = ) (List.hd nets)) nets) ]

let run ~seed ~seconds ~trace ~nproc =
  let jobs = nproc in
  Util.Parallel.set_default_jobs (Some jobs);
  let cfg = Pipeline.default_config in
  (* Set-up is repeated [setup_reps] times — once here, the rest spread
     between the measured rounds — so that its median samples the host
     over the whole run, not over one burst. *)
  let setup_times = ref [] and nets = ref [] in
  let timed_setup () =
    let t0 = Obs.Clock.now_ns () in
    let p = Pipeline.run ~config:cfg () in
    setup_times := Obs.Clock.elapsed_s ~since:t0 :: !setup_times;
    nets := Nn.Qnet.to_string p.qnet :: !nets;
    p
  in
  let p = timed_setup () in
  let inputs = inputs ~seed p in
  (* Warm-up round: first-touch allocation and lazy tables stay out of
     the measured rounds. *)
  let first, _, _ = battery ~jobs ~inputs p in
  let digests = ref [ digest first ] in
  let attempted = ref 0 and failed = ref 0 in
  (* Rounds for [budget_s] seconds (at least three); timings per round.
     [setups] more set-ups run between rounds, evenly over the budget. *)
  let rounds ?(setups = 0) budget_s =
    let tols = ref [] and rounds = ref [] and done_setups = ref 0 and tried = ref 0 in
    let start = Obs.Clock.now_ns () in
    while !tried < 3 || Obs.Clock.elapsed_s ~since:start < budget_s do
      incr tried;
      if
        !done_setups < setups
        && Obs.Clock.elapsed_s ~since:start
           >= budget_s *. float_of_int (!done_setups + 1) /. float_of_int (setups + 1)
      then begin
        ignore (timed_setup ());
        incr done_setups
      end;
      incr attempted;
      match battery ~jobs ~inputs p with
      | r, tol_s, round_s ->
          digests := digest r :: !digests;
          tols := tol_s :: !tols;
          rounds := round_s :: !rounds
      | exception e ->
          incr failed;
          Printf.eprintf "round failed: %s\n%!" (Printexc.to_string e)
    done;
    (Array.of_list (List.rev !tols), Array.of_list (List.rev !rounds))
  in
  let untraced_s = if trace then seconds /. 2. else seconds in
  let tols, round_times = rounds ~setups:(setup_reps - 1) untraced_s in
  let setup_times = Array.of_list !setup_times in
  let setup_s = Bstats.median setup_times in
  let layer_metrics =
    if not trace then []
    else begin
      let _, stage_metrics = Layers.pipeline_stages cfg in
      Obs.Report.reset ();
      Obs.Report.enable ();
      Layers.install_parallel_probe ();
      Backend.reset_cascade_stats ();
      Spans.enable ();
      let ttols, trounds = rounds (seconds /. 2.) in
      let units = Array.length trounds in
      let par = Layers.parallel_metrics ~units in
      let reg = Layers.registry_metrics ~units in
      Layers.remove_parallel_probe ();
      Obs.Report.disable ();
      let bnb, _ = Layers.bnb_replay p.qnet inputs in
      let span_med name = Bstats.median (Spans.durations name) in
      let overhead traced untraced =
        100. *. (Bstats.median traced -. Bstats.median untraced) /. Bstats.median untraced
      in
      stage_metrics @ par @ reg @ bnb
      @ [
          ("tolerance.network_s", span_med "tolerance.network");
          ("tolerance.sweep_s", span_med "tolerance.sweep");
          ("extract.for_inputs_s", span_med "extract.for_inputs");
          ("extract.vectors", float_of_int first.vectors);
          ("bias.analyze_s", span_med "bias.analyze");
          ("sensitivity.per_node_s", span_med "sensitivity.per_node");
          ("sensitivity.formal_s", span_med "sensitivity.formal");
          ("boundary.analyze_s", span_med "boundary.analyze");
          ("trace.light_overhead_pct", overhead ttols tols);
          ("trace.heavy_overhead_pct", overhead trounds round_times);
        ]
    end
  in
  let gates = gates ~jobs ~inputs ~nets:!nets p first (List.rev !digests) in
  let peak = Host.peak_rss_mb 0 in
  let n = Array.length round_times in
  let rows =
    [ Ledger.row ~samples:(Array.length setup_times) "setup_s (Pipeline.run)" "s" (Some setup_s);
      Ledger.row "peak_rss_mb (analysis process)" "MB" (Some peak);
      Ledger.row ~samples:n "analysis_s (median round)" "s" (Some (Bstats.median round_times)) ]
    @ Ledger.timing_rows "round" ~unit_:"ms" ~scale:1e3 round_times
    @ Ledger.timing_rows "P2 tolerance answer" ~unit_:"ms" ~scale:1e3 tols
    @ [ Ledger.row "tolerance (+-%)" "%" (Some (float_of_int first.tolerance));
        Ledger.row ("extracted vectors (P3 at +-20, " ^ first.extract_status ^ ")") "count"
          (Some (float_of_int first.vectors)) ]
  in
  let metrics =
    if trace then Layers.complete layer_metrics
    else
      [
        ("setup_s", setup_s);
        ("peak_rss_mb", peak);
        ("ops_per_s", float_of_int n /. Util.Stats.sum round_times);
        ("light_p50_ms", 1e3 *. Bstats.median tols);
        ("heavy_p50_ms", 1e3 *. Bstats.median round_times);
      ]
  in
  ( {
      Ledger.correct = List.for_all snd gates && !failed = 0;
      attempted = !attempted;
      failed = !failed;
      metrics;
      rows;
      facts =
        Host.facts ~workload:"paper-analysis" ~seed ~trace
          ~extra:
            [
              ("jobs", Util.Json.Int jobs);
              ("dataset_seed", Util.Json.Int cfg.Pipeline.dataset_seed);
              ("init_seed", Util.Json.Int cfg.Pipeline.init_seed);
              ("inputs_digest", Util.Json.String (Digest.to_hex (Digest.string (Marshal.to_string inputs []))));
            ];
      gates;
    },
    p )
