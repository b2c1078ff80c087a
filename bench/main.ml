(* Benchmark harness: regenerates every evaluation artefact of the paper
   (DESIGN.md experiment index E1-E8), printing the measured rows next to
   the paper's reported values, then runs a Bechamel timing suite over the
   main code paths.

   Run with: dune exec bench/main.exe *)

let section title = Printf.printf "\n=== %s ===\n%!" title

(* Monotonic wall-clock timing: [Unix.gettimeofday] is subject to NTP
   steps, which can make a measured duration negative or wildly wrong
   mid-bench. [Obs.Clock] reads CLOCK_MONOTONIC where available. *)
let time_of f =
  let t0 = Obs.Clock.now_ns () in
  let r = f () in
  (r, Obs.Clock.elapsed_s ~since:t0)

let backend = Fannet.Backend.Bnb

(* The paper perturbs all network inputs, including the bias node (Fig. 3a
   has six input nodes: five genes plus the bias). *)
let bias_noise = true

(* ------------------------------------------------------------------ *)
(* E1 - Fig. 3(b,c): FSM state-space growth                            *)
(* ------------------------------------------------------------------ *)

let fig3_state_space (p : Fannet.Pipeline.t) =
  section "E1 fig3_state_space (paper Fig. 3b/c)";
  let inputs = Fannet.Pipeline.analysis_inputs p in
  let table =
    Util.Table.create
      ~header:[ "model"; "states"; "transitions"; "paper states"; "paper transitions" ]
  in
  let no_noise =
    Smv.Translate.network_program p.qnet
      {
        Smv.Translate.delta_lo = 0;
        delta_hi = 0;
        bias_noise;
        samples = Array.to_list inputs;
      }
  in
  (match Smv.Fsm.explore no_noise with
  | Ok o ->
      Util.Table.add_row table
        [
          "no noise (all samples)";
          string_of_int o.stats.n_states;
          string_of_int o.stats.n_transitions;
          "3";
          "6";
        ]
  | Error e ->
      Printf.printf "no-noise exploration failed: %s\n" (Smv.Fsm.error_to_string e));
  let input, label = inputs.(0) in
  let with_range name lo hi paper_states paper_transitions =
    let prog =
      Smv.Translate.network_program p.qnet
        { Smv.Translate.delta_lo = lo; delta_hi = hi; bias_noise; samples = [ (input, label) ] }
    in
    match Smv.Fsm.explore ~state_limit:1_000_000 prog with
    | Ok o ->
        Util.Table.add_row table
          [
            name;
            string_of_int o.stats.n_states;
            string_of_int o.stats.n_transitions;
            paper_states;
            paper_transitions;
          ]
    | Error e ->
        Printf.printf "%s exploration failed: %s\n" name (Smv.Fsm.error_to_string e)
  in
  with_range "noise [0,1]% (1 sample)" 0 1 "65" "4160";
  with_range "noise [-1,+1]% (1 sample)" (-1) 1 "-" "-";
  Util.Table.print table;
  print_endline
    "(states grow as 1 + k and transitions as (1 + k) * k with k =\n\
    \ (range size)^(noise nodes); the paper reports the same blow-up)";
  (* The symbolic (SAT-based) model checker on the same program: the
     nuXmv-style path the paper actually runs. *)
  let prog =
    Smv.Translate.network_program p.qnet
      { Smv.Translate.delta_lo = 0; delta_hi = 1; bias_noise; samples = [ (input, label) ] }
  in
  let (result, elapsed) =
    time_of (fun () -> Smv.Bmc.check ~bound:2 prog)
  in
  (match result with
  | Ok [ (_, Smv.Bmc.Holds_up_to b) ] ->
      Printf.printf
        "symbolic BMC on the [0,1]%% model: P2 holds up to depth %d (%.1fs)\n" b elapsed
  | Ok [ (_, Smv.Bmc.Violated { step; _ }) ] ->
      Printf.printf "symbolic BMC: P2 violated at depth %d (%.1fs)\n" step elapsed
  | Ok _ | Error _ -> print_endline "symbolic BMC: unexpected result")

(* ------------------------------------------------------------------ *)
(* E2 - Fig. 4 left panel: misclassifications per noise range          *)
(* ------------------------------------------------------------------ *)

let fig4_tolerance_sweep (p : Fannet.Pipeline.t) =
  section "E2 fig4_tolerance_sweep (paper Fig. 4, noise tolerance)";
  let inputs = Fannet.Pipeline.analysis_inputs p in
  let deltas = [ 5; 10; 15; 20; 25; 30; 35; 40 ] in
  let sweep = Fannet.Tolerance.sweep backend p.qnet ~bias_noise ~deltas ~inputs in
  let table =
    Util.Table.create ~header:[ "noise range"; "misclassified inputs"; "of" ]
  in
  List.iter
    (fun (pt : Fannet.Tolerance.sweep_point) ->
      Util.Table.add_row table
        [
          Printf.sprintf "[-%d,+%d]%%" pt.delta pt.delta;
          string_of_int pt.n_misclassified;
          string_of_int (Array.length inputs);
        ])
    sweep;
  Util.Table.print table;
  let tolerance =
    Fannet.Tolerance.network_tolerance backend p.qnet ~bias_noise ~max_delta:60 ~inputs
  in
  Printf.printf
    "network noise tolerance: +-%d%%   (paper: +-11%%; shape target: a\n\
    \ non-trivial plateau with zero misclassifications)\n"
    tolerance;
  (* Certified accuracy over the whole test set (correct AND provably
     robust), the standard certified-robustness metric, computed exactly. *)
  let cert =
    List.map
      (fun delta ->
        Printf.sprintf "+-%d%%: %.1f%%" delta
          (100.
          *. Fannet.Tolerance.certified_accuracy backend p.qnet ~bias_noise
               ~delta ~inputs:p.test_inputs))
      [ 5; 9; 15; 25 ]
  in
  Printf.printf "certified accuracy (exact): %s\n" (String.concat "  " cert)

(* ------------------------------------------------------------------ *)
(* E3 - training bias                                                  *)
(* ------------------------------------------------------------------ *)

let corpus_at (p : Fannet.Pipeline.t) ~delta ~limit =
  let inputs = Fannet.Pipeline.analysis_inputs p in
  let spec = Fannet.Noise.symmetric ~delta ~bias_noise in
  Fannet.Extract.for_inputs ~limit_per_input:limit p.Fannet.Pipeline.qnet spec ~inputs

let fig4_training_bias (p : Fannet.Pipeline.t) =
  section "E3 fig4_training_bias (paper Sec. V-C.3)";
  let inputs = Fannet.Pipeline.analysis_inputs p in
  let delta = 15 in
  let cexs, _ = corpus_at p ~delta ~limit:500 in
  let report =
    Fannet.Bias.analyze ~n_classes:2
      ~training_labels:(Fannet.Pipeline.training_labels p)
      ~analysed_labels:(Array.map snd inputs) cexs
  in
  Printf.printf "counterexample corpus at +-%d%%:\n%s\n" delta
    (Fannet.Bias.report_to_string report);
  Printf.printf
    "(paper: ~70%% of training samples are L1; L0 inputs are more likely to\n\
    \ be misclassified, and every observed flip goes L0 -> L1)\n"

(* ------------------------------------------------------------------ *)
(* E4 - input-node sensitivity                                         *)
(* ------------------------------------------------------------------ *)

let fig4_node_sensitivity (p : Fannet.Pipeline.t) =
  section "E4 fig4_node_sensitivity (paper Sec. V-C.4, Fig. 4 right panels)";
  let inputs = Fannet.Pipeline.analysis_inputs p in
  let delta = 15 in
  let spec = Fannet.Noise.symmetric ~delta ~bias_noise in
  let cexs, _ = corpus_at p ~delta ~limit:500 in
  let stats = Fannet.Sensitivity.per_node spec ~n_inputs:5 cexs in
  let table =
    Util.Table.create
      ~header:[ "node"; "positive"; "negative"; "zero"; "min"; "max"; "mean"; "sidedness" ]
  in
  Array.iter
    (fun (s : Fannet.Sensitivity.node_stats) ->
      let side =
        match Fannet.Sensitivity.sidedness s with
        | Fannet.Sensitivity.Never_positive -> "never-positive"
        | Fannet.Sensitivity.Never_negative -> "never-negative"
        | Fannet.Sensitivity.Both_sides -> "both"
        | Fannet.Sensitivity.No_data -> "no-data"
      in
      Util.Table.add_row table
        [
          (if s.node = 0 then "bias" else Printf.sprintf "i%d" s.node);
          string_of_int s.n_positive;
          string_of_int s.n_negative;
          string_of_int s.n_zero;
          string_of_int s.min_noise;
          string_of_int s.max_noise;
          Printf.sprintf "%.2f" s.mean_noise;
          side;
        ])
    stats;
  Util.Table.print table;
  List.iter
    (fun d ->
      let spec = Fannet.Noise.symmetric ~delta:d ~bias_noise in
      let sides = Fannet.Sensitivity.formal_sidedness p.qnet spec ~inputs in
      Printf.printf "formal sidedness at +-%d%%: %s\n" d
        (String.concat "  "
           (Array.to_list
              (Array.map
                 (fun (f : Fannet.Sensitivity.formal_side) ->
                   Printf.sprintf "%s:%s%s"
                     (if f.fs_node = 0 then "bias" else Printf.sprintf "i%d" f.fs_node)
                     (if f.positive_flip then "+" else ".")
                     (if f.negative_flip then "-" else "."))
                 sides))))
    [ 10; 12; 15 ];
  print_endline
    "(paper: node i5 admits no counterexample with positive noise; node i2\n\
    \ is more sensitive to positive noise - the shape target is at least\n\
    \ one one-sided node near the tolerance threshold)";
  (* Single-node tolerance: largest +-D safe when only that node is
     perturbed - a formal per-node sensitivity ranking. *)
  let probe = Fannet.Noise.symmetric ~delta:60 ~bias_noise in
  let table2 = Util.Table.create ~header:[ "node"; "single-node tolerance" ] in
  List.iter
    (fun node ->
      let t = Fannet.Sensitivity.single_node_tolerance p.qnet probe ~inputs ~node in
      Util.Table.add_row table2
        [
          (if node = 0 then "bias" else Printf.sprintf "i%d" node);
          (match t with Some d -> Printf.sprintf "+-%d%%" d | None -> ">+-60%");
        ])
    [ 0; 1; 2; 3; 4; 5 ];
  Util.Table.print table2

(* ------------------------------------------------------------------ *)
(* E5 - classification-boundary estimation                             *)
(* ------------------------------------------------------------------ *)

let fig4_boundary (p : Fannet.Pipeline.t) =
  section "E5 fig4_boundary (paper Sec. V-C.2)";
  let inputs = Fannet.Pipeline.analysis_inputs p in
  let points = Fannet.Boundary.analyze backend p.qnet ~bias_noise ~max_delta:50 ~inputs in
  let table =
    Util.Table.create ~header:[ "input"; "true"; "min flip range"; "noise-free margin" ]
  in
  Array.iter
    (fun (pt : Fannet.Boundary.point) ->
      Util.Table.add_row table
        [
          string_of_int pt.input_index;
          Printf.sprintf "L%d" pt.true_label;
          (match pt.min_flip_delta with
          | Some d -> Printf.sprintf "+-%d%%" d
          | None -> ">+-50%");
          string_of_int pt.margin;
        ])
    points;
  Util.Table.print table;
  let near = Fannet.Boundary.near_boundary points ~threshold:15 in
  let robust = Fannet.Boundary.robust_at_probe points in
  Printf.printf
    "near boundary (flip <= +-15%%): %d inputs; robust beyond +-50%%: %d inputs\n"
    (Array.length near) (Array.length robust);
  Printf.printf "margin/min-flip correlation: %.3f\n"
    (Fannet.Boundary.margin_flip_correlation points);
  print_endline
    "(paper: a few inputs flip at small noise - near the class boundary -\n\
    \ while others survive +-50%%; margin correlates with flip threshold)"

(* ------------------------------------------------------------------ *)
(* E6 - accuracy table and P1 validation                               *)
(* ------------------------------------------------------------------ *)

let accuracy_table (p : Fannet.Pipeline.t) =
  section "E6 accuracy_table (paper Sec. V-A footnote + P1)";
  let table = Util.Table.create ~header:[ "metric"; "measured"; "paper" ] in
  Util.Table.add_row table
    [ "training accuracy"; Printf.sprintf "%.2f%%" (100. *. p.train_accuracy); "100%" ];
  Util.Table.add_row table
    [ "test accuracy"; Printf.sprintf "%.2f%%" (100. *. p.test_accuracy); "94.12%" ];
  Util.Table.add_row table
    [
      "P1: correctly classified test inputs";
      Printf.sprintf "%d/%d" p.p1.Fannet.Validate.n_correct p.p1.Fannet.Validate.n_total;
      "32/34";
    ];
  Util.Table.add_row table
    [
      "float/quantized prediction agreement";
      Printf.sprintf "%.2f%%"
        (100. *. Fannet.Validate.float_agreement p.network p.qnet ~inputs:p.test_inputs);
      "-";
    ];
  Util.Table.print table;
  List.iter
    (fun (i, predicted) ->
      let _, label = p.test_inputs.(i) in
      Printf.printf "  noise-free mismatch: test input %d, true L%d -> predicted L%d\n"
        i label predicted)
    p.p1.Fannet.Validate.mismatches

(* ------------------------------------------------------------------ *)
(* E7 - backend ablation                                               *)
(* ------------------------------------------------------------------ *)

let ablation_backends (p : Fannet.Pipeline.t) =
  section "E7 ablation_backends (ours; DESIGN.md)";
  let inputs = Fannet.Pipeline.analysis_inputs p in
  let subset = Array.sub inputs 0 (min 8 (Array.length inputs)) in
  let table =
    Util.Table.create
      ~header:[ "backend"; "delta"; "robust"; "flip"; "unknown"; "time (s)" ]
  in
  let run_backend ?(n = Array.length subset) name b delta =
    let queries = Array.sub subset 0 (min n (Array.length subset)) in
    let spec = Fannet.Noise.symmetric ~delta ~bias_noise in
    let (robust, flip, unknown), elapsed =
      time_of (fun () ->
          Array.fold_left
            (fun (r, f, u) (input, label) ->
              match Fannet.Backend.exists_flip b p.qnet spec ~input ~label with
              | Fannet.Backend.Robust -> (r + 1, f, u)
              | Fannet.Backend.Flip _ -> (r, f + 1, u)
              | Fannet.Backend.Unknown _ -> (r, f, u + 1))
            (0, 0, 0) queries)
    in
    Util.Table.add_row table
      [
        Printf.sprintf "%s (%d queries)" name (Array.length queries);
        Printf.sprintf "+-%d%%" delta;
        string_of_int robust;
        string_of_int flip;
        string_of_int unknown;
        Printf.sprintf "%.3f" elapsed;
      ]
  in
  List.iter
    (fun delta ->
      run_backend "bnb" Fannet.Backend.Bnb delta;
      (* The bit-blasted engine needs tens of seconds per exhaustive
         (UNSAT) proof even at +-1% - the scalability wall the paper also
         hits with nuXmv; two queries suffice to show it. *)
      if delta = 1 then run_backend ~n:2 "smt (bit-blast CDCL)" Fannet.Backend.Smt delta;
      run_backend "explicit" (Fannet.Backend.Explicit { limit = 10_000_000 }) delta;
      run_backend "interval" Fannet.Backend.Interval delta)
    [ 1; 2 ];
  List.iter
    (fun delta ->
      run_backend "bnb" Fannet.Backend.Bnb delta;
      run_backend "interval" Fannet.Backend.Interval delta)
    [ 20; 40 ];
  Util.Table.print table;
  print_endline
    "(complete backends must agree on robust/flip; interval is sound but\n\
    \ incomplete: its unknowns are where branch-and-bound earns its keep)"

(* ------------------------------------------------------------------ *)
(* E8 - random-testing baseline                                        *)
(* ------------------------------------------------------------------ *)

let ablation_random_baseline (p : Fannet.Pipeline.t) =
  section "E8 ablation_random_baseline (ours; paper Sec. I motivation)";
  let inputs = Fannet.Pipeline.analysis_inputs p in
  let delta = 12 in
  let spec = Fannet.Noise.symmetric ~delta ~bias_noise in
  let points = Fannet.Boundary.analyze backend p.qnet ~bias_noise ~max_delta:50 ~inputs in
  let fragile =
    Array.fold_left
      (fun acc (pt : Fannet.Boundary.point) ->
        match (acc, pt.min_flip_delta) with
        | None, Some _ -> Some pt
        | Some best, Some d -> (
            match best.Fannet.Boundary.min_flip_delta with
            | Some bd when d < bd -> Some pt
            | Some _ | None -> acc)
        | (Some _ | None), None -> acc)
      None points
  in
  match fragile with
  | None -> print_endline "no flippable input below the probe range"
  | Some pt ->
      let input, label = inputs.(pt.input_index) in
      let total, status =
        Fannet.Bnb.count_flips ~limit:100_000_000 p.qnet spec ~input ~label
      in
      let size = Fannet.Noise.spec_size spec ~n_inputs:5 in
      Printf.printf
        "target: input %d (min flip +-%s%%); flipping vectors at +-%d%%: %d of %d (%s)\n"
        pt.input_index
        (match pt.min_flip_delta with Some d -> string_of_int d | None -> "?")
        delta total size
        (match status with `Complete -> "exact" | `Truncated -> ">=");
      let table =
        Util.Table.create ~header:[ "method"; "budget"; "flips found"; "first hit at" ]
      in
      List.iter
        (fun budget ->
          let rng = Util.Rng.create (1000 + budget) in
          let r = Fannet.Baseline.random_search ~rng p.qnet spec ~input ~label ~budget in
          Util.Table.add_row table
            [
              "random testing";
              string_of_int budget;
              string_of_int (List.length r.found);
              (match r.first_found_at with Some k -> string_of_int k | None -> "-");
            ])
        [ 100; 1_000; 10_000 ];
      Util.Table.add_row table
        [ "formal (bnb)"; "exhaustive"; string_of_int total; "1 query" ];
      Util.Table.print table;
      print_endline
        "(the paper's motivation: testing cannot certify absence of flips;\n\
        \ the formal engine both certifies robust ranges and enumerates the\n\
        \ complete adversarial set)"

(* ------------------------------------------------------------------ *)
(* E9 - training-objective ablation                                    *)
(* ------------------------------------------------------------------ *)

let run_variant train_config =
  let config = { Fannet.Pipeline.default_config with train_config } in
  let v = Fannet.Pipeline.run ~config () in
  let inputs = Fannet.Pipeline.analysis_inputs v in
  let tolerance =
    if Array.length inputs = 0 then -1
    else
      Fannet.Tolerance.network_tolerance Fannet.Backend.Bnb v.qnet ~bias_noise
        ~max_delta:60 ~inputs
  in
  (v, tolerance)

let ablation_training_objective () =
  section "E9 ablation_training_objective (ours; DESIGN.md substitution)";
  let table =
    Util.Table.create
      ~header:[ "trainer"; "train acc"; "test acc"; "tolerance" ]
  in
  let row name cfg =
    let v, tolerance = run_variant cfg in
    Util.Table.add_row table
      [
        name;
        Printf.sprintf "%.1f%%" (100. *. v.Fannet.Pipeline.train_accuracy);
        Printf.sprintf "%.1f%%" (100. *. v.Fannet.Pipeline.test_accuracy);
        (if tolerance < 0 then "n/a" else Printf.sprintf "+-%d%%" tolerance);
      ]
  in
  row "cross-entropy SGD (default)" Nn.Train.default_config;
  row "MSE batch + momentum (MATLAB rates)" Nn.Train.paper_matlab_config;
  row "MSE batch + momentum (lr/10)"
    { Nn.Train.paper_matlab_config with lr_phase1 = 0.05; lr_phase2 = 0.02 };
  Util.Table.print table;
  print_endline
    "(the literal MATLAB-style objective at the paper's rates is unstable\n\
    \ on this data - the substitution DESIGN.md documents)"

(* ------------------------------------------------------------------ *)
(* E10 - quantization-precision ablation                               *)
(* ------------------------------------------------------------------ *)

let ablation_quantization (p : Fannet.Pipeline.t) =
  section "E10 ablation_quantization (ours; DESIGN.md)";
  let table =
    Util.Table.create
      ~header:[ "weight bits"; "float agreement"; "P1 correct"; "tolerance" ]
  in
  List.iter
    (fun bits ->
      let qnet = Nn.Quantize.quantize p.network ~weight_bits:bits in
      let agreement =
        Fannet.Validate.float_agreement p.network qnet ~inputs:p.test_inputs
      in
      let p1 = Fannet.Validate.p1 qnet ~inputs:p.test_inputs in
      let tolerance =
        if Array.length p1.Fannet.Validate.correct = 0 then -1
        else
          Fannet.Tolerance.network_tolerance Fannet.Backend.Bnb qnet ~bias_noise
            ~max_delta:60 ~inputs:p1.Fannet.Validate.correct
      in
      Util.Table.add_row table
        [
          string_of_int bits;
          Printf.sprintf "%.1f%%" (100. *. agreement);
          Printf.sprintf "%d/%d" p1.Fannet.Validate.n_correct p1.Fannet.Validate.n_total;
          (if tolerance < 0 then "n/a" else Printf.sprintf "+-%d%%" tolerance);
        ])
    [ 4; 6; 8; 10; 12 ];
  Util.Table.print table;
  print_endline
    "(the formal verdicts are about the quantized model; enough precision\n\
    \ makes them transfer to the float network - 100% agreement from 8 bits)"

(* ------------------------------------------------------------------ *)
(* E13 - hidden-width ablation                                         *)
(* ------------------------------------------------------------------ *)

let ablation_hidden_width () =
  section "E13 ablation_hidden_width (ours; the paper's 20-neuron choice)";
  let table =
    Util.Table.create ~header:[ "hidden neurons"; "train acc"; "test acc"; "tolerance" ]
  in
  List.iter
    (fun hidden ->
      let config = { Fannet.Pipeline.default_config with hidden } in
      let v = Fannet.Pipeline.run ~config () in
      let inputs = Fannet.Pipeline.analysis_inputs v in
      let tolerance =
        if Array.length inputs = 0 then -1
        else
          Fannet.Tolerance.network_tolerance Fannet.Backend.Bnb v.qnet ~bias_noise
            ~max_delta:60 ~inputs
      in
      Util.Table.add_row table
        [
          string_of_int hidden;
          Printf.sprintf "%.1f%%" (100. *. v.Fannet.Pipeline.train_accuracy);
          Printf.sprintf "%.1f%%" (100. *. v.Fannet.Pipeline.test_accuracy);
          (if tolerance < 0 then "n/a" else Printf.sprintf "+-%d%%" tolerance);
        ])
    [ 5; 10; 20; 40 ];
  Util.Table.print table

(* ------------------------------------------------------------------ *)
(* E14 - feature-selection ablation                                    *)
(* ------------------------------------------------------------------ *)

let ablation_feature_selection () =
  section "E14 ablation_feature_selection (ours; the paper's mRMR choice)";
  let base = Fannet.Pipeline.default_config in
  let dataset =
    Dataset.Golub.generate ~params:base.dataset_params ~seed:base.dataset_seed ()
  in
  let evaluate name genes =
    (* Re-run the training stages on a fixed gene subset. *)
    let train_inputs = Fannet.Validate.of_samples dataset.Dataset.Golub.train ~genes in
    let test_inputs = Fannet.Validate.of_samples dataset.Dataset.Golub.test ~genes in
    let norm = Nn.Normalize.fit (Array.map fst train_inputs) in
    let vecs = Array.map (fun (x, _) -> Nn.Normalize.apply norm x) train_inputs in
    let labels = Array.map snd train_inputs in
    let rng = Util.Rng.create base.init_seed in
    let raw =
      Nn.Network.create ~rng ~spec:[ Array.length genes; base.hidden; 2 ]
        ~hidden_activation:Nn.Activation.Relu
    in
    ignore (Nn.Train.train ~config:base.train_config raw ~inputs:vecs ~labels);
    let shift, scale = Nn.Normalize.shift_scale norm in
    let network = Nn.Network.fold_input_affine raw ~shift ~scale in
    let qnet = Nn.Quantize.quantize network ~weight_bits:base.weight_bits in
    let p1 = Fannet.Validate.p1 qnet ~inputs:test_inputs in
    let inputs = p1.Fannet.Validate.correct in
    (* Budgeted per-query search: a network fitted to uninformative genes
       has vacuous bounds and the complete search explodes - report that
       honestly instead of hanging. *)
    let budgeted_min_flip input label =
      let flips delta =
        let spec = Fannet.Noise.symmetric ~delta ~bias_noise in
        match
          Fannet.Bnb.exists_flip ~max_boxes:2_000_000 qnet spec ~input ~label
        with
        | Fannet.Bnb.Flip _ -> true
        | Fannet.Bnb.Robust -> false
        | Fannet.Bnb.Unknown _ -> assert false (* no budget on this path *)
      in
      if not (flips 60) then None
      else begin
        let rec search lo hi =
          if hi - lo <= 1 then hi
          else
            let mid = (lo + hi) / 2 in
            if flips mid then search lo mid else search mid hi
        in
        Some (search 0 60)
      end
    in
    let tolerance =
      if Array.length inputs = 0 then "n/a"
      else
        match
          Array.fold_left
            (fun acc (input, label) ->
              match budgeted_min_flip input label with
              | None -> acc
              | Some d -> min acc (d - 1))
            60 inputs
        with
        | t -> Printf.sprintf "+-%d%%" t
        | exception Fannet.Bnb.Budget_exceeded -> "search exploded"
    in
    ( name,
      Printf.sprintf "%d/%d" p1.Fannet.Validate.n_correct p1.Fannet.Validate.n_total,
      tolerance )
  in
  let mrmr = Dataset.Mrmr.select dataset.Dataset.Golub.train ~k:base.k_features ~bins:base.mi_bins in
  let max_rel =
    let ranking = Dataset.Mrmr.relevance_ranking dataset.Dataset.Golub.train ~bins:base.mi_bins in
    Array.init base.k_features (fun i -> fst ranking.(i))
  in
  let random_genes =
    let rng = Util.Rng.create 99 in
    Array.init base.k_features (fun _ -> Util.Rng.int rng dataset.Dataset.Golub.n_genes)
  in
  let table = Util.Table.create ~header:[ "selection"; "P1 test"; "tolerance" ] in
  List.iter
    (fun (name, p1, tol) -> Util.Table.add_row table [ name; p1; tol ])
    [
      evaluate "mRMR (paper)" mrmr;
      evaluate "max relevance only" max_rel;
      evaluate "random genes" random_genes;
    ];
  Util.Table.print table;
  print_endline
    "(the paper selects its 5 genes with mRMR; random genes carry no\n\
    \ signal - the network memorises noise, loses test accuracy AND\n\
    \ becomes so unstructured that complete verification blows up)"

(* ------------------------------------------------------------------ *)
(* E11 - multi-class extension                                         *)
(* ------------------------------------------------------------------ *)

let extension_multiclass () =
  section "E11 extension_multiclass (ours; beyond the paper)";
  let m = Fannet.Mc_pipeline.run () in
  let inputs = Fannet.Mc_pipeline.analysis_inputs m in
  Printf.printf "3-class pipeline: train %.1f%%, test %.1f%% (P1 %d/%d)\n"
    (100. *. m.Fannet.Mc_pipeline.train_accuracy)
    (100. *. m.Fannet.Mc_pipeline.test_accuracy)
    m.Fannet.Mc_pipeline.p1.Fannet.Validate.n_correct
    m.Fannet.Mc_pipeline.p1.Fannet.Validate.n_total;
  let tol =
    Fannet.Tolerance.network_tolerance Fannet.Backend.Bnb m.qnet ~bias_noise
      ~max_delta:60 ~inputs
  in
  Printf.printf "noise tolerance: +-%d%%\n" tol;
  let delta = min 50 (tol + 6) in
  let spec = Fannet.Noise.symmetric ~delta ~bias_noise in
  let cexs, _ = Fannet.Extract.for_inputs ~limit_per_input:100 m.qnet spec ~inputs in
  Printf.printf "confusion directions at +-%d%%:\n" delta;
  Fannet.Bias.flip_directions cexs
  |> List.iter (fun (d : Fannet.Bias.direction) ->
         Printf.printf "  C%d -> C%d : %d\n" d.from_label d.to_label d.count);
  print_endline
    "(the same formal machinery generalised to k classes: one margin per\n\
    \ adversary class inside branch-and-bound)"

(* ------------------------------------------------------------------ *)
(* E12 - relative vs absolute noise                                    *)
(* ------------------------------------------------------------------ *)

let extension_absolute_noise (p : Fannet.Pipeline.t) =
  section "E12 extension_absolute_noise (ours; L-infinity setting)";
  let inputs = Fannet.Pipeline.analysis_inputs p in
  let subset = Array.sub inputs 0 (min 6 (Array.length inputs)) in
  let table =
    Util.Table.create
      ~header:[ "input"; "min relative flip"; "min absolute flip (units)" ]
  in
  Array.iteri
    (fun i (input, label) ->
      let rel =
        Resil.Budget.ok_or_fail
          @@ Fannet.Tolerance.input_min_flip_delta_b Fannet.Backend.Bnb p.qnet
             ~bias_noise ~max_delta:60 ~input ~label
      in
      (* Binary search the smallest absolute L-infinity radius that flips. *)
      let abs_flips d =
        let spec = Fannet.Noise.absolute ~delta:d ~bias_noise:false in
        match Fannet.Backend.exists_flip Fannet.Backend.Bnb p.qnet spec ~input ~label with
        | Fannet.Backend.Flip _ -> true
        | Fannet.Backend.Robust | Fannet.Backend.Unknown _ -> false
      in
      let max_abs = 4096 in
      let abs_min =
        if not (abs_flips max_abs) then None
        else begin
          let rec search lo hi =
            if hi - lo <= 1 then hi
            else
              let mid = (lo + hi) / 2 in
              if abs_flips mid then search lo mid else search mid hi
          in
          Some (search 0 max_abs)
        end
      in
      Util.Table.add_row table
        [
          string_of_int i;
          (match rel with Some d -> Printf.sprintf "+-%d%%" d | None -> ">+-60%");
          (match abs_min with Some d -> Printf.sprintf "+-%d" d | None -> ">+-4096");
        ])
    subset;
  Util.Table.print table;
  print_endline
    "(the paper's relative model scales noise with each gene's magnitude;\n\
    \ the absolute model is the L-infinity ball of the robustness\n\
    \ literature - both run on the same engines)"

(* ------------------------------------------------------------------ *)
(* E15 - parallel engine, cascade prefilter, incremental search        *)
(* ------------------------------------------------------------------ *)

(* A small fixed network for the incremental-SMT comparison: bit-blasting
   the full pipeline network takes tens of seconds per UNSAT probe (the
   scalability wall measured in E7), so the warm-vs-cold session contrast
   is shown on a model where both sides finish in milliseconds. *)
let small_qnet () =
  Nn.Qnet.create
    [|
      {
        Nn.Qnet.weights =
          [|
            [| 31; -22 |]; [| -13; 41 |]; [| 17; 9 |]; [| -25; 14 |];
          |];
        bias = [| 55; -31; 12; -7 |];
        act = Nn.Qnet.Relu;
      };
      {
        Nn.Qnet.weights = [| [| 21; -33; 11; -9 |]; [| -20; 31; -12; 10 |] |];
        bias = [| 13; 0 |];
        act = Nn.Qnet.Identity;
      };
    |]

let bench_parallel ?(smoke = false) (p : Fannet.Pipeline.t) ~out =
  section "E15 bench_parallel (domain pool + cascade prefilter + incremental search)";
  let all_inputs = Fannet.Pipeline.analysis_inputs p in
  let inputs =
    if smoke then Array.sub all_inputs 0 (min 6 (Array.length all_inputs))
    else all_inputs
  in
  let delta = 15 in
  let max_delta = if smoke then 30 else 50 in
  (* Exercise the pool even on single-core machines: chunking and helper
     scheduling must preserve results regardless of the hardware count. *)
  let njobs = max 2 (Util.Parallel.default_jobs ()) in
  let table =
    Util.Table.create
      ~header:
        [ "analysis"; "backend"; "jobs=1 (s)"; Printf.sprintf "jobs=%d (s)" njobs;
          "speedup"; "equal"; "prefilter hit rate" ]
  in
  let analyses = ref [] in
  let run_analysis name backend f =
    let cascade = match backend with Fannet.Backend.Cascade _ -> true | _ -> false in
    let r1, t1 = time_of (fun () -> f ~jobs:1 backend) in
    if cascade then Fannet.Backend.reset_cascade_stats ();
    let rn, tn = time_of (fun () -> f ~jobs:njobs backend) in
    let stats = if cascade then Some (Fannet.Backend.cascade_stats ()) else None in
    let equal = r1 = rn in
    if not equal then
      failwith (Printf.sprintf "E15: %s verdicts differ between jobs=1 and jobs=%d" name njobs);
    let hit_rate = Option.map Fannet.Backend.cascade_hit_rate stats in
    Util.Table.add_row table
      [
        name;
        Fannet.Backend.to_string backend;
        Printf.sprintf "%.3f" t1;
        Printf.sprintf "%.3f" tn;
        Printf.sprintf "%.2fx" (t1 /. tn);
        string_of_bool equal;
        (match hit_rate with
        | Some r -> Printf.sprintf "%.0f%%" (100. *. r)
        | None -> "-");
      ];
    analyses :=
      Util.Json.Obj
        ([
           ("analysis", Util.Json.String name);
           ("backend", Util.Json.String (Fannet.Backend.to_string backend));
           ("jobs1_s", Util.Json.Float t1);
           ("jobsN_s", Util.Json.Float tn);
           ("speedup", Util.Json.Float (t1 /. tn));
           ("verdicts_equal", Util.Json.Bool equal);
         ]
        @
        match stats with
        | None -> []
        | Some s ->
            [
              ("interval_hits", Util.Json.Int s.Fannet.Backend.interval_hits);
              ("escalations", Util.Json.Int s.Fannet.Backend.escalations);
              ( "hit_rate",
                Util.Json.Float (Fannet.Backend.cascade_hit_rate s) );
            ])
      :: !analyses;
    r1
  in
  let misclassified ~jobs backend =
    List.map
      (fun (f : Fannet.Tolerance.flip) -> (f.input_index, f.predicted))
      (Fannet.Tolerance.misclassified_at ~jobs backend p.qnet ~bias_noise ~delta
         ~inputs)
  in
  let tolerance ~jobs backend =
    [ (Fannet.Tolerance.network_tolerance ~jobs backend p.qnet ~bias_noise
         ~max_delta ~inputs, 0) ]
  in
  let extract ~jobs _backend =
    let spec = Fannet.Noise.symmetric ~delta ~bias_noise in
    let cexs, _ =
      Fannet.Extract.for_inputs ~limit_per_input:50 ~jobs p.qnet spec ~inputs
    in
    List.map
      (fun (c : Fannet.Extract.counterexample) -> (c.input_index, c.predicted))
      cexs
  in
  let mis_bnb = run_analysis "misclassified_at" Fannet.Backend.Bnb misclassified in
  let mis_cascade =
    run_analysis "misclassified_at" Fannet.Backend.default_cascade misclassified
  in
  if mis_bnb <> mis_cascade then
    failwith "E15: cascade(bnb) disagrees with bnb on misclassified_at";
  ignore (run_analysis "extract_for_inputs" Fannet.Backend.Bnb extract);
  let tol_bnb = run_analysis "network_tolerance" Fannet.Backend.Bnb tolerance in
  let tol_cascade =
    run_analysis "network_tolerance" Fannet.Backend.default_cascade tolerance
  in
  if tol_bnb <> tol_cascade then
    failwith "E15: cascade(bnb) disagrees with bnb on network_tolerance";
  Util.Table.print table;
  (* Incremental bit-blasted binary search: one warm session with assumable
     range literals vs re-encoding the network at every probe. *)
  let qnet = small_qnet () in
  let sinput = [| 112; 87 |] in
  let slabel = Nn.Qnet.predict qnet sinput in
  let smt_max_delta = 40 in
  let warm, warm_t =
    time_of (fun () ->
        Resil.Budget.ok_or_fail
          @@ Fannet.Tolerance.input_min_flip_delta_b Fannet.Backend.Smt qnet
             ~bias_noise:false ~max_delta:smt_max_delta ~input:sinput ~label:slabel)
  in
  let cold, cold_t =
    time_of (fun () ->
        (* The pre-incremental procedure: a fresh Tseitin encoding and solver
           per probe of the same monotone binary search. *)
        let flips d =
          let spec = Fannet.Noise.symmetric ~delta:d ~bias_noise:false in
          match
            Fannet.Backend.exists_flip Fannet.Backend.Smt qnet spec ~input:sinput
              ~label:slabel
          with
          | Fannet.Backend.Flip _ -> true
          | Fannet.Backend.Robust -> false
          | Fannet.Backend.Unknown _ -> failwith "E15: smt probe unknown"
        in
        if not (flips smt_max_delta) then None
        else if flips 0 then Some 0
        else begin
          let rec search lo hi =
            if hi - lo <= 1 then hi
            else
              let mid = (lo + hi) / 2 in
              if flips mid then search lo mid else search mid hi
          in
          Some (search 0 smt_max_delta)
        end)
  in
  let bnb_ref =
    Resil.Budget.ok_or_fail
      @@ Fannet.Tolerance.input_min_flip_delta_b Fannet.Backend.Bnb qnet ~bias_noise:false
         ~max_delta:smt_max_delta ~input:sinput ~label:slabel
  in
  if warm <> cold || warm <> bnb_ref then
    failwith "E15: incremental smt min-flip disagrees with cold smt or bnb";
  let show = function Some d -> Printf.sprintf "+-%d%%" d | None -> "robust" in
  Printf.printf
    "incremental smt min-flip (small net): %s in %.3fs warm session vs %.3fs\n\
    \ re-encoding per probe (%.2fx); bnb agrees (%s)\n"
    (show warm) warm_t cold_t (cold_t /. warm_t) (show bnb_ref);
  (* ---------------------------------------------------------------- *)
  (* E19: work-stealing effort accounting, warm session pool reuse and  *)
  (* the diversified solver portfolio with a certified winner.          *)
  (* ---------------------------------------------------------------- *)
  section "E19 bench_parallel_v2 (work stealing + warm sessions + portfolio)";
  let cores = Domain.recommended_domain_count () in
  let single_core = cores <= 1 in
  (* Speedup contract: with real cores a parallel ladder must beat
     jobs=1; on a single-core box the honest ratio is <= 1 and the gate
     is no-regression only — pool scheduling and stealing may not cost
     more than a bounded constant factor. *)
  let no_regression_floor = 0.15 in
  (* Sub-10ms smoke timings are dominated by scheduling constants and
     noise, so the ratio floor alone would flake; a failure
     additionally requires an absolute regression worth caring about. *)
  let abs_regression_slack_s = 0.05 in
  let assert_speedup name ~t1 ~tn =
    let sp = t1 /. tn in
    if single_core then begin
      if sp < no_regression_floor && tn -. t1 > abs_regression_slack_s then
        failwith
          (Printf.sprintf
             "E19: %s single-core ratio %.2fx below the %.2fx no-regression floor"
             name sp no_regression_floor)
    end
    else if (not smoke) && sp <= 1.0 then
      failwith
        (Printf.sprintf "E19: %s speedup %.2fx with %d cores — parallelism does not pay"
           name sp cores)
  in
  List.iter
    (fun entry ->
      match entry with
      | Util.Json.Obj kvs -> (
          match
            ( List.assoc_opt "analysis" kvs,
              List.assoc_opt "jobs1_s" kvs,
              List.assoc_opt "jobsN_s" kvs )
          with
          | ( Some (Util.Json.String name),
              Some (Util.Json.Float t1),
              Some (Util.Json.Float tn) ) ->
              assert_speedup name ~t1 ~tn
          | _ -> ())
      | _ -> ())
    !analyses;
  (* Work-stealing effort: re-run the per-input flip scan with a probe
     installed and account each worker's items, steals and busy time.
     The imbalance gauge is slowest-worker busy time over the mean — 1.0
     is perfect balance, and stealing is what pushes it towards 1. *)
  let batches = ref 0 and steals = ref 0 and stolen_items = ref 0 in
  let imbalance = ref 1.0 in
  let probe =
    {
      Util.Parallel.now_s =
        (fun () -> Int64.to_float (Obs.Clock.now_ns ()) *. 1e-9);
      record =
        (fun ~stats ->
          incr batches;
          Array.iter
            (fun (w : Util.Parallel.worker_stat) ->
              steals := !steals + w.steals;
              stolen_items := !stolen_items + w.items)
            stats;
          let busy = Array.map (fun (w : Util.Parallel.worker_stat) -> w.busy_s) stats in
          let slowest = Array.fold_left max 0. busy in
          let mean =
            Array.fold_left ( +. ) 0. busy /. float_of_int (Array.length busy)
          in
          if mean > 0. then imbalance := slowest /. mean);
    }
  in
  Util.Parallel.set_probe (Some probe);
  ignore (misclassified ~jobs:njobs Fannet.Backend.Bnb);
  Util.Parallel.set_probe None;
  Printf.printf
    "work stealing (jobs=%d): %d batches, %d items, %d steals, imbalance %.2f\n"
    njobs !batches !stolen_items !steals !imbalance;
  (* Warm session pool: the same binary search twice — the repeat must
     re-encode nothing and answer identically from the pooled session. *)
  Fannet.Warm.reset ();
  let warm_search () =
    Resil.Budget.ok_or_fail
      @@ Fannet.Tolerance.input_min_flip_delta_b Fannet.Backend.Smt qnet
         ~bias_noise:false ~max_delta:smt_max_delta ~input:sinput ~label:slabel
  in
  let first, first_s = time_of warm_search in
  let misses_after_first = Fannet.Warm.misses () in
  let repeat, repeat_s = time_of warm_search in
  let warm_hits = Fannet.Warm.hits () in
  let warm_misses = Fannet.Warm.misses () in
  let warm_evictions = Fannet.Warm.evictions () in
  if first <> repeat || first <> warm then
    failwith "E19: warm-pool repeat search changed its answer";
  if warm_misses <> misses_after_first then
    failwith "E19: warm-pool repeat search re-encoded the network";
  let warm_hit_rate =
    float_of_int warm_hits /. float_of_int (max 1 (warm_hits + warm_misses))
  in
  let warm_speedup = first_s /. repeat_s in
  assert_speedup "warm_pool_repeat" ~t1:first_s ~tn:repeat_s;
  Printf.printf
    "warm pool: first search %.4fs (%d encodes), repeat %.4fs (%.2fx, 0 encodes,\n\
    \ %d hits, %.0f%% hit rate)\n"
    first_s warm_misses repeat_s warm_speedup warm_hits (100. *. warm_hit_rate);
  (* Portfolio: race diversified solvers on a robust and (when the net
     admits one) a flipping query; the winner's DRUP certificate must
     pass the independent checker — the same acceptance bar as the
     single-solver certified path. *)
  let width = max 2 (Fannet.Portfolio.default_width ()) in
  Obs.Report.enable ();
  Obs.Report.reset ();
  let portfolio_deltas =
    match bnb_ref with None -> [ 0; smt_max_delta ] | Some d -> [ 0; d ]
  in
  let portfolio_rows =
    List.map
      (fun pdelta ->
        let spec = Fannet.Noise.symmetric ~delta:pdelta ~bias_noise:false in
        let truth =
          Fannet.Backend.exists_flip Fannet.Backend.Bnb qnet spec ~input:sinput
            ~label:slabel
        in
        let cv_single, single_s =
          time_of (fun () ->
              Fannet.Backend.certified_exists_flip qnet spec ~input:sinput
                ~label:slabel)
        in
        let (cv, seed), portfolio_s =
          time_of (fun () ->
              Fannet.Portfolio.certified_exists_flip ~width qnet spec
                ~input:sinput ~label:slabel)
        in
        let verdict_class v =
          match v with
          | Fannet.Backend.Robust -> "robust"
          | Fannet.Backend.Flip _ -> "flip"
          | Fannet.Backend.Unknown _ -> "unknown"
        in
        if verdict_class cv.Fannet.Backend.cv_verdict <> verdict_class truth
        then
          failwith
            (Printf.sprintf "E19: portfolio disagrees with bnb at +-%d%%" pdelta);
        if
          verdict_class cv_single.Fannet.Backend.cv_verdict
          <> verdict_class truth
        then
          failwith
            (Printf.sprintf "E19: single solver disagrees with bnb at +-%d%%"
               pdelta);
        let winner =
          match seed with
          | Some s -> s
          | None -> failwith "E19: decided portfolio verdict without a winner"
        in
        (match
           Fannet.Backend.check_certified qnet spec ~input:sinput ~label:slabel
             cv
         with
        | Ok () -> ()
        | Error e ->
            failwith
              (Printf.sprintf
                 "E19: portfolio winner's certificate rejected at +-%d%%: %s"
                 pdelta e));
        Printf.printf
          "portfolio +-%d%% (width %d): %s, winner seed %d, certificate checked\n\
          \ (%.4fs vs %.4fs single solver)\n"
          pdelta width
          (verdict_class cv.Fannet.Backend.cv_verdict)
          winner portfolio_s single_s;
        Util.Json.Obj
          [
            ("delta", Util.Json.Int pdelta);
            ("verdict", Util.Json.String (verdict_class cv.Fannet.Backend.cv_verdict));
            ("winner_seed", Util.Json.Int winner);
            ("single_s", Util.Json.Float single_s);
            ("portfolio_s", Util.Json.Float portfolio_s);
            ("certificate_checked", Util.Json.Bool true);
          ])
      portfolio_deltas
  in
  let cval name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  let races = cval "portfolio.races" in
  let undecided = cval "portfolio.undecided" in
  let wins_by_seed =
    List.init width (fun s ->
        ( Printf.sprintf "seed%d" s,
          Util.Json.Int (cval (Printf.sprintf "portfolio.wins.seed%d" s)) ))
  in
  Obs.Report.disable ();
  Obs.Report.reset ();
  let json =
    Util.Json.Obj
      [
        ("schema", Util.Json.String "fannet.bench_parallel/2");
        ("smoke", Util.Json.Bool smoke);
        ("jobs", Util.Json.Int njobs);
        ("recommended_domains", Util.Json.Int cores);
        ("single_core", Util.Json.Bool single_core);
        ("no_regression_floor", Util.Json.Float no_regression_floor);
        ("n_inputs", Util.Json.Int (Array.length inputs));
        ("delta", Util.Json.Int delta);
        ("max_delta", Util.Json.Int max_delta);
        ("analyses", Util.Json.List (List.rev !analyses));
        ( "incremental_smt",
          Util.Json.Obj
            [
              ("max_delta", Util.Json.Int smt_max_delta);
              ( "min_flip_delta",
                match warm with
                | Some d -> Util.Json.Int d
                | None -> Util.Json.Null );
              ("warm_s", Util.Json.Float warm_t);
              ("cold_s", Util.Json.Float cold_t);
              ("speedup", Util.Json.Float (cold_t /. warm_t));
              ("agrees_bnb", Util.Json.Bool (warm = bnb_ref));
            ] );
        ( "work_stealing",
          Util.Json.Obj
            [
              ("jobs", Util.Json.Int njobs);
              ("batches", Util.Json.Int !batches);
              ("items", Util.Json.Int !stolen_items);
              ("steals", Util.Json.Int !steals);
              ("imbalance", Util.Json.Float !imbalance);
            ] );
        ( "warm_sessions",
          Util.Json.Obj
            [
              ("first_s", Util.Json.Float first_s);
              ("repeat_s", Util.Json.Float repeat_s);
              ("repeat_speedup", Util.Json.Float warm_speedup);
              ("hits", Util.Json.Int warm_hits);
              ("misses", Util.Json.Int warm_misses);
              ("evictions", Util.Json.Int warm_evictions);
              ("hit_rate", Util.Json.Float warm_hit_rate);
            ] );
        ( "portfolio",
          Util.Json.Obj
            [
              ("width", Util.Json.Int width);
              ("races", Util.Json.Int races);
              ("undecided", Util.Json.Int undecided);
              ("wins", Util.Json.Obj wins_by_seed);
              ("queries", Util.Json.List portfolio_rows);
            ] );
      ]
  in
  Util.Json.write_file out json;
  (match Util.Json.parse_file out with
  | Ok reread
    when Util.Json.member "schema" reread
         = Some (Util.Json.String "fannet.bench_parallel/2") ->
      Printf.printf "%s written and re-parsed OK\n" out
  | Ok _ -> failwith (Printf.sprintf "E19: %s lost its schema tag" out)
  | Error e -> failwith (Printf.sprintf "E19: %s failed to parse: %s" out e))

(* ------------------------------------------------------------------ *)
(* E16 - certificate subsystem: proof-logging overhead, checker        *)
(* throughput, end-to-end certified verdicts                           *)
(* ------------------------------------------------------------------ *)

let pigeonhole_clauses ~pigeons ~holes =
  let var p h = (p * holes) + h in
  let clauses = ref [] in
  for p = 0 to pigeons - 1 do
    clauses := List.init holes (fun h -> (var p h, true)) :: !clauses
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        clauses := [ (var p1 h, false); (var p2 h, false) ] :: !clauses
      done
    done
  done;
  (pigeons * holes, !clauses)

let bench_cert ?(smoke = false) ~out () =
  section "E16 bench_cert (proof logging overhead + RUP checker throughput)";
  let pigeons = 7 and holes = 6 in
  let n_vars, clauses = pigeonhole_clauses ~pigeons ~holes in
  let solve_php ~logged () =
    let s = Sat.Solver.create () in
    let trace = if logged then Some (Cert.Proof.attach s) else None in
    let vars = Array.init n_vars (fun _ -> Sat.Solver.new_var s) in
    List.iter
      (fun clause ->
        Sat.Solver.add_clause s
          (List.map (fun (v, sign) -> Sat.Lit.make vars.(v) sign) clause))
      clauses;
    let r = Sat.Solver.solve s in
    if r <> Sat.Solver.Unsat then failwith "E16: php must be unsat";
    (s, trace)
  in
  (* Per-event cost is tiny relative to run-to-run solver noise, so take
     the best of several repetitions for both configurations. *)
  let reps = if smoke then 3 else 7 in
  let best f =
    let ts = List.init reps (fun _ -> snd (time_of f)) in
    List.fold_left min (List.hd ts) (List.tl ts)
  in
  let t_off = best (fun () -> solve_php ~logged:false ()) in
  let t_on = best (fun () -> solve_php ~logged:true ()) in
  let overhead_pct = 100. *. ((t_on -. t_off) /. t_off) in
  Printf.printf
    "php(%d,%d) solve: %.4fs unlogged, %.4fs with proof sink (%.1f%% overhead)\n"
    pigeons holes t_off t_on overhead_pct;
  (* Checker throughput on the proof from one logged run. *)
  let s, trace = solve_php ~logged:true () in
  let trace = Option.get trace in
  let cert =
    match Cert.Verdict.of_trace_unsat ~n_vars:(Sat.Solver.nvars s) trace with
    | Ok c -> c
    | Error e -> failwith ("E16: no refutation certificate: " ^ e)
  in
  let n_steps, n_lemmas =
    match cert with
    | Cert.Verdict.Refutation { proof; _ } ->
        ( List.length proof,
          List.length
            (List.filter
               (function Cert.Rup.Learn _ -> true | Cert.Rup.Delete _ -> false)
               proof) )
    | Cert.Verdict.Model _ -> failwith "E16: expected a refutation"
  in
  let check_result, check_t = time_of (fun () -> Cert.Verdict.check cert) in
  (match check_result with
  | Ok () -> ()
  | Error e -> failwith ("E16: solver proof rejected by the checker: " ^ e));
  let lemmas_per_s = float_of_int n_lemmas /. check_t in
  Printf.printf
    "RUP check: %d proof steps (%d lemmas) verified in %.4fs (%.0f lemmas/s)\n"
    n_steps n_lemmas check_t lemmas_per_s;
  (* End-to-end certified robustness verdict on the small fixed network:
     encode, solve with the trace attached, snapshot, re-check. *)
  let qnet = small_qnet () in
  let input = [| 50; 50 |] and delta = 12 in
  let label = Nn.Qnet.predict qnet input in
  let spec = Fannet.Noise.symmetric ~delta ~bias_noise:false in
  let cv, e2e_solve_t =
    time_of (fun () -> Fannet.Backend.certified_exists_flip qnet spec ~input ~label)
  in
  (match cv.Fannet.Backend.cv_verdict with
  | Fannet.Backend.Robust -> ()
  | v ->
      failwith
        ("E16: expected robust at +-12 on the small net, got "
        ^ Fannet.Backend.verdict_to_string v));
  let e2e_check, e2e_check_t =
    time_of (fun () -> Fannet.Backend.check_certified qnet spec ~input ~label cv)
  in
  (match e2e_check with
  | Ok () -> ()
  | Error e -> failwith ("E16: end-to-end certificate rejected: " ^ e));
  Printf.printf
    "certified robust verdict (small net, +-%d%%): %.3fs solve+log, %.3fs check\n"
    delta e2e_solve_t e2e_check_t;
  let json =
    Util.Json.Obj
      [
        ("schema", Util.Json.String "fannet.bench_cert/1");
        ("smoke", Util.Json.Bool smoke);
        ( "proof_logging",
          Util.Json.Obj
            [
              ("workload", Util.Json.String (Printf.sprintf "php(%d,%d)" pigeons holes));
              ("reps", Util.Json.Int reps);
              ("unlogged_s", Util.Json.Float t_off);
              ("logged_s", Util.Json.Float t_on);
              ("overhead_pct", Util.Json.Float overhead_pct);
            ] );
        ( "checker",
          Util.Json.Obj
            [
              ("proof_steps", Util.Json.Int n_steps);
              ("lemmas", Util.Json.Int n_lemmas);
              ("check_s", Util.Json.Float check_t);
              ("lemmas_per_s", Util.Json.Float lemmas_per_s);
            ] );
        ( "end_to_end",
          Util.Json.Obj
            [
              ("delta", Util.Json.Int delta);
              ("verdict", Util.Json.String "robust");
              ("solve_s", Util.Json.Float e2e_solve_t);
              ("check_s", Util.Json.Float e2e_check_t);
            ] );
      ]
  in
  Util.Json.write_file out json;
  match Util.Json.parse_file out with
  | Ok reread
    when Util.Json.member "schema" reread
         = Some (Util.Json.String "fannet.bench_cert/1") ->
      Printf.printf "%s written and re-parsed OK\n" out
  | Ok _ -> failwith (Printf.sprintf "E16: %s lost its schema tag" out)
  | Error e -> failwith (Printf.sprintf "E16: %s failed to parse: %s" out e)

(* ------------------------------------------------------------------ *)
(* E17 - observability overhead: the disabled fast path must be free   *)
(* ------------------------------------------------------------------ *)

let bench_obs ?(smoke = false) ~out () =
  section "E17 bench_obs (metrics registry: disabled fast path + enabled overhead)";
  (* Representative instrumented workload: cascade and SMT robustness
     queries plus one incremental min-flip search on the small network —
     the code paths that carry every Obs record site. *)
  let qnet = small_qnet () in
  let sinput = [| 112; 87 |] in
  let slabel = Nn.Qnet.predict qnet sinput in
  let deltas = if smoke then [ 5; 12 ] else [ 2; 5; 8; 12; 15; 20 ] in
  let workload () =
    List.iter
      (fun delta ->
        let spec = Fannet.Noise.symmetric ~delta ~bias_noise:false in
        ignore
          (Fannet.Backend.exists_flip Fannet.Backend.default_cascade qnet spec
             ~input:sinput ~label:slabel);
        ignore
          (Fannet.Backend.exists_flip Fannet.Backend.Smt qnet spec ~input:sinput
             ~label:slabel))
      deltas;
    ignore
      (Resil.Budget.ok_or_fail
         @@ Fannet.Tolerance.input_min_flip_delta_b Fannet.Backend.Smt qnet
            ~bias_noise:false ~max_delta:40 ~input:sinput ~label:slabel)
  in
  let reps = if smoke then 3 else 7 in
  let best f =
    let ts = List.init reps (fun _ -> snd (time_of f)) in
    List.fold_left min (List.hd ts) (List.tl ts)
  in
  Obs.Report.disable ();
  Obs.Report.reset ();
  let t_disabled = best workload in
  Obs.Report.enable ();
  Obs.Report.reset ();
  let t_enabled = best workload in
  (* Event counts recorded while enabled (per rep: totals / reps). Batched
     counters (conflicts, propagations, ...) are pushed once per solve, so
     the number of record-site executions is what matters, not the counter
     magnitudes. *)
  let cval name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  let hcount name = (Obs.Metrics.histogram_view (Obs.Metrics.histogram name)).Obs.Metrics.count in
  let solves = cval "sat.solves" in
  let queries = cval "smtlite.queries" in
  let probes = cval "tolerance.probes" in
  let learnt = hcount "sat.learnt_clause_len" in
  let backend_queries =
    hcount "backend.cascade(bnb).query_s" + hcount "backend.smt.query_s"
  in
  (* Record-site executions per rep: each learnt clause checks the flag
     once; a solve pushes ~6 counter deltas + 1 histogram; a query records
     ~5 metrics; a backend query ~2 (histogram + clock pair); a tolerance
     probe ~2 (counter + gauge). *)
  let events_total =
    learnt + (6 * solves) + (5 * queries) + (2 * backend_queries) + (2 * probes)
  in
  let events_per_rep = float_of_int events_total /. float_of_int reps in
  Obs.Report.disable ();
  (* Disabled-branch unit cost: one counter incr = atomic load + branch. *)
  let iters = if smoke then 2_000_000 else 20_000_000 in
  let c_probe = Obs.Metrics.counter "bench.obs.disabled_probe" in
  let _, t_branch = time_of (fun () -> for _ = 1 to iters do Obs.Metrics.incr c_probe done) in
  let disabled_branch_ns = 1e9 *. t_branch /. float_of_int iters in
  (* The modelled cost of the disabled instrumentation on this workload:
     direct enabled-vs-disabled deltas drown in solver noise at this
     scale, so the asserted bound multiplies the measured per-site branch
     cost by the number of record-site executions. *)
  let disabled_overhead_pct =
    100. *. (events_per_rep *. disabled_branch_ns /. 1e9) /. t_disabled
  in
  let enabled_overhead_pct = 100. *. ((t_enabled -. t_disabled) /. t_disabled) in
  Printf.printf
    "workload: %.4fs disabled, %.4fs enabled (%+.1f%% measured, noisy)\n"
    t_disabled t_enabled enabled_overhead_pct;
  Printf.printf
    "disabled branch: %.2f ns/site x %.0f sites/rep = %.5f%% modelled overhead (bound: <2%%)\n"
    disabled_branch_ns events_per_rep disabled_overhead_pct;
  if disabled_overhead_pct >= 2.0 then
    failwith
      (Printf.sprintf "E17: disabled-path overhead %.3f%% breaches the 2%% contract"
         disabled_overhead_pct);
  Obs.Report.reset ();
  let json =
    Util.Json.Obj
      [
        ("schema", Util.Json.String "fannet.bench_obs/1");
        ("smoke", Util.Json.Bool smoke);
        ("monotonic_clock", Util.Json.Bool Obs.Clock.monotonic);
        ("reps", Util.Json.Int reps);
        ("disabled_s", Util.Json.Float t_disabled);
        ("enabled_s", Util.Json.Float t_enabled);
        ("enabled_overhead_pct", Util.Json.Float enabled_overhead_pct);
        ("disabled_branch_ns", Util.Json.Float disabled_branch_ns);
        ("events_per_rep", Util.Json.Float events_per_rep);
        ( "events",
          Util.Json.Obj
            [
              ("sat_solves", Util.Json.Int solves);
              ("smtlite_queries", Util.Json.Int queries);
              ("tolerance_probes", Util.Json.Int probes);
              ("learnt_clauses", Util.Json.Int learnt);
              ("backend_queries", Util.Json.Int backend_queries);
            ] );
        ("disabled_overhead_pct", Util.Json.Float disabled_overhead_pct);
        ("bound_pct", Util.Json.Float 2.0);
      ]
  in
  Util.Json.write_file out json;
  (match Util.Json.parse_file out with
  | Ok reread
    when Util.Json.member "schema" reread
         = Some (Util.Json.String "fannet.bench_obs/1") ->
      Printf.printf "%s written and re-parsed OK\n" out
  | Ok _ -> failwith (Printf.sprintf "E17: %s lost its schema tag" out)
  | Error e -> failwith (Printf.sprintf "E17: %s failed to parse: %s" out e))

(* ------------------------------------------------------------------ *)
(* E18: resilience layer costs                                         *)
(* ------------------------------------------------------------------ *)

let bench_robust ?(smoke = false) ~out () =
  section "E18 bench_robust (budget-check overhead + checkpoint write cost)";
  let qnet = small_qnet () in
  let sinput = [| 112; 87 |] in
  let slabel = Nn.Qnet.predict qnet sinput in
  let deltas = if smoke then [ 5; 12 ] else [ 2; 5; 8; 12; 15; 20 ] in
  (* The budgeted workload: the same robustness queries every analysis
     command issues, under a budget generous enough never to fire — so the
     difference against the unbudgeted run is pure polling cost. *)
  let workload budget () =
    List.iter
      (fun delta ->
        let spec = Fannet.Noise.symmetric ~delta ~bias_noise:false in
        ignore
          (Fannet.Backend.exists_flip ?budget Fannet.Backend.Bnb qnet spec
             ~input:sinput ~label:slabel);
        ignore
          (Fannet.Backend.exists_flip ?budget Fannet.Backend.Smt qnet spec
             ~input:sinput ~label:slabel))
      deltas
  in
  let reps = if smoke then 3 else 7 in
  let best f =
    let ts = List.init reps (fun _ -> snd (time_of f)) in
    List.fold_left min (List.hd ts) (List.tl ts)
  in
  let t_plain = best (workload None) in
  let generous () = Some (Resil.Budget.create ~timeout_s:1e6 ~max_mem_mb:1_000_000 ()) in
  let t_budgeted = best (fun () -> workload (generous ()) ()) in
  let measured_pct = 100. *. ((t_budgeted -. t_plain) /. t_plain) in
  (* Unit cost of one Budget.check (atomic load + clock read + Gc.quick_stat). *)
  let iters = if smoke then 200_000 else 2_000_000 in
  let b = Resil.Budget.create ~timeout_s:1e6 ~max_mem_mb:1_000_000 () in
  let _, t_checks =
    time_of (fun () ->
        for _ = 1 to iters do
          ignore (Resil.Budget.check b)
        done)
  in
  let check_ns = 1e9 *. t_checks /. float_of_int iters in
  (* Poll count per rep, from the solver's own counters: the SAT loop
     polls every 64 conflicts plus once per solve entry; branch-and-bound
     polls every 64 boxes — bounded here by a fixed slack, since the small
     network explores at most a few hundred boxes per query. *)
  Obs.Report.enable ();
  Obs.Report.reset ();
  workload (generous ()) ();
  let cval name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  let conflicts = cval "sat.conflicts" in
  let solves = cval "sat.solves" in
  Obs.Report.disable ();
  Obs.Report.reset ();
  let bnb_poll_slack = 100 in
  let polls_per_rep = (conflicts / 64) + (2 * solves) + bnb_poll_slack in
  let modelled_pct =
    100. *. (float_of_int polls_per_rep *. check_ns /. 1e9) /. t_plain
  in
  Printf.printf
    "workload: %.4fs unbudgeted, %.4fs budgeted (%+.1f%% measured, noisy)\n"
    t_plain t_budgeted measured_pct;
  Printf.printf
    "budget check: %.2f ns x %d polls/rep = %.5f%% modelled overhead (bound: <2%%)\n"
    check_ns polls_per_rep modelled_pct;
  if modelled_pct >= 2.0 then
    failwith
      (Printf.sprintf "E18: budget-check overhead %.3f%% breaches the 2%% contract"
         modelled_pct);
  (* Checkpoint write cost: a representative extract checkpoint payload
     (hundreds of noise vectors plus pending boxes) written through the
     full fannet-ckpt/1 path — serialize, checksum, tmp file, rename. *)
  let n_vectors = if smoke then 64 else 512 in
  let vec i =
    Util.Json.Obj
      [
        ("bias", Util.Json.Int 0);
        ( "inputs",
          Util.Json.List
            (List.init 5 (fun k -> Util.Json.Int ((i + k) mod 7 - 3))) );
      ]
  in
  let payload =
    Util.Json.Obj
      [
        ("key", Util.Json.String (String.make 32 'a'));
        ("emitted", Util.Json.Int n_vectors);
        ("vectors", Util.Json.List (List.init n_vectors vec));
        ("pending", Util.Json.List []);
      ]
  in
  let path = Filename.temp_file "fannet_bench" ".ckpt" in
  let writes = if smoke then 20 else 200 in
  let _, t_writes =
    time_of (fun () ->
        for _ = 1 to writes do
          Resil.Ckpt.save ~kind:"extract" ~path payload
        done)
  in
  let write_ms = 1e3 *. t_writes /. float_of_int writes in
  let bytes = (Unix.stat path).Unix.st_size in
  let load_ok =
    match Resil.Ckpt.load ~kind:"extract" ~path with
    | Ok _ -> true
    | Error _ -> false
  in
  Sys.remove path;
  if not load_ok then failwith "E18: checkpoint did not load back";
  Printf.printf
    "checkpoint: %d vectors, %d bytes, %.3f ms/write (atomic tmp+rename), reload OK\n"
    n_vectors bytes write_ms;
  let json =
    Util.Json.Obj
      [
        ("schema", Util.Json.String "fannet.bench_robust/1");
        ("smoke", Util.Json.Bool smoke);
        ("reps", Util.Json.Int reps);
        ("plain_s", Util.Json.Float t_plain);
        ("budgeted_s", Util.Json.Float t_budgeted);
        ("measured_overhead_pct", Util.Json.Float measured_pct);
        ("check_ns", Util.Json.Float check_ns);
        ("polls_per_rep", Util.Json.Int polls_per_rep);
        ("modelled_overhead_pct", Util.Json.Float modelled_pct);
        ("bound_pct", Util.Json.Float 2.0);
        ( "checkpoint",
          Util.Json.Obj
            [
              ("vectors", Util.Json.Int n_vectors);
              ("bytes", Util.Json.Int bytes);
              ("write_ms", Util.Json.Float write_ms);
              ("reload_ok", Util.Json.Bool load_ok);
            ] );
      ]
  in
  Util.Json.write_file out json;
  match Util.Json.parse_file out with
  | Ok reread
    when Util.Json.member "schema" reread
         = Some (Util.Json.String "fannet.bench_robust/1") ->
      Printf.printf "%s written and re-parsed OK\n" out
  | Ok _ -> failwith (Printf.sprintf "E18: %s lost its schema tag" out)
  | Error e -> failwith (Printf.sprintf "E18: %s failed to parse: %s" out e)

(* ------------------------------------------------------------------ *)
(* E21: model counting (lib/count)                                     *)
(* ------------------------------------------------------------------ *)

(* Exact #SAT throughput (cubes and solver calls per second, certified
   overhead), the approximate counter's cost across an (ε, δ) grid, and
   exact-vs-approx agreement — asserted, not just reported. *)
let bench_count ?(smoke = false) ~out () =
  section "E21 bench_count (exact #SAT + (ε, δ) XOR-hash estimation)";
  let qnet = small_qnet () in
  let sinput = [| 112; 87 |] in
  let slabel = Nn.Qnet.predict qnet sinput in
  (* Exact counting on the network encoding, plain and certified. *)
  let deltas = if smoke then [ 3; 5 ] else [ 3; 5; 8; 12 ] in
  let exact_rows =
    List.map
      (fun delta ->
        let spec = Fannet.Noise.symmetric ~delta ~bias_noise:false in
        let count certify () =
          Fannet.Robustness.probability
            ~mode:(Fannet.Robustness.Exact_mode { certify })
            qnet spec ~input:sinput ~label:slabel
        in
        let r, t_plain = time_of (count false) in
        let rc, t_cert = time_of (count true) in
        if not (Util.Bigcount.equal r.Fannet.Robustness.flips rc.Fannet.Robustness.flips)
        then failwith "E21: certified and plain exact counts disagree";
        if rc.Fannet.Robustness.certificate = None then
          failwith "E21: certified run produced no certificate";
        let calls = r.Fannet.Robustness.solver_calls in
        Printf.printf
          "exact delta %2d: %s/%s flips, %d solver calls, %.4fs plain, %.4fs \
           certified (x%.1f)\n"
          delta
          (Util.Bigcount.to_string r.Fannet.Robustness.flips)
          (Util.Bigcount.to_string r.Fannet.Robustness.total)
          calls t_plain t_cert
          (t_cert /. Float.max 1e-9 t_plain);
        ( delta,
          r.Fannet.Robustness.flips,
          r.Fannet.Robustness.total,
          calls,
          t_plain,
          t_cert ))
      deltas
  in
  (* Tight-ε approx on the network must short-circuit to the exact count. *)
  let delta0 = List.hd deltas in
  let spec0 = Fannet.Noise.symmetric ~delta:delta0 ~bias_noise:false in
  let exact0 =
    Fannet.Robustness.probability qnet spec0 ~input:sinput ~label:slabel
  in
  let tight =
    Fannet.Robustness.probability
      ~mode:(Fannet.Robustness.Approx_mode { epsilon = 0.1; delta = 0.2; seed = 1 })
      qnet spec0 ~input:sinput ~label:slabel
  in
  if not (Util.Bigcount.equal tight.Fannet.Robustness.flips exact0.Fannet.Robustness.flips)
  then failwith "E21: tight-ε approx disagrees with the exact flip count";
  print_endline "tight-ε approx short-circuits to the exact flip count: OK";
  (* (ε, δ) grid on a synthetic space large enough to force XOR rounds. *)
  let x = Smtlite.Term.var ~name:"bx" ~lo:0 ~hi:63 in
  let y = Smtlite.Term.var ~name:"by" ~lo:0 ~hi:63 in
  let f = Smtlite.Term.le (Smtlite.Term.of_var x) (Smtlite.Term.of_var y) in
  let truth = float_of_int (64 * 65 / 2) in
  let grid =
    if smoke then [ (0.8, 0.2) ] else [ (0.8, 0.2); (0.5, 0.2); (0.8, 0.05) ]
  in
  let approx_rows =
    List.map
      (fun (epsilon, delta) ->
        let a, t =
          time_of (fun () ->
              Count.Approx.count ~epsilon ~delta ~seed:3 f ~project:[ x; y ])
        in
        let est = Util.Bigcount.ratio a.Count.Approx.estimate Util.Bigcount.one in
        let within =
          est >= truth /. (1. +. epsilon) && est <= truth *. (1. +. epsilon)
        in
        (* Seed 3 is fixed, so this is a deterministic regression gate on
           the (ε, δ) guarantee, not a flaky statistical check. *)
        if not within then
          failwith
            (Printf.sprintf "E21: (%.2f, %.2f) estimate %.0f outside the envelope"
               epsilon delta est);
        Printf.printf
          "approx (%.2f, %.2f): estimate %.0f (truth %.0f), %d rounds, %d solver \
           calls, %.4fs\n"
          epsilon delta est truth a.Count.Approx.rounds a.Count.Approx.solver_calls t;
        (epsilon, delta, est, a.Count.Approx.rounds, a.Count.Approx.solver_calls, t))
      grid
  in
  let json =
    Util.Json.Obj
      [
        ("schema", Util.Json.String "fannet.bench_count/1");
        ("smoke", Util.Json.Bool smoke);
        ( "exact",
          Util.Json.List
            (List.map
               (fun (delta, flips, total, calls, t_plain, t_cert) ->
                 Util.Json.Obj
                   [
                     ("delta", Util.Json.Int delta);
                     ("flips", Util.Bigcount.to_json flips);
                     ("total", Util.Bigcount.to_json total);
                     ("solver_calls", Util.Json.Int calls);
                     ("plain_s", Util.Json.Float t_plain);
                     ("certified_s", Util.Json.Float t_cert);
                   ])
               exact_rows) );
        ( "approx",
          Util.Json.List
            (List.map
               (fun (epsilon, delta, est, rounds, calls, t) ->
                 Util.Json.Obj
                   [
                     ("epsilon", Util.Json.Float epsilon);
                     ("delta", Util.Json.Float delta);
                     ("estimate", Util.Json.Float est);
                     ("truth", Util.Json.Float truth);
                     ("rounds", Util.Json.Int rounds);
                     ("solver_calls", Util.Json.Int calls);
                     ("time_s", Util.Json.Float t);
                   ])
               approx_rows) );
        ("tight_eps_agrees", Util.Json.Bool true);
      ]
  in
  Util.Json.write_file out json;
  match Util.Json.parse_file out with
  | Ok reread
    when Util.Json.member "schema" reread
         = Some (Util.Json.String "fannet.bench_count/1") ->
      Printf.printf "%s written and re-parsed OK\n" out
  | Ok _ -> failwith (Printf.sprintf "E21: %s lost its schema tag" out)
  | Error e -> failwith (Printf.sprintf "E21: %s failed to parse: %s" out e)

(* ------------------------------------------------------------------ *)
(* E22: deep & binarized scaling ladder                                *)
(* ------------------------------------------------------------------ *)

(* Scaling ladder over {6, 64, 784} inputs x {2, 3, 4} weight layers x
   {relu-quantized, binarized} (Nn.Ladder rungs, one fixed seed): per
   rung and noise delta, the interval backend and budgeted Bnb verdicts
   with times; on gene-panel-sized rungs additionally the explicit
   enumerator cross-check, the exact flip count against brute-force
   enumeration, and a certified verdict re-checked by lib/cert. The
   precision gap is asserted, not just reported: the 64-input 3-layer
   relu rung must be Unknown for pure interval bounds yet decided by the
   symbolic-bounds Bnb within budget, and the deep binarized rung must
   yield a concrete (revalidated) counterexample. *)
let bench_ladder ?(smoke = false) ~out () =
  section "E22 bench_ladder (deep & binarized scaling ladder)";
  let seed = 60 in
  let budget_s = 5.0 in
  let decided = function
    | Fannet.Backend.Robust | Fannet.Backend.Flip _ -> true
    | Fannet.Backend.Unknown _ -> false
  in
  let shapes =
    if smoke then [ (6, 2); (6, 3); (64, 3); (64, 4) ]
    else
      [ (6, 2); (6, 3); (6, 4); (64, 2); (64, 3); (64, 4); (784, 2); (784, 3); (784, 4) ]
  in
  let deltas = if smoke then [ 1 ] else [ 1; 2 ] in
  let interval_gap = ref [] in
  let rows =
    List.concat_map
      (fun family ->
        List.concat_map
          (fun (n_inputs, n_layers) ->
            let r = Nn.Ladder.rung ~family ~n_inputs ~n_layers ~seed in
            let id = Nn.Ladder.rung_id r in
            let input = r.Nn.Ladder.input and label = r.Nn.Ladder.label in
            let qnet = r.Nn.Ladder.qnet in
            List.map
              (fun delta ->
                (* The smoke grid carries the two asserted gap rungs at
                   their asserted deltas; everything else runs delta 1. *)
                let delta =
                  if smoke && family = Nn.Ladder.Relu_quantized && n_inputs = 64
                  then 2
                  else delta
                in
                let spec = Fannet.Noise.symmetric ~delta ~bias_noise:false in
                let itv, itv_s =
                  time_of (fun () ->
                      Fannet.Backend.exists_flip Fannet.Backend.Interval qnet
                        spec ~input ~label)
                in
                let bnb, bnb_s =
                  time_of (fun () ->
                      let budget = Resil.Budget.create ~timeout_s:budget_s () in
                      Fannet.Backend.exists_flip ~budget Fannet.Backend.Bnb qnet
                        spec ~input ~label)
                in
                if (not (decided itv)) && decided bnb then
                  interval_gap := Printf.sprintf "%s d=%d" id delta :: !interval_gap;
                (* Small rungs: the explicit enumerator must agree with
                   Bnb on the same query — the fuzz oracle's agreement
                   notion, here on ladder-shaped networks. *)
                let explicit_agrees =
                  if
                    n_inputs = 6 && delta = 1
                    && Fannet.Noise.spec_size spec ~n_inputs
                       <= Fannet.Backend.default_explicit_limit
                  then begin
                    let ex =
                      Fannet.Backend.exists_flip
                        (Fannet.Backend.Explicit
                           { limit = Fannet.Backend.default_explicit_limit })
                        qnet spec ~input ~label
                    in
                    if not (Fannet.Backend.agree ex bnb) then
                      failwith
                        (Printf.sprintf
                           "E22: %s d=%d: explicit %s disagrees with bnb %s" id
                           delta
                           (Fannet.Backend.verdict_to_string ex)
                           (Fannet.Backend.verdict_to_string bnb));
                    Some true
                  end
                  else None
                in
                Printf.printf "%-22s d=%d: interval %-9s %6.3fs  bnb %-9s %6.3fs%s\n%!"
                  id delta
                  (match itv with
                  | Fannet.Backend.Unknown _ -> "unknown"
                  | v -> Fannet.Backend.verdict_to_string v)
                  itv_s
                  (match bnb with
                  | Fannet.Backend.Flip _ -> "flip"
                  | Fannet.Backend.Unknown _ -> "unknown"
                  | v -> Fannet.Backend.verdict_to_string v)
                  bnb_s
                  (match explicit_agrees with
                  | Some true -> "  explicit agrees"
                  | _ -> "");
                ( id, family, n_inputs, n_layers, delta, itv, bnb, bnb_s,
                  explicit_agrees ))
              deltas)
          shapes)
      Nn.Ladder.families
  in
  (* Asserted precision gap: symbolic bounds beat interval propagation on
     the wide 3-layer relu rung, and the deep binarized rung has a real,
     revalidated counterexample. *)
  let find fam n_inputs n_layers delta =
    List.find_opt
      (fun (_, f, ni, nl, d, _, _, _, _) ->
        f = fam && ni = n_inputs && nl = n_layers && d = delta)
      rows
  in
  (match find Nn.Ladder.Relu_quantized 64 3 2 with
  | Some (_, _, _, _, _, itv, bnb, _, _) ->
      if decided itv then
        failwith "E22: interval unexpectedly decided relu-quantized/64x3 d=2";
      if not (decided bnb) then
        failwith "E22: bnb failed to decide relu-quantized/64x3 d=2 within budget"
  | None when smoke -> failwith "E22: smoke grid lost the relu 64x3 gap rung"
  | None -> ());
  (match find Nn.Ladder.Binarized 64 4 1 with
  | Some (_, _, _, _, _, _, bnb, _, _) -> (
      match bnb with
      | Fannet.Backend.Flip _ -> ()
      | v ->
          failwith
            (Printf.sprintf "E22: binarized/64x4 d=1 expected a flip, got %s"
               (Fannet.Backend.verdict_to_string v)))
  | None -> failwith "E22: grid lost the binarized 64x4 rung");
  if !interval_gap = [] then
    failwith "E22: no rung separated interval bounds from symbolic Bnb";
  (* Gene-panel-sized rungs: exact flip counts on the fragile probe vs
     brute-force enumeration, and a certified verdict (DRUP refutation or
     model, sign comparators included) re-checked by lib/cert. *)
  let small_layers = if smoke then [ 2; 3 ] else [ 2; 3; 4 ] in
  let count_rows =
    List.concat_map
      (fun family ->
        List.map
          (fun n_layers ->
            let r = Nn.Ladder.rung ~family ~n_inputs:6 ~n_layers ~seed in
            let id = Nn.Ladder.rung_id r in
            let qnet = r.Nn.Ladder.qnet in
            let input = r.Nn.Ladder.fragile in
            let label = Nn.Qnet.predict qnet input in
            let delta = 1 in
            let spec = Fannet.Noise.symmetric ~delta ~bias_noise:false in
            let brute = ref 0 in
            Fannet.Noise.iter_vectors spec ~n_inputs:6 (fun v ->
                if Fannet.Noise.predict qnet spec ~input v <> label then
                  incr brute);
            let rep, count_s =
              time_of (fun () ->
                  Fannet.Robustness.probability qnet spec ~input ~label)
            in
            if rep.Fannet.Robustness.status <> Ok () then
              failwith (Printf.sprintf "E22: %s count did not finish" id);
            if
              not
                (Util.Bigcount.equal rep.Fannet.Robustness.flips
                   (Util.Bigcount.of_int !brute))
            then
              failwith
                (Printf.sprintf "E22: %s d=%d count %s <> brute-force %d" id
                   delta
                   (Util.Bigcount.to_string rep.Fannet.Robustness.flips)
                   !brute);
            let certified, cert_s =
              if (not smoke) || n_layers = 2 then begin
                let spec1 = Fannet.Noise.symmetric ~delta:1 ~bias_noise:false in
                let cv, cert_s =
                  time_of (fun () ->
                      Fannet.Backend.certified_exists_flip qnet spec1
                        ~input:r.Nn.Ladder.input ~label:r.Nn.Ladder.label)
                in
                (match
                   Fannet.Backend.check_certified qnet spec1
                     ~input:r.Nn.Ladder.input ~label:r.Nn.Ladder.label cv
                 with
                | Ok () -> ()
                | Error e ->
                    failwith (Printf.sprintf "E22: %s certificate: %s" id e));
                (true, cert_s)
              end
              else (false, 0.0)
            in
            Printf.printf
              "%-22s d=%d: %d/%d flips (brute-force agrees), %.3fs%s\n%!" id
              delta !brute
              (Fannet.Noise.spec_size spec ~n_inputs:6)
              count_s
              (if certified then Printf.sprintf "; certified %.3fs" cert_s
               else "");
            (id, delta, !brute, count_s, certified, cert_s))
          small_layers)
      Nn.Ladder.families
  in
  if not (List.exists (fun (_, _, brute, _, _, _) -> brute > 0) count_rows)
  then failwith "E22: every fragile-probe count was zero — vacuous cross-check";
  let verdict_json v =
    Util.Json.String
      (match v with
      | Fannet.Backend.Robust -> "robust"
      | Fannet.Backend.Flip _ -> "flip"
      | Fannet.Backend.Unknown _ -> "unknown")
  in
  let json =
    Util.Json.Obj
      [
        ("schema", Util.Json.String "fannet.bench_ladder/1");
        ("smoke", Util.Json.Bool smoke);
        ("seed", Util.Json.Int seed);
        ("budget_s", Util.Json.Float budget_s);
        ( "rungs",
          Util.Json.List
            (List.map
               (fun (id, _, n_inputs, n_layers, delta, itv, bnb, bnb_s, ex) ->
                 Util.Json.Obj
                   ([
                      ("id", Util.Json.String id);
                      ("n_inputs", Util.Json.Int n_inputs);
                      ("n_layers", Util.Json.Int n_layers);
                      ("delta", Util.Json.Int delta);
                      ("interval", verdict_json itv);
                      ("bnb", verdict_json bnb);
                      ("bnb_s", Util.Json.Float bnb_s);
                    ]
                   @
                   match ex with
                   | Some b -> [ ("explicit_agrees", Util.Json.Bool b) ]
                   | None -> []))
               rows) );
        ( "counts",
          Util.Json.List
            (List.map
               (fun (id, delta, flips, count_s, certified, cert_s) ->
                 Util.Json.Obj
                   [
                     ("id", Util.Json.String id);
                     ("delta", Util.Json.Int delta);
                     ("flips", Util.Json.Int flips);
                     ("count_s", Util.Json.Float count_s);
                     ("certified", Util.Json.Bool certified);
                     ("certified_s", Util.Json.Float cert_s);
                   ])
               count_rows) );
        ( "interval_gap",
          Util.Json.List
            (List.map (fun s -> Util.Json.String s) (List.rev !interval_gap)) );
      ]
  in
  Util.Json.write_file out json;
  match Util.Json.parse_file out with
  | Ok reread
    when Util.Json.member "schema" reread
         = Some (Util.Json.String "fannet.bench_ladder/1") ->
      Printf.printf "%s written and re-parsed OK\n" out
  | Ok _ -> failwith (Printf.sprintf "E22: %s lost its schema tag" out)
  | Error e -> failwith (Printf.sprintf "E22: %s failed to parse: %s" out e)

(* ------------------------------------------------------------------ *)
(* E20: serving layer (fannetd)                                        *)
(* ------------------------------------------------------------------ *)

module SP = Serve.Protocol

(* An in-process fannetd on an ephemeral TCP port, driven over the real
   wire: qps and latency percentiles under concurrent clients, the cache
   hit rate, and the cold / warm-session / cache-hit latency contrast —
   with the bit-identity of cached certified verdicts asserted on the
   encoded answer bytes. *)
let bench_serve ?(smoke = false) ~out () =
  let net = small_qnet () in
  let sinput = [| 112; 87 |] in
  let slabel = Nn.Qnet.predict net sinput in
  let serve_daemon ?(procs = 0) ?store_path ~workers ~cap ~cache_cap_bytes () =
    Serve.Daemon.run
      {
        Serve.Daemon.addr = Serve.Daemon.Tcp ("127.0.0.1", 0);
        workers;
        cap;
        cache_cap_bytes;
        timeout_ceiling_s = None;
        procs;
        store_path;
      }
  in
  let with_conn d f =
    let c = Serve.Client.connect (Serve.Daemon.address d) in
    Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)
  in
  let load c = match Serve.Client.load c net with
    | Ok digest -> digest
    | Error e -> failwith ("E20: load failed: " ^ e)
  in
  let timed_query c ~digest q =
    let t0 = Obs.Clock.now_ns () in
    match Serve.Client.query c ~digest q with
    | Ok (SP.Answer { cached; answer }) ->
        (1e3 *. Obs.Clock.elapsed_s ~since:t0, cached, answer)
    | Ok r ->
        failwith
          ("E20: unexpected reply "
          ^ SP.encode_reply { SP.rid = 0; reply = r })
    | Error e -> failwith ("E20: query failed: " ^ e)
  in
  (* =============================================================== *)
  (* E23: crash isolation. Runs FIRST — the supervised fleet forks    *)
  (* worker processes, and Unix.fork is refused for the lifetime of   *)
  (* an OCaml 5 process once any domain has been created in it, so    *)
  (* these measurements must precede every in-process daemon below.   *)
  (* =============================================================== *)
  section "E23 bench_serve (crash isolation: kill schedule, journal recovery)";
  let e23 =
    let store_path = Filename.temp_file "fannet_bench_chaos" ".store" in
    Sys.remove store_path;
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists store_path then Sys.remove store_path)
    @@ fun () ->
    let kill_every = 5 in
    let n_clients = if smoke then 8 else 16 in
    let per_client = if smoke then 4 else 8 in
    let query_for k j =
      let input = [| 100 + (per_client * k) + j; 80 - k |] in
      let label = Nn.Qnet.predict net input in
      let spec d' = Fannet.Noise.symmetric ~delta:d' ~bias_noise:false in
      match j mod 3 with
      | 0 ->
          SP.Exists_flip
            { backend = Fannet.Backend.Bnb; spec = spec (1 + (j mod 2)); input; label }
      | 1 -> SP.Certify { spec = spec 2; input; label }
      | _ ->
          SP.Tolerance
            { backend = Fannet.Backend.Bnb; bias_noise = false; max_delta = 4; input; label }
    in
    Resil.Faultpoint.clear ();
    Resil.Faultpoint.arm (Printf.sprintf "serve.worker.kill%%%d" kill_every);
    let d =
      serve_daemon ~procs:2 ~workers:2 ~cap:64 ~cache_cap_bytes:(1 lsl 26)
        ~store_path ()
    in
    let reference = query_for 0 1 (* a certify query; journaled below *) in
    let availability, deaths, restarts, wall_s, reference_bytes =
      Fun.protect ~finally:(fun () -> Serve.Daemon.stop d) @@ fun () ->
      let digest = with_conn d load in
      let decided = Atomic.make 0 and untyped = Atomic.make 0 in
      let ref_bytes = ref "" in
      let t0 = Obs.Clock.now_ns () in
      let client k () =
        with_conn d @@ fun c ->
        for j = 0 to per_client - 1 do
          match Serve.Client.query c ~digest ~retries:5 (query_for k j) with
          | Ok (SP.Answer { answer; _ }) when SP.answer_decided answer ->
              Atomic.incr decided;
              if k = 0 && j = 1 then
                ref_bytes := SP.answer_bytes answer
          | Ok (SP.Answer _ | SP.Overloaded _ | SP.Server_error _) -> ()
          | Ok _ | Error _ -> Atomic.incr untyped
        done
      in
      let threads = Array.init n_clients (fun k -> Thread.create (client k) ()) in
      Array.iter Thread.join threads;
      let wall_s = Obs.Clock.elapsed_s ~since:t0 in
      (* The reference certify must end the soak journaled, and
         certificate replies are far larger than bare verdicts — they
         essentially never win the race against a receipt-triggered
         kill. Ask again with the soak traffic quiesced: the schedule
         still kills every [kill_every] receipts, but these retries are
         now the only receipts, so at most one death interrupts them. *)
      (if !ref_bytes = "" then
         with_conn d (fun c ->
             match Serve.Client.query c ~digest ~retries:8 (query_for 0 1) with
             | Ok (SP.Answer { answer; _ }) when SP.answer_decided answer ->
                 ref_bytes := SP.answer_bytes answer
             | Ok _ -> failwith "E23: post-soak reference certify did not decide"
             | Error e -> failwith ("E23: post-soak reference certify: " ^ e)));
      if Atomic.get untyped > 0 then
        failwith "E23: untyped client failure under the kill schedule";
      let s = Serve.Daemon.stats d in
      if s.SP.submitted <> s.SP.served + s.SP.rejected + s.SP.failed then
        failwith "E23: served + rejected + failed <> submitted under chaos";
      let restarts, deaths =
        match Serve.Daemon.supervisor_stats d with
        | Some rd -> rd
        | None -> failwith "E23: supervised daemon reports no fleet stats"
      in
      if deaths < 1 then failwith "E23: the kill schedule never fired";
      let availability =
        float_of_int (Atomic.get decided) /. float_of_int (n_clients * per_client)
      in
      if availability <= 0. then failwith "E23: no query survived the kill schedule";
      (availability, deaths, restarts, wall_s, !ref_bytes)
    in
    Resil.Faultpoint.clear ();
    (* Restart-recovery latency: reopening the journal and warming the
       cache is part of Daemon.run. *)
    let t0 = Obs.Clock.now_ns () in
    let d2 = serve_daemon ~workers:2 ~cap:8 ~cache_cap_bytes:(1 lsl 26) ~store_path () in
    let recovery_ms = 1e3 *. Obs.Clock.elapsed_s ~since:t0 in
    Fun.protect ~finally:(fun () -> Serve.Daemon.stop d2) @@ fun () ->
    let recovered =
      match Serve.Daemon.store_stats d2 with
      | Some st -> st.Serve.Store.recovered
      | None -> failwith "E23: restarted daemon reports no store stats"
    in
    if recovered < 1 then failwith "E23: journal recovered no records";
    with_conn d2 @@ fun c ->
    let digest = load c in
    (* Warm-loss vs store-hit: the restart lost every warm session, but a
       journaled answer is a cache hit — no recompute at all. *)
    let store_hit_ms, cached, hit_answer = timed_query c ~digest reference in
    if not cached then failwith "E23: journaled answer missed the recovered cache";
    if
      reference_bytes <> ""
      && reference_bytes <> SP.answer_bytes hit_answer
    then failwith "E23: recovered answer not bit-identical to its pre-crash bytes";
    let fresh =
      SP.Certify
        {
          spec = Fannet.Noise.symmetric ~delta:2 ~bias_noise:false;
          input = [| 7; 93 |];
          label = Nn.Qnet.predict net [| 7; 93 |];
        }
    in
    let recompute_ms, cached_fresh, _ = timed_query c ~digest fresh in
    if cached_fresh then failwith "E23: a never-journaled query cannot hit the cache";
    if store_hit_ms >= recompute_ms then
      failwith
        (Printf.sprintf "E23: store hit (%.3f ms) not faster than recompute (%.2f ms)"
           store_hit_ms recompute_ms);
    Printf.printf
      "kill every %d: availability %.1f%%, %d deaths, %d restarts, %.2f s wall\n"
      kill_every (100. *. availability) deaths restarts wall_s;
    Printf.printf
      "restart: %d records recovered in %.2f ms; store hit %.3f ms vs %.2f ms recompute\n"
      recovered recovery_ms store_hit_ms recompute_ms;
    Util.Json.Obj
      [
        ("kill_every", Util.Json.Int kill_every);
        ("clients", Util.Json.Int n_clients);
        ("queries", Util.Json.Int (n_clients * per_client));
        ("availability", Util.Json.Float availability);
        ("worker_deaths", Util.Json.Int deaths);
        ("worker_restarts", Util.Json.Int restarts);
        ("wall_s", Util.Json.Float wall_s);
        ( "recovery",
          Util.Json.Obj
            [
              ("recovered_records", Util.Json.Int recovered);
              ("open_ms", Util.Json.Float recovery_ms);
              ("store_hit_ms", Util.Json.Float store_hit_ms);
              ("recompute_ms", Util.Json.Float recompute_ms);
            ] );
      ]
  in
  section "E20 bench_serve (fannetd: qps, latency, cache + warm contrast)";
  (* --- cold / warm-session contrast ------------------------------ *)
  (* One resident worker, cache disabled: the first tolerance query pays
     the full bit-blast (cold); the repeat reuses the worker domain's
     pooled warm session. A fresh daemon per rep makes every cold truly
     cold; min-of-reps suppresses scheduler noise. *)
  let tol_q =
    SP.Tolerance
      {
        backend = Fannet.Backend.Smt;
        bias_noise = false;
        max_delta = 20;
        input = sinput;
        label = slabel;
      }
  in
  let reps = if smoke then 3 else 5 in
  let colds = Array.make reps infinity and warms = Array.make reps infinity in
  for r = 0 to reps - 1 do
    let d = serve_daemon ~workers:1 ~cap:8 ~cache_cap_bytes:0 () in
    Fun.protect ~finally:(fun () -> Serve.Daemon.stop d) @@ fun () ->
    with_conn d @@ fun c ->
    let digest = load c in
    let cold, cached_c, _ = timed_query c ~digest tol_q in
    let warm, cached_w, _ = timed_query c ~digest tol_q in
    if cached_c || cached_w then failwith "E20: cache_cap=0 daemon served a cached answer";
    colds.(r) <- cold;
    warms.(r) <- warm
  done;
  let minimum a = Array.fold_left min a.(0) a in
  let cold_ms = minimum colds and warm_ms = minimum warms in
  (* --- cache-hit contrast + certified bit-identity --------------- *)
  let d = serve_daemon ~workers:1 ~cap:8 ~cache_cap_bytes:(1 lsl 26) () in
  let cache_hit_ms, cert_bit_identical =
    Fun.protect ~finally:(fun () -> Serve.Daemon.stop d) @@ fun () ->
    with_conn d @@ fun c ->
    let digest = load c in
    let _miss, cached0, _ = timed_query c ~digest tol_q in
    if cached0 then failwith "E20: first query cannot be a cache hit";
    let hit_reps = if smoke then 5 else 20 in
    let hits =
      Array.init hit_reps (fun _ ->
          let ms, cached, _ = timed_query c ~digest tol_q in
          if not cached then failwith "E20: repeat query missed the cache";
          ms)
    in
    (* A certified verdict through the cache must come back bit-identical
       to the cold answer and still convince the independent checker. *)
    let spec = Fannet.Noise.symmetric ~delta:8 ~bias_noise:false in
    let cert_q = SP.Certify { spec; input = sinput; label = slabel } in
    let _, _, cold_answer = timed_query c ~digest cert_q in
    let _, cached_hit, hit_answer = timed_query c ~digest cert_q in
    if not cached_hit then failwith "E20: certify repeat missed the cache";
    let bytes = SP.answer_bytes in
    let identical = bytes cold_answer = bytes hit_answer in
    (match hit_answer with
    | SP.Certified { verdict; cert } -> (
        match
          Fannet.Backend.check_certified net spec ~input:sinput ~label:slabel
            { Fannet.Backend.cv_verdict = verdict; cv_cert = cert }
        with
        | Ok () -> ()
        | Error e -> failwith ("E20: cached certificate rejected: " ^ e))
    | _ -> failwith "E20: certify answered with a non-certified form");
    (minimum hits, identical)
  in
  Printf.printf
    "tolerance query: %.2f ms cold, %.2f ms warm session, %.3f ms cache hit (min of %d reps)\n"
    cold_ms warm_ms cache_hit_ms reps;
  if warm_ms >= cold_ms then
    failwith
      (Printf.sprintf "E20: warm session (%.2f ms) not faster than cold (%.2f ms)"
         warm_ms cold_ms);
  if cache_hit_ms >= cold_ms then
    failwith
      (Printf.sprintf "E20: cache hit (%.3f ms) not faster than cold (%.2f ms)"
         cache_hit_ms cold_ms);
  if not cert_bit_identical then
    failwith "E20: cached certified verdict not bit-identical to the cold one";
  (* --- throughput under concurrent clients ----------------------- *)
  let workers = max 2 (min 4 (Util.Parallel.default_jobs ())) in
  let n_clients = if smoke then 8 else 16 in
  let per_client = if smoke then 25 else 100 in
  let d = serve_daemon ~workers ~cap:64 ~cache_cap_bytes:(1 lsl 26) () in
  let wall_s, lat_ms, stats =
    Fun.protect ~finally:(fun () -> Serve.Daemon.stop d) @@ fun () ->
    let digest = with_conn d load in
    let lat = Array.make (n_clients * per_client) 0.0 in
    (* A small set of distinct queries: the steady state is cache-served,
       which is the workload the daemon exists for. *)
    let queries =
      Array.init 8 (fun i ->
          let spec = Fannet.Noise.symmetric ~delta:(1 + (i mod 4)) ~bias_noise:false in
          if i < 6 then
            SP.Exists_flip
              { backend = Fannet.Backend.Bnb; spec; input = sinput; label = slabel }
          else SP.Certify { spec; input = sinput; label = slabel })
    in
    let t0 = Obs.Clock.now_ns () in
    let client k () =
      with_conn d @@ fun c ->
      for j = 0 to per_client - 1 do
        let ms, _, _ =
          timed_query c ~digest queries.((k + j) mod Array.length queries)
        in
        lat.((k * per_client) + j) <- ms
      done
    in
    let threads = Array.init n_clients (fun k -> Thread.create (client k) ()) in
    Array.iter Thread.join threads;
    (Obs.Clock.elapsed_s ~since:t0, lat, Serve.Daemon.stats d)
  in
  let total = n_clients * per_client in
  let qps = float_of_int total /. wall_s in
  let p50 = Util.Stats.percentile lat_ms 50. in
  let p99 = Util.Stats.percentile lat_ms 99. in
  let hit_rate =
    float_of_int stats.SP.cache_hits
    /. float_of_int (max 1 (stats.SP.cache_hits + stats.SP.cache_misses))
  in
  Printf.printf
    "%d clients x %d queries: %.0f qps, p50 %.2f ms, p99 %.2f ms, cache hit rate %.1f%%\n"
    n_clients per_client qps p50 p99 (100. *. hit_rate);
  if stats.SP.submitted <> stats.SP.served + stats.SP.rejected + stats.SP.failed then
    failwith "E20: served + rejected + failed <> submitted";
  if stats.SP.failed > 0 then failwith "E20: server errors during the load run";
  let json =
    Util.Json.Obj
      [
        ("schema", Util.Json.String "fannet.bench_serve/2");
        ("smoke", Util.Json.Bool smoke);
        ("crash_isolation", e23);
        ("workers", Util.Json.Int workers);
        ("clients", Util.Json.Int n_clients);
        ("queries_per_client", Util.Json.Int per_client);
        ("total_queries", Util.Json.Int total);
        ("wall_s", Util.Json.Float wall_s);
        ("qps", Util.Json.Float qps);
        ("p50_ms", Util.Json.Float p50);
        ("p99_ms", Util.Json.Float p99);
        ( "cache",
          Util.Json.Obj
            [
              ("hits", Util.Json.Int stats.SP.cache_hits);
              ("misses", Util.Json.Int stats.SP.cache_misses);
              ("hit_rate", Util.Json.Float hit_rate);
            ] );
        ( "contrast_ms",
          Util.Json.Obj
            [
              ("reps", Util.Json.Int reps);
              ("cold", Util.Json.Float cold_ms);
              ("warm_session", Util.Json.Float warm_ms);
              ("cache_hit", Util.Json.Float cache_hit_ms);
            ] );
        ("cert_cache_bit_identical", Util.Json.Bool cert_bit_identical);
        ( "accounting",
          Util.Json.Obj
            [
              ("submitted", Util.Json.Int stats.SP.submitted);
              ("served", Util.Json.Int stats.SP.served);
              ("rejected", Util.Json.Int stats.SP.rejected);
              ("failed", Util.Json.Int stats.SP.failed);
            ] );
      ]
  in
  Util.Json.write_file out json;
  match Util.Json.parse_file out with
  | Ok reread
    when Util.Json.member "schema" reread
         = Some (Util.Json.String "fannet.bench_serve/2") ->
      Printf.printf "%s written and re-parsed OK\n" out
  | Ok _ -> failwith (Printf.sprintf "E20: %s lost its schema tag" out)
  | Error e -> failwith (Printf.sprintf "E20: %s failed to parse: %s" out e)

(* ------------------------------------------------------------------ *)
(* Bechamel timing suite                                               *)
(* ------------------------------------------------------------------ *)

let timing_suite (p : Fannet.Pipeline.t) =
  section "timing (Bechamel, monotonic clock)";
  let open Bechamel in
  let inputs = Fannet.Pipeline.analysis_inputs p in
  let input, label = inputs.(0) in
  let spec20 = Fannet.Noise.symmetric ~delta:20 ~bias_noise in
  let spec12 = Fannet.Noise.symmetric ~delta:12 ~bias_noise in
  let v = Fannet.Noise.zero ~n_inputs:5 in
  let fsm_prog =
    Smv.Translate.network_program p.qnet
      { Smv.Translate.delta_lo = 0; delta_hi = 1; bias_noise; samples = [ (input, label) ] }
  in
  let tiny = Dataset.Golub.generate ~params:Dataset.Golub.tiny_params ~seed:3 () in
  let tests =
    Test.make_grouped ~name:"fannet"
      [
        Test.make ~name:"qnet_forward"
          (Staged.stage (fun () -> Nn.Qnet.forward p.qnet input));
        Test.make ~name:"noise_predict"
          (Staged.stage (fun () -> Fannet.Noise.predict p.qnet spec20 ~input v));
        Test.make ~name:"bnb_query_d20"
          (Staged.stage (fun () -> Fannet.Bnb.exists_flip p.qnet spec20 ~input ~label));
        Test.make ~name:"bnb_enumerate_d12"
          (Staged.stage (fun () ->
               Fannet.Bnb.enumerate_flips ~limit:500 p.qnet spec12 ~input ~label));
        Test.make ~name:"interval_bounds_d20"
          (Staged.stage (fun () -> Fannet.Backend.output_bounds p.qnet spec20 ~input));
        Test.make ~name:"fsm_explore_0_1pct"
          (Staged.stage (fun () -> Smv.Fsm.explore fsm_prog));
        Test.make ~name:"mrmr_tiny_dataset"
          (Staged.stage (fun () -> Dataset.Mrmr.select tiny.Dataset.Golub.train ~k:5 ~bins:3));
      ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let table = Util.Table.create ~header:[ "benchmark"; "time per run" ] in
  let pretty_ns ns =
    if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  List.sort (fun (a, _) (b, _) -> compare a b) rows
  |> List.iter (fun (name, ols) ->
         let estimate =
           match Analyze.OLS.estimates ols with
           | Some (e :: _) -> pretty_ns e
           | Some [] | None -> "n/a"
         in
         Util.Table.add_row table [ name; estimate ]);
  Util.Table.print table

(* ------------------------------------------------------------------ *)

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let cert_only = Array.exists (( = ) "--cert") Sys.argv in
  let robust_only = Array.exists (( = ) "--robust") Sys.argv in
  let parallel_only = Array.exists (( = ) "--parallel") Sys.argv in
  let obs_only = Array.exists (( = ) "--obs") Sys.argv in
  let serve_only = Array.exists (( = ) "--serve") Sys.argv in
  let count_only = Array.exists (( = ) "--count") Sys.argv in
  let ladder_only = Array.exists (( = ) "--ladder") Sys.argv in
  let out =
    let rec find i =
      if i >= Array.length Sys.argv then "BENCH_parallel.json"
      else if Sys.argv.(i) = "-o" && i + 1 < Array.length Sys.argv then
        Sys.argv.(i + 1)
      else find (i + 1)
    in
    find 1
  in
  if parallel_only then begin
    (* bench --parallel: E15 + E19 only, smoke-sized — the no-regression
       gate `make check` runs. Verdict-equality, certificate and
       no-regression assertions all fail the process; speedup > 1 is
       asserted only on multi-core hardware and full-sized runs. *)
    print_endline "FANNet bench (parallel engine gate)";
    print_endline "===================================";
    let p = Fannet.Pipeline.run ~config:Fannet.Pipeline.fast_config () in
    bench_parallel ~smoke:true p ~out;
    print_endline "\nParallel bench completed."
  end
  else if serve_only then begin
    (* bench --serve: E20 only — an in-process fannetd under concurrent
       wire-protocol clients; no pipeline needed. *)
    print_endline "FANNet bench (serving layer)";
    print_endline "============================";
    bench_serve ~smoke ~out:"BENCH_serve.json" ();
    print_endline "\nServing bench completed."
  end
  else if ladder_only then begin
    (* bench --ladder: E22 only — the deep & binarized scaling ladder;
       no pipeline needed. With --smoke it runs the asserted subset
       (`make ladder-smoke`, part of `make check`). *)
    print_endline "FANNet bench (scaling ladder)";
    print_endline "=============================";
    bench_ladder ~smoke ~out:"BENCH_ladder.json" ();
    print_endline "\nLadder bench completed."
  end
  else if count_only then begin
    (* bench --count: E21 only — counting on the small network plus a
       synthetic XOR-hash workload; no pipeline needed. *)
    print_endline "FANNet bench (model counting)";
    print_endline "=============================";
    bench_count ~smoke ~out:"BENCH_count.json" ();
    print_endline "\nCounting bench completed."
  end
  else if obs_only then begin
    (* bench --obs: the observability section only; no pipeline needed. *)
    print_endline "FANNet bench (observability layer)";
    print_endline "==================================";
    bench_obs ~smoke ~out:"BENCH_obs.json" ();
    print_endline "\nObservability bench completed."
  end
  else if robust_only then begin
    (* bench --robust: the resilience section only; no pipeline needed. *)
    print_endline "FANNet bench (resilience layer)";
    print_endline "===============================";
    bench_robust ~smoke ~out:"BENCH_robust.json" ();
    print_endline "\nResilience bench completed."
  end
  else if cert_only then begin
    (* bench --cert: the certificate section only; no pipeline needed. *)
    print_endline "FANNet bench (certificate subsystem)";
    print_endline "====================================";
    bench_cert ~smoke ~out:"BENCH_cert.json" ();
    print_endline "\nCertificate bench completed."
  end
  else if smoke then begin
    (* bench-smoke: the parallel/cascade and certificate sections only, on
       the small-dataset pipeline, validating that BENCH_parallel.json and
       BENCH_cert.json are emitted and parse. *)
    print_endline "FANNet bench smoke (parallel engine)";
    print_endline "====================================";
    (* The serving section runs first: E23 forks supervised worker
       processes, and OCaml 5 refuses Unix.fork once any domain has
       ever been created — every other section below spins up the
       domain pool. *)
    bench_serve ~smoke:true ~out:"BENCH_serve.json" ();
    let p = Fannet.Pipeline.run ~config:Fannet.Pipeline.fast_config () in
    bench_parallel ~smoke p ~out;
    bench_cert ~smoke:true ~out:"BENCH_cert.json" ();
    bench_obs ~smoke:true ~out:"BENCH_obs.json" ();
    bench_robust ~smoke:true ~out:"BENCH_robust.json" ();
    bench_count ~smoke:true ~out:"BENCH_count.json" ();
    bench_ladder ~smoke:true ~out:"BENCH_ladder.json" ();
    print_endline "\nSmoke bench completed."
  end
  else begin
    print_endline "FANNet reproduction benchmarks";
    print_endline "==============================";
    (* Serving first: E23 forks supervised worker processes, and
       OCaml 5 refuses Unix.fork once any domain has ever been
       created — the pipeline and every later section spin up the
       domain pool. *)
    bench_serve ~smoke:false ~out:"BENCH_serve.json" ();
    let p, pipeline_s = time_of (fun () -> Fannet.Pipeline.run ()) in
    Printf.printf "pipeline (dataset -> mRMR -> train -> fold -> quantize): %.2fs\n"
      pipeline_s;
    fig3_state_space p;
    fig4_tolerance_sweep p;
    fig4_training_bias p;
    fig4_node_sensitivity p;
    fig4_boundary p;
    accuracy_table p;
    ablation_backends p;
    ablation_random_baseline p;
    ablation_training_objective ();
    ablation_quantization p;
    ablation_hidden_width ();
    ablation_feature_selection ();
    extension_multiclass ();
    extension_absolute_noise p;
    bench_parallel ~smoke:false p ~out;
    bench_cert ~smoke:false ~out:"BENCH_cert.json" ();
    bench_obs ~smoke:false ~out:"BENCH_obs.json" ();
    bench_robust ~smoke:false ~out:"BENCH_robust.json" ();
    bench_count ~smoke:false ~out:"BENCH_count.json" ();
    bench_ladder ~smoke:false ~out:"BENCH_ladder.json" ();
    timing_suite p;
    print_endline "\nAll experiment sections completed."
  end
