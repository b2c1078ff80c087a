(* Tests for the dataset library: samples, CSV, synthetic Golub generator,
   mutual information and mRMR selection. *)

let test_label_roundtrip () =
  Alcotest.(check int) "L0" 0 (Dataset.Sample.label_to_int L0);
  Alcotest.(check int) "L1" 1 (Dataset.Sample.label_to_int L1);
  Alcotest.(check bool) "roundtrip L0" true
    (Dataset.Sample.label_equal (Dataset.Sample.label_of_int 0) L0);
  Alcotest.(check bool) "roundtrip L1" true
    (Dataset.Sample.label_equal (Dataset.Sample.label_of_int 1) L1);
  Alcotest.check_raises "bad label" (Invalid_argument "Sample.label_of_int: 2")
    (fun () -> ignore (Dataset.Sample.label_of_int 2))

let test_project () =
  let s = { Dataset.Sample.features = [| 10; 20; 30; 40 |]; label = L0 } in
  let p = Dataset.Sample.project s [| 3; 1 |] in
  Alcotest.(check (array int)) "projected" [| 40; 20 |] p.Dataset.Sample.features;
  Alcotest.(check bool) "label kept" true (Dataset.Sample.label_equal p.label L0)

let test_class_share () =
  let mk label = { Dataset.Sample.features = [||]; label } in
  let samples = [| mk Dataset.Sample.L1; mk L1; mk L1; mk L0 |] in
  Alcotest.(check (float 1e-9)) "share L1" 0.75 (Dataset.Sample.class_share samples L1);
  Alcotest.(check int) "count L0" 1 (Dataset.Sample.count_label samples L0)

let with_temp_dir f =
  let dir = Filename.temp_file "fannet" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_csv_roundtrip () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "t.csv" in
      let table = [| [| 1; -2; 3 |]; [| 4; 5; 6 |] |] in
      Dataset.Csv.write_int_table path table;
      let back = Dataset.Csv.read_int_table path in
      Alcotest.(check bool) "roundtrip" true (table = back))

let test_csv_rejects_separator () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "bad.csv" in
      Alcotest.check_raises "comma in cell"
        (Invalid_argument "Csv.write: cell contains separator: a,b") (fun () ->
          Dataset.Csv.write path [ [ "a,b" ] ]))

let tiny = Dataset.Golub.tiny_params

let test_golub_shape () =
  let d = Dataset.Golub.generate ~params:tiny ~seed:1 () in
  Alcotest.(check int) "train size" 20 (Array.length d.train);
  Alcotest.(check int) "test size" 15 (Array.length d.test);
  Alcotest.(check int) "genes" 64 d.n_genes;
  Array.iter
    (fun (s : Dataset.Sample.t) ->
      Alcotest.(check int) "feature count" 64 (Array.length s.features))
    (Array.append d.train d.test)

let test_golub_deterministic () =
  let d1 = Dataset.Golub.generate ~params:tiny ~seed:5 () in
  let d2 = Dataset.Golub.generate ~params:tiny ~seed:5 () in
  Alcotest.(check bool) "same data" true (d1.train = d2.train && d1.test = d2.test)

let test_golub_seed_sensitivity () =
  let d1 = Dataset.Golub.generate ~params:tiny ~seed:5 () in
  let d2 = Dataset.Golub.generate ~params:tiny ~seed:6 () in
  Alcotest.(check bool) "different data" true (d1.train <> d2.train)

let test_golub_class_balance () =
  let d = Dataset.Golub.generate ~params:tiny ~seed:1 () in
  Alcotest.(check int) "train L0" 6 (Dataset.Sample.count_label d.train L0);
  Alcotest.(check int) "train L1" 14 (Dataset.Sample.count_label d.train L1);
  (* The paper's training bias: majority class share ~70 %. *)
  Alcotest.(check (float 0.01)) "bias" 0.7 (Dataset.Sample.class_share d.train L1)

let test_golub_positive_expressions () =
  let d = Dataset.Golub.generate ~params:tiny ~seed:2 () in
  Array.iter
    (fun (s : Dataset.Sample.t) ->
      Array.iter
        (fun v ->
          Alcotest.(check bool) "within [1, 50000]" true (v >= 1 && v <= 50000))
        s.features)
    (Array.append d.train d.test)

let test_golub_informative_genes_marked () =
  let d = Dataset.Golub.generate ~params:tiny ~seed:3 () in
  Alcotest.(check int) "count" tiny.n_informative (Array.length d.informative);
  Array.iter
    (fun g -> Alcotest.(check bool) "index in range" true (g >= 0 && g < 64))
    d.informative;
  let sorted = Array.copy d.informative in
  Array.sort compare sorted;
  Alcotest.(check bool) "sorted unique" true
    (sorted = d.informative
    && Array.length (Array.of_seq (Seq.map Fun.id (Array.to_seq sorted))) = Array.length sorted)

let test_golub_save_load () =
  with_temp_dir (fun dir ->
      let d = Dataset.Golub.generate ~params:tiny ~seed:4 () in
      Dataset.Golub.save ~dir d;
      let back = Dataset.Golub.load ~dir ~n_genes:d.n_genes ~informative:d.informative in
      Alcotest.(check bool) "train roundtrip" true (d.train = back.train);
      Alcotest.(check bool) "test roundtrip" true (d.test = back.test))

let test_discretize_bins () =
  let values = Array.init 100 (fun i -> i) in
  let bins = Dataset.Mutual_info.discretize values ~bins:4 in
  Array.iter (fun b -> Alcotest.(check bool) "bin range" true (b >= 0 && b < 4)) bins;
  (* Equal-frequency binning on uniform data: each bin gets ~25. *)
  let counts = Array.make 4 0 in
  Array.iter (fun b -> counts.(b) <- counts.(b) + 1) bins;
  Array.iter (fun c -> Alcotest.(check bool) "balanced" true (c >= 20 && c <= 30)) counts

let test_discretize_monotone () =
  let values = [| 5; 1; 9; 3; 7 |] in
  let bins = Dataset.Mutual_info.discretize values ~bins:2 in
  (* Larger values never land in smaller bins than smaller values. *)
  Array.iteri
    (fun i vi ->
      Array.iteri
        (fun j vj ->
          if vi < vj then
            Alcotest.(check bool) "monotone" true (bins.(i) <= bins.(j)))
        values)
    values

let test_mi_identical () =
  let xs = [| 0; 1; 0; 1; 0; 1; 0; 1 |] in
  let mi = Dataset.Mutual_info.mutual_information xs xs in
  let h = Dataset.Mutual_info.entropy xs in
  Alcotest.(check (float 1e-9)) "MI(X;X) = H(X)" h mi;
  Alcotest.(check (float 1e-9)) "H of fair bit" (log 2.) h

let test_mi_independent () =
  (* Independent uniform bits: MI = 0 on the exact joint distribution. *)
  let xs = [| 0; 0; 1; 1 |] and ys = [| 0; 1; 0; 1 |] in
  Alcotest.(check (float 1e-9)) "zero" 0. (Dataset.Mutual_info.mutual_information xs ys)

let test_mi_symmetric () =
  let xs = [| 0; 1; 2; 0; 1; 2; 0; 0 |] and ys = [| 1; 1; 0; 0; 1; 0; 1; 1 |] in
  Alcotest.(check (float 1e-12)) "symmetric"
    (Dataset.Mutual_info.mutual_information xs ys)
    (Dataset.Mutual_info.mutual_information ys xs)

let test_mrmr_finds_informative () =
  let d = Dataset.Golub.generate ~params:tiny ~seed:7 () in
  let picked = Dataset.Mrmr.select d.train ~k:5 ~bins:3 in
  Alcotest.(check int) "five genes" 5 (Array.length picked);
  (* All picks distinct. *)
  let sorted = Array.copy picked in
  Array.sort compare sorted;
  let distinct = Array.length sorted in
  let dedup = List.sort_uniq compare (Array.to_list sorted) in
  Alcotest.(check int) "distinct" distinct (List.length dedup);
  (* Most picks should be genuinely informative genes. *)
  let informative = Array.to_list d.informative in
  let hits =
    Array.fold_left
      (fun acc g -> if List.mem g informative then acc + 1 else acc)
      0 picked
  in
  Alcotest.(check bool) (Printf.sprintf "at least 3/5 informative (%d)" hits)
    true (hits >= 3)

let test_mrmr_first_is_max_relevance () =
  let d = Dataset.Golub.generate ~params:tiny ~seed:8 () in
  let scores = Dataset.Mrmr.select_with_scores d.train ~k:3 ~bins:3 in
  let ranking = Dataset.Mrmr.relevance_ranking d.train ~bins:3 in
  let top_gene, top_rel = ranking.(0) in
  Alcotest.(check int) "first pick = max relevance" top_gene scores.(0).gene;
  Alcotest.(check (float 1e-9)) "relevance recorded" top_rel scores.(0).relevance;
  Alcotest.(check (float 1e-9)) "first redundancy zero" 0. scores.(0).redundancy

let test_mrmr_k_bounds () =
  let d = Dataset.Golub.generate ~params:tiny ~seed:9 () in
  Alcotest.check_raises "k too large" (Invalid_argument "Mrmr.select: k out of range")
    (fun () -> ignore (Dataset.Mrmr.select d.train ~k:65 ~bins:3))

(* ---------- real-CSV loader ---------- *)

let sample_csv =
  String.concat "\n"
    [
      "\"ALL\",\"ALL\",\"ALL\",\"AML\",\"AML\"";
      "12.3,45.6,7.0,-3.2,100.9";
      "1,2,3,4,5";
      "0.4,0.6,-0.4,2.5,-2.5";
    ]

let test_golub_csv_parse () =
  match Dataset.Golub_csv.parse ~n_train:3 sample_csv with
  | Error e -> Alcotest.fail e
  | Ok d ->
      Alcotest.(check int) "genes" 3 d.n_genes;
      Alcotest.(check int) "train" 3 (Array.length d.train);
      Alcotest.(check int) "test" 2 (Array.length d.test);
      (* ALL -> L1, AML -> L0. *)
      Array.iter
        (fun (s : Dataset.Sample.t) ->
          Alcotest.(check bool) "train all ALL" true
            (Dataset.Sample.label_equal s.label Dataset.Sample.L1))
        d.train;
      Array.iter
        (fun (s : Dataset.Sample.t) ->
          Alcotest.(check bool) "test all AML" true
            (Dataset.Sample.label_equal s.label Dataset.Sample.L0))
        d.test;
      (* Values rounded: first sample = (12.3, 1, 0.4) -> (12, 1, 0). *)
      Alcotest.(check (array int)) "first sample" [| 12; 1; 0 |]
        d.train.(0).Dataset.Sample.features;
      (* Rounding of halves and negatives. *)
      Alcotest.(check (array int)) "fourth sample" [| -3; 4; 3 |]
        d.test.(0).Dataset.Sample.features

let test_golub_csv_bad_header () =
  match Dataset.Golub_csv.parse "\"x\",\"y\"\n1,2\n" with
  | Error msg -> Alcotest.(check bool) "labels" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected header error"

let test_golub_csv_ragged_row () =
  let text = "\"ALL\",\"AML\"\n1,2\n3\n" in
  match Dataset.Golub_csv.parse ~n_train:1 text with
  | Error msg -> Alcotest.(check bool) "row size" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected row error"

let test_golub_csv_n_train_bounds () =
  match Dataset.Golub_csv.parse ~n_train:5 sample_csv with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected n_train error"

(* ---------- multiclass ---------- *)

let small_mc_params =
  {
    Dataset.Multiclass.default_params with
    n_genes = 48;
    n_informative = 9;
    train_per_class = [| 8; 6; 4 |];
    test_per_class = [| 4; 3; 3 |];
  }

let test_multiclass_shape () =
  let d = Dataset.Multiclass.generate ~params:small_mc_params ~seed:1 () in
  Alcotest.(check int) "train" 18 (Array.length d.train);
  Alcotest.(check int) "test" 10 (Array.length d.test);
  Alcotest.(check int) "classes" 3 d.n_classes;
  Array.iter
    (fun (x, l) ->
      Alcotest.(check int) "features" 48 (Array.length x);
      Alcotest.(check bool) "label" true (l >= 0 && l < 3))
    (Array.append d.train d.test)

let test_multiclass_counts () =
  let d = Dataset.Multiclass.generate ~params:small_mc_params ~seed:2 () in
  Alcotest.(check (array int)) "train counts" [| 8; 6; 4 |]
    (Dataset.Multiclass.class_counts d.train ~n_classes:3);
  Alcotest.(check (array int)) "test counts" [| 4; 3; 3 |]
    (Dataset.Multiclass.class_counts d.test ~n_classes:3)

let test_multiclass_deterministic () =
  let d1 = Dataset.Multiclass.generate ~params:small_mc_params ~seed:3 () in
  let d2 = Dataset.Multiclass.generate ~params:small_mc_params ~seed:3 () in
  Alcotest.(check bool) "same" true (d1.train = d2.train && d1.test = d2.test)

let test_multiclass_select_and_project () =
  let d = Dataset.Multiclass.generate ~params:small_mc_params ~seed:4 () in
  let genes = Dataset.Multiclass.select_genes d ~k:4 ~bins:3 in
  Alcotest.(check int) "k genes" 4 (Array.length genes);
  let distinct = List.sort_uniq compare (Array.to_list genes) in
  Alcotest.(check int) "distinct" 4 (List.length distinct);
  (* Most selected genes are informative. *)
  let informative = Array.to_list d.informative in
  let hits =
    Array.fold_left (fun acc g -> if List.mem g informative then acc + 1 else acc) 0 genes
  in
  Alcotest.(check bool) (Printf.sprintf "informative hits %d >= 3" hits) true (hits >= 3);
  let projected = Dataset.Multiclass.project d ~genes in
  Array.iteri
    (fun i (x, l) ->
      Alcotest.(check int) "projected size" 4 (Array.length x);
      let orig, ol = d.train.(i) in
      Alcotest.(check int) "label kept" ol l;
      Array.iteri
        (fun j g -> Alcotest.(check int) "value" orig.(g) x.(j))
        genes)
    projected.train

let test_multiclass_validation () =
  Alcotest.check_raises "bad counts"
    (Invalid_argument "Multiclass: per-class counts mismatch") (fun () ->
      ignore
        (Dataset.Multiclass.generate
           ~params:{ small_mc_params with train_per_class = [| 1 |] }
           ~seed:1 ()))

let prop_mi_nonnegative =
  QCheck.Test.make ~name:"MI is non-negative" ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair
           (array_size (return 16) (int_range 0 3))
           (array_size (return 16) (int_range 0 2))))
    (fun (xs, ys) -> Dataset.Mutual_info.mutual_information xs ys >= -1e-12)

let prop_mi_bounded_by_entropy =
  QCheck.Test.make ~name:"MI <= min entropy" ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair
           (array_size (return 16) (int_range 0 3))
           (array_size (return 16) (int_range 0 3))))
    (fun (xs, ys) ->
      let mi = Dataset.Mutual_info.mutual_information xs ys in
      mi
      <= min
           (Dataset.Mutual_info.entropy xs)
           (Dataset.Mutual_info.entropy ys)
         +. 1e-9)

(* ---------- mRMR bit-identity ---------- *)

(* The mRMR selection as it stood before the one-pass core, kept verbatim
   apart from reading columns and labels through arguments: a polymorphic
   discretiser, fresh count arrays per MI call and redundancy re-folded
   over every pick at every step. The properties below require the
   production code to reproduce its genes and floats bit for bit. *)
module Reference = struct
  let discretize values ~bins =
    if bins <= 0 then invalid_arg "Mutual_info.discretize: bins must be positive";
    let n = Array.length values in
    if n = 0 then [||]
    else begin
      let sorted = Array.copy values in
      Array.sort compare sorted;
      (* Quantile cut points: value at rank k*n/bins starts bin k. *)
      let cut k = sorted.(min (n - 1) (k * n / bins)) in
      let cuts = Array.init (bins - 1) (fun k -> cut (k + 1)) in
      let bin_of v =
        (* First cut strictly greater than v determines the bin. *)
        let rec loop i = if i >= bins - 1 then bins - 1 else if v < cuts.(i) then i else loop (i + 1) in
        loop 0
      in
      Array.map bin_of values
    end

  let max_symbol xs = Array.fold_left max 0 xs + 1

  let mutual_information xs ys =
    let n = Array.length xs in
    if n = 0 then 0.
    else begin
      let kx = max_symbol xs and ky = max_symbol ys in
      let joint = Array.make (kx * ky) 0 in
      let cx = Array.make kx 0 and cy = Array.make ky 0 in
      Array.iteri
        (fun i x ->
          let y = ys.(i) in
          joint.((x * ky) + y) <- joint.((x * ky) + y) + 1;
          cx.(x) <- cx.(x) + 1;
          cy.(y) <- cy.(y) + 1)
        xs;
      let nf = float_of_int n in
      let acc = ref 0. in
      for x = 0 to kx - 1 do
        for y = 0 to ky - 1 do
          let j = joint.((x * ky) + y) in
          if j > 0 then begin
            let pxy = float_of_int j /. nf in
            let px = float_of_int cx.(x) /. nf in
            let py = float_of_int cy.(y) /. nf in
            acc := !acc +. (pxy *. log (pxy /. (px *. py)))
          end
        done
      done;
      max 0. !acc
    end

  let feature_label_mi ~values ~labels ~bins =
    mutual_information (discretize values ~bins) labels

  let relevances ~column ~labels ~n_genes ~bins =
    Array.init n_genes (fun g -> feature_label_mi ~values:(column g) ~labels ~bins)

  let relevance_ranking ~column ~labels ~n_genes ~bins =
    let rel = relevances ~column ~labels ~n_genes ~bins in
    let ranked = Array.mapi (fun g r -> (g, r)) rel in
    Array.sort (fun (_, a) (_, b) -> compare b a) ranked;
    ranked

  let select_with_scores ~column ~labels ~n_genes ~k ~bins : Dataset.Mrmr.score array =
    if k < 1 || k > n_genes then invalid_arg "Mrmr.select: k out of range";
    let rel = relevances ~column ~labels ~n_genes ~bins in
    (* Discretised columns are cached lazily: pairwise MI is only ever needed
       against the few selected genes. *)
    let binned = Array.make n_genes None in
    let binned_column g =
      match binned.(g) with
      | Some b -> b
      | None ->
          let b = discretize (column g) ~bins in
          binned.(g) <- Some b;
          b
    in
    let selected = ref [] in
    let taken = Array.make n_genes false in
    let mean_redundancy g =
      match !selected with
      | [] -> 0.
      | picks ->
          let total =
            List.fold_left
              (fun acc (p : Dataset.Mrmr.score) ->
                acc +. mutual_information (binned_column g) (binned_column p.gene))
              0. picks
          in
          total /. float_of_int (List.length picks)
    in
    for _step = 1 to k do
      let best = ref None in
      for g = 0 to n_genes - 1 do
        if not taken.(g) then begin
          let redundancy = mean_redundancy g in
          let value = rel.(g) -. redundancy in
          match !best with
          | Some (_, _, best_value) when best_value >= value -> ()
          | Some _ | None -> best := Some (g, redundancy, value)
        end
      done;
      match !best with
      | None -> assert false
      | Some (g, redundancy, _) ->
          taken.(g) <- true;
          selected := { Dataset.Mrmr.gene = g; relevance = rel.(g); redundancy } :: !selected
    done;
    Array.of_list (List.rev !selected)
end

let bits = Int64.bits_of_float

let same_scores (a : Dataset.Mrmr.score array) (b : Dataset.Mrmr.score array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : Dataset.Mrmr.score) (y : Dataset.Mrmr.score) ->
         x.gene = y.gene
         && bits x.relevance = bits y.relevance
         && bits x.redundancy = bits y.redundancy)
       a b

(* Small matrices built to provoke ties: values from a narrow range with
   negatives, constant columns, exact duplicates of earlier columns, as
   few as one sample for up to five bins, and k up to every gene. *)
let gen_selection ~n_classes =
  let open QCheck.Gen in
  let* n_samples = int_range 1 12 in
  let* n_genes = int_range 1 8 in
  let* columns =
    let rec build g acc =
      if g = n_genes then return (Array.of_list (List.rev acc))
      else
        let* kind = int_range 0 3 in
        let* column =
          match kind with
          | 0 -> map (Array.make n_samples) (int_range (-3) 3)
          | 1 when g > 0 -> map (fun j -> Array.copy (List.nth acc j)) (int_range 0 (g - 1))
          | _ -> array_size (return n_samples) (int_range (-3) 3)
        in
        build (g + 1) (column :: acc)
    in
    build 0 []
  in
  let* labels = array_size (return n_samples) (int_range 0 (n_classes - 1)) in
  let* bins = int_range 1 5 in
  let+ k = int_range 1 n_genes in
  (Array.init n_samples (fun i -> Array.map (fun c -> c.(i)) columns), labels, k, bins)

let print_selection (rows, labels, k, bins) =
  Printf.sprintf "k=%d bins=%d labels=[%s] rows=[%s]" k bins
    (String.concat ";" (Array.to_list (Array.map string_of_int labels)))
    (String.concat " | "
       (Array.to_list
          (Array.map
             (fun r -> String.concat ";" (Array.to_list (Array.map string_of_int r)))
             rows)))

let reference_args rows labels =
  ( (fun g -> Array.map (fun r -> r.(g)) rows),
    labels,
    Array.length rows.(0) )

let prop_mrmr_matches_reference =
  QCheck.Test.make ~name:"select_with_scores = reference, bit for bit" ~count:500
    (QCheck.make ~print:print_selection (gen_selection ~n_classes:2))
    (fun (rows, labels, k, bins) ->
      let samples =
        Array.map2
          (fun features l -> { Dataset.Sample.features; label = Dataset.Sample.label_of_int l })
          rows labels
      in
      let column, labels, n_genes = reference_args rows labels in
      let ranked = Dataset.Mrmr.relevance_ranking samples ~bins in
      let expected_ranked = Reference.relevance_ranking ~column ~labels ~n_genes ~bins in
      same_scores
        (Dataset.Mrmr.select_with_scores samples ~k ~bins)
        (Reference.select_with_scores ~column ~labels ~n_genes ~k ~bins)
      && Array.for_all2
           (fun (g, r) (g', r') -> g = g' && bits r = bits r')
           ranked expected_ranked)

let prop_multiclass_matches_reference =
  QCheck.Test.make ~name:"Multiclass.select_genes = reference (3-4 classes)" ~count:500
    (QCheck.make ~print:print_selection
       QCheck.Gen.(int_range 3 4 >>= fun n_classes -> gen_selection ~n_classes))
    (fun (rows, labels, k, bins) ->
      let t =
        {
          Dataset.Multiclass.train = Array.map2 (fun r l -> (r, l)) rows labels;
          test = [||];
          n_classes = 1 + Array.fold_left max 0 labels;
          informative = [||];
        }
      in
      let column, labels, n_genes = reference_args rows labels in
      Dataset.Multiclass.select_genes t ~k ~bins
      = Array.map
          (fun (s : Dataset.Mrmr.score) -> s.gene)
          (Reference.select_with_scores ~column ~labels ~n_genes ~k ~bins))

let prop_discretize_matches_reference =
  QCheck.Test.make ~name:"discretize = reference" ~count:500
    (QCheck.make
       ~print:(fun (values, bins) ->
         Printf.sprintf "bins=%d [%s]" bins
           (String.concat ";" (Array.to_list (Array.map string_of_int values))))
       QCheck.Gen.(
         pair
           (oneof
              [
                array_size (int_range 0 100) (int_range (-1000) 1000);
                array_size (int_range 0 100) (int_range (-2) 2);
                map2 Array.make (int_range 0 100) (int_range (-5) 5);
              ])
           (int_range 1 6)))
    (fun (values, bins) ->
      Dataset.Mutual_info.discretize values ~bins = Reference.discretize values ~bins)

(* The paper's selection at the default configuration (Golub-shaped data,
   seed 2028, 3 bins, k = 5), genes and score bits as the pre-rewrite code
   produced them. *)
let test_mrmr_paper_selection () =
  let d = Dataset.Golub.generate ~params:Dataset.Golub.default_params ~seed:2028 () in
  let scores = Dataset.Mrmr.select_with_scores d.train ~k:5 ~bins:3 in
  Alcotest.(check (array int)) "genes" [| 4320; 5765; 4925; 2573; 3460 |]
    (Array.map (fun (s : Dataset.Mrmr.score) -> s.gene) scores);
  let hex f = Printf.sprintf "%Lx" (bits f) in
  Alcotest.(check (array string)) "relevance bits"
    [| "3fd776bbefd4fd4f"; "3fd776bbefd4fd4f"; "3fd4be048af98f45"; "3fd4be048af98f45";
       "3fd4be048af98f45" |]
    (Array.map (fun (s : Dataset.Mrmr.score) -> hex s.relevance) scores);
  Alcotest.(check (array string)) "redundancy bits"
    [| "0"; "3fcb25ef89de9ece"; "3fc91e06860c40da"; "3fca8b72a8c67713"; "3fcace78feeeb8ea" |]
    (Array.map (fun (s : Dataset.Mrmr.score) -> hex s.redundancy) scores)

let () =
  Alcotest.run "dataset"
    [
      ( "sample",
        [
          Alcotest.test_case "label roundtrip" `Quick test_label_roundtrip;
          Alcotest.test_case "project" `Quick test_project;
          Alcotest.test_case "class share" `Quick test_class_share;
        ] );
      ( "csv",
        [
          Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "rejects separator" `Quick test_csv_rejects_separator;
        ] );
      ( "golub",
        [
          Alcotest.test_case "shape" `Quick test_golub_shape;
          Alcotest.test_case "deterministic" `Quick test_golub_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_golub_seed_sensitivity;
          Alcotest.test_case "class balance" `Quick test_golub_class_balance;
          Alcotest.test_case "positive expressions" `Quick test_golub_positive_expressions;
          Alcotest.test_case "informative genes" `Quick test_golub_informative_genes_marked;
          Alcotest.test_case "save/load" `Quick test_golub_save_load;
        ] );
      ( "mutual-info",
        [
          Alcotest.test_case "discretize bins" `Quick test_discretize_bins;
          Alcotest.test_case "discretize monotone" `Quick test_discretize_monotone;
          Alcotest.test_case "MI(X;X)=H(X)" `Quick test_mi_identical;
          Alcotest.test_case "independent" `Quick test_mi_independent;
          Alcotest.test_case "symmetric" `Quick test_mi_symmetric;
          QCheck_alcotest.to_alcotest prop_mi_nonnegative;
          QCheck_alcotest.to_alcotest prop_mi_bounded_by_entropy;
          QCheck_alcotest.to_alcotest prop_discretize_matches_reference;
        ] );
      ( "golub-csv",
        [
          Alcotest.test_case "parse" `Quick test_golub_csv_parse;
          Alcotest.test_case "bad header" `Quick test_golub_csv_bad_header;
          Alcotest.test_case "ragged row" `Quick test_golub_csv_ragged_row;
          Alcotest.test_case "n_train bounds" `Quick test_golub_csv_n_train_bounds;
          Alcotest.test_case "load missing file" `Quick (fun () ->
              match Dataset.Golub_csv.load "/nonexistent/golub.csv" with
              | Error _ -> ()
              | Ok _ -> Alcotest.fail "expected error");
        ] );
      ( "multiclass",
        [
          Alcotest.test_case "shape" `Quick test_multiclass_shape;
          Alcotest.test_case "class counts" `Quick test_multiclass_counts;
          Alcotest.test_case "deterministic" `Quick test_multiclass_deterministic;
          Alcotest.test_case "select and project" `Quick test_multiclass_select_and_project;
          Alcotest.test_case "validation" `Quick test_multiclass_validation;
        ] );
      ( "mrmr",
        [
          Alcotest.test_case "finds informative genes" `Quick test_mrmr_finds_informative;
          Alcotest.test_case "first pick max relevance" `Quick test_mrmr_first_is_max_relevance;
          Alcotest.test_case "k bounds" `Quick test_mrmr_k_bounds;
          Alcotest.test_case "paper selection pinned" `Quick test_mrmr_paper_selection;
          QCheck_alcotest.to_alcotest prop_mrmr_matches_reference;
          QCheck_alcotest.to_alcotest prop_multiclass_matches_reference;
        ] );
    ]
