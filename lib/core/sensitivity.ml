type node_stats = {
  node : int;
  n_positive : int;
  n_negative : int;
  n_zero : int;
  min_noise : int;
  max_noise : int;
  mean_noise : float;
}

type side = Never_positive | Never_negative | Both_sides | No_data

let node_values (spec : Noise.spec) node cexs =
  List.map
    (fun (c : Extract.counterexample) ->
      if spec.Noise.bias_noise then
        if node = 0 then c.Extract.vector.Noise.bias
        else c.Extract.vector.Noise.inputs.(node - 1)
      else c.Extract.vector.Noise.inputs.(node - 1))
    cexs

let stats_of_values node values =
  match values with
  | [] ->
      {
        node;
        n_positive = 0;
        n_negative = 0;
        n_zero = 0;
        min_noise = 0;
        max_noise = 0;
        mean_noise = 0.;
      }
  | v :: _ ->
      let n_positive = List.length (List.filter (fun x -> x > 0) values) in
      let n_negative = List.length (List.filter (fun x -> x < 0) values) in
      let n_zero = List.length (List.filter (fun x -> x = 0) values) in
      let min_noise = List.fold_left min v values in
      let max_noise = List.fold_left max v values in
      let total = List.fold_left ( + ) 0 values in
      {
        node;
        n_positive;
        n_negative;
        n_zero;
        min_noise;
        max_noise;
        mean_noise = float_of_int total /. float_of_int (List.length values);
      }

let per_node (spec : Noise.spec) ~n_inputs cexs =
  let nodes =
    if spec.Noise.bias_noise then List.init (n_inputs + 1) Fun.id
    else List.init n_inputs (fun i -> i + 1)
  in
  Array.of_list
    (List.map (fun node -> stats_of_values node (node_values spec node cexs)) nodes)

let sidedness s =
  if s.n_positive = 0 && s.n_negative = 0 then No_data
  else if s.n_positive = 0 then Never_positive
  else if s.n_negative = 0 then Never_negative
  else Both_sides

let most_sensitive stats =
  if Array.length stats = 0 then invalid_arg "Sensitivity.most_sensitive: empty";
  let nonzero s = s.n_positive + s.n_negative in
  let best = ref stats.(0) in
  Array.iter (fun s -> if nonzero s > nonzero !best then best := s) stats;
  !best.node

type formal_side = {
  fs_node : int;
  positive_flip : bool;
  negative_flip : bool;
}

let node_to_dim (spec : Noise.spec) node =
  if spec.Noise.bias_noise then node else node - 1

type engine = Bnb | Smt

let side_exists ?(engine = Bnb) ?budget (spec : Noise.spec) ~inputs net node
    ~positive =
  let lo, hi =
    if positive then (1, spec.Noise.delta_hi) else (spec.Noise.delta_lo, -1)
  in
  if lo > hi then false
  else
    Array.exists
      (fun (input, label) ->
        let n_dims =
          Array.length input + if spec.Noise.bias_noise then 1 else 0
        in
        let box =
          Array.init n_dims (fun d ->
              if d = node_to_dim spec node then (lo, hi)
              else (spec.Noise.delta_lo, spec.Noise.delta_hi))
        in
        match engine with
        | Bnb -> (
            match Bnb.exists_flip ~box ?budget net spec ~input ~label with
            | Bnb.Flip _ -> true
            | Bnb.Robust -> false
            | Bnb.Unknown r -> raise (Resil.Budget.Stopped r))
        | Smt -> (
            (* Bit-blasted one-sided query on a pooled warm session: all
               boxes about one (net, input, label) share one encoding,
               each box is a memoised assumption ({!Warm.probe_box}). *)
            match Warm.probe_box ?budget net spec ~box ~input ~label with
            | Ok flips -> flips
            | Error r -> raise (Resil.Budget.Stopped r)))
      inputs

let sided_nodes (spec : Noise.spec) ~inputs =
  if Array.length inputs = 0 then invalid_arg "Sensitivity.formal_sidedness: no inputs";
  let n_inputs = Array.length (fst inputs.(0)) in
  if spec.Noise.bias_noise then Array.init (n_inputs + 1) Fun.id
  else Array.init n_inputs (fun i -> i + 1)

let formal_sidedness_b ?jobs ?engine ?budget net (spec : Noise.spec) ~inputs =
  let nodes = sided_nodes spec ~inputs in
  (* One worker per node; both one-sided queries stay on that worker (and,
     with the Smt engine, share that worker's warm sessions). *)
  Resil.Budget.map_batch ?jobs ?budget
    (fun _ node ->
      {
        fs_node = node;
        positive_flip =
          side_exists ?engine ?budget spec ~inputs net node ~positive:true;
        negative_flip =
          side_exists ?engine ?budget spec ~inputs net node ~positive:false;
      })
    nodes

let formal_sidedness ?jobs ?engine net spec ~inputs =
  Resil.Budget.ok_or_fail (formal_sidedness_b ?jobs ?engine net spec ~inputs)

let formal_side_to_side f =
  match (f.positive_flip, f.negative_flip) with
  | false, false -> No_data
  | false, true -> Never_positive
  | true, false -> Never_negative
  | true, true -> Both_sides

let single_node_tolerance net (spec : Noise.spec) ~inputs ~node =
  if Array.length inputs = 0 then
    invalid_arg "Sensitivity.single_node_tolerance: no inputs";
  let n_inputs = Array.length (fst inputs.(0)) in
  let dim = node_to_dim spec node in
  let n_dims = n_inputs + if spec.Noise.bias_noise then 1 else 0 in
  if dim < 0 || dim >= n_dims then
    invalid_arg "Sensitivity.single_node_tolerance: node out of range";
  let max_d = min (-spec.Noise.delta_lo) spec.Noise.delta_hi in
  let flips_at d =
    let box =
      Array.init n_dims (fun k -> if k = dim then (-d, d) else (0, 0))
    in
    Array.exists
      (fun (input, label) ->
        match Bnb.exists_flip ~box net spec ~input ~label with
        | Bnb.Flip _ -> true
        | Bnb.Robust -> false
        | Bnb.Unknown _ -> assert false (* no budget on this path *))
      inputs
  in
  if not (flips_at max_d) then None
  else begin
    (* Monotone in d: binary search the smallest flipping magnitude. *)
    let rec search lo hi =
      if hi - lo <= 1 then hi
      else
        let mid = (lo + hi) / 2 in
        if flips_at mid then search lo mid else search mid hi
    in
    let min_flip = if flips_at 0 then 0 else search 0 max_d in
    Some (max 0 (min_flip - 1))
  end

let stats_to_string s =
  Printf.sprintf
    "node %d: %d positive / %d negative / %d zero (range [%d, %d], mean %.2f)"
    s.node s.n_positive s.n_negative s.n_zero s.min_noise s.max_noise s.mean_noise
