type params = {
  n_classes : int;
  n_genes : int;
  n_informative : int;
  train_per_class : int array;
  test_per_class : int array;
  separation : float;
  noise_sigma : float;
}

type t = {
  train : (int array * int) array;
  test : (int array * int) array;
  n_classes : int;
  informative : int array;
}

let default_params =
  {
    n_classes = 3;
    n_genes = 256;
    n_informative = 12;
    train_per_class = [| 18; 10; 6 |];
    test_per_class = [| 10; 7; 5 |];
    separation = 1.1;
    noise_sigma = 0.4;
  }

let check (params : params) =
  if params.n_classes < 2 then invalid_arg "Multiclass: n_classes < 2";
  if Array.length params.train_per_class <> params.n_classes
     || Array.length params.test_per_class <> params.n_classes
  then invalid_arg "Multiclass: per-class counts mismatch";
  if params.n_informative > params.n_genes then
    invalid_arg "Multiclass: too many informative genes"

(* Each informative gene is over-expressed in exactly one class (its
   "marker" class), round-robin. *)
type gene_model = { base : float; marker : int option }

let clip v = max 1 (min 50000 v)

let make_models rng params =
  let indices = Array.init params.n_genes (fun i -> i) in
  Util.Rng.shuffle rng indices;
  let chosen = Array.sub indices 0 params.n_informative in
  let marker_of = Hashtbl.create 16 in
  Array.iteri (fun rank g -> Hashtbl.add marker_of g (rank mod params.n_classes)) chosen;
  let models =
    Array.init params.n_genes (fun g ->
        {
          base = Util.Rng.gaussian_mu_sigma rng ~mu:(log 500.) ~sigma:0.8;
          marker = Hashtbl.find_opt marker_of g;
        })
  in
  Array.sort compare chosen;
  (models, chosen)

let sample rng params models label =
  let features =
    Array.map
      (fun m ->
        let shift =
          match m.marker with
          | Some c when c = label -> params.separation
          | Some _ | None -> 0.
        in
        let level =
          m.base +. shift
          +. Util.Rng.gaussian_mu_sigma rng ~mu:0. ~sigma:params.noise_sigma
        in
        clip (int_of_float (Float.round (exp level))))
      models
  in
  (features, label)

let generate ?(params = default_params) ~seed () =
  check params;
  let rng = Util.Rng.create seed in
  let models, informative = make_models rng params in
  let batch counts =
    Array.concat
      (List.init params.n_classes (fun c ->
           Array.init counts.(c) (fun _ -> sample rng params models c)))
  in
  let train = batch params.train_per_class in
  let test = batch params.test_per_class in
  Util.Rng.shuffle rng train;
  Util.Rng.shuffle rng test;
  { train; test; n_classes = params.n_classes; informative }

let class_counts samples ~n_classes =
  let counts = Array.make n_classes 0 in
  Array.iter
    (fun (_, l) ->
      if l < 0 || l >= n_classes then invalid_arg "Multiclass.class_counts";
      counts.(l) <- counts.(l) + 1)
    samples;
  counts

let select_genes t ~k ~bins =
  Mrmr.select_rows (Array.map fst t.train) ~labels:(Array.map snd t.train) ~k ~bins
  |> Array.map (fun (s : Mrmr.score) -> s.gene)

let project t ~genes =
  let pick (x, l) = (Array.map (fun g -> x.(g)) genes, l) in
  { t with train = Array.map pick t.train; test = Array.map pick t.test }
