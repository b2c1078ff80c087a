type score = { gene : int; relevance : float; redundancy : float }

(* [binned.(g)] is gene [g]'s column over the samples, quantile-binned
   once: relevance and every redundancy term read the same array. *)
let binned_columns rows ~bins =
  let n = Array.length rows in
  let column = Array.make n 0 in
  Array.init (Array.length rows.(0)) (fun g ->
      for i = 0 to n - 1 do
        column.(i) <- rows.(i).(g)
      done;
      Mutual_info.discretize column ~bins)

let relevances binned ~labels ~bins =
  let t = Mutual_info.table ~kx:bins ~ky:(Array.fold_left Int.max 0 labels + 1) in
  Array.map (fun column -> Mutual_info.mutual_information_into t column labels) binned

let select_rows rows ~labels ~k ~bins =
  if Array.length rows = 0 then invalid_arg "Mrmr.select: empty samples";
  let n_genes = Array.length rows.(0) in
  if k < 1 || k > n_genes then invalid_arg "Mrmr.select: k out of range";
  let binned = binned_columns rows ~bins in
  let rel = relevances binned ~labels ~bins in
  let t = Mutual_info.table ~kx:bins ~ky:bins in
  (* [mi.(g * k + s)] is MI(gene g; pick s), filled once pick [s] is made. *)
  let mi = Array.make (n_genes * k) 0. in
  let taken = Array.make n_genes false in
  let picks = Array.make k { gene = -1; relevance = 0.; redundancy = 0. } in
  for step = 0 to k - 1 do
    if step > 0 then begin
      let newest = binned.(picks.(step - 1).gene) in
      for g = 0 to n_genes - 1 do
        if not taken.(g) then
          mi.((g * k) + step - 1) <- Mutual_info.mutual_information_into t binned.(g) newest
      done
    end;
    let best = ref (-1) and best_value = ref 0. and best_redundancy = ref 0. in
    for g = 0 to n_genes - 1 do
      if not taken.(g) then begin
        (* Mean MI against the picks, summed newest first. *)
        let redundancy =
          if step = 0 then 0.
          else begin
            let total = ref 0. in
            for s = step - 1 downto 0 do
              total := !total +. mi.((g * k) + s)
            done;
            !total /. float_of_int step
          end
        in
        let value = rel.(g) -. redundancy in
        (* Ties keep the lowest gene index. *)
        if !best < 0 || not (!best_value >= value) then begin
          best := g;
          best_value := value;
          best_redundancy := redundancy
        end
      end
    done;
    taken.(!best) <- true;
    picks.(step) <- { gene = !best; relevance = rel.(!best); redundancy = !best_redundancy }
  done;
  picks

let rows_of samples = Array.map (fun (s : Sample.t) -> s.features) samples

let labels_of samples =
  Array.map (fun (s : Sample.t) -> Sample.label_to_int s.label) samples

let select_with_scores samples ~k ~bins =
  select_rows (rows_of samples) ~labels:(labels_of samples) ~k ~bins

let select samples ~k ~bins =
  Array.map (fun s -> s.gene) (select_with_scores samples ~k ~bins)

let relevance_ranking samples ~bins =
  if Array.length samples = 0 then invalid_arg "Mrmr.relevance_ranking: empty";
  let rel = relevances (binned_columns (rows_of samples) ~bins) ~labels:(labels_of samples) ~bins in
  let ranked = Array.mapi (fun g r -> (g, r)) rel in
  Array.sort (fun (_, a) (_, b) -> Float.compare b a) ranked;
  ranked
