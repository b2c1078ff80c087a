(* Order statistics for the ledger.

   Every timing is reported as a median plus the highest tail percentile
   that still has at least [min_beyond] samples beyond it, always with its
   sample count: a p99 drawn from 200 samples rests on two observations
   and says nothing. *)

let min_beyond = 10

(* Samples strictly above the p-th percentile of [n] samples: the ranks
   past ceil(n * p / 100). *)
let beyond ~n p = n - int_of_float (Float.ceil (float_of_int n *. p /. 100.))

let tail_candidates = [ 99.9; 99.; 95.; 90.; 75.; 50. ]

let tail_percentile ?(candidates = tail_candidates) n =
  List.sort (fun a b -> Float.compare b a) candidates
  |> List.find_opt (fun p -> beyond ~n p >= min_beyond)

let percentile a p = Util.Stats.percentile a p

let median a = percentile a 50.

(* [Some value] only when the percentile is backed by [min_beyond]
   samples beyond it; a run too short for the percentile reports [None]
   rather than a number that reads as a measurement. *)
let supported a p =
  if Array.length a > 0 && beyond ~n:(Array.length a) p >= min_beyond then
    Some (percentile a p)
  else None
