(** Input-node sensitivity analysis (paper §V-C.4).

    Over the counterexample corpus, the sign distribution of each noise
    node reveals asymmetric sensitivities: in the paper no counterexample
    carries positive noise at input node i5, while node i2 appears with
    positive noise more often than negative. Node index 0 is the bias
    node when the spec enables bias noise; gene nodes are 1..n (the
    paper's i1..i5). *)

type node_stats = {
  node : int;
  n_positive : int;    (** counterexamples with positive noise here *)
  n_negative : int;
  n_zero : int;
  min_noise : int;     (** extreme values observed (0 when corpus empty) *)
  max_noise : int;
  mean_noise : float;
}

type side = Never_positive | Never_negative | Both_sides | No_data

val per_node :
  Noise.spec -> n_inputs:int -> Extract.counterexample list -> node_stats array
(** One entry per noise node (bias first when enabled). *)

val sidedness : node_stats -> side

val most_sensitive : node_stats array -> int
(** Node index whose noise is most often non-zero in the corpus (the node
    whose perturbation most frequently participates in flips). Raises on
    an empty array. *)

val stats_to_string : node_stats -> string

type formal_side = {
  fs_node : int;
  positive_flip : bool;  (** some counterexample has noise >= +1 here *)
  negative_flip : bool;  (** some counterexample has noise <= -1 here *)
}

type engine =
  | Bnb  (** complete branch-and-bound with box restriction (default) *)
  | Smt
      (** bit-blasted queries on pooled {!Warm} sessions: all boxes about
          one (network, input, label) share one Tseitin encoding, each box
          is a memoised assumption — the per-node workers of
          {!formal_sidedness_b} warm-start each other's queries *)

val formal_sidedness_b :
  ?jobs:int ->
  ?engine:engine ->
  ?budget:Resil.Budget.t ->
  Nn.Qnet.t ->
  Noise.spec ->
  inputs:Validate.labelled array ->
  (formal_side array, Resil.Budget.reason) result
(** Runs one {!Util.Parallel} worker per node ([?jobs] as in {!Tolerance}).
    Exact one-sidedness per node, decided by formal queries rather than a
    (possibly truncated) corpus: node [i] admits a positive-side flip iff
    some input has a flipping vector whose [i]-component is >= +1 (other
    nodes range freely). A node with [positive_flip = false] is the
    paper's "extremely insensitive to positive noise" case (its i5).
    Both engines are complete, so the answer is engine-independent. The
    budget is propagated into every one-sided query and the worker pool
    stops cooperatively on exhaustion, returning [Error] with the first
    reason observed instead of a partial (and therefore misleading)
    sidedness table. *)

val formal_sidedness :
  ?jobs:int ->
  ?engine:engine ->
  Nn.Qnet.t ->
  Noise.spec ->
  inputs:Validate.labelled array ->
  formal_side array
(** {!formal_sidedness_b}, [Failure] on a stop; [perfbench/] calls it. *)

val formal_side_to_side : formal_side -> side

val single_node_tolerance :
  Nn.Qnet.t ->
  Noise.spec ->
  inputs:Validate.labelled array ->
  node:int ->
  int option
(** Largest ±D within the spec's range such that perturbing ONLY this
    node (all other nodes noise-free) flips no input; [None] when even the
    full range is safe. A quantitative per-node sensitivity: the smaller
    the value, the more measurement precision the node demands (the
    paper's variable-precision acquisition use case). Uses the complete
    branch-and-bound engine with box restriction. *)
