(** Classification-boundary estimation (paper §V-C.2).

    Inputs whose minimal flipping noise is small sit close to the decision
    boundary; inputs that survive ±50 % noise are deep inside their class
    region. The per-input minimal flipping range is the distance proxy the
    paper reads off its counterexample corpus. *)

type point = {
  input_index : int;
  true_label : int;
  min_flip_delta : int option;
      (** smallest ±Δ containing a flipping vector; [None] if robust up to
          the probe limit *)
  margin : int;
      (** noise-free output margin [o_true - o_other] at the x100 scale (2-
          class networks); larger means farther from the boundary *)
}

val analyze_b :
  ?jobs:int ->
  ?budget:Resil.Budget.t ->
  Backend.t ->
  Nn.Qnet.t ->
  bias_noise:bool ->
  max_delta:int ->
  inputs:Validate.labelled array ->
  (point array, Resil.Budget.reason) result
(** One point per input, in input order, from
    {!Tolerance.input_min_flip_delta_b}. The per-input binary searches
    stop cooperatively on budget exhaustion or an undecided probe, and
    the call returns [Error] with the first reason observed rather than
    a partial point set. *)

val analyze :
  ?jobs:int ->
  Backend.t ->
  Nn.Qnet.t ->
  bias_noise:bool ->
  max_delta:int ->
  inputs:Validate.labelled array ->
  point array
(** {!analyze_b}, [Failure] on a stop; kept because [perfbench/] calls it. *)

val near_boundary : point array -> threshold:int -> point array
(** Points flipping within ±threshold. *)

val robust_at_probe : point array -> point array
(** Points with [min_flip_delta = None] (survived the full probe range,
    the paper's "noise even as large as 50 % did not trigger
    misclassification"). *)

val margin_flip_correlation : point array -> float
(** Pearson correlation between the noise-free margin and the minimal
    flipping Δ (treating [None] as [max_delta+1] is the caller's business;
    here points with [None] are skipped). Positive correlation corroborates
    the boundary reading. *)
