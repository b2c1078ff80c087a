(** Quantitative robustness: the probability of misclassification under
    the noise model, by model counting over the noise space.

    Where {!Tolerance} answers the paper's qualitative P2 ("does any
    noise vector flip the prediction?"), this module answers the
    quantitative refinement: {e how many} noise vectors flip it, as an
    exact count (certified on request, [fannet-count-cert/2]) or an
    (ε, δ) approximation — the flip count divided by the noise-space
    cardinality is the misclassification probability under uniform
    noise. *)

type mode =
  | Exact_mode of { certify : bool }
      (** cube-decomposition #SAT ({!Count.Exact}); [certify] attaches a
          checkable certificate *)
  | Approx_mode of { epsilon : float; delta : float; seed : int }
      (** XOR-hash estimation ({!Count.Approx}) *)

val default_mode : mode
(** [Exact_mode { certify = false }]. *)

type report = {
  flips : Util.Bigcount.t;   (** noise vectors flipping the prediction *)
  total : Util.Bigcount.t;   (** noise-space cardinality *)
  probability : float;       (** [flips / total] *)
  certificate : Count.Certificate.t option;
      (** present iff [Exact_mode {certify = true}] and fully decided *)
  solver_calls : int;
  status : (unit, Resil.Budget.reason) result;
      (** [Error] when the budget ran out — counts are then partial
          (exact) or aggregated from fewer rounds (approx) *)
  approx : bool;  (** [flips] is an estimate, not an exact count *)
}

val probability :
  ?budget:Resil.Budget.t ->
  ?mode:mode ->
  ?jobs:int ->
  ?checkpoint:string ->
  ?ckpt_key:string ->
  Nn.Qnet.t ->
  Noise.spec ->
  input:int array ->
  label:int ->
  report
(** Count the noise vectors under which the network's prediction on
    [input] differs from [label]. [jobs], [checkpoint] and [ckpt_key]
    apply to exact mode only (see {!Count.Exact.count}). *)

val check_certificate :
  Nn.Qnet.t ->
  Noise.spec ->
  input:int array ->
  label:int ->
  Count.Certificate.t ->
  (unit, string) result
(** Re-validate a certificate against the query it claims to answer: the
    encoding is rebuilt and {!Count.Certificate.check} runs on it. *)
