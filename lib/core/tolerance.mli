(** Noise-tolerance analysis (paper §IV-B, Fig. 4 left panel).

    The noise tolerance of the network is the largest symmetric percent
    range ±Δ under which no correctly classified input can be flipped by
    any noise vector (the paper reports ±11 % for its network).

    The per-sample queries are independent, so every per-input loop here
    fans out over a {!Util.Parallel} domain pool ([?jobs], defaulting to
    the process-wide setting). Each worker builds its own solver session;
    results are deterministic and identical at every jobs count. *)

type flip = { input_index : int; vector : Noise.vector; predicted : int }

type sweep_point = {
  delta : int;
  n_misclassified : int;    (** inputs with at least one flipping vector *)
  undecided : int;
      (** inputs the backend could not decide ([Unknown Incomplete], e.g.
          the [Interval] backend on an input it cannot prove robust):
          neither flipped nor robust *)
  flips : flip list;        (** one witness per flipped input *)
}

(** Every analysis below has one implementation, typed by its stop
    reason ([_b]: [?budget] in, [(result, Resil.Budget.reason) result]
    out). The few unbudgeted names left are one-line
    {!Resil.Budget.ok_or_fail} projections of it, kept because the
    repository benchmark ([perfbench/]) calls them: they raise [Failure]
    where the [_b] form returns [Error]. *)

val misclassified_at_b :
  ?jobs:int ->
  ?budget:Resil.Budget.t ->
  Backend.t ->
  Nn.Qnet.t ->
  bias_noise:bool ->
  delta:int ->
  inputs:Validate.labelled array ->
  (sweep_point, Resil.Budget.reason) result
(** One witness per input that some vector in ±delta flips, and the
    count of inputs the backend could not decide (never counted robust).
    The budget is propagated into every backend query and the worker
    pool stops cooperatively on exhaustion, returning [Error] with the
    first reason observed. *)

val misclassified_at :
  ?jobs:int ->
  Backend.t ->
  Nn.Qnet.t ->
  bias_noise:bool ->
  delta:int ->
  inputs:Validate.labelled array ->
  flip list
(** {!misclassified_at_b}'s [flips], [Failure] on a stop; [perfbench/] calls it. *)

val sweep_b :
  ?jobs:int ->
  ?budget:Resil.Budget.t ->
  Backend.t ->
  Nn.Qnet.t ->
  bias_noise:bool ->
  deltas:int list ->
  inputs:Validate.labelled array ->
  (sweep_point list, Resil.Budget.reason) result
(** Misclassification counts per noise range — the data behind the
    paper's Fig. 4 scatter (ranges ±5 ... ±40) — under a budget shared
    across all deltas; [Error] as soon as one delta's batch exhausts
    it. *)

val sweep :
  ?jobs:int ->
  Backend.t ->
  Nn.Qnet.t ->
  bias_noise:bool ->
  deltas:int list ->
  inputs:Validate.labelled array ->
  sweep_point list
(** {!sweep_b}, [Failure] on a stop; kept because [perfbench/] calls it. *)

val network_tolerance_b :
  ?jobs:int ->
  ?budget:Resil.Budget.t ->
  Backend.t ->
  Nn.Qnet.t ->
  bias_noise:bool ->
  max_delta:int ->
  inputs:Validate.labelled array ->
  (int, Resil.Budget.reason) result
(** Largest Δ in [0, max_delta] with zero flips across all inputs.
    Computed as [min over inputs of (min flipping Δ) - 1] using binary
    search per input (sound because flip-ability is monotone in Δ), which
    matches the paper's iterative reduce-the-noise procedure but with
    logarithmically many solver queries. Returns [max_delta] when even
    the full range is safe. Exhaustion anywhere in the per-input binary
    searches, or a probe the backend cannot decide ([Incomplete]), stops
    the whole pool and yields [Error] (a partial minimum would silently
    overstate the tolerance). *)

val network_tolerance :
  ?jobs:int ->
  Backend.t ->
  Nn.Qnet.t ->
  bias_noise:bool ->
  max_delta:int ->
  inputs:Validate.labelled array ->
  int
(** {!network_tolerance_b}, [Failure] on a stop; [perfbench/] calls it. *)

val network_tolerance_ckpt :
  ?budget:Resil.Budget.t ->
  checkpoint:string ->
  Backend.t ->
  Nn.Qnet.t ->
  bias_noise:bool ->
  max_delta:int ->
  inputs:Validate.labelled array ->
  (int, Resil.Budget.reason) result
(** {!network_tolerance_b} with checkpoint/resume: the per-input results and
    the in-flight bisection bracket are persisted to [checkpoint] in
    [fannet-ckpt/1] format (kind ["tolerance"], atomic tmp+rename) after
    every probe, and an existing checkpoint for the same run (backend,
    network, inputs, range — validated by digest) resumes there, repeating
    at most two probes. The search is sequential; a damaged checkpoint is
    reported on stderr and ignored, one from a different run raises
    [Invalid_argument]. The file is removed on completion. [Error] on
    budget exhaustion (state saved — rerun to continue). *)

val certified_accuracy :
  ?jobs:int ->
  Backend.t ->
  Nn.Qnet.t ->
  bias_noise:bool ->
  delta:int ->
  inputs:Validate.labelled array ->
  float
(** Fraction of inputs that are both correctly classified without noise
    AND provably robust for every noise vector in ±delta — the standard
    certified-accuracy metric of the robustness literature, computed here
    exactly (no relaxation gap) thanks to the complete backends. With the
    [Interval] backend the result is a sound lower bound. *)

val paper_iterative_tolerance :
  ?jobs:int ->
  Backend.t ->
  Nn.Qnet.t ->
  bias_noise:bool ->
  max_delta:int ->
  inputs:Validate.labelled array ->
  int
(** The literal procedure of the paper's Fig. 2: start from the large
    range ±max_delta and reduce the noise one percent at a time until the
    model checker finds no counterexample for any input. Same result as
    {!network_tolerance_b} (asserted by tests) with linearly many queries —
    kept for methodological fidelity. Raises [Failure] when a probe cannot
    be decided. *)

type certified_bracket = {
  max_delta : int;  (** the search range the bracket covers *)
  min_flip_delta : int option;
      (** smallest flipping Δ, [None] if robust up to ±[max_delta] *)
  flip_cert : (int * Noise.vector * Cert.Verdict.t) option;
      (** (Δ, witness, model certificate) at the minimal flipping range;
          [None] only when no Δ flips *)
  robust_cert : (int * Cert.Verdict.t) option;
      (** (Δ, refutation certificate) at the largest certified-robust
          range — [min_flip_delta - 1], or [max_delta] when nothing
          flips; [None] only when Δ=0 already flips *)
}

val certified_min_flip_delta_b :
  ?budget:Resil.Budget.t ->
  Nn.Qnet.t ->
  bias_noise:bool ->
  max_delta:int ->
  input:int array ->
  label:int ->
  (certified_bracket, Resil.Budget.reason) result
(** {!input_min_flip_delta_b} with the incremental [Smt] search and DRUP
    proof logging: the answer comes back as a {e certified tolerance
    bracket} — a refutation certificate proving robustness at
    [min_flip_delta - 1] and a model certificate plus concrete witness
    proving the flip at [min_flip_delta]. The bracket composes the
    per-delta certificates of the binary-search probes; each can be
    re-checked independently of the solver. No interval prefilter is used
    (its answers carry no proofs). [Error] when a probe was stopped
    before the bracket closed. *)

val check_certified_bracket :
  Nn.Qnet.t ->
  bias_noise:bool ->
  certified_bracket ->
  input:int array ->
  label:int ->
  (unit, string) result
(** Independent validation of a bracket: shape consistency (certificates
    present and adjacent: robust Δ = flip Δ - 1, or covering [max_delta]
    when nothing flips), certificate kinds match the claims, both pass
    {!Cert.Verdict.check}, and the flip witness concretely misclassifies
    under {!Noise.predict} within its probe range. *)

val input_min_flip_delta_b :
  ?budget:Resil.Budget.t ->
  Backend.t ->
  Nn.Qnet.t ->
  bias_noise:bool ->
  max_delta:int ->
  input:int array ->
  label:int ->
  (int option, Resil.Budget.reason) result
(** Smallest Δ whose range ±Δ contains a flipping vector for this input,
    or [None] if robust up to ±max_delta; [Error] when a probe was
    stopped (budget, or a backend that cannot decide) before the binary
    search converged.

    With the [Smt] backend (or [Cascade Smt]) the binary search is
    incremental: the network is bit-blasted once at ±max_delta and each
    probe narrows the noise bound through assumable range literals over
    one warm solver session, so learnt clauses carry across probes and no
    probe pays a fresh Tseitin encoding. [Cascade Smt] additionally runs
    the interval prefilter per probe. Verdicts are identical to the
    per-probe re-encoding at every delta. *)
