(** Exact #SAT over a finite projection, by cube decomposition.

    DPLL-style counting on the CDCL core: the constrained space starts
    as one cube and a worklist refines it — a cube whose conjunction
    with the formula is UNSAT contributes zero, a cube the formula
    covers entirely (its conjunction with the negation is UNSAT)
    contributes its whole cardinality, a small mixed cube is counted by
    blocking-clause enumeration, and a large mixed cube is bisected on
    its widest dimension. All probes run as assumptions over one warm
    session (two compiled literals for the formula and its negation,
    one per cube range), so no probe pays a fresh Tseitin encoding.
    Projection variables the formula never mentions are factored out as
    a multiplier (see {!Space}), which also keeps counts exact-or-[Huge]
    rather than wrapped.

    With [~certify:true] every decided cube is re-derived on a fresh
    proof-traced session and the result carries a
    {!Certificate.t} ([fannet-count-cert/2]) that {!Certificate.check}
    re-validates independently. Certificate bytes are deterministic: the
    per-cube sessions depend only on (formula, cube), never on worker
    scheduling, so jobs=1 and jobs=N produce identical certificates.

    Budgets are polled per cube and threaded into every solve; on
    exhaustion the decided mass so far is returned with
    [status = Exhausted] and — when [~checkpoint] is set — the decided
    cubes and the pending frontier are persisted (format
    [fannet-ckpt/1], kind ["count"]), so a resumed run continues from
    the frontier instead of recounting. Checkpointing forces sequential
    operation ([jobs] is ignored).

    Every mode starts from the same fixed-target root decomposition (the
    root cube halved into up to 16 top cubes), and cube decisions are
    semantic — Sat/Unsat under disjoint-cube assumptions, unaffected by
    warm-session history — so the decided partition, the count, and the
    certificate bytes are identical across [jobs] settings and across
    checkpoint interrupt/resume boundaries. *)

type status = Decided | Exhausted of Resil.Budget.reason

type result = {
  count : Util.Bigcount.t;  (** decided mass × free factor *)
  total : Util.Bigcount.t;  (** cardinality of the whole projected space *)
  cubes : int;              (** decided cubes *)
  splits : int;
  solver_calls : int;
  certificate : Certificate.t option;
      (** present iff [certify] and fully decided *)
  status : status;
}

val count :
  ?budget:Resil.Budget.t ->
  ?certify:bool ->
  ?enum_limit:int ->
  ?jobs:int ->
  ?checkpoint:string ->
  ?ckpt_key:string ->
  ?ckpt_every:int ->
  Smtlite.Term.formula ->
  project:Smtlite.Term.var list ->
  result
(** Count the assignments of [project] satisfying the formula.

    [certify] (default false) attaches a [fannet-count-cert/2]
    certificate; [enum_limit] (default 64) is the largest cube counted
    by enumeration instead of bisection; [jobs] (default 1) counts
    disjoint subtrees on a {!Util.Parallel} pool; [checkpoint] persists
    progress every [ckpt_every] (default 32) decided cubes under
    identity [ckpt_key] (a resume with a different key raises
    [Invalid_argument], as does a torn checkpoint file).

    Raises [Invalid_argument] if the formula mentions variables outside
    [project]. *)
