(** Per-domain pool of warm incremental solver sessions.

    Opening an {!Smtlite.Solve} session Tseitin-encodes the whole network,
    which dominates the cost of a small query. Analyses that issue many
    queries about one (network, input, label) — tolerance binary searches,
    sweeps revisiting the same sample at several deltas, per-node
    sensitivity boxes, model enumeration — should encode once. This module
    pools open sessions in {!Domain.DLS}, keyed by a digest of the query
    shape; the session is encoded at the widest requested range and every
    narrower probe becomes a memoised assumption literal.

    Pool entries never cross domains (no locking, no sharing), and every
    result is either witness-free (a boolean from a complete solver, so
    independent of accumulated learnt clauses) or canonicalised (sorted
    complete enumerations) — analyses built on this pool keep the
    jobs=1 ≡ jobs=N determinism contract of {!Util.Parallel} even though
    the steal schedule decides which domain warms which session. *)

val probe_delta :
  ?budget:Resil.Budget.t ->
  Nn.Qnet.t ->
  bias_noise:bool ->
  cover:int ->
  delta:int ->
  input:int array ->
  label:int ->
  (bool, Resil.Budget.reason) result
(** Does some noise vector with every component in [[-delta, +delta]]
    flip the classification of [input] away from [label]? The pooled
    session is encoded at the symmetric range [±cover]; all probes with
    the same [(net, input, label, bias_noise, cover)] reuse it. Requires
    [0 <= delta <= cover]. [Sat] witnesses are re-validated against
    {!Noise.predict} before the boolean is returned. *)

val probe_box :
  ?budget:Resil.Budget.t ->
  Nn.Qnet.t ->
  Noise.spec ->
  box:(int * int) array ->
  input:int array ->
  label:int ->
  (bool, Resil.Budget.reason) result
(** Does some noise vector inside the per-dimension [box] (bias dimension
    first when the spec has one, matching {!Encode.noise_vars} order)
    flip the classification? The box must lie within the spec's range;
    the pooled session is encoded once at the spec's full range and each
    distinct box becomes one memoised assumption. *)

val enumerate_flips :
  ?limit:int ->
  ?max_conflicts:int ->
  ?budget:Resil.Budget.t ->
  Nn.Qnet.t ->
  Noise.spec ->
  input:int array ->
  label:int ->
  Noise.vector list
  * [ `Complete | `Truncated | `Budget of Resil.Budget.reason ]
(** Every noise vector in the spec's range that flips the classification,
    sorted in {!Noise.compare} order (canonical — independent of the
    enumeration order a warm session happens to follow). Found models are
    blocked through per-call assumptions, never permanent clauses, so the
    pooled session stays clean for other callers; a second call on the
    same key re-enumerates from a warm encoding. *)

val hits : unit -> int
(** Process-wide count of pool lookups served by an existing session. *)

val misses : unit -> int
(** Process-wide count of pool lookups that had to encode a session. *)

val evictions : unit -> int
(** Process-wide count of entries actually evicted: when a domain's pool
    is at capacity, the single least-recently-used session is dropped and
    this counter is incremented once per dropped entry. Together with
    {!misses} this gives the exact invariant
    [misses = evictions + live entries summed over domains] (every miss
    inserts one entry; every eviction removes one; {!reset} drops entries
    without counting them). *)

val size : unit -> int
(** Number of sessions currently pooled by the {e calling} domain
    (other domains' pools are not visible — entries never cross
    domains). *)

val reset : unit -> unit
(** Drop every domain's pooled sessions (counters are kept; the dropped
    entries do {e not} count as evictions). Each domain drops its own
    entries at its next pool access, so resident pool domains start the
    next batch cold too. Mostly for tests that need a cold pool. *)
