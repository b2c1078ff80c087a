(** Work-stealing batches and resident tasks on one process-wide domain
    pool.

    Every combinator seeds one range of indices per worker (the calling
    domain is worker 0) and lets idle workers steal the upper half of a
    busy worker's remaining range, so a slow item — one hard solver
    query — no longer stalls a whole static chunk. Each item's result is
    written back at its original index and the output is reassembled in
    input order, so results are deterministic and independent of [jobs]
    and of the steal schedule. With [jobs = 1] the sequential code path
    runs — results are bit-identical to the plain [Array] combinators.

    {b The pool.} Workers other than the caller are tasks on one
    process-wide domain pool, the only domains this codebase spawns. It
    starts empty; neither [jobs = 1] nor an empty range starts it, which
    matters because OCaml 5 refuses [Unix.fork] once any domain has
    existed. A batch asks for one helper per extra worker and a race for
    one per extra thunk, but neither grows the pool past
    [Domain.recommended_domain_count () - 1] (at least 1); surplus
    helpers queue and their ranges are stolen. Every domain, even an
    idle one, joins each stop-the-world minor collection, so domains
    grown by batches do not stay: one that runs out of tasks spins for
    about the cost of a spawn (back-to-back batches reuse it) and then
    exits. Domains a server {!reserve}s stay resident and sleep when
    idle, until it {!release}s them. No domain is ever joined.

    {b Nesting.} A batch may run inside a batch item, a race thunk or a
    {!run} task. A helper still queued when the caller runs out of work
    never starts, so a batch completes on its caller even when every
    pool domain is busy.

    Workers must not share mutable state through [f]; per-worker caches
    keyed by {!Domain.DLS} (e.g. warm solver sessions) are fine.

    [jobs] resolution order: the explicit [?jobs] argument, then the
    process-wide override ({!set_default_jobs}, the CLI's [--jobs]), then
    the [FANNET_JOBS] environment variable, then
    [Domain.recommended_domain_count ()]. *)

val default_jobs : unit -> int
(** The worker count used when [?jobs] is omitted (always >= 1). *)

val set_default_jobs : int option -> unit
(** Process-wide override ([None] restores environment/hardware
    resolution). Values below 1 are clamped to 1. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Same result as [Array.map] for a pure [f], in input order. *)

val mapi : ?jobs:int -> (int -> 'a -> 'b) -> 'a array -> 'b array

val filter_map : ?jobs:int -> ('a -> 'b option) -> 'a array -> 'b list
(** [Some]-results in input order. *)

val filter_mapi : ?jobs:int -> (int -> 'a -> 'b option) -> 'a array -> 'b list

val exists : ?jobs:int -> ('a -> bool) -> 'a array -> bool
(** Workers poll a shared flag and stop early once any element satisfies
    the predicate. *)

(** {1 Cooperative early stop}

    {!map_until} polls [stop] (which must be thread-safe — an atomic
    flag or a {e budget} check) before every element. Once any
    worker observes [stop] the whole batch drains, the call returns
    [Error ()] and all per-element results are discarded, so [Ok]
    results remain deterministic and independent of [jobs]. Abandonment
    is a sentinel, not an exception: a genuine worker exception still
    propagates (after all domains are joined) and is never masked by a
    concurrent stop. *)

val map_until :
  ?jobs:int -> stop:(unit -> bool) -> (int -> 'a -> 'b) -> 'a array ->
  ('b array, unit) result

(** {1 Failure semantics}

    A raising item does not abort the batch: its exception is recorded,
    every other element still runs to completion, every started helper
    has finished, and only then is the exception re-raised — a failing
    parallel call never leaves work running behind it. With several failing
    items the exception of the {e lowest-indexed} failing item wins,
    which makes the propagated exception deterministic and independent
    of [jobs] (under the old static chunking the winner was the
    lowest-numbered failing chunk; per-item resolution refines that). *)

(** {1 Racing}

    [race ~cancel thunks] runs the thunks as one batch with one worker
    per thunk (the calling domain runs thunk 0) and reports the first
    one to return normally. Thunks run concurrently only as far as pool
    domains are free; the rest run after another thunk finishes. The
    moment a winner is decided, [cancel] is invoked exactly once — from
    the winning domain — so the caller can ask the losers to stop
    cooperatively (e.g. by firing {!Resil.Budget} cancellation tokens);
    [cancel] must therefore be thread-safe. Every thunk still runs and
    is accounted for before [race] returns. Returns the winner's index
    and value plus every thunk's outcome in index order. If {e all}
    thunks raise, the lowest-indexed exception is re-raised. *)

val race :
  cancel:(unit -> unit) ->
  (unit -> 'a) array ->
  (int * 'a) * ('a, exn) result array

(** {1 Resident tasks}

    Server-shaped use of the same pool. Tasks run in submission order,
    at most one per domain at a time, so what a task keeps in
    {!Domain.DLS} (warm solver sessions) is reused by later tasks on
    that domain and never shared between two running tasks. *)

val reserve : int -> unit
(** Keep [n] more domains resident, spawning any that are missing. *)

val release : int -> unit
(** Undo a {!reserve} of [n]: the domains stay until they are idle. *)

val run : (unit -> 'a) -> 'a
(** Run [f] on a pool domain, sleep the calling thread until it
    finishes, and return its result or re-raise its exception. Called
    from a pool domain, [run] runs [f] inline. *)

val submit : (unit -> unit) -> unit
(** Queue a fire-and-forget task. It must catch its own exceptions; a
    stray raise is swallowed so it cannot kill the domain. *)

(** {1 Instrumentation}

    An optional probe observes per-worker effort. [None] (the default)
    is the zero-overhead path: a single atomic load per parallel batch.
    The observability layer ([Obs.Report.enable]) installs a probe backed
    by the monotonic clock; this module deliberately has no dependency on
    it. *)

type worker_stat = {
  busy_s : float;  (** wall time spent inside [f], summed over the items
                       this worker actually ran (steal-adjusted) *)
  items : int;     (** items this worker ran *)
  steals : int;    (** ranges this worker stole from a victim *)
}

type probe = {
  now_s : unit -> float;  (** timestamp source (seconds, monotonic) *)
  record : stats:worker_stat array -> unit;
      (** called on the calling domain after each parallel batch, with
          one entry per worker in worker order *)
}

val set_probe : probe option -> unit
