(** Process supervision: the daemon's compute pool, forked into worker
    {e processes} so a crash is an event, not an outage.

    {!create} forks [procs] children; each child reserves [workers]
    domains in its own {!Util.Parallel} pool (with its own warm
    {!Fannet.Warm} sessions) and speaks [fannet-wire/2] to the parent
    over a socketpair. Queries are
    sharded by network digest — [fnv1a64(digest) mod procs] — so repeat
    queries against the same model always land on the same child and its
    warm sessions stay hot.

    Death is detected by EOF on the socketpair (the child's end closes
    the instant the process dies, whatever killed it); the reader thread
    reaps the corpse, fails the queries that were in flight on that
    child with a typed error (the daemon turns it into a [server-error]
    reply — the client can retry), and schedules a restart with
    exponential backoff. More than [storm_limit] deaths inside
    [storm_window_s] opens a circuit breaker: queries to that shard fail
    fast for [cooloff_s] instead of burning CPU on fork-crash loops.
    A restarted child is replayed every [Load] its shard owns before it
    serves again, so restarts are invisible to clients beyond latency.

    Fork safety: workers are never forked from the daemon itself.
    Forking a process that has grown many live threads clones runtime
    bookkeeping for threads that do not exist in the child, and a child
    that then spawns domains can wedge inside a stop-the-world section
    that never completes. Instead {!create} forks one single-threaded
    {e spawner} process up front — before the daemon owns any threads,
    sockets or the store — and every worker generation, initial or
    respawned, is forked by the spawner and connects back to the parent
    over a private unix socket. The parent daemon must still never
    spawn worker {e domains} of its own in supervised mode. Children
    exit with [Unix._exit] only, so parent [at_exit] hooks never run
    twice.

    Faultpoint ["serve.worker.kill"] makes a worker [_exit 137] on
    query receipt, as if OOM-killed. The parent replays its armed
    table ({!Resil.Faultpoint.snapshot}) into every worker at spawn
    time, so arming or clearing between restarts steers every later
    generation; a live worker keeps the table it was last sent. *)

type policy = {
  backoff_base_s : float;  (** first restart delay; doubles per recent death *)
  backoff_max_s : float;   (** backoff ceiling *)
  storm_limit : int;       (** deaths within the window that open the circuit *)
  storm_window_s : float;
  cooloff_s : float;       (** how long the circuit stays open *)
}

val default_policy : policy
(** 50 ms base, 2 s cap, 5 deaths / 10 s window, 1 s cooloff. *)

type t

val create :
  ?policy:policy ->
  procs:int ->
  workers:int ->
  execute:(Nn.Qnet.t -> budget:Resil.Budget.t -> Protocol.query -> Protocol.answer) ->
  unit ->
  t
(** Fork [procs] (>= 1, clamped) children, each with a [workers]-domain
    pool, all running [execute] for query compute. Call this before the
    parent owns any worker domains. *)

val load : t -> digest:string -> network:string -> unit
(** Register a network for replay and forward it to the owning shard.
    Ordering is guaranteed by the socketpair stream: a query sent after
    [load] returns cannot reach the child before the network did. *)

val query :
  t ->
  digest:string ->
  query:Protocol.query ->
  budget:Protocol.budget_spec ->
  (Protocol.reply, string) result
(** Run one query on the owning shard and wait for its reply —
    [Answer], [Protocol_error] or [Server_error], exactly as the child
    produced it. [Error msg] is a supervisor-level failure: the child
    died mid-query, is between restarts, or its circuit is open; the
    caller answers a typed [server-error] and the client may retry.
    The [budget] is forwarded verbatim — clamp it first. *)

val procs : t -> int

val restarts : t -> int
(** Children respawned after a death (the initial generation is not a
    restart). *)

val deaths : t -> int
(** Child deaths observed (EOF on the socketpair). *)

val stop : t -> unit
(** Shut every child down (wire [Shutdown], then EOF, then [SIGKILL]
    after a grace), reap them all and join the reader threads.
    Idempotent. *)
