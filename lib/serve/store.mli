(** Persistent verdict store: an append-only journal, format
    [fannet-store/2].

    The daemon's answer cache (see {!Lru}) is write-through to this
    journal, so a restart recovers every decided answer — certificate
    bytes included, bit-identical — instead of recomputing them. The
    file layout is

    {v
    fannet-store/2\n
    <len> <fnv1a64-hex>\n<payload>\n      (repeated)
    v}

    where [payload] is the compact JSON document
    [{"key":<cache key>,"answer":<Protocol.answer_bytes>}] of exactly
    [len] bytes and the checksum covers the payload (the same FNV-1a-64
    as {!Resil.Ckpt}). Version 2 differs from version 1 only in the
    certificate sub-document, which is in the compact text form of
    {!Cert.Verdict.to_json}; a [fannet-store/1] journal fails {!open_}
    with a foreign-header error. Appends are fsync-free but framed, so the only
    damage a crash can cause is a torn tail:

    - a record whose header, length or checksum does not match is
      treated as the torn tail — the file is truncated back to the last
      good record on open (counted in [stats.truncated_bytes]);
    - a record that frames correctly but whose JSON does not decode, or
      whose [Certified] answer fails {!Cert.Verdict.check}
      re-validation, is dropped individually (counted in
      [stats.dropped]) and scanning continues — framing integrity and
      semantic validity are independent defences.

    The journal self-compacts: when the file grows beyond
    [max 64 KiB (2 * live_bytes)] a compaction rewrites only the
    last-wins records through a temp file + atomic rename (the
    {!Resil.Ckpt} discipline), so the journal never grows without bound
    and a crash mid-compaction leaves the old file intact.

    Faultpoint ["serve.store.torn"] makes the next {!append} write half
    its record and silently disable the store — simulating a daemon
    crash mid-write; recovery must shed exactly that record. *)

type t

type stats = {
  appends : int;       (** records written by this handle *)
  compactions : int;   (** journal rewrites by this handle *)
  recovered : int;     (** live records recovered at open *)
  dropped : int;       (** framed-but-invalid records dropped at open *)
  truncated_bytes : int;  (** torn-tail bytes cut at open *)
  live_bytes : int;    (** payload bytes of live (last-wins) records *)
  file_bytes : int;    (** current journal size on disk *)
}

val open_ : path:string ->
  (t * (string * Protocol.answer) list, string) result
(** Open (creating if absent) the journal at [path] and recover its
    live records, last-wins per key, in append order. Torn tails are
    truncated in place; invalid records are dropped. [Error] only for
    I/O failures or a foreign format header — recoverable damage never
    fails the open. *)

val append_bytes : t -> key:string -> string -> unit
(** Journal one decided answer, already encoded by
    {!Protocol.answer_bytes}, under [key]. Re-appending a key supersedes
    the earlier record (last-wins on recovery). Serialised internally;
    safe from concurrent connection threads. A write failure (disk full,
    armed fault) disables the store — the daemon keeps serving from
    memory. *)

val append : t -> key:string -> Protocol.answer -> unit
(** [append t ~key a] is [append_bytes t ~key (Protocol.answer_bytes a)]. *)

val close : t -> unit
(** Flush and close the journal. Idempotent, and serialised against
    in-flight appends and compaction, so closing mid-compaction can
    never leave a non-recoverable tail. *)

val stats : t -> stats
val path : t -> string
