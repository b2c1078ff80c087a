(** Minimal JSON emitter and parser (no external dependency).

    Covers the subset the bench harness needs for machine-readable
    artefacts such as [BENCH_parallel.json]: objects, arrays, strings with
    standard escapes, booleans, null, and numbers (integers kept exact,
    everything else as float). [of_string] is a strict recursive-descent
    parser used to validate emitted artefacts round-trip. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Non_finite of float
(** Raised by {!to_string} and {!pretty} on a [Float] that is NaN or
    infinite: JSON has no spelling for them. *)

val to_string : t -> string
(** Compact single-line rendering. A [Float] is written with the fewest
    of 15, 16 or 17 significant digits that read back as the same float,
    so [of_string (to_string (Float f)) = Ok (Float f)] for every finite
    [f]. Raises {!Non_finite} on a NaN or infinite [Float]. *)

val pretty : t -> string
(** Two-space-indented rendering for committed/benchmark artefacts.
    Raises {!Non_finite} like {!to_string}. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; the error string carries the failing
    byte offset. Rejects trailing garbage. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on other constructors. *)

val write_file : string -> t -> unit
val parse_file : string -> (t, string) result
