(** Self-contained verdict certificates.

    A certificate packages everything an independent party needs to
    re-derive one solver answer: the exact bit-blasted CNF, the assumption
    literals the query was posed under, and either a satisfying model or a
    DRUP refutation. {!check} re-validates it using only {!Rup} — never
    the solver — so a certified verdict does not depend on the solver
    being correct.

    The constructors are exposed (rather than the type being abstract) so
    tests can corrupt a certificate and assert that {!check} rejects it. *)

type t =
  | Model of {
      n_vars : int;
      cnf : int list list;
      assumptions : int list;
      model : bool array;
    }
      (** SAT: [model] satisfies every clause of [cnf] and every
          assumption. *)
  | Refutation of {
      n_vars : int;
      cnf : int list list;
      assumptions : int list;
      proof : Rup.step list;
    }
      (** UNSAT: [proof] is a DRUP derivation of [⊥] from
          [cnf ∧ assumptions]. *)

val of_trace_unsat : n_vars:int -> Proof.trace -> (t, string) result
(** Snapshot a refutation certificate from a proof trace whose most
    recent event is the [Empty] conclusion of the [Unsat] answer being
    certified (i.e. call this right after [solve] returned [Unsat]). The
    CNF is every [Input] so far, the proof every [Learn]/[Delete]; earlier
    [Empty] events from previous answers in the same incremental session
    are skipped — they are conclusions relative to {e their} assumptions,
    not clauses. *)

val of_trace_model :
  n_vars:int -> assumptions:int list -> model:bool array -> Proof.trace -> t
(** Snapshot a model certificate: CNF from the trace's [Input] events,
    model and assumptions as given. *)

val check : t -> (unit, string) result
(** Re-validate with {!Rup.check_unsat} / {!Rup.model_check}. *)

val describe : t -> string
(** One-line human summary (kind, sizes). *)

val to_drup : t -> string option
(** Textual DRUP proof ([Refutation] only): one clause per line, DIMACS
    literals, [0]-terminated, deletions prefixed with [d], final line [0]
    (the empty clause). Consumable by external checkers such as drat-trim
    together with {!to_dimacs}. *)

val to_dimacs : t -> string
(** The certified formula in DIMACS CNF: the bit-blasted clauses plus one
    unit clause per assumption, so the formula standalone-encodes
    [cnf ∧ assumptions] for external tools. *)

(** {1 Wire form}

    One canonical JSON form, shared by the serving protocol and the
    count certificates:

    {v
    {"kind":"model"|"refutation","n_vars":N,
     "cnf":CLAUSES,"assumptions":LITS,"model":BITS | "proof":STEPS}
    v}

    - [CLAUSES] is DIMACS without the header: every clause's literals,
      then [0]; e.g. ["1 -2 0 3 0"] ([""] for no clauses, ["0"] for one
      empty clause);
    - [LITS] is the assumption literals, no terminator;
    - [STEPS] is DRUP: each lemma as a clause, each deletion as [d]
      followed by the clause;
    - [BITS] has one ['0']/['1'] per model entry.

    Tokens are separated by single spaces and there are no newlines, so
    the JSON strings need no escapes. The decoder accepts only the
    spelling the encoder writes (no leading zeros, no ["-0"], no double
    spaces, no extra or reordered fields), so [to_json (of_json j) = j]
    for every [j] it accepts. A literal [0] inside a clause cannot be
    written - the solver never produces one, and {!check} rejects such
    certificates anyway. *)

type codec_error =
  | Bad_token of { field : string; offset : int; token : string }
      (** not a canonical integer, or a [0] among the assumptions *)
  | Missing_zero of { field : string }
      (** the text ends inside a clause *)
  | Stray_delete of { field : string; offset : int }
      (** [d] outside [proof], or not at the start of a proof step *)
  | Bad_shape of string  (** missing field, wrong JSON type, unknown kind *)

val codec_error_to_string : codec_error -> string

val to_json : t -> Util.Json.t

val of_json : Util.Json.t -> (t, codec_error) result
(** Total: every malformed input is an [Error], never an exception. *)
