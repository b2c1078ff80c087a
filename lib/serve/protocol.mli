(** [fannet-wire/2] message vocabulary and JSON codec.

    Every frame payload (see {!Wire}) is one JSON document: a request
    envelope client→server, a reply envelope server→client. The codec is
    total in both directions — [decode_*] maps any byte string onto
    either a typed message or an [Error] description, never an exception
    — and deterministic in the encode direction (field order is fixed),
    which is what makes {!query_key} a canonical cache key and lets the
    bench assert bit-identical cached certificates.

    The full field-level format is specified in DESIGN.md §fannet-wire/2;
    the QCheck battery in [test/test_serve.ml] pins down
    [decode ∘ encode = id] over randomly generated messages. *)

val version : string
(** ["fannet-wire/2"] — the [v] field of every envelope; a decoder
    rejects other values so incompatible peers fail typed, not
    mysteriously. *)

(** {1 Queries} *)

type query =
  | Exists_flip of {
      backend : Fannet.Backend.t;
      spec : Fannet.Noise.spec;
      input : int array;
      label : int;
    }  (** P2: does some vector in the range flip the input? *)
  | Tolerance of {
      backend : Fannet.Backend.t;
      bias_noise : bool;
      max_delta : int;
      input : int array;
      label : int;
    }  (** smallest flipping ±Δ in [0, max_delta], binary search *)
  | Sensitivity of {
      spec : Fannet.Noise.spec;
      input : int array;
      label : int;
    }  (** per-node formal sidedness *)
  | Certify of {
      spec : Fannet.Noise.spec;
      input : int array;
      label : int;
    }  (** certified exists-flip: DRUP/model certificate attached *)
  | Count of {
      spec : Fannet.Noise.spec;
      input : int array;
      label : int;
      mode : count_mode;
    }
      (** quantitative robustness: how many vectors in the range flip the
          input (exact #SAT, optionally [fannet-count-cert/2]-certified,
          or (ε, δ)-approximate) *)

and count_mode =
  | Count_exact of { certify : bool }
  | Count_approx of { epsilon : float; delta : float; seed : int }

type budget_spec = { timeout_s : float option; conflicts : int option }
(** Client-requested resource caps; the daemon clamps the timeout to its
    own ceiling and links the cancellation token to its shutdown token. *)

val no_budget : budget_spec

type request =
  | Load of { network : string }
      (** upload an {!Nn.Qnet.to_string} serialisation; the daemon
          registers it and replies [Loaded] with its digest *)
  | Query of { digest : string; query : query; budget : budget_spec }
  | Metrics  (** scrape: server stats + [fannet.obs/1] snapshot *)
  | Ping
  | Shutdown  (** graceful: drain in-flight queries, then stop *)
  | Set_faults of { spec : string }
      (** supervisor-internal: replace the worker's armed fault table
          with [spec] ({!Resil.Faultpoint.arm} syntax; [""] clears).
          Sent parent-to-worker at every (re)spawn so the chaos
          schedule tracks the parent's current table; the public daemon
          rejects it with a [Protocol_error] *)

type req_envelope = { rid : int; request : request }

(** {1 Replies} *)

type counted = {
  flips : Util.Bigcount.t;   (** flipping vectors (exact or estimate) *)
  total : Util.Bigcount.t;   (** noise-space cardinality *)
  count_cert : Count.Certificate.t option;
      (** present for certified exact counts; encoded deterministically,
          so cached answers are byte-identical including the
          certificate *)
}

type answer =
  | Verdict of Fannet.Backend.verdict
  | Min_flip of (int option, Resil.Budget.reason) result
  | Sidedness of (Fannet.Sensitivity.formal_side array, Resil.Budget.reason) result
  | Certified of {
      verdict : Fannet.Backend.verdict;
      cert : Cert.Verdict.t option;
    }
  | Counted of (counted, Resil.Budget.reason) result
      (** [Error] when the count's budget ran out (not cacheable) *)

type server_stats = {
  submitted : int;   (** query requests received (including rejected) *)
  served : int;      (** answered, cached or computed *)
  rejected : int;    (** turned away by admission control *)
  failed : int;      (** died with a server error *)
  cache_hits : int;
  cache_misses : int;
  cache_len : int;
  in_flight : int;
  networks : int;    (** resident networks *)
}
(** Always-on daemon counters. Invariant (asserted by the soak test):
    [served + rejected + failed = submitted] once the daemon is idle. *)

type reply =
  | Loaded of { digest : string }
  | Answer of { cached : bool; answer : answer }
  | Overloaded of { in_flight : int; cap : int }
      (** typed admission-control rejection — resend later *)
  | Metrics_reply of { stats : server_stats; obs : Util.Json.t }
  | Pong
  | Bye  (** acknowledges [Shutdown]; the daemon stops accepting *)
  | Protocol_error of string
      (** the frame or its JSON was malformed; the connection survives
          when the framing itself was intact *)
  | Server_error of string  (** the query raised; other queries unaffected *)

type reply_envelope = { rid : int; reply : reply }

(** {1 Codec} *)

val encode_request : req_envelope -> string
val decode_request : string -> (req_envelope, string) result
val encode_reply : reply_envelope -> string
val decode_reply : string -> (reply_envelope, string) result

val answer_bytes : answer -> string
(** The compact [answer] sub-document exactly as [encode_reply] embeds
    it — what the daemon caches and journals, and the bytes the bench
    compares for cache-hit bit-identity. *)

val encode_answer_reply : rid:int -> cached:bool -> string -> string
(** [encode_answer_reply ~rid ~cached bytes] splices already-encoded
    answer [bytes] into an [Answer] reply envelope, without building a
    JSON tree. [encode_reply] encodes every [Answer] through it, so
    [encode_answer_reply ~rid ~cached (answer_bytes a)] is byte for byte
    [encode_reply {rid; reply = Answer {cached; answer = a}}]. *)

val answer_json : answer -> Util.Json.t
(** The [answer] sub-document as a tree; [answer_bytes] is its compact
    rendering. *)

val answer_of_json : Util.Json.t -> (answer, string) result
(** Total inverse of {!answer_json}, for consumers (the verdict store)
    that must treat persisted payloads as untrusted bytes. *)

val query_key : digest:string -> query -> string
(** Canonical cache key: network digest × the deterministic JSON
    rendering of the query. Budgets are deliberately excluded — a
    decided verdict does not depend on the caps it was computed under. *)

val answer_decided : answer -> bool
(** Whether the answer may be cached: [Unknown]/[Error] outcomes are
    budget-dependent and must be recomputed, decided ones are semantic
    properties of (network, query). *)

(** {1 Structural equality} — for tests. *)

val query_equal : query -> query -> bool
val request_equal : req_envelope -> req_envelope -> bool
val answer_equal : answer -> answer -> bool
val reply_equal : reply_envelope -> reply_envelope -> bool
