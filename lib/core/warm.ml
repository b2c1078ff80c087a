module T = Smtlite.Term

(* ------------------------------------------------------------------ *)
(* Per-domain warm solver sessions.                                    *)
(*                                                                     *)
(* Opening an Smtlite session Tseitin-encodes the whole network — the  *)
(* dominant cost of a small verification query. Workers that process   *)
(* many work items about the same (network, input, label) — a binary   *)
(* search over noise magnitudes, a sweep revisiting the same sample at *)
(* several deltas, per-node sidedness boxes — should pay that cost     *)
(* once. This module keeps a pool of open sessions in domain-local     *)
(* storage, keyed by a digest of the query shape, encoded once at the  *)
(* widest requested range; every narrower probe becomes an assumption  *)
(* literal over one warm session.                                      *)
(*                                                                     *)
(* Determinism: pool entries never leave their domain, and every       *)
(* result returned from here is either witness-free (a flips/robust    *)
(* boolean — the same answer whatever learnt clauses the session has   *)
(* accumulated, because the solver is complete) or canonicalised (the  *)
(* enumeration returns the full model set, sorted). So analyses built  *)
(* on this pool keep the jobs=1 ≡ jobs=N contract even though which    *)
(* domain warms which session depends on the steal schedule.           *)
(* ------------------------------------------------------------------ *)

type probe_key = Delta of int | Box of (int * int) array

type entry = {
  enc : Encode.t;
  session : Smtlite.Solve.session;
  probes : (probe_key, Smtlite.Solve.assumption) Hashtbl.t;
  mutable last_use : int;  (** recency tick of the owning domain's pool *)
}

let max_entries = 64

(* Each domain owns one pool: a table of entries plus a monotonically
   increasing recency tick. Entries never cross domains, so neither the
   table nor the tick needs locking — only the process-wide counters
   below are shared (and atomic). [reset] bumps a process-wide
   generation that each domain applies to its own table on next use:
   resident pool domains outlive any one reset. *)
type pool = { tbl : (string, entry) Hashtbl.t; mutable tick : int; mutable gen : int }

let generation = Atomic.make 0

let pool_key : pool Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { tbl = Hashtbl.create 16; tick = 0; gen = 0 })

let own_pool () =
  let pool = Domain.DLS.get pool_key and g = Atomic.get generation in
  if pool.gen <> g then (Hashtbl.reset pool.tbl; pool.gen <- g);
  pool

(* Always-on counters (atomic, process-wide) so reuse is testable even
   with the metrics registry disabled; the registry mirrors them. *)
let n_hits = Atomic.make 0

let n_misses = Atomic.make 0

let n_evictions = Atomic.make 0

let hits () = Atomic.get n_hits

let misses () = Atomic.get n_misses

let evictions () = Atomic.get n_evictions

let m_hits = Obs.Metrics.counter "warm.session_hits"

let m_misses = Obs.Metrics.counter "warm.session_misses"

let m_evictions = Obs.Metrics.counter "warm.session_evictions"

let reset () = Atomic.incr generation

let size () = Hashtbl.length (own_pool ()).tbl

let digest parts = Digest.to_hex (Digest.string (Marshal.to_string parts []))

(* Evict exactly the least-recently-used entry. A linear scan over at
   most [max_entries] keys is cheaper than any ordering structure at
   this size, and — unlike the old flush-the-whole-pool policy — keeps
   the other warm sessions alive and makes the eviction counter mean
   what it says: one increment per entry actually dropped. *)
let evict_lru pool =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, best) when best.last_use <= e.last_use -> acc
        | _ -> Some (k, e))
      pool.tbl None
  in
  match victim with
  | None -> ()
  | Some (k, _) ->
      Hashtbl.remove pool.tbl k;
      Atomic.incr n_evictions;
      Obs.Metrics.incr m_evictions

(* Get or build the warm session for one query shape. The session is
   asserted with the misclassification formula over [spec]'s full range;
   narrower probes are sent as assumptions. *)
let lookup net (spec : Noise.spec) ~input ~label =
  let pool = own_pool () in
  pool.tick <- pool.tick + 1;
  let key = digest (net, spec, input, label) in
  match Hashtbl.find_opt pool.tbl key with
  | Some e ->
      Atomic.incr n_hits;
      Obs.Metrics.incr m_hits;
      e.last_use <- pool.tick;
      e
  | None ->
      Atomic.incr n_misses;
      Obs.Metrics.incr m_misses;
      if Hashtbl.length pool.tbl >= max_entries then evict_lru pool;
      let enc = Encode.encode net ~input spec in
      let session =
        Smtlite.Solve.open_session (Encode.misclassified enc ~true_label:label)
      in
      let e = { enc; session; probes = Hashtbl.create 8; last_use = pool.tick } in
      Hashtbl.add pool.tbl key e;
      e

let assumption_for e pk formula =
  match Hashtbl.find_opt e.probes pk with
  | Some a -> a
  | None ->
      let a = Smtlite.Solve.assume e.session formula in
      Hashtbl.add e.probes pk a;
      a

let validate_witness net spec ~input ~label v =
  if not (Noise.in_range spec v) then
    failwith "Warm: witness outside the probe range";
  if Noise.predict net spec ~input v = label then
    failwith "Warm: witness does not actually misclassify"

(* Does some noise vector with every component in [-delta, +delta] flip
   the classification? The session is encoded at [cover >= delta]. *)
let probe_delta ?budget net ~bias_noise ~cover ~delta ~input ~label =
  if delta > cover || delta < 0 then invalid_arg "Warm.probe_delta";
  let spec = Noise.symmetric ~delta:cover ~bias_noise in
  let e = lookup net spec ~input ~label in
  let assumptions =
    if delta = cover then []
    else
      [
        assumption_for e (Delta delta)
          (let bounded v =
             let d = T.of_var v in
             T.and_ [ T.ge d (T.const (-delta)); T.le d (T.const delta) ]
           in
           T.and_ (List.map bounded (Encode.noise_vars e.enc)));
      ]
  in
  match Smtlite.Solve.solve ~assumptions ?budget e.session with
  | Smtlite.Solve.Unsat -> Ok false
  | Smtlite.Solve.Unknown r -> Error r
  | Smtlite.Solve.Sat model ->
      let v = Encode.vector_of_model e.enc model in
      validate_witness net
        (Noise.symmetric ~delta ~bias_noise)
        ~input ~label v;
      Ok true

(* Does some noise vector inside the per-dimension [box] (bias dimension
   first when the spec has one) flip the classification? *)
let probe_box ?budget net (spec : Noise.spec) ~box ~input ~label =
  let vars = ref [] in
  let e = lookup net spec ~input ~label in
  let nvars = Encode.noise_vars e.enc in
  if List.length nvars <> Array.length box then invalid_arg "Warm.probe_box";
  List.iteri
    (fun d v ->
      let lo, hi = box.(d) in
      if lo < spec.Noise.delta_lo || hi > spec.Noise.delta_hi then
        invalid_arg "Warm.probe_box: box outside the spec range";
      let t = T.of_var v in
      vars := T.and_ [ T.ge t (T.const lo); T.le t (T.const hi) ] :: !vars)
    nvars;
  let a = assumption_for e (Box (Array.copy box)) (T.and_ (List.rev !vars)) in
  match Smtlite.Solve.solve ~assumptions:[ a ] ?budget e.session with
  | Smtlite.Solve.Unsat -> Ok false
  | Smtlite.Solve.Unknown r -> Error r
  | Smtlite.Solve.Sat model ->
      let v = Encode.vector_of_model e.enc model in
      validate_witness net spec ~input ~label v;
      let inside =
        (not spec.Noise.bias_noise || (let lo, hi = box.(0) in v.Noise.bias >= lo && v.Noise.bias <= hi))
        && Array.for_all Fun.id
             (Array.mapi
                (fun i x ->
                  let lo, hi = box.(i + if spec.Noise.bias_noise then 1 else 0) in
                  x >= lo && x <= hi)
                v.Noise.inputs)
      in
      if not inside then failwith "Warm: witness escaped the probe box";
      Ok true

let vector_compare (a : Noise.vector) (b : Noise.vector) =
  match compare a.Noise.bias b.Noise.bias with
  | 0 -> compare a.Noise.inputs b.Noise.inputs
  | c -> c

(* Enumerate every flipping noise vector, blocking found models through
   assumptions rather than permanent clauses so the warm session stays
   clean for other callers. The result is sorted, which makes the output
   canonical: the complete model set is a semantic property of the
   query, independent of the enumeration order a warm session happens
   to follow. *)
let enumerate_flips ?(limit = 10_000) ?max_conflicts ?budget net spec ~input
    ~label =
  let e = lookup net spec ~input ~label in
  let rec loop blocks acc n =
    if n >= limit then (acc, `Truncated)
    else
      match
        Smtlite.Solve.solve ~assumptions:blocks ?max_conflicts ?budget e.session
      with
      | Smtlite.Solve.Unsat -> (acc, `Complete)
      | Smtlite.Solve.Unknown r -> (acc, `Budget r)
      | Smtlite.Solve.Sat model ->
          let v = Encode.vector_of_model e.enc model in
          validate_witness net spec ~input ~label v;
          let b = Smtlite.Solve.assume e.session (Encode.vector_excluded e.enc v) in
          loop (b :: blocks) (v :: acc) (n + 1)
  in
  let vectors, status = loop [] [] 0 in
  (List.sort vector_compare vectors, status)
