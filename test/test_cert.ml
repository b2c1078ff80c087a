(* Certificate subsystem tests: DRUP proof logging on the CDCL solver,
   the independent lib/cert checker, certified verdicts through Smtlite /
   Backend / Tolerance, and mutation tests proving that corrupted proofs
   (the signature of a buggy solver) are rejected. *)

module S = Sat.Solver
module P = Cert.Proof
module R = Cert.Rup
module V = Cert.Verdict

let lit v sign = Sat.Lit.make v sign

let pigeonhole_clauses ~pigeons ~holes =
  let var p h = (p * holes) + h in
  let clauses = ref [] in
  for p = 0 to pigeons - 1 do
    clauses := List.init holes (fun h -> (var p h, true)) :: !clauses
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        clauses := [ (var p1 h, false); (var p2 h, false) ] :: !clauses
      done
    done
  done;
  (pigeons * holes, !clauses)

(* Solve with a trace attached and return (result, solver, trace). *)
let traced_solve ?assumptions ?max_learnts n_vars clauses =
  let s = S.create () in
  let trace = P.attach s in
  let vars = Array.init n_vars (fun _ -> S.new_var s) in
  (match max_learnts with None -> () | Some n -> S.set_max_learnts s n);
  List.iter
    (fun clause ->
      S.add_clause s (List.map (fun (v, sign) -> Sat.Lit.make vars.(v) sign) clause))
    clauses;
  let r = S.solve ?assumptions s in
  (r, s, trace)

let check_ok what = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: certificate rejected: %s" what e

let check_rejected what = function
  | Ok () -> Alcotest.failf "%s: corrupted certificate accepted" what
  | Error _ -> ()

let unsat_cert what s trace =
  match V.of_trace_unsat ~n_vars:(S.nvars s) trace with
  | Ok c -> c
  | Error e -> Alcotest.failf "%s: no refutation certificate: %s" what e

(* ---------- checker on solver proofs ---------- *)

let test_php_proof_checks () =
  let n, clauses = pigeonhole_clauses ~pigeons:6 ~holes:5 in
  let r, s, trace = traced_solve n clauses in
  Alcotest.(check bool) "unsat" true (r = S.Unsat);
  let cert = unsat_cert "php" s trace in
  check_ok "php(6,5)" (V.check cert)

let test_trivial_unsat_proof () =
  (* Contradiction found during add_clause (level-0), before any search. *)
  let r, s, trace = traced_solve 1 [ [ (0, true) ]; [ (0, false) ] ] in
  Alcotest.(check bool) "unsat" true (r = S.Unsat);
  check_ok "unit contradiction" (V.check (unsat_cert "trivial" s trace))

let test_sat_model_certificate () =
  let n, clauses = pigeonhole_clauses ~pigeons:5 ~holes:5 in
  let r, s, trace = traced_solve n clauses in
  Alcotest.(check bool) "sat" true (r = S.Sat);
  let cert =
    V.of_trace_model ~n_vars:(S.nvars s) ~assumptions:[] ~model:(S.model s) trace
  in
  check_ok "php(5,5) model" (V.check cert)

let test_assumptions_proof () =
  (* a -> b; UNSAT under {a, !b}. The proof must check with the
     assumptions and be rejected without them (the CNF alone is sat). *)
  let r, s, trace =
    traced_solve 2
      [ [ (0, false); (1, true) ] ]
      ~assumptions:[ lit 0 true; lit 1 false ]
  in
  Alcotest.(check bool) "unsat under assumptions" true (r = S.Unsat);
  let cert = unsat_cert "assumptions" s trace in
  (match cert with
  | V.Refutation { assumptions; cnf; proof; n_vars } ->
      Alcotest.(check int) "two assumptions" 2 (List.length assumptions);
      check_ok "with assumptions" (V.check cert);
      check_rejected "without assumptions"
        (R.check_unsat ~n_vars ~cnf ~assumptions:[] ~proof)
  | V.Model _ -> Alcotest.fail "expected a refutation");
  (* The solver (and its trace) stay usable: a later unconditional solve
     is Sat and earlier Empty events must not poison anything. *)
  Alcotest.(check bool) "sat without assumptions" true (S.solve s = S.Sat)

let test_deletion_and_restarts_stay_valid () =
  (* A tiny learnt limit forces reduce_db; php(7,6) takes well over 256
     conflicts, so Luby restarts interleave too. *)
  let n, clauses = pigeonhole_clauses ~pigeons:7 ~holes:6 in
  let r, s, trace = traced_solve n clauses ~max_learnts:20 in
  Alcotest.(check bool) "unsat" true (r = S.Unsat);
  let stats = S.stats s in
  Alcotest.(check bool) "restarts occurred" true (stats.S.restarts > 0);
  let deletions = ref 0 in
  P.iter (function P.Delete _ -> incr deletions | _ -> ()) trace;
  Alcotest.(check bool) "deletions logged" true (!deletions > 0);
  check_ok "php(7,6) with deletion" (V.check (unsat_cert "php76" s trace))

let test_incremental_session_certificates () =
  (* Same solver, several answers; each Unsat snapshot must check on its
     own even though the trace keeps growing. *)
  let s = S.create () in
  let trace = P.attach s in
  let a = S.new_var s and b = S.new_var s in
  S.add_clause s [ lit a false; lit b true ];
  Alcotest.(check bool) "unsat 1" true
    (S.solve ~assumptions:[ lit a true; lit b false ] s = S.Unsat);
  let c1 = unsat_cert "probe1" s trace in
  check_ok "probe 1" (V.check c1);
  Alcotest.(check bool) "sat between" true (S.solve s = S.Sat);
  let m =
    V.of_trace_model ~n_vars:(S.nvars s) ~assumptions:[] ~model:(S.model s) trace
  in
  check_ok "sat between cert" (V.check m);
  S.add_clause s [ lit a true ];
  S.add_clause s [ lit b false ];
  Alcotest.(check bool) "unsat 2" true (S.solve s = S.Unsat);
  check_ok "probe 2" (V.check (unsat_cert "probe2" s trace));
  (* First certificate still checks after the session moved on. *)
  check_ok "probe 1 again" (V.check c1)

(* ---------- random CNFs: every decided answer certifies ---------- *)

let random_cnf_gen =
  let open QCheck.Gen in
  let* n_vars = int_range 1 8 in
  let* n_clauses = int_range 1 30 in
  let clause =
    let* len = int_range 1 4 in
    list_size (return len) (pair (int_range 0 (n_vars - 1)) QCheck.Gen.bool)
  in
  let* clauses = list_size (return n_clauses) clause in
  return (n_vars, clauses)

let random_cnf_arbitrary =
  QCheck.make
    ~print:(fun (n, cs) -> Printf.sprintf "%d vars, %d clauses" n (List.length cs))
    random_cnf_gen

let prop_random_cnf_certifies =
  QCheck.Test.make ~name:"random CNF answers carry valid certificates" ~count:300
    random_cnf_arbitrary (fun (n_vars, clauses) ->
      let r, s, trace = traced_solve n_vars clauses in
      match r with
      | S.Unsat -> (
          match V.of_trace_unsat ~n_vars:(S.nvars s) trace with
          | Ok cert -> V.check cert = Ok ()
          | Error _ -> false)
      | S.Sat ->
          let cert =
            V.of_trace_model ~n_vars:(S.nvars s) ~assumptions:[]
              ~model:(S.model s) trace
          in
          V.check cert = Ok ()
      | S.Unknown -> false)

let prop_random_unsat_under_assumptions_certifies =
  (* Negate a random subset of a sat model as assumptions: often Unsat;
     every Unsat must yield a checkable assumption-relative proof. *)
  QCheck.Test.make ~name:"assumption-unsat answers carry valid certificates"
    ~count:150
    (QCheck.pair random_cnf_arbitrary (QCheck.make QCheck.Gen.(int_bound 1000)))
    (fun ((n_vars, clauses), seedish) ->
      let r, s, trace = traced_solve n_vars clauses in
      match r with
      | S.Sat ->
          let m = S.model s in
          let assumptions =
            List.init n_vars (fun v ->
                if (seedish lsr (v mod 10)) land 1 = 0 then lit v (not m.(v))
                else lit v m.(v))
          in
          (match S.solve ~assumptions s with
          | S.Unsat -> (
              match V.of_trace_unsat ~n_vars:(S.nvars s) trace with
              | Ok cert -> V.check cert = Ok ()
              | Error _ -> false)
          | S.Sat | S.Unknown -> true)
      | S.Unsat | S.Unknown -> true)

(* ---------- mutation tests: corrupted proofs are rejected ---------- *)

let test_mutation_dropped_literal () =
  (* The acceptance-criterion scenario: a solver bug that skips one
     literal of a learnt conflict clause. Simulated by corrupting the
     logged proof the same way; the checker must reject it. *)
  let n, clauses = pigeonhole_clauses ~pigeons:6 ~holes:5 in
  let r, s, trace = traced_solve n clauses in
  Alcotest.(check bool) "unsat" true (r = S.Unsat);
  match unsat_cert "php" s trace with
  | V.Model _ -> Alcotest.fail "expected refutation"
  | V.Refutation ({ proof; _ } as rf) ->
      let mutated = ref false in
      let proof' =
        List.map
          (function
            | R.Learn lits when (not !mutated) && List.length lits >= 2 ->
                mutated := true;
                R.Learn (List.tl lits)
            | step -> step)
          proof
      in
      Alcotest.(check bool) "found a clause to mutate" true !mutated;
      check_rejected "dropped learnt literal"
        (V.check (V.Refutation { rf with proof = proof' }))

let test_mutation_removed_lemma () =
  (* cnf: all four 2-clauses over {a,b}. Honest proof: [a], then []. A
     buggy solver that forgets to derive [a] cannot justify the empty
     clause. *)
  let cnf = [ [ 1; 2 ]; [ 1; -2 ]; [ -1; 2 ]; [ -1; -2 ] ] in
  check_ok "honest"
    (R.check_unsat ~n_vars:2 ~cnf ~assumptions:[]
       ~proof:[ R.Learn [ 1 ]; R.Learn [] ]);
  check_rejected "lemma removed"
    (R.check_unsat ~n_vars:2 ~cnf ~assumptions:[] ~proof:[ R.Learn [] ])

let test_mutation_non_rup_lemma () =
  check_rejected "non-RUP lemma"
    (R.check_unsat ~n_vars:2 ~cnf:[ [ 1; 2 ] ] ~assumptions:[]
       ~proof:[ R.Learn [ 1 ] ])

let test_mutation_delete_then_use () =
  (* {a,b}, {-a,c}, {-b,c}, {-c,d}, {-c,-d}: [c] is RUP — unless {-a,c}
     was deleted first. A solver that logs a deletion it then keeps using
     must be caught. *)
  let cnf = [ [ 1; 2 ]; [ -1; 3 ]; [ -2; 3 ]; [ -3; 4 ]; [ -3; -4 ] ] in
  check_ok "use before delete"
    (R.check_unsat ~n_vars:4 ~cnf ~assumptions:[]
       ~proof:[ R.Learn [ 3 ]; R.Delete [ -1; 3 ]; R.Learn [] ]);
  check_rejected "deleted clause still needed"
    (R.check_unsat ~n_vars:4 ~cnf ~assumptions:[]
       ~proof:[ R.Delete [ -1; 3 ]; R.Learn [ 3 ]; R.Learn [] ])

let test_mutation_unknown_deletion () =
  match
    R.check_unsat ~n_vars:3 ~cnf:[ [ 1; 2 ] ] ~assumptions:[]
      ~proof:[ R.Delete [ 1; 3 ] ]
  with
  | Ok () -> Alcotest.fail "deleting a clause never added was accepted"
  | Error e ->
      Alcotest.(check bool) "error mentions the deletion" true
        (String.length e >= 5
        &&
        let lower = String.lowercase_ascii e in
        let rec contains i =
          i + 5 <= String.length lower
          && (String.sub lower i 5 = "delet" || contains (i + 1))
        in
        contains 0)

let test_mutation_out_of_range_literal () =
  check_rejected "literal out of range"
    (R.check_unsat ~n_vars:1 ~cnf:[ [ 1 ] ] ~assumptions:[]
       ~proof:[ R.Learn [ 5 ] ]);
  check_rejected "zero literal"
    (R.check_unsat ~n_vars:1 ~cnf:[ [ 1; 0 ] ] ~assumptions:[] ~proof:[])

let test_mutation_incomplete_proof () =
  (* A proof that never reaches the empty clause proves nothing. *)
  check_rejected "no contradiction"
    (R.check_unsat ~n_vars:2 ~cnf:[ [ 1; 2 ] ] ~assumptions:[] ~proof:[])

let test_mutation_model_flip () =
  let cnf = [ [ 1; 2 ]; [ -1 ] ] in
  let model = [| false; true |] in
  check_ok "honest model" (R.model_check ~n_vars:2 ~cnf ~assumptions:[] ~model);
  check_rejected "flipped bit"
    (R.model_check ~n_vars:2 ~cnf ~assumptions:[] ~model:[| true; false |]);
  check_rejected "assumption violated"
    (R.model_check ~n_vars:2 ~cnf ~assumptions:[ -2 ] ~model)

(* ---------- drup / dimacs output ---------- *)

let test_drup_output_shape () =
  let r, s, trace = traced_solve 1 [ [ (0, true) ]; [ (0, false) ] ] in
  Alcotest.(check bool) "unsat" true (r = S.Unsat);
  let cert = unsat_cert "drup" s trace in
  (match V.to_drup cert with
  | None -> Alcotest.fail "refutation must print as DRUP"
  | Some drup ->
      let lines = String.split_on_char '\n' (String.trim drup) in
      Alcotest.(check bool) "ends with empty clause" true
        (List.nth lines (List.length lines - 1) = "0");
      List.iter
        (fun line ->
          Alcotest.(check bool)
            (Printf.sprintf "line %S zero-terminated" line)
            true
            (String.length line >= 1
            && String.sub line (String.length line - 1) 1 = "0"))
        lines);
  let dimacs = V.to_dimacs cert in
  let parsed = Sat.Dimacs.of_string dimacs in
  Alcotest.(check int) "dimacs var count round-trips"
    (match cert with V.Refutation { n_vars; _ } -> n_vars | V.Model { n_vars; _ } -> n_vars)
    parsed.Sat.Dimacs.n_vars

let test_set_max_learnts_validation () =
  let s = S.create () in
  Alcotest.check_raises "zero rejected" (Invalid_argument "Solver.set_max_learnts")
    (fun () -> S.set_max_learnts s 0)

(* ---------- smtlite certified solving ---------- *)

module T = Smtlite.Term

let test_smtlite_check_certified () =
  let x = T.var ~lo:0 ~hi:10 ~name:"x" in
  let sat_f = T.eq (T.of_var x) (T.const 7) in
  (match Smtlite.Solve.check_certified sat_f with
  | Smtlite.Solve.Sat model, Some cert ->
      Alcotest.(check int) "x = 7" 7 (List.assoc x model);
      check_ok "sat formula" (V.check cert)
  | _ -> Alcotest.fail "expected certified Sat");
  let unsat_f =
    T.and_ [ T.ge (T.of_var x) (T.const 4); T.le (T.of_var x) (T.const 2) ]
  in
  match Smtlite.Solve.check_certified unsat_f with
  | Smtlite.Solve.Unsat, Some cert -> check_ok "unsat formula" (V.check cert)
  | _ -> Alcotest.fail "expected certified Unsat"

let test_smtlite_session_certified () =
  (* Warm session: assumption probes then a permanent assertion; every
     decided answer certifies against the growing trace. *)
  let x = T.var ~lo:0 ~hi:15 ~name:"xs" in
  let trace = P.create () in
  let session =
    Smtlite.Solve.open_session ~trace (T.ge (T.of_var x) (T.const 3))
  in
  let a_low = Smtlite.Solve.assume session (T.le (T.of_var x) (T.const 1)) in
  (match Smtlite.Solve.solve_certified ~assumptions:[ a_low ] session with
  | Smtlite.Solve.Unsat, Some cert -> check_ok "x<=1 probe" (V.check cert)
  | _ -> Alcotest.fail "expected certified Unsat under x<=1");
  (match Smtlite.Solve.solve_certified session with
  | Smtlite.Solve.Sat _, Some cert -> check_ok "unconstrained" (V.check cert)
  | _ -> Alcotest.fail "expected certified Sat");
  Smtlite.Solve.assert_also session (T.le (T.of_var x) (T.const 2));
  match Smtlite.Solve.solve_certified session with
  | Smtlite.Solve.Unsat, Some cert -> check_ok "final unsat" (V.check cert)
  | _ -> Alcotest.fail "expected certified Unsat"

(* ---------- backend / tolerance certified verdicts ---------- *)

let small_qnet () =
  Nn.Qnet.create
    [|
      {
        Nn.Qnet.weights = [| [| 31; -22 |]; [| -13; 41 |]; [| 17; 9 |]; [| -25; 14 |] |];
        bias = [| 55; -31; 12; -7 |];
        act = Nn.Qnet.Relu;
      };
      {
        Nn.Qnet.weights = [| [| 21; -33; 11; -9 |]; [| -20; 31; -12; 10 |] |];
        bias = [| 13; 0 |];
        act = Nn.Qnet.Identity;
      };
    |]

let test_backend_certified () =
  let net = small_qnet () in
  (* At input [50;50] the minimal flip delta is 13, so the robust case at
     12 needs real search (hundreds of lemmas) rather than collapsing to
     load-time unit propagation. *)
  let input = [| 50; 50 |] in
  let label = Nn.Qnet.predict net input in
  let robust_delta = 12 and flip_delta = 13 in
  let check_at delta =
    let spec = Fannet.Noise.symmetric ~delta ~bias_noise:false in
    let cv = Fannet.Backend.certified_exists_flip net spec ~input ~label in
    check_ok
      (Printf.sprintf "backend certified at %d" delta)
      (Fannet.Backend.check_certified net spec ~input ~label cv);
    Alcotest.(check bool)
      (Printf.sprintf "agrees with bnb at %d" delta)
      true
      (Fannet.Backend.agree cv.Fannet.Backend.cv_verdict
         (Fannet.Backend.exists_flip Fannet.Backend.Bnb net spec ~input ~label));
    cv
  in
  let cv_r = check_at robust_delta in
  (match cv_r.Fannet.Backend.cv_verdict with
  | Fannet.Backend.Robust -> ()
  | v -> Alcotest.failf "expected robust, got %s" (Fannet.Backend.verdict_to_string v));
  let cv_f = check_at flip_delta in
  (match cv_f.Fannet.Backend.cv_verdict with
  | Fannet.Backend.Flip _ -> ()
  | v -> Alcotest.failf "expected flip, got %s" (Fannet.Backend.verdict_to_string v));
  (* A corrupted certificate must be rejected by check_certified. *)
  match cv_r.Fannet.Backend.cv_cert with
  | Some (V.Refutation ({ proof; _ } as rf)) ->
      (* Truncate the derivation to its first half: the surviving prefix
         never reaches the contradiction, which is what a solver bug that
         stops logging midway would look like. *)
      let len = List.length proof in
      Alcotest.(check bool) "proof is nontrivial" true (len >= 4);
      let corrupt =
        V.Refutation
          { rf with proof = List.filteri (fun i _ -> 2 * i < len) proof }
      in
      let spec = Fannet.Noise.symmetric ~delta:robust_delta ~bias_noise:false in
      check_rejected "corrupted backend certificate"
        (Fannet.Backend.check_certified net spec ~input ~label
           { cv_r with Fannet.Backend.cv_cert = Some corrupt })
  | _ -> Alcotest.fail "robust verdict must carry a refutation"

let test_tolerance_certified_bracket () =
  let net = small_qnet () in
  let input = [| 112; 87 |] in
  let label = Nn.Qnet.predict net input in
  let max_delta = 40 in
  let b =
    Resil.Budget.ok_or_fail
      (Fannet.Tolerance.certified_min_flip_delta_b net ~bias_noise:false ~max_delta
         ~input ~label)
  in
  check_ok "bracket"
    (Fannet.Tolerance.check_certified_bracket net ~bias_noise:false b ~input ~label);
  let reference =
    Resil.Budget.ok_or_fail
      (Fannet.Tolerance.input_min_flip_delta_b Fannet.Backend.Bnb net ~bias_noise:false
         ~max_delta ~input ~label)
  in
  Alcotest.(check bool) "agrees with bnb" true
    (b.Fannet.Tolerance.min_flip_delta = reference);
  (* Tamper with the bracket: shifting the flip delta breaks adjacency. *)
  match (b.Fannet.Tolerance.min_flip_delta, b.Fannet.Tolerance.flip_cert) with
  | Some m, Some (_, v, cert) ->
      let tampered =
        { b with Fannet.Tolerance.flip_cert = Some (m + 1, v, cert) }
      in
      check_rejected "tampered bracket"
        (Fannet.Tolerance.check_certified_bracket net ~bias_noise:false tampered
           ~input ~label)
  | _ -> Alcotest.fail "expected a flip end on this net"

(* ---------- dimacs parser tolerance (satellite) ---------- *)

let test_dimacs_satlib_dialect () =
  let text =
    "c header comment\n\np cnf 3 2\nc mid comment\n\n1 -2 0\n\t2  3 0\r\n%\n0\n\n"
  in
  let cnf = Sat.Dimacs.of_string text in
  Alcotest.(check int) "vars" 3 cnf.Sat.Dimacs.n_vars;
  Alcotest.(check bool) "clauses" true
    (cnf.Sat.Dimacs.clauses = [ [ 1; -2 ]; [ 2; 3 ] ])

let test_dimacs_multiline_clause_and_missing_zero () =
  let cnf = Sat.Dimacs.of_string "p cnf 4 2\n1 2\n-3 0\n4 -1\n" in
  Alcotest.(check bool) "clauses" true
    (cnf.Sat.Dimacs.clauses = [ [ 1; 2; -3 ]; [ 4; -1 ] ])

let test_dimacs_bad_token_still_fails () =
  Alcotest.(check bool) "garbage rejected" true
    (match Sat.Dimacs.of_string "p cnf 1 1\nfoo 0\n" with
    | exception Failure _ -> true
    | _ -> false)

let prop_dimacs_roundtrip =
  QCheck.Test.make ~name:"dimacs to_string/of_string roundtrip" ~count:200
    random_cnf_arbitrary (fun (n_vars, clauses) ->
      let cnf =
        {
          Sat.Dimacs.n_vars;
          clauses =
            List.map
              (List.map (fun (v, sign) -> if sign then v + 1 else -(v + 1)))
              clauses;
        }
      in
      let back = Sat.Dimacs.of_string (Sat.Dimacs.to_string cnf) in
      back.Sat.Dimacs.n_vars = n_vars
      && back.Sat.Dimacs.clauses = cnf.Sat.Dimacs.clauses)

(* ---------- the canonical wire form (Verdict.to_json / of_json) ---------- *)

module J = Util.Json

let gen_lit = QCheck.Gen.(map2 (fun v neg -> if neg then -v else v) (1 -- 5000) bool)

(* Empty clauses and empty proofs included. *)
let gen_clause = QCheck.Gen.(list_size (0 -- 6) gen_lit)

let gen_wire_cert =
  QCheck.Gen.(
    let* n_vars = 0 -- 5000 in
    let* cnf = list_size (0 -- 20) gen_clause in
    let* assumptions = list_size (0 -- 4) gen_lit in
    oneof
      [
        (let+ model = array_size (0 -- 40) bool in
         V.Model { n_vars; cnf; assumptions; model });
        (let+ proof =
           list_size (0 -- 20)
             (oneof [ map (fun c -> R.Learn c) gen_clause; map (fun c -> R.Delete c) gen_clause ])
         in
         V.Refutation { n_vars; cnf; assumptions; proof });
      ])

let arb_wire_cert = QCheck.make ~print:(fun c -> J.to_string (V.to_json c)) gen_wire_cert

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire form: decode inverts encode, bytes stable" ~count:300
    arb_wire_cert (fun c ->
      let bytes = J.to_string (V.to_json c) in
      match J.of_string bytes with
      | Error _ -> false
      | Ok j -> (
          match V.of_json j with
          | Ok c' -> c' = c && J.to_string (V.to_json c') = bytes
          | Error _ -> false))

(* A real refutation survives the wire form and still checks. *)
let test_wire_real_certificate () =
  let n, clauses = pigeonhole_clauses ~pigeons:6 ~holes:5 in
  let _, s, trace = traced_solve n clauses in
  let c = unsat_cert "php" s trace in
  let bytes = J.to_string (V.to_json c) in
  Alcotest.(check bool) "no escapes needed" false (String.contains bytes '\\');
  match Result.map V.of_json (J.of_string bytes) with
  | Ok (Ok c') ->
      Alcotest.(check bool) "same certificate" true (c' = c);
      check_ok "decoded certificate" (V.check c')
  | _ -> Alcotest.fail "wire form did not decode"

let cert_doc ?(kind = "refutation") ?(cnf = "1 -2 0") ?(assumptions = "2")
    ?(last = ("proof", "d 1 -2 0 0")) () =
  J.Obj
    [
      ("kind", J.String kind);
      ("n_vars", J.Int 2);
      ("cnf", J.String cnf);
      ("assumptions", J.String assumptions);
      (fst last, J.String (snd last));
    ]

let test_wire_garbage_typed () =
  let expect name doc pred =
    match V.of_json doc with
    | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error e ->
        if not (pred e) then
          Alcotest.failf "%s: wrong error %s" name (V.codec_error_to_string e)
  in
  (match V.of_json (cert_doc ()) with
  | Ok (V.Refutation { cnf = [ [ 1; -2 ] ]; assumptions = [ 2 ]; proof = [ R.Delete [ 1; -2 ]; R.Learn [] ]; _ }) -> ()
  | _ -> Alcotest.fail "the well-formed sample must decode");
  let missing = function V.Missing_zero _ -> true | _ -> false in
  let stray = function V.Stray_delete _ -> true | _ -> false in
  let token = function V.Bad_token _ -> true | _ -> false in
  let shape = function V.Bad_shape _ -> true | _ -> false in
  expect "cnf without its last 0" (cert_doc ~cnf:"1 -2" ()) missing;
  expect "proof without its last 0" (cert_doc ~last:("proof", "1 0 2") ()) missing;
  expect "dangling d" (cert_doc ~last:("proof", "0 d") ()) missing;
  expect "d inside cnf" (cert_doc ~cnf:"d 1 0" ()) stray;
  expect "d inside a proof clause" (cert_doc ~last:("proof", "1 d 2 0") ()) stray;
  expect "d d" (cert_doc ~last:("proof", "d d 1 0") ()) stray;
  expect "d among assumptions" (cert_doc ~assumptions:"d" ()) stray;
  expect "non-integer token" (cert_doc ~cnf:"1 x 0" ()) token;
  expect "float token" (cert_doc ~cnf:"1.5 0" ()) token;
  expect "leading zero" (cert_doc ~cnf:"01 0" ()) token;
  expect "minus zero" (cert_doc ~cnf:"-0" ()) token;
  expect "plus sign" (cert_doc ~cnf:"+1 0" ()) token;
  expect "overflow" (cert_doc ~cnf:"99999999999999999999 0" ()) token;
  expect "double space" (cert_doc ~cnf:"1  0" ()) token;
  expect "leading space" (cert_doc ~cnf:" 1 0" ()) token;
  expect "trailing space" (cert_doc ~cnf:"1 0 " ()) token;
  expect "newline" (cert_doc ~cnf:"1 0\n2 0" ()) token;
  expect "zero assumption" (cert_doc ~assumptions:"0" ()) token;
  expect "model bit" (cert_doc ~kind:"model" ~last:("model", "0120") ()) token;
  expect "unknown kind" (cert_doc ~kind:"maybe" ()) shape;
  expect "model under a refutation" (cert_doc ~last:("model", "01") ()) shape;
  expect "int-list cnf" (J.Obj [ ("kind", J.String "model"); ("n_vars", J.Int 1); ("cnf", J.List []) ]) shape;
  expect "not an object" (J.List []) shape

let arb_garbage_text =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(string_size ~gen:(oneofl [ '0'; '1'; '2'; '-'; ' '; 'd'; 'x'; '9' ]) (0 -- 30))

let prop_wire_total =
  QCheck.Test.make ~name:"wire form: decoding garbage text never raises" ~count:1000
    (QCheck.pair arb_garbage_text arb_garbage_text) (fun (a, b) ->
      List.for_all
        (fun doc -> match V.of_json doc with Ok _ | Error _ -> true)
        [
          cert_doc ~cnf:a ~last:("proof", b) ();
          cert_doc ~assumptions:a ();
          cert_doc ~kind:"model" ~cnf:b ~last:("model", a) ();
        ])

let () =
  Alcotest.run "cert"
    [
      ( "solver-proofs",
        [
          Alcotest.test_case "php(6,5) proof checks" `Quick test_php_proof_checks;
          Alcotest.test_case "level-0 contradiction" `Quick test_trivial_unsat_proof;
          Alcotest.test_case "sat model certificate" `Quick test_sat_model_certificate;
          Alcotest.test_case "assumption proofs" `Quick test_assumptions_proof;
          Alcotest.test_case "deletion + restarts" `Quick
            test_deletion_and_restarts_stay_valid;
          Alcotest.test_case "incremental session" `Quick
            test_incremental_session_certificates;
          Alcotest.test_case "set_max_learnts validation" `Quick
            test_set_max_learnts_validation;
        ] );
      ( "solver-proofs-property",
        [
          QCheck_alcotest.to_alcotest prop_random_cnf_certifies;
          QCheck_alcotest.to_alcotest prop_random_unsat_under_assumptions_certifies;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "dropped learnt literal" `Quick
            test_mutation_dropped_literal;
          Alcotest.test_case "removed lemma" `Quick test_mutation_removed_lemma;
          Alcotest.test_case "non-RUP lemma" `Quick test_mutation_non_rup_lemma;
          Alcotest.test_case "delete then use" `Quick test_mutation_delete_then_use;
          Alcotest.test_case "unknown deletion" `Quick test_mutation_unknown_deletion;
          Alcotest.test_case "bad literals" `Quick test_mutation_out_of_range_literal;
          Alcotest.test_case "incomplete proof" `Quick test_mutation_incomplete_proof;
          Alcotest.test_case "corrupted model" `Quick test_mutation_model_flip;
        ] );
      ( "formats",
        [
          Alcotest.test_case "drup output shape" `Quick test_drup_output_shape;
          Alcotest.test_case "satlib dialect" `Quick test_dimacs_satlib_dialect;
          Alcotest.test_case "multiline clause" `Quick
            test_dimacs_multiline_clause_and_missing_zero;
          Alcotest.test_case "bad token rejected" `Quick
            test_dimacs_bad_token_still_fails;
          QCheck_alcotest.to_alcotest prop_dimacs_roundtrip;
        ] );
      ( "wire-form",
        [
          QCheck_alcotest.to_alcotest prop_wire_roundtrip;
          Alcotest.test_case "real refutation" `Quick test_wire_real_certificate;
          Alcotest.test_case "garbage is a typed error" `Quick test_wire_garbage_typed;
          QCheck_alcotest.to_alcotest prop_wire_total;
        ] );
      ( "smtlite",
        [
          Alcotest.test_case "check_certified" `Quick test_smtlite_check_certified;
          Alcotest.test_case "session certified" `Quick
            test_smtlite_session_certified;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "backend certified" `Slow test_backend_certified;
          Alcotest.test_case "tolerance bracket" `Slow
            test_tolerance_certified_bracket;
        ] );
    ]
