type t =
  | Model of {
      n_vars : int;
      cnf : int list list;
      assumptions : int list;
      model : bool array;
    }
  | Refutation of {
      n_vars : int;
      cnf : int list list;
      assumptions : int list;
      proof : Rup.step list;
    }

let trace_cnf trace =
  let acc = ref [] in
  Proof.iter (function Proof.Input lits -> acc := lits :: !acc | _ -> ()) trace;
  List.rev !acc

let of_trace_unsat ~n_vars trace =
  match Proof.last trace with
  | Some (Proof.Empty assumptions) ->
      let cnf = ref [] and proof = ref [] in
      Proof.iter
        (function
          | Proof.Input lits -> cnf := lits :: !cnf
          | Proof.Learn lits -> proof := Rup.Learn lits :: !proof
          | Proof.Delete lits -> proof := Rup.Delete lits :: !proof
          | Proof.Empty _ -> ())
        trace;
      Ok
        (Refutation
           {
             n_vars;
             cnf = List.rev !cnf;
             assumptions;
             proof = List.rev !proof;
           })
  | Some _ -> Error "trace does not end with an Unsat conclusion"
  | None -> Error "empty proof trace"

let of_trace_model ~n_vars ~assumptions ~model trace =
  Model { n_vars; cnf = trace_cnf trace; assumptions; model }

let check = function
  | Model { n_vars; cnf; assumptions; model } ->
      Rup.model_check ~n_vars ~cnf ~assumptions ~model
  | Refutation { n_vars; cnf; assumptions; proof } ->
      Rup.check_unsat ~n_vars ~cnf ~assumptions ~proof

let describe = function
  | Model { n_vars; cnf; assumptions; _ } ->
      Printf.sprintf "model certificate: %d vars, %d clauses, %d assumptions"
        n_vars (List.length cnf) (List.length assumptions)
  | Refutation { n_vars; cnf; assumptions; proof } ->
      let learns =
        List.length (List.filter (function Rup.Learn _ -> true | _ -> false) proof)
      in
      Printf.sprintf
        "refutation certificate: %d vars, %d clauses, %d assumptions, %d \
         lemmas (%d proof steps)"
        n_vars (List.length cnf) (List.length assumptions) learns
        (List.length proof)

let clause_line buf lits =
  List.iter (fun l -> Buffer.add_string buf (string_of_int l ^ " ")) lits;
  Buffer.add_string buf "0\n"

let to_drup = function
  | Model _ -> None
  | Refutation { proof; _ } ->
      let buf = Buffer.create 1024 in
      List.iter
        (function
          | Rup.Learn lits -> clause_line buf lits
          | Rup.Delete lits ->
              Buffer.add_string buf "d ";
              clause_line buf lits)
        proof;
      (* External DRUP checkers stop at the empty clause. *)
      Buffer.add_string buf "0\n";
      Some (Buffer.contents buf)

let to_dimacs t =
  let n_vars, cnf, assumptions =
    match t with
    | Model { n_vars; cnf; assumptions; _ }
    | Refutation { n_vars; cnf; assumptions; _ } ->
        (n_vars, cnf, assumptions)
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" n_vars
       (List.length cnf + List.length assumptions));
  List.iter (fun lits -> clause_line buf lits) cnf;
  List.iter (fun l -> clause_line buf [ l ]) assumptions;
  Buffer.contents buf

(* ---------- canonical text codec ---------- *)

type codec_error =
  | Bad_token of { field : string; offset : int; token : string }
  | Missing_zero of { field : string }
  | Stray_delete of { field : string; offset : int }
  | Bad_shape of string

let codec_error_to_string = function
  | Bad_token { field; offset; token } ->
      Printf.sprintf "%s: bad token %S at byte %d" field token offset
  | Missing_zero { field } ->
      Printf.sprintf "%s: last clause lacks its terminating 0" field
  | Stray_delete { field; offset } ->
      Printf.sprintf "%s: misplaced deletion 'd' at byte %d" field offset
  | Bad_shape msg -> msg

exception Codec of codec_error

(* Decimal digits straight into the buffer, without an intermediate
   string per literal. *)
let add_int buf n =
  if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    if n < 0 then Buffer.add_char buf '-';
    let n = abs n in
    let rec digits n =
      if n >= 10 then digits (n / 10);
      Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))
    in
    digits n
  end

(* Tokens are separated by exactly one space; [add_sep] writes that
   space before every token but the first. *)
let add_sep buf = if Buffer.length buf > 0 then Buffer.add_char buf ' '

let add_clause buf lits =
  List.iter
    (fun l ->
      add_sep buf;
      add_int buf l)
    lits;
  add_sep buf;
  Buffer.add_char buf '0'

let clauses_text cnf =
  let buf = Buffer.create 4096 in
  List.iter (add_clause buf) cnf;
  Buffer.contents buf

let literals_text lits =
  let buf = Buffer.create 64 in
  List.iter
    (fun l ->
      add_sep buf;
      add_int buf l)
    lits;
  Buffer.contents buf

let proof_text proof =
  let buf = Buffer.create 4096 in
  List.iter
    (function
      | Rup.Learn c -> add_clause buf c
      | Rup.Delete c ->
          add_sep buf;
          Buffer.add_char buf 'd';
          add_clause buf c)
    proof;
  Buffer.contents buf

let model_text model =
  String.init (Array.length model) (fun i -> if model.(i) then '1' else '0')

type token = Int of int | D

(* Walk the space-separated tokens of [s]. Only the canonical spelling
   is accepted - single spaces, no leading zeros, no "+" or "-0", no
   overflow - so that decoding then encoding gives back the same
   bytes. *)
let iter_tokens ~field s f =
  let len = String.length s in
  let bad start stop =
    raise (Codec (Bad_token { field; offset = start; token = String.sub s start (stop - start) }))
  in
  let rec token start =
    let stop =
      let i = ref start in
      while !i < len && String.unsafe_get s !i <> ' ' do
        incr i
      done;
      !i
    in
    (if stop = start then bad start stop
     else if stop - start = 1 && s.[start] = 'd' then f start D
     else begin
       let neg = s.[start] = '-' in
       let first = if neg then start + 1 else start in
       if first = stop || (s.[first] = '0' && (stop - first > 1 || neg)) then bad start stop;
       let n = ref 0 in
       for i = first to stop - 1 do
         match s.[i] with
         | '0' .. '9' as c ->
             let d = Char.code c - 48 in
             if !n > (max_int - d) / 10 then bad start stop;
             n := (10 * !n) + d
         | _ -> bad start stop
       done;
       f start (Int (if neg then - !n else !n))
     end);
    if stop < len then token (stop + 1)
  in
  if len > 0 then token 0

let clauses_of_text ~field s =
  let acc = ref [] and cur = ref [] in
  iter_tokens ~field s (fun offset -> function
    | D -> raise (Codec (Stray_delete { field; offset }))
    | Int 0 ->
        acc := List.rev !cur :: !acc;
        cur := []
    | Int l -> cur := l :: !cur);
  if !cur <> [] then raise (Codec (Missing_zero { field }));
  List.rev !acc

let literals_of_text ~field s =
  let acc = ref [] in
  iter_tokens ~field s (fun offset -> function
    | D -> raise (Codec (Stray_delete { field; offset }))
    | Int 0 -> raise (Codec (Bad_token { field; offset; token = "0" }))
    | Int l -> acc := l :: !acc);
  List.rev !acc

let proof_of_text ~field s =
  let acc = ref [] and cur = ref [] and del = ref false in
  iter_tokens ~field s (fun offset -> function
    | D ->
        if !del || !cur <> [] then raise (Codec (Stray_delete { field; offset }));
        del := true
    | Int 0 ->
        let c = List.rev !cur in
        acc := (if !del then Rup.Delete c else Rup.Learn c) :: !acc;
        cur := [];
        del := false
    | Int l -> cur := l :: !cur);
  if !cur <> [] || !del then raise (Codec (Missing_zero { field }));
  List.rev !acc

let model_of_text s =
  Array.init (String.length s) (fun i ->
      match s.[i] with
      | '0' -> false
      | '1' -> true
      | c -> raise (Codec (Bad_token { field = "model"; offset = i; token = String.make 1 c })))

module J = Util.Json

let to_json t =
  let common kind n_vars cnf assumptions =
    [
      ("kind", J.String kind);
      ("n_vars", J.Int n_vars);
      ("cnf", J.String (clauses_text cnf));
      ("assumptions", J.String (literals_text assumptions));
    ]
  in
  match t with
  | Model { n_vars; cnf; assumptions; model } ->
      J.Obj (common "model" n_vars cnf assumptions @ [ ("model", J.String (model_text model)) ])
  | Refutation { n_vars; cnf; assumptions; proof } ->
      J.Obj
        (common "refutation" n_vars cnf assumptions @ [ ("proof", J.String (proof_text proof)) ])

let of_json j =
  let shape fmt = Printf.ksprintf (fun s -> raise (Codec (Bad_shape s))) fmt in
  let text name = function J.String s -> s | _ -> shape "%s: expected a string" name in
  try
    match j with
    | J.Obj
        [
          ("kind", J.String kind);
          ("n_vars", J.Int n_vars);
          ("cnf", cnf);
          ("assumptions", assumptions);
          (last, body);
        ] -> (
        let cnf = clauses_of_text ~field:"cnf" (text "cnf" cnf) in
        let assumptions = literals_of_text ~field:"assumptions" (text "assumptions" assumptions) in
        match (kind, last) with
        | "model", "model" -> Ok (Model { n_vars; cnf; assumptions; model = model_of_text (text last body) })
        | "refutation", "proof" ->
            Ok (Refutation { n_vars; cnf; assumptions; proof = proof_of_text ~field:last (text last body) })
        | _ -> shape "no %S certificate has a %S field" kind last)
    | _ -> shape "expected the fields kind, n_vars, cnf, assumptions and model or proof, in that order"
  with Codec e -> Error e
