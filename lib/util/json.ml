type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------- emitting ---------- *)

exception Non_finite of float

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Strings without a character to escape - every certificate text and
   nearly every key - are returned as they are, uncopied. *)
let escape s =
  if not (String.exists needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

(* The shortest of %.15g/%.16g/%.17g that reads back as the same float
   (%.17g always does), so distinct floats never share a rendering. A
   rendering without '.' or an exponent gets ".0", or it would read back
   as an [Int]. *)
let float_repr f =
  if not (Float.is_finite f) then raise (Non_finite f)
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s =
      let p15 = Printf.sprintf "%.15g" f in
      if float_of_string p15 = f then p15
      else
        let p16 = Printf.sprintf "%.16g" f in
        if float_of_string p16 = f then p16 else Printf.sprintf "%.17g" f
    in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let rec emit buf ~indent ~level v =
  let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
  let newline () = if indent then Buffer.add_char buf '\n' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      newline ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            newline ()
          end;
          pad (level + 1);
          emit buf ~indent ~level:(level + 1) item)
        items;
      newline ();
      pad level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      newline ();
      List.iteri
        (fun i (k, item) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            newline ()
          end;
          pad (level + 1);
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf (if indent then "\": " else "\":");
          emit buf ~indent ~level:(level + 1) item)
        fields;
      newline ();
      pad level;
      Buffer.add_char buf '}'

let render ~indent v =
  let buf = Buffer.create 256 in
  emit buf ~indent ~level:0 v;
  Buffer.contents buf

let to_string v = render ~indent:false v

let pretty v = render ~indent:true v

(* ---------- parsing ---------- *)

exception Parse_error of int * string

let of_string s =
  let len = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < len
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let n = String.length word in
    if !pos + n <= len && String.sub s !pos n = word then begin
      pos := !pos + n;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* The escape-handling slow path, from the opening quote's successor. *)
  let parse_escaped_string () =
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= len then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= len then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'
               | '\\' -> Buffer.add_char buf '\\'
               | '/' -> Buffer.add_char buf '/'
               | 'n' -> Buffer.add_char buf '\n'
               | 'r' -> Buffer.add_char buf '\r'
               | 't' -> Buffer.add_char buf '\t'
               | 'b' -> Buffer.add_char buf '\b'
               | 'f' -> Buffer.add_char buf '\012'
               | 'u' ->
                   if !pos + 4 >= len then fail "truncated \\u escape";
                   let hex = String.sub s (!pos + 1) 4 in
                   let code =
                     match int_of_string_opt ("0x" ^ hex) with
                     | Some c -> c
                     | None -> fail "bad \\u escape"
                   in
                   (* Basic-multilingual-plane code points only; enough to
                      round-trip what [escape] emits. *)
                   if code < 0x80 then Buffer.add_char buf (Char.chr code)
                   else Buffer.add_string buf (Printf.sprintf "\\u%s" hex);
                   pos := !pos + 4
               | c -> fail (Printf.sprintf "bad escape %C" c));
            advance ();
            loop ()
        | c ->
            Buffer.add_char buf c;
            advance ();
            loop ()
    in
    loop ();
    Buffer.contents buf
  in
  (* Fast path: a string without escapes is one [String.sub]. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    let i = ref start in
    while !i < len && (match String.unsafe_get s !i with '"' | '\\' -> false | _ -> true) do
      incr i
    done;
    if !i < len && String.unsafe_get s !i = '"' then begin
      pos := !i + 1;
      String.sub s start (!i - start)
    end
    else parse_escaped_string ()
  in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let parse_number_text start =
    pos := start;
    while !pos < len && is_num_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" text)
    else
      match int_of_string_opt text with
      | Some n -> Int n
      | None -> fail (Printf.sprintf "bad number %S" text)
  in
  (* Fast path: an optional '-' and at most 18 digits (no overflow
     possible) followed by a non-number character is an [Int] read in
     place. Anything else - floats, long or malformed tokens - takes the
     textual path, so the accepted documents and values are unchanged. *)
  let parse_number () =
    let start = !pos in
    let neg = s.[start] = '-' in
    let i = ref (if neg then start + 1 else start) in
    let n = ref 0 in
    while
      !i < len && !i - start <= 18
      && match String.unsafe_get s !i with '0' .. '9' -> true | _ -> false
    do
      n := (10 * !n) + (Char.code (String.unsafe_get s !i) - 48);
      incr i
    done;
    let digits = !i - start - if neg then 1 else 0 in
    if digits > 0 && digits <= 18 && not (!i < len && is_num_char s.[!i]) then begin
      pos := !i;
      Int (if neg then - !n else !n)
    end
    else parse_number_text start
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            (k, parse_value ())
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
      Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let write_file path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (pretty v);
      output_char oc '\n')

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> of_string (String.trim contents)
  | exception Sys_error e -> Error e
