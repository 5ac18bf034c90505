type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------- printing ------------------------- *)

let hex = "0123456789abcdef"

(* Escape-free runs are copied whole, so a plain string costs one
   blit. *)
let escape buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !start (i - !start);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex.[Char.code c lsr 4];
          Buffer.add_char buf hex.[Char.code c land 15]);
      start := i + 1
    end
  done;
  Buffer.add_substring buf s !start (n - !start);
  Buffer.add_char buf '"'

(* Shortest of the standard precisions that round-trips the double, so
   printing is a pure function of the value and re-parsing recovers it
   exactly — both halves of the fixpoint the tests pin. *)
let float_repr f =
  let try_prec p =
    let s = Printf.sprintf "%.*g" p f in
    if float_of_string s = f then Some s else None
  in
  let s =
    match try_prec 12 with
    | Some s -> s
    | None -> ( match try_prec 15 with Some s -> s | None -> Printf.sprintf "%.17g" f)
  in
  (* Keep the token in the number grammar: "3" would re-parse as Int. *)
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E' || c = 'n') s then s else s ^ ".0"

(* Indentation is copied from one shared run of spaces, looping past
   its length. *)
let spaces = String.make 64 ' '

let rec pad buf n =
  if n > 0 then begin
    let k = Int.min n (String.length spaces) in
    Buffer.add_substring buf spaces 0 k;
    pad buf (n - k)
  end

let rec write buf ~indent v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (float_repr f)
      else Buffer.add_string buf "null"
  | String s -> escape buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_string buf "[";
      List.iteri
        (fun i item ->
          Buffer.add_string buf (if i = 0 then "\n" else ",\n");
          pad buf (indent + 2);
          write buf ~indent:(indent + 2) item)
        items;
      Buffer.add_char buf '\n';
      pad buf indent;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_string buf "{";
      List.iteri
        (fun i (k, item) ->
          Buffer.add_string buf (if i = 0 then "\n" else ",\n");
          pad buf (indent + 2);
          escape buf k;
          Buffer.add_string buf ": ";
          write buf ~indent:(indent + 2) item)
        fields;
      Buffer.add_char buf '\n';
      pad buf indent;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf ~indent:0 v;
  Buffer.contents buf

(* ------------------------- parsing ------------------------- *)

exception Fail of int * string

(* A cursor over [s]: [!pos] is the next byte, read in place, so
   nothing is allocated per byte, and a string without escapes is
   copied out once. *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let at c = !pos < n && s.[!pos] = c in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip_ws ()
      | _ -> ()
  in
  let expect c =
    if !pos >= n then fail (Printf.sprintf "expected %C, found end of input" c)
    else if s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C, found %C" c s.[!pos])
  in
  let literal word v =
    let len = String.length word in
    let rec matches i = i = len || (s.[!pos + i] = word.[i] && matches (i + 1)) in
    if !pos + len <= n && matches 0 then begin
      pos := !pos + len;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let utf8_of_code buf code =
    (* Only the BMP; surrogate pairs in escapes are not emitted by our
       printer and are rejected here. *)
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
    end
  in
  (* The rest of a string whose escape-free prefix starts at [start],
     with the cursor on the first backslash. *)
  let escaped_string start =
    let buf = Buffer.create (2 * (!pos - start) + 16) in
    Buffer.add_substring buf s start (!pos - start);
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= n then fail "unterminated escape";
          let add c =
            incr pos;
            Buffer.add_char buf c
          in
          (match s.[!pos] with
          | '"' -> add '"'
          | '\\' -> add '\\'
          | '/' -> add '/'
          | 'n' -> add '\n'
          | 't' -> add '\t'
          | 'r' -> add '\r'
          | 'b' -> add '\b'
          | 'f' -> add '\012'
          | 'u' ->
              incr pos;
              if !pos + 4 > n then fail "truncated \\u escape";
              let code =
                match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
                | Some c -> c
                | None -> fail "bad \\u escape"
              in
              if code >= 0xd800 && code <= 0xdfff then fail "surrogate escapes unsupported";
              pos := !pos + 4;
              utf8_of_code buf code
          | c -> fail (Printf.sprintf "bad escape \\%C" c));
          go ()
      | c ->
          incr pos;
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let rec plain () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' ->
          incr pos;
          String.sub s start (!pos - 1 - start)
      | '\\' -> escaped_string start
      | _ ->
          incr pos;
          plain ()
    in
    plain ()
  in
  let is_num_char = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false in
  let parse_number () =
    let start = !pos in
    while !pos < n && is_num_char s.[!pos] do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok in
    if is_float then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" tok)
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "bad number %S" tok))
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> String (parse_string ())
    | '[' ->
        incr pos;
        skip_ws ();
        if at ']' then begin
          incr pos;
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            if !pos >= n then fail "unterminated array";
            match s.[!pos] with
            | ',' ->
                incr pos;
                items (v :: acc)
            | ']' ->
                incr pos;
                List.rev (v :: acc)
            | c -> fail (Printf.sprintf "expected ',' or ']', found %C" c)
          in
          List (items [])
        end
    | '{' ->
        incr pos;
        skip_ws ();
        if at '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            if !pos >= n then fail "unterminated object";
            match s.[!pos] with
            | ',' ->
                incr pos;
                fields (kv :: acc)
            | '}' ->
                incr pos;
                List.rev (kv :: acc)
            | c -> fail (Printf.sprintf "expected ',' or '}', found %C" c)
          in
          Obj (fields [])
        end
    | '-' | '0' .. '9' -> parse_number ()
    | c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) -> Error (Printf.sprintf "json: at byte %d: %s" at msg)

let rec assoc k = function
  | [] -> None
  | (k', v) :: rest -> if String.equal k k' then Some v else assoc k rest

let member k = function Obj fields -> assoc k fields | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Int a, Int b -> a = b
  | Float a, Float b -> a = b || (Float.is_nan a && Float.is_nan b)
  | String a, String b -> String.equal a b
  | List a, List b -> List.length a = List.length b && List.for_all2 equal a b
  | Obj a, Obj b ->
      List.length a = List.length b
      && List.for_all2 (fun (ka, va) (kb, vb) -> String.equal ka kb && equal va vb) a b
  | (Null | Bool _ | Int _ | Float _ | String _ | List _ | Obj _), _ -> false
