(* Minimal JSON: just enough to emit and read back the observability
   journal without an external dependency. Values are immutable; objects
   preserve field order (the schema relies on "v" coming first only
   cosmetically, validation is order-independent). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------- emission ---------- *)

(* Clean runs between the bytes that need escaping are blitted whole. *)
let escape_string b s =
  Buffer.add_char b '"';
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      if i > !start then Buffer.add_substring b s !start (i - !start);
      (match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c)));
      start := i + 1
    end
  done;
  if n > !start then Buffer.add_substring b s !start (n - !start);
  Buffer.add_char b '"'

(* Decimal digits of [n <= 0], most significant first. Working on the
   non-positive side covers [min_int], whose negation overflows. *)
let rec add_neg_digits b n =
  if n <= -10 then add_neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b i =
  if i < 0 then begin
    Buffer.add_char b '-';
    add_neg_digits b i
  end
  else add_neg_digits b (-i)

(* The formatter [Printf.sprintf] applies for a [%f]/[%g] conversion of a
   finite float, called without building the format string each time. *)
external format_float : string -> float -> string = "caml_format_float"

(* Shortest representation that parses back to the same float; non-finite
   values have no JSON encoding and degrade to null. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e16 then format_float "%.1f" f
  else
    let s = format_float "%.12g" f in
    if float_of_string s = f then s else format_float "%.17g" f

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> add_int b i
  | Float f -> Buffer.add_string b (float_repr f)
  | String s -> escape_string b s
  | List xs ->
      Buffer.add_char b '[';
      write_items b false xs;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      write_fields b false fields;
      Buffer.add_char b '}'

and write_items b sep = function
  | [] -> ()
  | x :: rest ->
      if sep then Buffer.add_char b ',';
      write b x;
      write_items b true rest

and write_fields b sep = function
  | [] -> ()
  | (k, v) :: rest ->
      if sep then Buffer.add_char b ',';
      escape_string b k;
      Buffer.add_char b ':';
      write b v;
      write_fields b true rest

let to_string v =
  let b = Buffer.create 128 in
  write b v;
  Buffer.contents b

(* ---------- parsing ---------- *)

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> error (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else error (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string"
      else
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents b
        | '\\' -> (
            if !pos >= n then error "unterminated escape";
            let e = s.[!pos] in
            advance ();
            match e with
            | '"' -> Buffer.add_char b '"'; go ()
            | '\\' -> Buffer.add_char b '\\'; go ()
            | '/' -> Buffer.add_char b '/'; go ()
            | 'n' -> Buffer.add_char b '\n'; go ()
            | 't' -> Buffer.add_char b '\t'; go ()
            | 'r' -> Buffer.add_char b '\r'; go ()
            | 'b' -> Buffer.add_char b '\b'; go ()
            | 'f' -> Buffer.add_char b '\012'; go ()
            | 'u' ->
                if !pos + 4 > n then error "truncated \\u escape";
                let hex = String.sub s !pos 4 in
                pos := !pos + 4;
                let code =
                  try int_of_string ("0x" ^ hex) with _ -> error "bad \\u escape"
                in
                (* UTF-8 encode the code point (no surrogate pairing; the
                   journal only ever escapes control characters). *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end;
                go ()
            | _ -> error "bad escape")
        | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let continue = ref true in
    while !continue do
      match peek () with
      | Some ('0' .. '9' | '-' | '+') -> advance ()
      | Some ('.' | 'e' | 'E') ->
          is_float := true;
          advance ()
      | _ -> continue := false
    done;
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> error "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> error "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> error "expected , or ]"
          in
          items []
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> error "expected , or }"
          in
          fields []
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> error (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then error "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ---------- accessors ---------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
