(* A JSON reader into [Jsonw.t], the library's writer tree, so result
   files and BENCHMARK.json can be read back without a third-party
   parser.  Numbers without a fraction or exponent become [Int]. *)

exception Error of string

let parse (s : string) : Jsonw.t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Error (Printf.sprintf "offset %d: %s" !pos msg)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip ()
    | _ -> ()
  in
  let expect c =
    skip ();
    if peek () <> c then fail (Printf.sprintf "expected %C" c);
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string_body () =
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "bad escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              Buffer.add_utf_8_uchar b
                (if Uchar.is_valid code then Uchar.of_int code else Uchar.rep)
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let is_num c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && is_num s.[!pos] do
      incr pos
    done;
    let lit = String.sub s start (!pos - start) in
    let integral = not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit) in
    match (integral, int_of_string_opt lit, float_of_string_opt lit) with
    | true, Some i, _ -> Jsonw.Int i
    | _, _, Some f -> Jsonw.Float f
    | _ -> fail ("bad number " ^ lit)
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
        incr pos;
        skip ();
        if peek () = '}' then begin
          incr pos;
          Jsonw.Obj []
        end
        else
          let rec fields acc =
            expect '"';
            let k = string_body () in
            expect ':';
            let v = value () in
            skip ();
            match peek () with
            | ',' ->
                incr pos;
                skip ();
                fields ((k, v) :: acc)
            | '}' ->
                incr pos;
                Jsonw.Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          fields []
    | '[' ->
        incr pos;
        skip ();
        if peek () = ']' then begin
          incr pos;
          Jsonw.List []
        end
        else
          let rec items acc =
            let v = value () in
            skip ();
            match peek () with
            | ',' ->
                incr pos;
                items (v :: acc)
            | ']' ->
                incr pos;
                Jsonw.List (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
    | '"' ->
        incr pos;
        Jsonw.String (string_body ())
    | 't' -> literal "true" (Jsonw.Bool true)
    | 'f' -> literal "false" (Jsonw.Bool false)
    | 'n' -> literal "null" Jsonw.Null
    | _ -> number ()
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing characters";
  v

let file path = parse (In_channel.with_open_bin path In_channel.input_all)

(* Accessors that fail with the field name. *)
let field k = function
  | Jsonw.Obj kvs -> (
      match List.assoc_opt k kvs with
      | Some v -> v
      | None -> raise (Error ("missing field " ^ k)))
  | _ -> raise (Error ("not an object, looking for " ^ k))

let field_opt k = function Jsonw.Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_string = function
  | Jsonw.String s -> s
  | _ -> raise (Error "expected a string")

let to_float = function
  | Jsonw.Int i -> float_of_int i
  | Jsonw.Float f -> f
  | _ -> raise (Error "expected a number")

let to_int = function
  | Jsonw.Int i -> i
  | _ -> raise (Error "expected an integer")

let to_list = function
  | Jsonw.List l -> l
  | _ -> raise (Error "expected a list")
