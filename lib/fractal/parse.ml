exception Syntax_error of { line : int; col : int; message : string }

type span = { sp_line : int; sp_col : int }

(* Spans are keyed by physical identity: every AST node the parser
   constructs is a distinct heap block, so [==] identifies its
   construction site without threading locations through [Expr.t]. *)
type spans = {
  mutable sp_exprs : (Expr.t * span) list;
  mutable sp_binders : (Expr.t * (string * span) list) list;
  mutable sp_inputs : (string * span) list;
}

let spans_empty () = { sp_exprs = []; sp_binders = []; sp_inputs = [] }

let input_spans sp = List.rev sp.sp_inputs

let expr_span sp e =
  List.find_map
    (fun (e', s) -> if e' == e then Some s else None)
    sp.sp_exprs

let binder_spans sp e =
  match
    List.find_map
      (fun (e', bs) -> if e' == e then Some bs else None)
      sp.sp_binders
  with
  | Some bs -> bs
  | None -> []

(* ------------------------------ lexer ------------------------------ *)

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | LBRACKET | RBRACKET | LPAREN | RPAREN | LBRACE | RBRACE
  | COMMA | COLON | DOT | PIPE | EQUALS
  | PLUS | MINUS | STAR | SLASH | AT | ATT (* @T *)
  | EOF

type lexeme = { tok : token; l_line : int; l_col : int }

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''
let is_digit c = c >= '0' && c <= '9'

let lex src =
  let n = String.length src in
  let out = ref [] in
  let line = ref 1 and bol = ref 0 in
  let error pos msg =
    raise (Syntax_error { line = !line; col = pos - !bol + 1; message = msg })
  in
  let emit pos tok = out := { tok; l_line = !line; l_col = pos - !bol + 1 } :: !out in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i;
      bol := !i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '#' then begin
      (* comment to end of line *)
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      emit start (IDENT (String.sub src start (!i - start)))
    end
    else if is_digit c || (c = '-' && !i + 1 < n && is_digit src.[!i + 1]
                           && (match !out with
                               | { tok = (IDENT _ | INT _ | FLOAT _ | RPAREN
                                         | RBRACKET); _ } :: _ -> false
                               | _ -> true))
    then begin
      let start = !i in
      if c = '-' then incr i;
      while !i < n && is_digit src.[!i] do incr i done;
      let has_frac =
        !i < n && src.[!i] = '.' && !i + 1 < n && is_digit src.[!i + 1]
      in
      if has_frac then begin
        incr i;
        while !i < n && is_digit src.[!i] do incr i done
      end;
      let has_exp =
        !i < n
        && (src.[!i] = 'e' || src.[!i] = 'E')
        && !i + 1 < n
        && (is_digit src.[!i + 1]
           || ((src.[!i + 1] = '-' || src.[!i + 1] = '+') && !i + 2 < n
              && is_digit src.[!i + 2]))
      in
      if has_exp then begin
        incr i;
        if !i < n && (src.[!i] = '-' || src.[!i] = '+') then incr i;
        while !i < n && is_digit src.[!i] do incr i done
      end;
      if has_frac || has_exp then
        emit start (FLOAT (float_of_string (String.sub src start (!i - start))))
      else emit start (INT (int_of_string (String.sub src start (!i - start))))
    end
    else begin
      let start = !i in
      (match c with
      | '[' -> emit start LBRACKET
      | ']' -> emit start RBRACKET
      | '(' -> emit start LPAREN
      | ')' -> emit start RPAREN
      | '{' -> emit start LBRACE
      | '}' -> emit start RBRACE
      | ',' -> emit start COMMA
      | ':' -> emit start COLON
      | '.' -> emit start DOT
      | '|' -> emit start PIPE
      | '=' -> emit start EQUALS
      | '+' -> emit start PLUS
      | '-' -> emit start MINUS
      | '*' -> emit start STAR
      | '/' -> emit start SLASH
      | '@' ->
          if !i + 1 < n && src.[!i + 1] = 'T' then begin
            emit start ATT;
            incr i
          end
          else emit start AT
      | _ -> error start (Printf.sprintf "unexpected character %C" c));
      incr i
    end
  done;
  emit n EOF;
  Array.of_list (List.rev !out)

(* ------------------------------ parser ----------------------------- *)

type state = { toks : lexeme array; mutable pos : int; sp : spans }

let peek st = st.toks.(st.pos)
let advance st = st.pos <- st.pos + 1

let span_here st =
  let { l_line; l_col; _ } = peek st in
  { sp_line = l_line; sp_col = l_col }

(* Record [e]'s source span unless an inner production already did
   (a parenthesised expression keeps its own, tighter position). *)
let note st span e =
  if not (List.exists (fun (e', _) -> e' == e) st.sp.sp_exprs) then
    st.sp.sp_exprs <- (e, span) :: st.sp.sp_exprs;
  e

let note_binders st e bs = st.sp.sp_binders <- (e, bs) :: st.sp.sp_binders

let fail st msg =
  let { l_line; l_col; _ } = peek st in
  raise (Syntax_error { line = l_line; col = l_col; message = msg })

let expect st tok what =
  if (peek st).tok = tok then advance st else fail st ("expected " ^ what)

let ident st =
  match (peek st).tok with
  | IDENT s ->
      advance st;
      s
  | _ -> fail st "expected an identifier"

let int_lit st =
  match (peek st).tok with
  | INT v ->
      advance st;
      v
  | _ -> fail st "expected an integer"

let number st =
  match (peek st).tok with
  | INT v ->
      advance st;
      float_of_int v
  | FLOAT v ->
      advance st;
      v
  | _ -> fail st "expected a number"

(* "[2][4]f32[1,8]" *)
let parse_type st =
  let rec outer acc =
    if (peek st).tok = LBRACKET then begin
      advance st;
      let e = int_lit st in
      expect st RBRACKET "']'";
      outer (e :: acc)
    end
    else List.rev acc
  in
  let dims = outer [] in
  (match (peek st).tok with
  | IDENT "f32" -> advance st
  | _ -> fail st "expected 'f32'");
  expect st LBRACKET "'['";
  let rec inner acc =
    let e = int_lit st in
    if (peek st).tok = COMMA then begin
      advance st;
      inner (e :: acc)
    end
    else List.rev (e :: acc)
  in
  let shape = inner [] in
  expect st RBRACKET "']'";
  List.fold_right
    (fun n ty -> Expr.List_ty (n, ty))
    dims
    (Expr.Tensor_ty (Shape.of_list shape))

let parse_shape_lit st =
  expect st LBRACKET "'['";
  let rec go acc =
    let e = int_lit st in
    if (peek st).tok = COMMA then begin
      advance st;
      go (e :: acc)
    end
    else List.rev (e :: acc)
  in
  let dims = go [] in
  expect st RBRACKET "']'";
  Shape.of_list dims

let soac_kind = function
  | "map" -> Some Expr.Map
  | "reduce" -> Some Expr.Reduce
  | "foldl" -> Some Expr.Foldl
  | "foldr" -> Some Expr.Foldr
  | "scanl" -> Some Expr.Scanl
  | "scanr" -> Some Expr.Scanr
  | _ -> None

let rec parse_expr st : Expr.t =
  match (peek st).tok with
  | IDENT "let" ->
      let start = span_here st in
      advance st;
      let xsp = span_here st in
      let x = ident st in
      expect st EQUALS "'='";
      let e1 = parse_expr st in
      (match (peek st).tok with
      | IDENT "in" -> advance st
      | _ -> fail st "expected 'in'");
      let e = Expr.Let (x, e1, parse_expr st) in
      note_binders st e [ (x, xsp) ];
      note st start e
  | _ -> parse_sum st

and parse_sum st =
  let start = span_here st in
  let lhs = parse_product st in
  let rec go lhs =
    match (peek st).tok with
    | PLUS ->
        advance st;
        go (note st start Expr.(Add @@@ [ lhs; parse_product st ]))
    | MINUS ->
        advance st;
        go (note st start Expr.(Sub @@@ [ lhs; parse_product st ]))
    | _ -> lhs
  in
  go lhs

and parse_product st =
  let start = span_here st in
  let lhs = parse_matmul st in
  let rec go lhs =
    match (peek st).tok with
    | STAR ->
        advance st;
        go (note st start Expr.(Mul @@@ [ lhs; parse_matmul st ]))
    | SLASH ->
        advance st;
        go (note st start Expr.(Div @@@ [ lhs; parse_matmul st ]))
    | _ -> lhs
  in
  go lhs

and parse_matmul st =
  let start = span_here st in
  let lhs = parse_postfix st in
  let rec go lhs =
    match (peek st).tok with
    | AT ->
        advance st;
        go (note st start Expr.(Matmul @@@ [ lhs; parse_postfix st ]))
    | ATT ->
        advance st;
        go (note st start Expr.(Matmul_t @@@ [ lhs; parse_postfix st ]))
    | _ -> lhs
  in
  go lhs

and parse_postfix st =
  let start = span_here st in
  let e = note st start (parse_atom st) in
  let rec go e =
    match (peek st).tok with
    | LBRACKET ->
        advance st;
        let i = int_lit st in
        expect st RBRACKET "']'";
        go (note st start (Expr.Index (e, [ i ])))
    | DOT -> (
        advance st;
        match (peek st).tok with
        | INT i ->
            advance st;
            go (note st start (Expr.Proj (e, i)))
        | IDENT name -> (
            let opsp = span_here st in
            advance st;
            match soac_kind name with
            | Some kind -> go (note st opsp (parse_soac st kind e))
            | None -> go (note st opsp (parse_access st name e)))
        | _ -> fail st "expected a method name or projection index")
    | _ -> e
  in
  go e

and parse_soac st kind xs =
  (* optional seed: .scanl(expr) { |params| body } *)
  let init =
    if (peek st).tok = LPAREN then begin
      advance st;
      let e = parse_expr st in
      expect st RPAREN "')'";
      Some e
    end
    else None
  in
  expect st LBRACE "'{'";
  expect st PIPE "'|'";
  let rec params acc =
    let psp = span_here st in
    let p = ident st in
    if (peek st).tok = COMMA then begin
      advance st;
      params ((p, psp) :: acc)
    end
    else List.rev ((p, psp) :: acc)
  in
  let ps = params [] in
  expect st PIPE "'|'";
  let body = parse_expr st in
  expect st RBRACE "'}'";
  (match (kind, init) with
  | Expr.Map, Some _ -> fail st "map takes no seed"
  | _ -> ());
  let e =
    Expr.Soac { kind; fn = { params = List.map fst ps; body }; init; xs }
  in
  note_binders st e ps;
  e

and parse_access st name e =
  let args () =
    expect st LPAREN "'('";
    let rec go acc =
      let v = int_lit st in
      if (peek st).tok = COMMA then begin
        advance st;
        go (v :: acc)
      end
      else List.rev (v :: acc)
    in
    let vs = go [] in
    expect st RPAREN "')'";
    vs
  in
  match name with
  | "slice" -> (
      match args () with
      | [ lo; hi ] -> Expr.Access (Expr.Slice { lo; hi }, e)
      | _ -> fail st "slice(lo, hi)")
  | "window" -> (
      match args () with
      | [ size ] ->
          Expr.Access (Expr.Windowed { size; stride = 1; dilation = 1 }, e)
      | [ size; stride ] ->
          Expr.Access (Expr.Windowed { size; stride; dilation = 1 }, e)
      | [ size; stride; dilation ] ->
          Expr.Access (Expr.Windowed { size; stride; dilation }, e)
      | _ -> fail st "window(size[, stride[, dilation]])")
  | "stride" -> (
      match args () with
      | [ start; step ] -> Expr.Access (Expr.Strided { start; step }, e)
      | _ -> fail st "stride(start, step)")
  | "shifted_slide" -> (
      match args () with
      | [ window ] -> Expr.Access (Expr.Shifted_slide { window }, e)
      | _ -> fail st "shifted_slide(window)")
  | "interleave" -> (
      match args () with
      | [ phases ] -> Expr.Access (Expr.Interleave { phases }, e)
      | _ -> fail st "interleave(phases)")
  | "linear" -> (
      match args () with
      | [ shift ] -> Expr.Access (Expr.Linear { shift; reverse = false }, e)
      | [ shift; rev ] ->
          Expr.Access (Expr.Linear { shift; reverse = rev <> 0 }, e)
      | _ -> fail st "linear(shift[, reverse])")
  | "reverse" ->
      expect st LPAREN "'('";
      expect st RPAREN "')'";
      Expr.Access (Expr.Linear { shift = 0; reverse = true }, e)
  | "gather" -> (
      match args () with
      | [] -> fail st "gather(i, ...)"
      | idx -> Expr.Access (Expr.Indirect (Array.of_list idx), e))
  | other -> fail st (Printf.sprintf "unknown access operator %s" other)

and parse_atom st =
  match (peek st).tok with
  | IDENT "zeros" ->
      advance st;
      Expr.Lit (Tensor.zeros (parse_shape_lit st))
  | IDENT "ones" ->
      advance st;
      Expr.Lit (Tensor.ones (parse_shape_lit st))
  | IDENT "full" ->
      advance st;
      let shape = parse_shape_lit st in
      expect st LPAREN "'('";
      let v = number st in
      expect st RPAREN "')'";
      Expr.Lit (Tensor.full shape v)
  | IDENT "zip" ->
      advance st;
      expect st LPAREN "'('";
      let es = parse_expr_list st in
      expect st RPAREN "')'";
      Expr.Zip es
  | IDENT name when unary_prim name <> None ->
      advance st;
      let p = Option.get (unary_prim name) in
      expect st LPAREN "'('";
      let e = parse_expr st in
      expect st RPAREN "')'";
      Expr.(p @@@ [ e ])
  | IDENT "max" ->
      advance st;
      expect st LPAREN "'('";
      let a = parse_expr st in
      expect st COMMA "','";
      let b = parse_expr st in
      expect st RPAREN "')'";
      Expr.(Maximum @@@ [ a; b ])
  | IDENT "scale" ->
      advance st;
      expect st LPAREN "'('";
      let k = number st in
      expect st COMMA "','";
      let e = parse_expr st in
      expect st RPAREN "')'";
      Expr.(Scale k @@@ [ e ])
  | IDENT "cols" ->
      advance st;
      expect st LPAREN "'('";
      let lo = int_lit st in
      expect st COMMA "','";
      let hi = int_lit st in
      expect st COMMA "','";
      let e = parse_expr st in
      expect st RPAREN "')'";
      Expr.(Cols (lo, hi) @@@ [ e ])
  | IDENT "concat_cols" ->
      advance st;
      expect st LPAREN "'('";
      let es = parse_expr_list st in
      expect st RPAREN "')'";
      Expr.(Concat_cols @@@ es)
  | IDENT v ->
      advance st;
      Expr.Var v
  | INT v ->
      advance st;
      Expr.Lit (Tensor.scalar (float_of_int v))
  | FLOAT v ->
      advance st;
      Expr.Lit (Tensor.scalar v)
  | LPAREN -> (
      advance st;
      let es = parse_expr_list st in
      expect st RPAREN "')'";
      match es with
      | [ e ] -> e
      | es -> Expr.Tuple es)
  | _ -> fail st "expected an expression"

and parse_expr_list st =
  let rec go acc =
    let e = parse_expr st in
    if (peek st).tok = COMMA then begin
      advance st;
      go (e :: acc)
    end
    else List.rev (e :: acc)
  in
  go []

and unary_prim = function
  | "tanh" -> Some Expr.Tanh
  | "sigmoid" -> Some Expr.Sigmoid
  | "exp" -> Some Expr.Exp
  | "neg" -> Some Expr.Neg
  | "relu" -> Some Expr.Relu
  | "softmax" -> Some Expr.Softmax
  | "rowmax" -> Some Expr.Row_max
  | "rowsum" -> Some Expr.Row_sum
  | "transpose" -> Some Expr.Transpose
  | _ -> None

let parse_program st : Expr.program =
  (match (peek st).tok with
  | IDENT "program" -> advance st
  | _ -> fail st "expected 'program'");
  let name = ident st in
  let rec inputs acc =
    match (peek st).tok with
    | IDENT "input" ->
        advance st;
        let xsp = span_here st in
        let x = ident st in
        st.sp.sp_inputs <- (x, xsp) :: st.sp.sp_inputs;
        expect st COLON "':'";
        let ty = parse_type st in
        inputs ((x, ty) :: acc)
    | _ -> List.rev acc
  in
  let ins = inputs [] in
  (match (peek st).tok with
  | IDENT "return" -> advance st
  | _ -> fail st "expected 'return'");
  let body = parse_expr st in
  (match (peek st).tok with
  | EOF -> ()
  | _ -> fail st "trailing input after the program body");
  { Expr.name; inputs = ins; body }

let program src =
  parse_program { toks = lex src; pos = 0; sp = spans_empty () }

let program_spanned src =
  let st = { toks = lex src; pos = 0; sp = spans_empty () } in
  let p = parse_program st in
  (p, st.sp)

let expr src =
  let st = { toks = lex src; pos = 0; sp = spans_empty () } in
  let e = parse_expr st in
  match (peek st).tok with
  | EOF -> e
  | _ -> fail st "trailing input after the expression"

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  src

let program_file path = program (read_file path)
