type binder = {
  b_name : string;
  b_span : (int * int) option;
  b_what : string;
  mutable b_used : bool;
}

let span_of (s : Parse.span) = (s.Parse.sp_line, s.Parse.sp_col)

let expr_span sp e = Option.map span_of (Parse.expr_span sp e)

let exempt name = String.length name > 0 && name.[0] = '_'

(* The operator heading the (possibly let-wrapped) body of a lambda:
   the dimension that would sit directly inside this one in the ETDG. *)
let rec head_soac (e : Expr.t) =
  match e with
  | Expr.Soac s -> Some (e, s)
  | Expr.Let (_, _, body) -> head_soac body
  | _ -> None

let check_scope sp (p : Expr.program) =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let bind what (name, span) =
    { b_name = name; b_span = span; b_what = what; b_used = false }
  in
  let shadow_check env b =
    if not (exempt b.b_name) then
      match List.find_opt (fun b' -> b'.b_name = b.b_name) env with
      | Some outer ->
          emit
            (Diagnostic.warningf ?span:b.b_span "L102"
               "%s '%s' shadows an enclosing %s" b.b_what b.b_name
               outer.b_what)
      | None -> ()
  in
  let unused_check b =
    if (not b.b_used) && not (exempt b.b_name) then
      emit
        (Diagnostic.warningf ?span:b.b_span "L101" "unused %s '%s'" b.b_what
           b.b_name)
  in
  let binder_span_of e name =
    Parse.binder_spans sp e
    |> List.find_map (fun (n, s) -> if n = name then Some (span_of s) else None)
  in
  let rec walk env (e : Expr.t) =
    match e with
    | Expr.Var v -> (
        match List.find_opt (fun b -> b.b_name = v) env with
        | Some b -> b.b_used <- true
        | None ->
            emit
              (Diagnostic.errorf ?span:(expr_span sp e) "L100"
                 "unbound variable '%s'" v))
    | Expr.Lit _ -> ()
    | Expr.Tuple es | Expr.Zip es -> List.iter (walk env) es
    | Expr.Proj (e1, _) | Expr.Access (_, e1) | Expr.Index (e1, _) ->
        walk env e1
    | Expr.Prim (_, es) -> List.iter (walk env) es
    | Expr.Let (x, e1, e2) ->
        walk env e1;
        let b = bind "let binding" (x, binder_span_of e x) in
        shadow_check env b;
        walk (b :: env) e2;
        unused_check b
    | Expr.Soac { kind; fn; init; xs } ->
        walk env xs;
        Option.iter (walk env) init;
        (match head_soac fn.body with
        | Some (inner, s) when Coarsen.compose_ops kind s.Expr.kind = None ->
            emit
              (Diagnostic.warningf
                 ?span:(expr_span sp inner)
                 "L103"
                 "%s nested directly under %s: opposite directions cannot \
                  compose (Table 3), coarsening will not merge this nest"
                 (Expr.soac_kind_name s.Expr.kind)
                 (Expr.soac_kind_name kind))
        | _ -> ());
        let bs =
          List.map
            (fun x -> bind "lambda parameter" (x, binder_span_of e x))
            fn.params
        in
        List.iter (shadow_check env) bs;
        walk (List.rev_append bs env) fn.body;
        List.iter unused_check bs
  in
  let input_span name =
    Parse.input_spans sp
    |> List.find_map (fun (n, s) -> if n = name then Some (span_of s) else None)
  in
  let inputs =
    List.map (fun (name, _) -> bind "input" (name, input_span name)) p.Expr.inputs
  in
  walk (List.rev inputs) p.Expr.body;
  List.iter
    (fun b ->
      if (not b.b_used) && not (exempt b.b_name) then
        emit
          (Diagnostic.warningf ?span:b.b_span "L110" "input '%s' is never used"
             b.b_name))
    inputs;
  List.rev !diags

let source ?path:_ text =
  match Parse.program_spanned text with
  | exception Parse.Syntax_error { line; col; message } ->
      [ Diagnostic.error ~span:(line, col) "L001" message ]
  | p, sp -> (
      let scope = check_scope sp p in
      if List.exists Diagnostic.is_error scope then scope
      else
        match Typecheck.check_program_located p with
        | Error (at, msg) ->
            let span = Option.bind at (expr_span sp) in
            scope @ [ Diagnostic.error ?span "L200" msg ]
        | Ok _ -> (
            (* Classify against the compiled fragment; never simulate. *)
            match Build.build p with
            | _ -> scope
            | exception Build.Unsupported msg ->
                scope
                @ [ Diagnostic.info "L300"
                      (Printf.sprintf
                         "outside the compiled fragment (interpreter only): %s"
                         msg) ]))

let file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  source ~path text
