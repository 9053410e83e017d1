exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

(* ------------------------------------------------------------------ *)
(* Symbolic views: where a lambda-bound value lives in buffer space.  *)
(* ------------------------------------------------------------------ *)

(* A [piece] describes how the next iteration applied to a view maps a
   block dimension onto the buffer dimension at the head of
   [vw_remaining].  Access operators rewrite the head piece. *)
type piece =
  | Whole of { coeff : int; offset : int }
      (* buffer index = coeff * blk_iter + offset, consume the dim *)
  | Win_outer of { stride : int; dilation : int; offset : int }
      (* two block dims share one buffer dim: the first contributes
         stride * outer, the second dilation * inner (window/interleave) *)
  | Win_inner of { dilation : int }

type view = {
  vw_buffer : int;
  vw_terms : (int * int * int) list; (* buffer dim, block dim, coefficient *)
  vw_offs : (int * int) list;        (* buffer dim, constant offset *)
  vw_remaining : int list;           (* buffer dims not yet bound, in order *)
  vw_plan : piece list;              (* pending access rewrites; [] = Whole 1 0 *)
  vw_ty : Expr.ty;                   (* type of the value the view denotes *)
}

type sym =
  | SView of view
  | SConst of Tensor.t
  | SState of state
  | STup of sym list

and state = {
  st_level : int;        (* aggregate nest level whose state this is *)
  st_init : sym;         (* resolved seed symbol *)
  st_trail : trail list; (* operations applied after binding *)
  st_ty : Expr.ty;
}

and trail = T_iter of int | T_index of int | T_proj of int

type level = { lv_kind : Expr.soac_kind; lv_extent : int }

type ctx = {
  mutable buffers : Ir.buffer list; (* reversed *)
  mutable blocks : Ir.block list;   (* reversed *)
  mutable next_buf : int;
  mutable next_blk : int;
}

let fresh_buffer ctx name dims elem role =
  let id = ctx.next_buf in
  ctx.next_buf <- id + 1;
  ctx.buffers <-
    { Ir.buf_id = id; buf_name = name; buf_dims = dims; buf_elem = elem;
      buf_role = role }
    :: ctx.buffers;
  id

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let peel_list = function
  | Expr.List_ty (n, inner) -> (n, inner)
  | ty -> unsupported "expected a list type, got %s" (Expr.ty_to_string ty)

let rec ty_dims_elem = function
  | Expr.Tensor_ty s -> ([], s)
  | Expr.List_ty (n, inner) ->
      let dims, elem = ty_dims_elem inner in
      (n :: dims, elem)
  | Expr.Tuple_ty _ ->
      unsupported "tuples must be destructured before reaching buffer layout"

let proj_ty ty i =
  match ty with
  | Expr.Tuple_ty ts when i >= 0 && i < List.length ts -> List.nth ts i
  | _ -> unsupported "projection on non-tuple type %s" (Expr.ty_to_string ty)

(* ------------------------------------------------------------------ *)
(* Symbolic evaluation of access expressions                           *)
(* ------------------------------------------------------------------ *)

let head_plan v =
  match v.vw_plan with
  | [] -> (Whole { coeff = 1; offset = 0 }, [])
  | p :: rest -> (p, rest)

let whole_head name v =
  match head_plan v with
  | Whole { coeff; offset }, rest -> (coeff, offset, rest)
  | (Win_outer _ | Win_inner _), _ ->
      unsupported "%s cannot be applied inside a window access" name

let apply_access (a : Expr.access) sym =
  match sym with
  | SView v -> (
      let _, elem = peel_list v.vw_ty in
      let n, _ = peel_list v.vw_ty in
      match a with
      | Expr.Linear { reverse = true; _ } ->
          unsupported "reverse access is not in the compiled fragment"
      | Expr.Linear { shift; reverse = false } ->
          let c, o, rest = whole_head "linear" v in
          SView
            { v with
              vw_plan = Whole { coeff = c; offset = o + (c * shift) } :: rest;
              vw_ty = Expr.List_ty (n - shift, elem) }
      | Expr.Strided { start; step } ->
          let c, o, rest = whole_head "stride" v in
          SView
            { v with
              vw_plan =
                Whole { coeff = c * step; offset = o + (c * start) } :: rest;
              vw_ty = Expr.List_ty (1 + ((n - 1 - start) / step), elem) }
      | Expr.Slice { lo; hi } -> (
          let lo = if lo < 0 then n + lo else lo
          and hi = if hi < 0 then n + hi else hi in
          match head_plan v with
          | Whole { coeff = c; offset = o }, rest ->
              SView
                { v with
                  vw_plan = Whole { coeff = c; offset = o + (c * lo) } :: rest;
                  vw_ty = Expr.List_ty (hi - lo, elem) }
          | Win_outer w, rest ->
              (* slicing the window positions of a slid view *)
              SView
                { v with
                  vw_plan =
                    Win_outer { w with offset = w.offset + (w.stride * lo) }
                    :: rest;
                  vw_ty = Expr.List_ty (hi - lo, elem) }
          | Win_inner _, _ ->
              unsupported "slice cannot be applied within a window element")
      | Expr.Windowed { size; stride; dilation } ->
          let c, o, rest = whole_head "window" v in
          let count = ((n - (((size - 1) * dilation) + 1)) / stride) + 1 in
          SView
            { v with
              vw_plan =
                Win_outer
                  { stride = c * stride; dilation = c * dilation; offset = o }
                :: rest;
              vw_ty = Expr.List_ty (count, Expr.List_ty (size, elem)) }
      | Expr.Shifted_slide { window } ->
          (* Interior positions only are affine; BigBird slices the
             borders away before use, so the unclamped map is exact on
             the consumed region. *)
          let c, o, rest = whole_head "shifted_slide" v in
          SView
            { v with
              vw_plan =
                Win_outer
                  { stride = c; dilation = c;
                    offset = o - (c * (window / 2)) }
                :: rest;
              vw_ty = Expr.List_ty (n, Expr.List_ty (window, elem)) }
      | Expr.Interleave { phases } ->
          let c, o, rest = whole_head "interleave" v in
          SView
            { v with
              vw_plan =
                Win_outer { stride = c; dilation = c * phases; offset = o }
                :: rest;
              vw_ty = Expr.List_ty (phases, Expr.List_ty (n / phases, elem)) }
      | Expr.Indirect _ ->
          unsupported "indirect access is not in the compiled fragment")
  | SState _ | STup _ | SConst _ ->
      unsupported "access operators apply to buffer views only"

let rec iterate_sym j sym =
  match sym with
  | SView v -> (
      let _, inner = peel_list v.vw_ty in
      match (head_plan v, v.vw_remaining) with
      | (Whole { coeff; offset }, rest), dim :: dims ->
          SView
            { v with
              vw_terms = (dim, j, coeff) :: v.vw_terms;
              vw_offs =
                (if offset <> 0 then (dim, offset) :: v.vw_offs else v.vw_offs);
              vw_remaining = dims;
              vw_plan = rest;
              vw_ty = inner }
      | (Win_outer { stride; dilation; offset }, rest), dim :: _ ->
          SView
            { v with
              vw_terms = (dim, j, stride) :: v.vw_terms;
              vw_offs =
                (if offset <> 0 then (dim, offset) :: v.vw_offs else v.vw_offs);
              vw_plan = Win_inner { dilation } :: rest;
              vw_ty = inner }
      | (Win_inner { dilation }, rest), dim :: dims ->
          SView
            { v with
              vw_terms = (dim, j, dilation) :: v.vw_terms;
              vw_remaining = dims;
              vw_plan = rest;
              vw_ty = inner }
      | _, [] -> unsupported "iterating a fully-consumed view")
  | SState st ->
      let _, inner = peel_list st.st_ty in
      SState { st with st_trail = st.st_trail @ [ T_iter j ]; st_ty = inner }
  | STup syms -> STup (List.map (iterate_sym j) syms)
  | SConst _ -> unsupported "iterating a literal"

let index_sym sym i =
  match sym with
  | SView v -> (
      let n, inner = peel_list v.vw_ty in
      let i = if i < 0 then n + i else i in
      match (head_plan v, v.vw_remaining) with
      | (Whole { coeff; offset }, rest), dim :: dims ->
          SView
            { v with
              vw_offs = (dim, (coeff * i) + offset) :: v.vw_offs;
              vw_remaining = dims;
              vw_plan = rest;
              vw_ty = inner }
      | (Win_inner { dilation }, rest), dim :: dims ->
          (* picking one member of a window: a constant offset on the
             same buffer dimension the window outer index drives *)
          SView
            { v with
              vw_offs = (dim, dilation * i) :: v.vw_offs;
              vw_remaining = dims;
              vw_plan = rest;
              vw_ty = inner }
      | (Win_outer _, _), _ ->
          unsupported "indexing window positions is not supported"
      | ((Whole _ | Win_inner _), _), [] ->
          unsupported "indexing a fully-consumed view")
  | SState st ->
      let n, inner = peel_list st.st_ty in
      let i = if i < 0 then n + i else i in
      SState { st with st_trail = st.st_trail @ [ T_index i ]; st_ty = inner }
  | STup _ | SConst _ -> unsupported "indexing a tuple or literal"

let proj_sym sym i =
  match sym with
  | STup syms ->
      if i < 0 || i >= List.length syms then unsupported "projection out of range";
      List.nth syms i
  | SState st ->
      SState
        { st with
          st_trail = st.st_trail @ [ T_proj i ];
          st_ty = proj_ty st.st_ty i }
  | SView _ | SConst _ -> unsupported "projection on a non-tuple value"

let rec eval_sym env tyenv (e : Expr.t) : sym =
  match e with
  | Expr.Var v -> (
      match List.assoc_opt v env with
      | Some s -> s
      | None -> unsupported "unbound symbolic variable %s" v)
  | Expr.Lit t -> SConst t
  | Expr.Tuple es -> STup (List.map (eval_sym env tyenv) es)
  | Expr.Proj (e, i) -> proj_sym (eval_sym env tyenv e) i
  | Expr.Zip es -> STup (List.map (eval_sym env tyenv) es)
  | Expr.Access (a, e) -> apply_access a (eval_sym env tyenv e)
  | Expr.Index (e, is) ->
      List.fold_left index_sym (eval_sym env tyenv e) is
  | Expr.Prim _ | Expr.Soac _ | Expr.Let _ ->
      unsupported
        "computed values must be let-bound before being used as operator input"

(* ------------------------------------------------------------------ *)
(* Edges                                                               *)
(* ------------------------------------------------------------------ *)

(* A view's access map: one row per buffer dimension that is bound by a
   term or fixed by an offset; rows are in buffer-dimension order. *)
let view_access_map d v =
  let used =
    List.sort_uniq compare
      (List.map (fun (bd, _, _) -> bd) v.vw_terms
      @ List.map fst v.vw_offs)
  in
  let m = List.length used in
  let matrix = Array.make_matrix m d 0 in
  let offset = Array.make m 0 in
  List.iteri
    (fun row bd ->
      List.iter
        (fun (bd', blk, coeff) ->
          if bd' = bd then matrix.(row).(blk) <- matrix.(row).(blk) + coeff)
        v.vw_terms;
      List.iter
        (fun (bd', o) -> if bd' = bd then offset.(row) <- offset.(row) + o)
        v.vw_offs)
    used;
  Access_map.make ~in_dim:d matrix offset

let edge_of_view d dir label v =
  { Ir.e_buffer = v.vw_buffer; e_dir = dir; e_access = view_access_map d v;
    e_label = label }

(* ------------------------------------------------------------------ *)
(* State resolution                                                    *)
(* ------------------------------------------------------------------ *)

(* In a "rest" region, the state of the aggregate at [st_level] is the
   nest's own result buffer read at offset -1 along that level (+1 for
   a right-directional aggregate); the trail then binds the inner
   dimensions. *)
let resolve_state_rest ~level_kinds out_bufs nlevels st =
  let step =
    if Expr.is_r_directional (List.nth level_kinds st.st_level) then 1 else -1
  in
  let base component =
    {
      vw_buffer = out_bufs.(component);
      vw_terms =
        List.init (st.st_level + 1) (fun k -> (k, k, 1));
      vw_offs = [ (st.st_level, step) ];
      vw_remaining = List.init (nlevels - st.st_level - 1) (fun k -> st.st_level + 1 + k);
      vw_plan = [];
      vw_ty = st.st_ty (* only structure matters during replay *);
    }
  in
  let rec replay sym trail =
    match trail with
    | [] -> sym
    | T_iter j :: rest -> replay (iterate_sym_raw j sym) rest
    | T_index i :: rest -> replay (index_raw i sym) rest
    | T_proj c :: rest -> (
        match sym with
        | SView v -> replay (SView v) rest |> select_component c
        | STup syms -> replay (List.nth syms c) rest
        | _ -> unsupported "projection while resolving state")
  (* Raw versions that do not consult types (the trail was type-checked
     when recorded). *)
  and iterate_sym_raw j sym =
    match sym with
    | SView v -> (
        match v.vw_remaining with
        | dim :: dims ->
            SView
              { v with
                vw_terms = (dim, j, 1) :: v.vw_terms;
                vw_remaining = dims }
        | [] -> unsupported "state trail overruns buffer rank")
    | STup syms -> STup (List.map (iterate_sym_raw j) syms)
    | _ -> unsupported "state trail iteration on non-view"
  and index_raw i sym =
    match sym with
    | SView v -> (
        match v.vw_remaining with
        | dim :: dims ->
            SView { v with vw_offs = (dim, i) :: v.vw_offs; vw_remaining = dims }
        | [] -> unsupported "state trail overruns buffer rank")
    | STup syms -> STup (List.map (index_raw i) syms)
    | _ -> unsupported "state trail index on non-view"
  and select_component c sym =
    match sym with
    | SView v -> SView { v with vw_buffer = out_bufs.(c) }
    | STup syms -> List.nth syms c
    | _ -> sym
  in
  (* If the state type is a tuple that is never projected, reading it
     means reading every component buffer. *)
  let start =
    match st.st_ty with
    | _ when Array.length out_bufs = 1 -> base 0
    | _ -> base 0
  in
  let projected = List.exists (function T_proj _ -> true | _ -> false) st.st_trail in
  if (not projected) && Array.length out_bufs > 1 then
    STup
      (List.init (Array.length out_bufs) (fun c ->
           replay (SView (base c)) st.st_trail))
  else replay (SView start) st.st_trail

(* In a "first" region the state is the seed; replay the trail on it
   with the full typed operations. *)
let resolve_state_first st =
  let rec replay sym = function
    | [] -> sym
    | T_iter j :: rest -> replay (iterate_sym j sym) rest
    | T_index i :: rest -> replay (index_sym sym i) rest
    | T_proj c :: rest -> replay (proj_sym sym c) rest
  in
  replay st.st_init st.st_trail

(* Collect read edges (and literal resolutions) from a resolved
   symbol.  [acc] is an (edges, consts) pair. *)
let rec sym_reads ~level_kinds d region_of_level out_bufs nlevels label sym
    ((edges, consts) as acc) =
  match sym with
  | SConst t -> (edges, (label, t) :: consts)
  | STup syms ->
      List.fold_left
        (fun acc s ->
          sym_reads ~level_kinds d region_of_level out_bufs nlevels label s acc)
        acc syms
  | SView v -> (edge_of_view d Ir.Read label v :: edges, consts)
  | SState st ->
      let resolved =
        if region_of_level st.st_level then
          resolve_state_rest ~level_kinds out_bufs nlevels st
        else resolve_state_first st
      in
      sym_reads ~level_kinds d region_of_level out_bufs nlevels label resolved acc

(* ------------------------------------------------------------------ *)
(* Operation-node collection                                           *)
(* ------------------------------------------------------------------ *)

(* [sites] maps each pure read-site expression to its unique label;
   operands of operation nodes reference those labels so that the
   lowering pass and the functional executor can find the edge (or
   literal) each operand comes from. *)
let collect_ops tyenv sites body =
  let acc = ref [] in
  let rec go tyenv locals e : Ir.operand =
    match e with
    | Expr.Prim (p, es) ->
        let operands = List.map (go tyenv locals) es in
        let shapes =
          List.map
            (fun e ->
              match Typecheck.infer tyenv e with
              | Expr.Tensor_ty s -> s
              | ty ->
                  unsupported "operation on non-tensor %s"
                    (Expr.ty_to_string ty))
            es
        in
        acc :=
          { Ir.op = p; operands; operand_shapes = shapes;
            result_shape = Typecheck.prim_result_shape p shapes }
          :: !acc;
        Ir.O_op (List.length !acc - 1)
    | Expr.Let (x, e1, e2) ->
        let o1 = go tyenv locals e1 in
        go ((x, Typecheck.infer tyenv e1) :: tyenv) ((x, o1) :: locals) e2
    | Expr.Lit t -> Ir.O_const t
    | (Expr.Var _ | Expr.Proj _ | Expr.Access _ | Expr.Index _ | Expr.Tuple _
      | Expr.Zip _) as site -> (
        match site with
        | Expr.Var v when List.mem_assoc v locals -> List.assoc v locals
        | _ -> (
            match List.assoc_opt site sites with
            | Some tag -> Ir.O_var tag
            | None -> (
                (* a non-site wrapper (e.g. a tuple of locals): descend *)
                match site with
                | Expr.Proj (e, _) | Expr.Access (_, e) | Expr.Index (e, _) ->
                    go tyenv locals e
                | Expr.Tuple es | Expr.Zip es ->
                    List.iter (fun e -> ignore (go tyenv locals e)) es;
                    Ir.O_const (Tensor.scalar 0.0)
                | Expr.Var v -> Ir.O_var v
                | _ -> assert false)))
    | Expr.Soac _ ->
        unsupported "array operators inside a math function must be let-bound"
  in
  let rec top tyenv locals e =
    match e with
    | Expr.Let (x, e1, e2) ->
        let o1 = go tyenv locals e1 in
        top ((x, Typecheck.infer tyenv e1) :: tyenv) ((x, o1) :: locals) e2
    | Expr.Tuple es -> List.map (go tyenv locals) es
    | e -> [ go tyenv locals e ]
  in
  let results = top tyenv [] body in
  (List.rev !acc, results)

(* ------------------------------------------------------------------ *)
(* Structure predicates                                                *)
(* ------------------------------------------------------------------ *)

let rec contains_soac = function
  | Expr.Soac _ -> true
  | Expr.Var _ | Expr.Lit _ -> false
  | Expr.Tuple es | Expr.Zip es -> List.exists contains_soac es
  | Expr.Prim (_, es) -> List.exists contains_soac es
  | Expr.Proj (e, _) | Expr.Access (_, e) | Expr.Index (e, _) -> contains_soac e
  | Expr.Let (_, e1, e2) -> contains_soac e1 || contains_soac e2

let rec contains_prim = function
  | Expr.Prim _ -> true
  | Expr.Var _ | Expr.Lit _ | Expr.Soac _ -> false
  | Expr.Tuple es | Expr.Zip es -> List.exists contains_prim es
  | Expr.Proj (e, _) | Expr.Access (_, e) | Expr.Index (e, _) -> contains_prim e
  | Expr.Let (_, e1, e2) -> contains_prim e1 || contains_prim e2

(* ------------------------------------------------------------------ *)
(* The main walk                                                       *)
(* ------------------------------------------------------------------ *)

let bind_elem env tyenv params elem_sym elem_ty =
  match (params, elem_ty) with
  | [ p ], _ -> ((p, elem_sym) :: env, (p, elem_ty) :: tyenv)
  | ps, Expr.Tuple_ty ts when List.length ps = List.length ts ->
      let env =
        List.mapi (fun i p -> (p, proj_sym elem_sym i)) ps @ env
      in
      let tyenv = List.combine ps ts @ tyenv in
      (env, tyenv)
  | _ ->
      unsupported "lambda arity does not match the element structure"

(* The "first" iteration of a left-directional aggregate is index 0 and
   the remaining iterations are [1, e); a right-directional aggregate
   (foldr/scanr) starts at the last index, so first = {e-1} and
   rest = [0, e-1). *)
let region_domain levels mask agg_levels =
  let n = List.length levels in
  let lo = Array.make n 0 and hi = Array.make n 0 in
  List.iteri
    (fun j lv ->
      match List.assoc_opt j agg_levels with
      | None ->
          lo.(j) <- 0;
          hi.(j) <- lv.lv_extent
      | Some bit ->
          let rest = mask land (1 lsl bit) <> 0 in
          let rdir = Expr.is_r_directional lv.lv_kind in
          if rest then begin
            lo.(j) <- (if rdir then 0 else 1);
            hi.(j) <- (if rdir then lv.lv_extent - 1 else lv.lv_extent)
          end
          else begin
            lo.(j) <- (if rdir then lv.lv_extent - 1 else 0);
            hi.(j) <- (if rdir then lv.lv_extent else 1)
          end)
    levels;
  if Array.exists2 (fun a b -> a >= b) lo hi then None
  else Some (Domain.rect ~lo ~hi)

let rec walk ctx env tyenv (levels : level list) ~name ~role (e : Expr.t) :
    int array * level list =
  match e with
  | Expr.Soac s ->
      let xs_ty = Typecheck.infer tyenv s.xs in
      let extent, elem_ty = peel_list xs_ty in
      let xs_sym = eval_sym env tyenv s.xs in
      let j = List.length levels in
      let elem_sym = iterate_sym j xs_sym in
      let levels' = levels @ [ { lv_kind = s.kind; lv_extent = extent } ] in
      let env', tyenv' =
        if s.kind = Expr.Map then bind_elem env tyenv s.fn.params elem_sym elem_ty
        else begin
          let init_expr =
            match s.init with
            | Some e -> e
            | None ->
                unsupported "aggregate operators need an explicit seed in the \
                             compiled fragment"
          in
          let init_sym = eval_sym env tyenv init_expr in
          let state_ty = Typecheck.infer tyenv init_expr in
          match s.fn.params with
          | [] -> unsupported "aggregate lambda needs a state parameter"
          | sp :: elem_params ->
              let st =
                SState
                  { st_level = j; st_init = init_sym; st_trail = [];
                    st_ty = state_ty }
              in
              let env = (sp, st) :: env and tyenv = (sp, state_ty) :: tyenv in
              if elem_params = [] then (env, tyenv)
              else bind_elem env tyenv elem_params elem_sym elem_ty
        end
      in
      walk ctx env' tyenv' levels' ~name ~role s.fn.body
  | Expr.Let (x, e1, e2) when contains_soac e1 ->
      let bufs, sub_levels =
        walk ctx env tyenv levels ~name:x ~role:Ir.Intermediate e1
      in
      let x_ty = Typecheck.infer tyenv e1 in
      let prefix = List.length levels in
      let own = List.filteri (fun i _ -> i >= prefix) sub_levels in
      let make_view b =
        let terms = List.init prefix (fun k -> (k, k, 1)) in
        let offs = ref [] and remaining = ref [] in
        List.iteri
          (fun i lv ->
            let dim = prefix + i in
            match lv.lv_kind with
            | Expr.Map | Expr.Scanl | Expr.Scanr ->
                remaining := dim :: !remaining
            | Expr.Foldl | Expr.Reduce ->
                (* the semantic result of a fold is its accumulator's
                   final instance *)
                offs := (dim, lv.lv_extent - 1) :: !offs
            | Expr.Foldr ->
                (* a right fold finishes at storage index 0 *)
                offs := (dim, 0) :: !offs)
          own;
        {
          vw_buffer = b;
          vw_terms = terms;
          vw_offs = !offs;
          vw_remaining = List.rev !remaining;
          vw_plan = [];
          vw_ty = x_ty;
        }
      in
      let x_sym =
        match (Array.to_list bufs, x_ty) with
        | [ b ], _ -> SView (make_view b)
        | bs, _ -> STup (List.map (fun b -> SView (make_view b)) bs)
      in
      walk ctx ((x, x_sym) :: env) ((x, x_ty) :: tyenv) levels ~name ~role e2
  | Expr.Let (x, e1, e2) when not (contains_prim e1) ->
      (* access-only binding: purely symbolic, no block node *)
      let x_sym = eval_sym env tyenv e1 in
      let x_ty = Typecheck.infer tyenv e1 in
      walk ctx ((x, x_sym) :: env) ((x, x_ty) :: tyenv) levels ~name ~role e2
  | body -> emit_regions ctx env tyenv levels ~name ~role body

and emit_regions ctx env tyenv levels ~name ~role body =
  let d = List.length levels in
  if d = 0 then unsupported "program body must contain at least one operator";
  let result_ty = Typecheck.infer tyenv body in
  let elem_shapes =
    match result_ty with
    | Expr.Tensor_ty s -> [| s |]
    | Expr.Tuple_ty ts ->
        Array.of_list
          (List.map
             (function
               | Expr.Tensor_ty s -> s
               | ty ->
                   unsupported "math function component is not a tensor: %s"
                     (Expr.ty_to_string ty))
             ts)
    | Expr.List_ty _ ->
        unsupported "math function result must be a tensor or tensor tuple"
  in
  let dims = Array.of_list (List.map (fun lv -> lv.lv_extent) levels) in
  let out_bufs =
    Array.mapi
      (fun i s ->
        let bname =
          if Array.length elem_shapes = 1 then name
          else Printf.sprintf "%s.%d" name i
        in
        fresh_buffer ctx bname dims s role)
      elem_shapes
  in
  let agg_levels =
    List.filteri (fun _ _ -> true) levels
    |> List.mapi (fun j lv -> (j, lv))
    |> List.filter (fun (_, lv) -> Expr.is_aggregate lv.lv_kind)
    |> List.mapi (fun bit (j, _) -> (j, bit))
  in
  let nregions = 1 lsl List.length agg_levels in
  (* Read sites: maximal pure access chains (Var/Index/Access/Proj)
     over environment-bound values, so that e.g. [ws[k]] reads one
     element and not the whole buffer.  Each distinct site gets a
     unique label shared by its edges and the operands referencing it. *)
  let read_sites =
    let acc = ref [] in
    let rec pure = function
      | Expr.Var v -> Some v
      | Expr.Index (e, _) | Expr.Access (_, e) | Expr.Proj (e, _) -> pure e
      | Expr.Lit _ | Expr.Tuple _ | Expr.Zip _ | Expr.Prim _ | Expr.Soac _
      | Expr.Let _ ->
          None
    in
    let rec gather locals e =
      match pure e with
      | Some v when (not (List.mem v locals)) && List.mem_assoc v env ->
          if not (List.exists (fun (_, e') -> e' = e) !acc) then
            acc := (v, e) :: !acc
      | _ -> (
          match e with
          | Expr.Var _ | Expr.Lit _ -> ()
          | Expr.Tuple es | Expr.Zip es -> List.iter (gather locals) es
          | Expr.Prim (_, es) -> List.iter (gather locals) es
          | Expr.Index (e, _) | Expr.Access (_, e) | Expr.Proj (e, _) ->
              gather locals e
          | Expr.Let (x, e1, e2) ->
              gather locals e1;
              gather (x :: locals) e2
          | Expr.Soac _ ->
              unsupported
                "array operators inside a math function must be let-bound")
    in
    gather [] body;
    List.rev !acc
  in
  let site_tags =
    (* the first site of a variable keeps the bare name; later distinct
       sites get a #k suffix *)
    let counts = Hashtbl.create 8 in
    List.map
      (fun (v, e) ->
        let k = try Hashtbl.find counts v with Not_found -> 0 in
        Hashtbl.replace counts v (k + 1);
        let tag = if k = 0 then v else Printf.sprintf "%s#%d" v k in
        (e, tag))
      read_sites
  in
  let ops, results = collect_ops tyenv site_tags body in
  for mask = 0 to nregions - 1 do
    match region_domain levels mask agg_levels with
    | None -> ()
    | Some domain ->
        let region_of_level j =
          match List.assoc_opt j agg_levels with
          | Some bit -> mask land (1 lsl bit) <> 0
          | None -> false
        in
        let level_kinds = List.map (fun lv -> lv.lv_kind) levels in
        let reads, consts =
          List.fold_left
            (fun acc (site, tag) ->
              let sym = eval_sym env tyenv site in
              sym_reads ~level_kinds d region_of_level out_bufs d tag sym acc)
            ([], []) site_tags
        in
        let reads =
          (* Deduplicate identical edges — but only within a label:
             zip(xs, xs) binds two lambda parameters to the same
             (buffer, access) pair, and each needs its own labelled
             edge for the operand lookup to resolve. *)
          List.fold_left
            (fun acc e ->
              if
                List.exists
                  (fun e' ->
                    e'.Ir.e_buffer = e.Ir.e_buffer
                    && e'.Ir.e_label = e.Ir.e_label
                    && Access_map.equal e'.Ir.e_access e.Ir.e_access)
                  acc
              then acc
              else e :: acc)
            [] reads
          |> List.rev
        in
        let writes =
          Array.to_list
            (Array.map
               (fun b ->
                 { Ir.e_buffer = b; e_dir = Ir.Write;
                   e_access = Access_map.identity d; e_label = name })
               out_bufs)
        in
        let blk_id = ctx.next_blk in
        ctx.next_blk <- blk_id + 1;
        let block =
          {
            Ir.blk_id;
            blk_name = Printf.sprintf "%s.region%d" name mask;
            blk_ops = Array.of_list (List.map (fun lv -> lv.lv_kind) levels);
            blk_domain = domain;
            blk_edges = reads @ writes;
            blk_children = [];
            blk_body = ops;
            blk_results = results;
            blk_consts = consts;
          }
        in
        ctx.blocks <- block :: ctx.blocks
  done;
  (out_bufs, levels)

let build (p : Expr.program) : Ir.graph =
  let ctx = { buffers = []; blocks = []; next_buf = 0; next_blk = 0 } in
  let env, tyenv =
    List.fold_left
      (fun (env, tyenv) (name, ty) ->
        let dims, elem = ty_dims_elem ty in
        let id =
          fresh_buffer ctx name (Array.of_list dims) elem Ir.Input
        in
        let view =
          {
            vw_buffer = id;
            vw_terms = [];
            vw_offs = [];
            vw_remaining = List.init (List.length dims) Fun.id;
            vw_plan = [];
            vw_ty = ty;
          }
        in
        ((name, SView view) :: env, (name, ty) :: tyenv))
      ([], []) p.inputs
  in
  let body =
    match p.body with
    | Expr.Proj (e, _) -> e (* output component selection: keep all *)
    | e -> e
  in
  let _bufs, _levels = walk ctx env tyenv [] ~name:p.name ~role:Ir.Output body in
  { Ir.g_name = p.name; g_buffers = List.rev ctx.buffers;
    g_blocks = List.rev ctx.blocks }

(* Observability: time the pass into any installed trace sink.  The
   span name is Pipeline's stage vocabulary. *)
let build p = Trace.timed ~cat:"pass" "build" (fun () -> build p)
