(* A servable: a whole-sequence program recast as a step program over a
   shared batch dimension.  A left scan or fold is a (state, token) ->
   state step; [derive] peels it off the program (servable.mli states
   the accepted shapes) and lays it out over width [W] in one of two
   ways.  Widened: every per-request [1,C] leaf becomes row [i] of a
   [W,C] tensor, legal when [row_check] admits the cell (output row [i]
   depends on input row [i] alone).  Per slot: the cell maps over [W]
   lists of each request's own leaves, always legal.  Either way a
   batched run is bitwise the solo run of every slot, and pad slots
   never perturb live ones.  Widened, each width keeps its inputs and
   per-slot states, so a tick only blits rows into them, and out of
   the executor's borrowed outputs. *)

let shape l = Shape.of_array (Array.of_list l)

type t = {
  sv_name : string;
  sv_seq_len : int;
  sv_shared : (string * Fractal.t) list;
  sv_new_request : Rng.t -> len:int -> Fractal.t * Fractal.t array;
  sv_pad : Fractal.t * Fractal.t;
  sv_step : int -> Expr.program;
  sv_env :
    width:int -> (Fractal.t * Fractal.t) array -> (string * Fractal.t) list;
  sv_demux : width:int -> (string * Fractal.t) list -> Fractal.t array;
  sv_reserve : width:int -> unit;
  sv_finish : Fractal.t -> Fractal.t;
}

(* Row [src_row] of [src] into row [dst_row] of [dst], both [_, cols]:
   a plain loop over the bigarray buffers that allocates nothing.  (A
   sub-array view of the row is a custom block per call, and those pace
   the major GC so much slower that peak RSS doubled on the served
   stacked RNN; scripts/check.sh rejects one in lib/serve.) *)
let blit_row ~cols src src_row dst dst_row =
  let s = Tensor.buffer src and d = Tensor.buffer dst in
  let so = src_row * cols and o = dst_row * cols in
  for j = 0 to cols - 1 do
    d.{o + j} <- s.{so + j}
  done

(* Above the measured peak of live widths (see DESIGN.md, "Caches"). *)
let width_limit = 16

(* [make width] once per width, behind a [Bounded_cache]; the width of
   the last call answers without a lookup, so a tick at a steady width
   allocates nothing. *)
let per_width make =
  let cache = Bounded_cache.create ~limit:width_limit and last = ref None in
  fun width ->
    match !last with
    | Some (w, b) when w = width -> b
    | _ ->
        let b = Bounded_cache.find_or_add cache width (fun () -> make width) in
        last := Some (width, b);
        b

(* A widened step's buffers at one width: the [W,C] inputs (state part
   [k], layer [d]; token part [k]), the executor env wrapping them, the
   output carrying each state part, and per slot [i] its new state over
   one [1,C] row per part and layer. *)
type tick_buffers = {
  tb_st : Tensor.t array array;
  tb_tok : Tensor.t array;
  tb_env : (string * Fractal.t) list;
  tb_out : string array;
  tb_rows : Tensor.t array array array;
  tb_states : Fractal.t array;
}

(* A state or a token is one leaf, or a flat tuple of leaves. *)
let part ~tuple v k = if tuple then Fractal.get v k else v
let assemble ~tuple n leaf = if tuple then Fractal.Node (Array.init n leaf) else leaf 0

(* ------------------------- the derivation ------------------------- *)

exception Reject of string

let reject fmt = Printf.ksprintf (fun s -> raise (Reject s)) fmt
let show e = Format.asprintf "%a" Expr.pp e
let comps = function Expr.Zip es -> es | e -> [ e ]

let one_row what = function
  | Expr.Tensor_ty s when Shape.rank s = 2 && Shape.dim s 0 = 1 -> ()
  | ty ->
      reject "%s is %s; widening needs per-request [1,C] leaves" what
        (Expr.ty_to_string ty)

let rec names_in (e : Expr.t) acc =
  match e with
  | Var v -> v :: acc
  | Lit _ -> acc
  | Tuple es | Zip es | Prim (_, es) -> List.fold_right names_in es acc
  | Proj (e, _) | Access (_, e) | Index (e, _) -> names_in e acc
  | Let (x, e1, e2) -> x :: names_in e1 (names_in e2 acc)
  | Soac { fn; init; xs; _ } ->
      let acc = Option.fold ~none:acc ~some:(fun i -> names_in i acc) init in
      fn.params @ names_in fn.body (names_in xs acc)

let proj (e : Expr.t) k =
  match e with Tuple es -> List.nth es k | e -> Proj (e, k)

(* Capture-free: the substituted expressions name only step names,
   which are fresh for everything the program binds; a binder of the
   substituted name stops it. *)
let rec subst m (e : Expr.t) : Expr.t =
  let under params = List.filter (fun (v, _) -> not (List.mem v params)) m in
  match e with
  | Var v -> Option.value (List.assoc_opt v m) ~default:e
  | Lit _ -> e
  | Tuple es -> Tuple (List.map (subst m) es)
  | Zip es -> Zip (List.map (subst m) es)
  | Prim (p, es) -> Prim (p, List.map (subst m) es)
  | Proj (e1, k) -> proj (subst m e1) k
  | Access (a, e1) -> Access (a, subst m e1)
  | Index (e1, is) -> Index (subst m e1, is)
  | Let (x, e1, e2) -> Let (x, subst m e1, subst (under [ x ]) e2)
  | Soac s ->
      Soac
        {
          s with
          init = Option.map (subst m) s.init;
          xs = subst m s.xs;
          fn = { s.fn with body = subst (under s.fn.params) s.fn.body };
        }

(* Does a value depend on the request?  Per component of a tuple. *)
type cls = Shared | Row | Tup of cls list

let rec row_cls : Expr.ty -> cls = function
  | Tuple_ty ts -> Tup (List.map row_cls ts)
  | _ -> Row

(* The row-independence check: every per-request value is one [1,C] row
   per request, and each operation on one computes output row [i] from
   input row [i] alone, with shared operands that do not change with the
   width: elementwise ops (a shared operand has the row's own shape or
   is a scalar, so it broadcasts by row), [Matmul] / [Matmul_t] with a
   shared right-hand side, and the row-wise [Row_*], [Softmax], [Cols]
   and [Concat_cols]. *)
let rec row_check tenv cenv (e : Expr.t) : cls =
  let check = row_check tenv cenv in
  match e with
  | Var v -> (
      match List.assoc_opt v cenv with
      | Some c -> c
      | None -> reject "the cell reads %s, which carries requests" v)
  | Lit _ -> Shared
  | Tuple es -> Tup (List.map check es)
  | Proj (e1, k) -> ( match check e1 with Tup cs -> List.nth cs k | c -> c)
  | Let (x, e1, e2) ->
      row_check ((x, Typecheck.infer tenv e1) :: tenv) ((x, check e1) :: cenv) e2
  | Index (e1, _) when check e1 = Shared -> Shared
  | Index _ -> reject "the cell indexes a per-request value"
  | Prim (p, args) -> (
      let cs = List.map check args in
      let ty e = Typecheck.infer tenv e in
      let elementwise = List.mem p [ Add; Sub; Mul; Div; Maximum ] in
      match (p, cs, args) with
      | _ when List.for_all (( = ) Shared) cs -> Shared
      | _, [ Row; Row ], _ when elementwise -> Row
      | _, [ Row; Shared ], [ r; s ] | _, [ Shared; Row ], [ s; r ]
        when elementwise && (ty s = ty r || ty s = Tensor_ty (Shape.of_array [||])) ->
          Row
      | ( ( Tanh | Sigmoid | Exp | Neg | Relu | Scale _ | Softmax | Row_max
          | Row_sum | Cols _ ),
          [ Row ],
          _ )
      | (Matmul | Matmul_t), [ Row; Shared ], _ ->
          one_row (Expr.prim_name p) (ty e);
          Row
      | Concat_cols, cs, _ when List.for_all (( = ) Row) cs -> Row
      | _ -> reject "%s is not row-independent on these operands" (Expr.prim_name p))
  | Soac _ | Access _ | Zip _ ->
      reject "the cell holds a sequence operation; only tensor math widens row by row"

(* Shared inputs follow one fixed-seed rule: a single stream, each leaf
   uniform in [-1,1] scaled by 0.5 over its row count. *)
let shared_values shared =
  let rng = Rng.create 20240901 in
  let rec value : Expr.ty -> Fractal.t = function
    | Tensor_ty s ->
        let rows = if Shape.rank s = 0 then 1 else Shape.dim s 0 in
        Leaf (Tensor.scale (0.5 /. float_of_int rows) (Tensor.rand rng s))
    | List_ty (n, t) -> Fractal.tabulate n (fun _ -> value t)
    | Tuple_ty ts -> Node (Array.of_list (List.map value ts))
  in
  List.map (fun (v, ty) -> (v, value ty)) shared

(* The first batch row of [p]'s output under the reference interpreter.
   The interpreter takes every extent from the input values, so this is
   [p] declared at the extents of [inputs]. *)
let source_row p inputs = Fractal.get (Interp.run_program p inputs) 0

(* A derived program: its servable, the reference response to a
   request's tokens, and the tokens of its batch rows. *)
type derived = {
  sv : t;
  reference : Fractal.t array -> Fractal.t;
  rows : (string * Fractal.t) list -> Fractal.t array array;
}

let step_name (p : Expr.program) width = Printf.sprintf "%s.step%d" p.name width

let derive (p : Expr.program) =
  let open Expr in
  let x, params, agg =
    match p.body with
    | Soac { kind = Map; xs; fn; _ } -> (xs, fn.params, fn.body)
    | _ -> reject "the body is not a map over requests, X.map { |..| AGG }"
  in
  let rows =
    List.map
      (function
        | Var v when List.mem_assoc v p.inputs -> v
        | e -> reject "the request map runs over %s, not inputs" (show e))
      (comps x)
  in
  if List.length rows <> List.length params then
    reject "the request map must bind one parameter per input it zips";
  (* AGG = let x = FOLD in FINISH: FINISH turns the final state into
     the response *)
  let agg, finish =
    match agg with Let (v, (Soac _ as fold), fin) -> (fold, Some (v, fin)) | e -> (e, None)
  in
  let scan_kind = function
    | Scanl -> true
    | Foldl | Reduce -> false
    | k -> reject "AGG is a %s, not a left scan or fold" (soac_kind_name k)
  in
  (* S2 first: its inner scan runs over the outer state, and [D] reads
     no map parameter *)
  let layered, scan, seq, seed, st, tps, cell =
    match agg with
    | Soac
        { kind; init = Some seq; xs = d;
          fn = { params = ss :: dps;
                 body = Soac { kind = Scanl; init = Some seed; xs = Var ss';
                               fn = { params = st :: tps; body } } } }
      when ss = ss' && not (List.exists (fun v -> List.mem v params) (free_vars d)) ->
        (Some (d, dps), scan_kind kind, seq, seed, st, tps, body)
    | Soac { kind; init = Some seed; xs; fn = { params = st :: tps; body } } ->
        (None, scan_kind kind, xs, seed, st, tps, body)
    | Soac { kind; _ } -> reject "AGG is a %s, not a seeded left scan or fold" (soac_kind_name kind)
    | e -> reject "AGG is %s, not a seeded left scan or fold" (show e)
  in
  if finish <> None && (scan || layered <> None) then
    reject "only a one-level fold takes a FINISH, let x = FOLD in FINISH";
  (* token data: one component per distinct variable the sequence zips;
     a map parameter is the request's own stream, and an input is owned
     by each request when served *)
  let is_stream v = List.mem v params || (List.mem_assoc v p.inputs && not (List.mem v rows)) in
  let seq_vars =
    List.map
      (function
        | Var v when is_stream v -> v
        | e -> reject "the sequence reads %s; it must zip map parameters and inputs" (show e))
      (comps seq)
  in
  let sources =
    List.fold_left (fun acc v -> if List.mem v acc then acc else acc @ [ v ]) [] seq_vars
  in
  (* a map parameter the cell reads but the sequence does not zip is a
     per-request constant, carried in every token after the streams *)
  let d_params = Option.fold ~none:[] ~some:snd layered in
  let cell_reads =
    List.filter (fun v -> not (List.mem v ((st :: tps) @ d_params))) (free_vars cell)
  in
  let consts = List.filter (fun v -> List.mem v cell_reads && not (List.mem v sources)) params in
  List.iter
    (fun v ->
      if not (List.mem v sources || List.mem v consts) then
        reject "map parameter %s is neither in the sequence nor read by the cell" v)
    params;
  let tok_names = sources @ consts in
  let param v = List.find_index (String.equal v) params in
  let index v = Option.get (List.find_index (String.equal v) tok_names) in
  let elem what = function List_ty (n, t) -> (n, t) | _ -> reject "%s is not a list" what in
  let env =
    List.map2 (fun v r -> (v, snd (elem r (List.assoc r p.inputs)))) params rows @ p.inputs
  in
  let seq_len, elem_ty = elem "the sequence" (Typecheck.infer env seq) in
  let leaf what = function
    | Tensor_ty s -> s
    | ty -> reject "%s is %s; a request carries tensor leaves" what (ty_to_string ty)
  in
  let tok_ty v = if List.mem v consts then List.assoc v env else snd (elem v (List.assoc v env)) in
  let tok_tys = Array.of_list (List.map tok_ty tok_names) in
  let tok_shapes = Array.mapi (fun k ty -> leaf ("token " ^ List.nth tok_names k) ty) tok_tys in
  let tok_tuple = Array.length tok_shapes > 1 in
  let shared = List.filter (fun (v, _) -> not (List.mem v rows || List.mem v sources)) p.inputs in
  let shared_only what reads =
    List.iter
      (fun v ->
        if not (List.mem_assoc v shared) then
          reject "the %s reads %s, which carries requests" what v)
      reads
  in
  shared_only "seed" (free_vars seed);
  shared_only "cell" (List.filter (fun v -> not (List.mem v consts)) cell_reads);
  Option.iter
    (fun (v, fin) -> shared_only "FINISH" (List.filter (( <> ) v) (free_vars fin)))
    finish;
  let st_ty = Typecheck.infer shared seed in
  let st_tuple, st_tys =
    match st_ty with Tuple_ty ts -> (true, Array.of_list ts) | t -> (false, [| t |])
  in
  let st_shapes = Array.map (leaf "a state part") st_tys in
  (* step names, fresh for everything the program binds *)
  let used = List.map fst p.inputs @ names_in p.body [] in
  let rec fresh b = if List.mem b used then fresh (b ^ "'") else b in
  let names base n = Array.init n (fun k -> fresh (Printf.sprintf "%s%d" base k)) in
  let n_tok = Array.length tok_shapes and n_st = Array.length st_shapes in
  let tok_in = names "tok" n_tok and t_par = names "t" n_tok in
  let st_in = names "st" n_st and s_par = names "s" n_st and ss_par = names "ss" n_st in
  let below = fresh "below" in
  let vars names = List.map (fun v -> Var v) (Array.to_list names) in
  let elem_of names =
    match seq with
    | Zip _ -> Tuple (List.map (fun v -> Var names.(index v)) seq_vars)
    | _ -> Var names.(0)
  in
  (* the cell's token parameters: one binds the whole element, k
     destructure it *)
  let tok_binds toks =
    let e = if layered = None then elem_of toks else Var below in
    match (tps, elem_ty) with
    | [], _ -> []
    | [ tp ], ty -> [ (tp, e, ty) ]
    | tps, Tuple_ty ts when List.length ts = List.length tps ->
        List.mapi (fun k tp -> (tp, proj e k, List.nth ts k)) tps
    | _ -> reject "the cell's token parameters do not match the sequence"
  in
  let layers, d_binds, d_comps =
    match layered with
    | None -> (1, [], [])
    | Some (d, dps) ->
        shared_only "layer sequence" (free_vars d);
        if List.length dps <> List.length (comps d) then
          reject "the layer parameters must bind each component of %s" (show d);
        let ls = List.map (fun c -> elem (show c) (Typecheck.infer shared c)) (comps d) in
        (fst (List.hd ls), List.combine dps (List.map snd ls), comps d)
  in
  (* the layout: widened when every per-request leaf is one row and the
     cell is row-independent, else per slot *)
  let widened =
    let binds = tok_binds tok_in in
    let const_tys = List.map (fun c -> (c, tok_tys.(index c))) consts in
    let tenv =
      ((st, st_ty) :: List.map (fun (v, _, ty) -> (v, ty)) binds)
      @ const_tys @ d_binds @ shared
    in
    let cenv =
      ((st, row_cls st_ty) :: List.map (fun (v, _, ty) -> (v, row_cls ty)) binds)
      @ List.map (fun (v, ty) -> (v, row_cls ty)) const_tys
      @ List.map (fun (v, _) -> (v, Shared)) (d_binds @ shared)
    in
    match
      Array.iter (one_row "a per-request leaf") (Array.append tok_tys st_tys);
      row_check tenv cenv cell = row_cls st_ty
    with
    | ok -> ok
    | exception (Reject _ | Typecheck.Type_error _) -> false
  in
  let cols s = Shape.dim s 1 in
  let state = if st_tuple then Tuple (vars s_par) else Var s_par.(0) in
  (* the cell over step names: [toks] names the token components *)
  let body toks =
    subst
      (((st, state) :: List.map (fun (v, e, _) -> (v, e)) (tok_binds toks))
      @ List.map (fun c -> (c, Var toks.(index c))) consts)
      cell
  in
  let step_shared =
    let fv = free_vars (body t_par) @ List.concat_map free_vars d_comps in
    List.filter (fun (v, _) -> List.mem v fv) shared
  in
  let step width =
    let ins names tys wrap = Array.to_list (Array.mapi (fun k v -> (v, wrap tys.(k))) names) in
    let over n ty = List_ty (n, ty) in
    let row s = Tensor_ty (shape [ width; cols s ]) in
    let layer_scan toks sts =
      scanl_e ~init:(elem_of toks)
        ~params:((below :: List.map fst d_binds) @ Array.to_list s_par)
        ~body:(body toks) (Zip (d_comps @ vars sts))
    in
    let inputs, body =
      match (layered, widened) with
      | None, _ ->
          (* widened, the batch block rides as a one-element map (the
             builder wants a collection operator); per slot, the map
             runs over the slots *)
          let lay s = if widened then over 1 (row s) else over width (Tensor_ty s) in
          ( ins st_in st_shapes lay @ ins tok_in tok_shapes lay,
            map_e ~params:(Array.to_list (Array.append s_par t_par)) ~body:(body t_par)
              (Zip (vars st_in @ vars tok_in)) )
      | Some _, true ->
          ( ins tok_in tok_shapes row @ ins st_in st_shapes (fun s -> over layers (row s)),
            layer_scan tok_in st_in )
      | Some _, false ->
          ( ins tok_in tok_shapes (fun s -> over width (Tensor_ty s))
            @ ins st_in st_shapes (fun s -> over width (over layers (Tensor_ty s))),
            map_e
              ~params:(Array.to_list (Array.append t_par ss_par))
              ~body:(layer_scan t_par ss_par)
              (Zip (vars tok_in @ vars st_in)) )
    in
    { name = step_name p width; inputs = inputs @ step_shared; body }
  in
  (match Build.build (step 2) with
  | _ -> ()
  | exception (Build.Unsupported m | Typecheck.Type_error m) ->
      reject "the derived step program does not compile: %s" m);
  (* Generated values.  An S2 request carries one state per layer.  A
     per-request constant is drawn once and carried in every token. *)
  let shared_v = shared_values shared in
  let seed = Interp.eval shared_v seed in
  let stacked = Option.is_some layered in
  let state0 = if stacked then Fractal.tabulate layers (fun _ -> seed) else seed in
  let n_src = List.length sources in
  let tokens gen len =
    let consts = Array.init (n_tok - n_src) (fun k -> Fractal.Leaf (gen tok_shapes.(n_src + k))) in
    Array.init len (fun _ ->
        assemble ~tuple:tok_tuple n_tok (fun k ->
            if k < n_src then Fractal.Leaf (gen tok_shapes.(k)) else consts.(k - n_src)))
  in
  let step_env = List.filter (fun (v, _) -> List.mem_assoc v step_shared) shared_v in
  let tok k (_, tok) = part ~tuple:tok_tuple tok k in
  let st_part k d (st, _) = part ~tuple:st_tuple (if stacked then Fractal.get st d else st) k in
  let per_layer f = if stacked then Fractal.Node (Array.init layers f) else f 0 in
  (* a tick's inputs: state part [k] and token part [k] *)
  let env state token =
    let rec toks k = if k = n_tok then sts 0 else (tok_in.(k), token k) :: toks (k + 1)
    and sts k = if k = n_st then step_env else (st_in.(k), state k) :: sts (k + 1) in
    toks 0
  in
  (* the output carrying state part [k]: a one-component state is the
     only output *)
  let out_names width = Array.init n_st (fun k -> Printf.sprintf "%s.%d" (step_name p width) k) in
  let out names outs k = if st_tuple then List.assoc names.(k) outs else snd (List.hd outs) in
  let sv_env, sv_demux, sv_reserve =
    if widened then
      (* slot [i] is row [i]; every width keeps its buffers, so a tick
         only blits rows: the slots' states and tokens into the inputs,
         the outputs into the slots' rows *)
      let st_cols = Array.map cols st_shapes and tok_cols = Array.map cols tok_shapes in
      let buffers =
        per_width (fun width ->
            let rows n c = Tensor.zeros (shape [ n; c ]) in
            let st = Array.map (fun c -> Array.init layers (fun _ -> rows width c)) st_cols in
            let tok = Array.map (rows width) tok_cols in
            let slot_rows =
              Array.init width (fun _ ->
                  Array.map (fun c -> Array.init layers (fun _ -> rows 1 c)) st_cols)
            in
            let leaf t = Fractal.Leaf t in
            {
              tb_st = st;
              tb_tok = tok;
              tb_env =
                env
                  (fun k -> Fractal.Node (Array.map leaf st.(k)))
                  (fun k -> if stacked then leaf tok.(k) else Fractal.Node [| leaf tok.(k) |]);
              tb_out = out_names width;
              tb_rows = slot_rows;
              tb_states =
                Array.map
                  (fun r ->
                    per_layer (fun d -> assemble ~tuple:st_tuple n_st (fun k -> leaf r.(k).(d))))
                  slot_rows;
            })
      in
      ( (fun ~width rows ->
          if Array.length rows <> width then invalid_arg "Servable.sv_env: one row per slot";
          let b = buffers width in
          for i = 0 to width - 1 do
            let r = rows.(i) in
            for k = 0 to n_st - 1 do
              for d = 0 to layers - 1 do
                blit_row ~cols:st_cols.(k) (Fractal.as_leaf (st_part k d r)) 0 b.tb_st.(k).(d) i
              done
            done;
            for k = 0 to n_tok - 1 do
              blit_row ~cols:tok_cols.(k) (Fractal.as_leaf (tok k r)) 0 b.tb_tok.(k) i
            done
          done;
          b.tb_env),
        (fun ~width outs ->
          let b = buffers width in
          for k = 0 to n_st - 1 do
            let o = out b.tb_out outs k in
            for d = 0 to layers - 1 do
              let src = Fractal.as_leaf (Fractal.get o d) in
              for i = 0 to width - 1 do
                blit_row ~cols:st_cols.(k) src i b.tb_rows.(i).(k).(d) 0
              done
            done
          done;
          b.tb_states),
        fun ~width -> ignore (buffers width) )
    else
      (* per slot: the slots' own leaves in, and out a copy of each
         slot's leaves.  A copy, because the outputs are the
         executor's own cells, which the next run overwrites. *)
      let slots rows f = Fractal.Node (Array.map f rows) in
      ( (fun ~width:_ rows ->
          env
            (fun k -> slots rows (fun r -> per_layer (fun d -> st_part k d r)))
            (fun k -> slots rows (tok k))),
        (fun ~width outs ->
          let names = out_names width in
          let outs = Array.init n_st (out names outs) in
          Array.init width (fun i ->
              per_layer (fun d ->
                  assemble ~tuple:st_tuple n_st (fun k ->
                      let v = Fractal.get outs.(k) i in
                      Fractal.map_leaves Tensor.copy (if stacked then Fractal.get v d else v))))),
        fun ~width:_ -> () )
  in
  (* the response: the source's output at the request's last token *)
  let last len v = Fractal.get v (len - 1) in
  let sv_finish =
    match finish with
    | Some (v, fin) ->
        let env = List.filter (fun (x, _) -> List.mem x (free_vars fin)) shared_v in
        fun st -> Interp.eval ((v, st) :: env) fin
    | None -> if stacked && not scan then last layers else Fun.id
  in
  let sv =
    {
      sv_name = p.name;
      sv_seq_len = seq_len;
      sv_shared = shared_v;
      sv_new_request = (fun rng ~len -> (state0, tokens (Tensor.rand rng) len));
      sv_pad = (state0, (tokens Tensor.zeros 1).(0));
      sv_step = step;
      sv_env;
      sv_demux;
      sv_reserve;
      sv_finish;
    }
  in
  let reference tokens =
    let component t v = part ~tuple:tok_tuple t (index v) in
    let stream v = Fractal.Node (Array.map (fun t -> component t v) tokens) in
    let request v = if List.mem v consts then component tokens.(0) v else stream v in
    let value (v, _) =
      match List.find_index (String.equal v) rows with
      | Some j -> (v, Fractal.Node [| request (List.nth params j) |])
      | None when List.mem v sources -> (v, stream v)
      | None -> (v, List.assoc v shared_v)
    in
    let row = source_row p (List.map value p.inputs) and last = last (Array.length tokens) in
    match (layered, scan) with
    | None, false -> row
    | Some _, true -> Fractal.Node (Array.map last (Fractal.children row))
    | None, true | Some _, false -> last row
  in
  let batch_rows inputs =
    let get v = List.assoc v inputs in
    Array.init (Fractal.length (get (List.hd rows))) (fun i ->
        let value v =
          match param v with Some j -> Fractal.get (get (List.nth rows j)) i | None -> get v
        in
        let vals = Array.of_list (List.map value tok_names) in
        Array.init seq_len (fun t ->
            assemble ~tuple:tok_tuple n_tok (fun k ->
                if k < n_src then Fractal.get vals.(k) t else vals.(k))))
  in
  { sv; reference; rows = batch_rows }

(* ------------------------- entry points --------------------------- *)

let recognize (p : Expr.program) =
  match derive p with
  | d -> Ok d
  | exception e ->
      let m =
        match e with
        | Reject m | Typecheck.Type_error m | Invalid_argument m | Failure m
        | Interp.Runtime_error m ->
            m
        | e -> Printexc.to_string e
      in
      Error (Printf.sprintf "%s: no step program derives: %s" p.name m)

let of_program p = Result.map (fun d -> d.sv) (recognize p)
let recognized p = match recognize p with Ok d -> d | Error m -> invalid_arg ("Servable: " ^ m)
let reference p tokens = (recognized p).reference tokens
let rows p inputs = (recognized p).rows inputs
(* ---------------------------- builtins ---------------------------- *)

(* Serving-sized sources of the four workloads, run through the same
   derivation as any [.ft] file. *)
let builtins =
  [
    ( "stacked_rnn",
      {|program stacked_rnn
input xss: [8][8]f32[1,32]
input ws: [3]f32[32,32]
return xss.map { |xs|
  ws.scanl(xs) { |sbar, w| sbar.scanl(zeros[1,32]) { |s, x| x @ w + s } } }|} );
    ( "stacked_lstm",
      {|program stacked_lstm
input xss: [8][8]f32[1,32]
input css0: [8]f32[1,32]
input wss: [3][4]f32[32,32]
input uss: [3][4]f32[32,32]
input bss: [3][4]f32[1,32]
return xss.map { |xs|
  zip(wss, uss, bss).foldl(zip(css0, xs)) { |ss, ws, us, bs|
    ss.scanl((zeros[1,32], zeros[1,32])) { |ch, cb, hb|
      let gi = hb @ ws[0] + ch.1 @ us[0] + bs[0] in
      let gf = hb @ ws[1] + ch.1 @ us[1] + bs[1] in
      let go = hb @ ws[2] + ch.1 @ us[2] + bs[2] in
      let gc = hb @ ws[3] + ch.1 @ us[3] + bs[3] in
      let c2 = sigmoid(gf) * ch.0 + sigmoid(gi) * tanh(gc) in
      (c2, sigmoid(go) * tanh(c2)) } } }|} );
    ( "attention_block",
      {|program attention_block
input qs: [8]f32[16,32]
input ks: [12]f32[16,32]
input vs: [12]f32[16,32]
return qs.map { |q|
  let acc = zip(ks, vs).reduce((full[16,1](-1e30), zeros[16,1], zeros[16,32])) { |mso, k, v|
    let t1 = q @T k in
    let m2 = max(mso.0, rowmax(t1)) in
    let p = exp(t1 - m2) in
    let a = exp(mso.0 - m2) in
    (m2, a * mso.1 + rowsum(p), a * mso.2 + p @ v) } in
  acc.2 / acc.1 }|} );
    ( "selective_scan",
      {|program selective_scan
input ass: [8][16]f32[1,64]
input bss: [8][16]f32[1,64]
return zip(ass, bss).map { |gs, us|
  zip(gs, us).scanl(zeros[1,64]) { |h, a, b| a * h + b } }|} );
  ]

let builtin_names = List.map fst builtins
let builtin_program name = Option.map Parse.program (List.assoc_opt name builtins)

let builtin name =
  Option.map
    (fun p ->
      match of_program p with Ok sv -> sv | Error m -> invalid_arg ("Servable.builtin: " ^ m))
    (builtin_program name)
