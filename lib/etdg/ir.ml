type role = Input | Intermediate | Output

type buffer = {
  buf_id : int;
  buf_name : string;
  buf_dims : int array;
  buf_elem : Shape.t;
  buf_role : role;
}

type operand =
  | O_var of string
  | O_op of int
  | O_const of Tensor.t

type op_node = {
  op : Expr.prim;
  operands : operand list;
  operand_shapes : Shape.t list;
  result_shape : Shape.t;
}

type dir = Read | Write

type edge = {
  e_buffer : int;
  e_dir : dir;
  e_access : Access_map.t;
  e_label : string;
}

type block = {
  blk_id : int;
  blk_name : string;
  blk_ops : Expr.soac_kind array;
  blk_domain : Domain.t;
  blk_edges : edge list;
  blk_children : block list;
  blk_body : op_node list;
  blk_results : operand list;
  blk_consts : (string * Tensor.t) list;
}

type graph = {
  g_name : string;
  g_buffers : buffer list;
  g_blocks : block list;
}

let buffer g id = List.find (fun b -> b.buf_id = id) g.g_buffers
let block_dim b = Array.length b.blk_ops
let reads b = List.filter (fun e -> e.e_dir = Read) b.blk_edges
let writes b = List.filter (fun e -> e.e_dir = Write) b.blk_edges

(* A read edge is live when an operand or result names its label, no
   literal shadows the label and no later read edge takes it over.
   Blocks have a handful of edges and ops, and the verifier asks per
   block and per analysis: list walks, no table. *)
let live_reads b =
  let names tag = function O_var t -> t = tag | O_op _ | O_const _ -> false in
  let used tag =
    (not (List.mem_assoc tag b.blk_consts))
    && (List.exists (fun o -> List.exists (names tag) o.operands) b.blk_body
       || List.exists (names tag) b.blk_results)
  in
  let rec live = function
    | [] -> []
    | e :: later ->
        let rest = live later in
        if
          e.e_dir = Read && used e.e_label
          && not
               (List.exists
                  (fun l -> l.e_dir = Read && l.e_label = e.e_label)
                  later)
        then e :: rest
        else rest
  in
  live b.blk_edges

let rec descend b = b :: List.concat_map descend b.blk_children

let all_blocks g = List.concat_map descend g.g_blocks

let rec block_depth b =
  1 + List.fold_left (fun acc c -> Stdlib.max acc (block_depth c)) 0 b.blk_children

let depth g =
  List.fold_left (fun acc b -> Stdlib.max acc (block_depth b)) 0 g.g_blocks

let rec block_dimension b =
  block_dim b
  + List.fold_left (fun acc c -> Stdlib.max acc (block_dimension c)) 0 b.blk_children

let dimension g =
  List.fold_left (fun acc b -> Stdlib.max acc (block_dimension b)) 0 g.g_blocks

(* Two write domains are disjoint in buffer space when no buffer index
   is produced by both.  Decided by enumeration; ETDG domains in tests
   are small, and validation of full-size graphs restricts itself to
   the structural checks. *)
let write_domains_disjoint dom1 a1 dom2 a2 =
  let img dom a =
    List.map (fun t -> Access_map.apply a t) (Domain.enumerate dom)
  in
  let s1 = img dom1 a1 and s2 = img dom2 a2 in
  not (List.exists (fun p -> List.mem p s2) s1)

let validate g =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let check_block parent_dims b =
    ignore parent_dims;
    if Domain.(b.blk_domain.dim) <> block_dim b then
      err "block %s: domain dimension %d differs from operator vector %d"
        b.blk_name
        Domain.(b.blk_domain.dim)
        (block_dim b);
    List.iter
      (fun e ->
        match List.find_opt (fun bf -> bf.buf_id = e.e_buffer) g.g_buffers with
        | None -> err "block %s: edge to unknown buffer %d" b.blk_name e.e_buffer
        | Some bf ->
            if Access_map.in_dim e.e_access <> block_dim b then
              err "block %s: access map arity %d for a %d-dim block"
                b.blk_name
                (Access_map.in_dim e.e_access)
                (block_dim b);
            if Access_map.out_dim e.e_access > Array.length bf.buf_dims then
              err "block %s: access map targets %d dims of %d-dim buffer %s"
                b.blk_name
                (Access_map.out_dim e.e_access)
                (Array.length bf.buf_dims) bf.buf_name)
      b.blk_edges
  in
  let rec walk b =
    check_block () b;
    List.iter walk b.blk_children
  in
  List.iter walk g.g_blocks;
  (* Single assignment: pairwise-disjoint write images per buffer,
     checked when the total work is small enough to enumerate. *)
  let writers =
    List.concat_map
      (fun b ->
        List.filter_map
          (fun e ->
            if e.e_dir = Write then Some (b, e) else None)
          b.blk_edges)
      (all_blocks g)
  in
  List.iteri
    (fun i (b1, e1) ->
      List.iteri
        (fun j (b2, e2) ->
          if j > i && e1.e_buffer = e2.e_buffer then
            (* Cheap volume bound from single-variable constraints keeps
               validation of full-size graphs from enumerating millions
               of points; overlap is then only checked on small domains
               (tests use small extents on purpose). *)
            let box_volume (d : Domain.t) =
              let lo, hi, _ = Domain.unit_bounds d in
              let vol = ref 1 in
              for k = 0 to d.Domain.dim - 1 do
                if lo.(k) = min_int || hi.(k) = max_int then vol := max_int
                else if !vol < max_int then
                  vol := Stdlib.min max_int (!vol * Stdlib.max 0 (hi.(k) - lo.(k) + 1))
              done;
              !vol
            in
            let small d = box_volume d <= 4096 in
            if small b1.blk_domain && small b2.blk_domain then
              if
                not
                  (write_domains_disjoint b1.blk_domain e1.e_access
                     b2.blk_domain e2.e_access)
              then
                err
                  "single assignment violated: blocks %s and %s overlap on \
                   buffer %d"
                  b1.blk_name b2.blk_name e1.e_buffer)
        writers)
    writers;
  (* Acyclicity via dataflow ordering. *)
  (try
     let order = ref [] in
     let pending = ref g.g_blocks in
     let produced = Hashtbl.create 16 in
     List.iter
       (fun b ->
         match b.buf_role with
         | Input -> Hashtbl.replace produced b.buf_id ()
         | Intermediate | Output -> ())
       g.g_buffers;
     let self_satisfied b e =
       (* A block reading the buffer it writes (scan state) is legal. *)
       List.exists
         (fun w -> w.e_dir = Write && w.e_buffer = e.e_buffer)
         b.blk_edges
     in
     let ready b =
       List.for_all
         (fun e ->
           e.e_dir = Write
           || Hashtbl.mem produced e.e_buffer
           || self_satisfied b e)
         b.blk_edges
     in
     while !pending <> [] do
       match List.partition ready !pending with
       | [], _ -> raise Exit
       | fire, rest ->
           List.iter
             (fun b ->
               order := b :: !order;
               List.iter
                 (fun e ->
                   if e.e_dir = Write then Hashtbl.replace produced e.e_buffer ())
                 b.blk_edges)
             fire;
           pending := rest
     done
   with Exit -> err "cyclic dataflow between top-level blocks");
  match !errors with
  | [] -> Ok ()
  | es -> Error (List.rev es)

let dataflow_order g =
  let produced = Hashtbl.create 16 in
  List.iter
    (fun b ->
      match b.buf_role with
      | Input -> Hashtbl.replace produced b.buf_id ()
      | Intermediate | Output -> ())
    g.g_buffers;
  let self_satisfied b e =
    List.exists (fun w -> w.e_dir = Write && w.e_buffer = e.e_buffer) b.blk_edges
  in
  let ready b =
    List.for_all
      (fun e ->
        e.e_dir = Write || Hashtbl.mem produced e.e_buffer || self_satisfied b e)
      b.blk_edges
  in
  let rec go acc pending =
    if pending = [] then List.rev acc
    else
      match List.partition ready pending with
      | [], _ -> invalid_arg "Ir.dataflow_order: cyclic dataflow"
      | fire, rest ->
          List.iter
            (fun b ->
              List.iter
                (fun e ->
                  if e.e_dir = Write then Hashtbl.replace produced e.e_buffer ())
                b.blk_edges)
            fire;
          go (List.rev_append fire acc) rest
  in
  go [] g.g_blocks

let pp_ops fmt ops =
  Format.fprintf fmt "[%s]"
    (String.concat ","
       (Array.to_list (Array.map Expr.soac_kind_name ops)))

let rec pp_block fmt b =
  Format.fprintf fmt "@[<v 2>block %s (id=%d) p=%a dim=%d@ " b.blk_name
    b.blk_id pp_ops b.blk_ops (block_dim b);
  List.iter
    (fun e ->
      Format.fprintf fmt "%s buf%d (%s) %a@ "
        (match e.e_dir with Read -> "read " | Write -> "write")
        e.e_buffer e.e_label Access_map.pp e.e_access)
    b.blk_edges;
  List.iter
    (fun o ->
      Format.fprintf fmt "op %s -> %s@ " (Expr.prim_name o.op)
        (Shape.to_string o.result_shape))
    b.blk_body;
  List.iter (fun c -> Format.fprintf fmt "%a@ " pp_block c) b.blk_children;
  Format.fprintf fmt "@]"

let pp fmt g =
  Format.fprintf fmt "@[<v>etdg %s: depth=%d dimension=%d@ " g.g_name (depth g)
    (dimension g);
  List.iter
    (fun b ->
      Format.fprintf fmt "buffer %d %s dims=%s elem=%s %s@ " b.buf_id
        b.buf_name
        ("["
        ^ String.concat ","
            (Array.to_list (Array.map string_of_int b.buf_dims))
        ^ "]")
        (Shape.to_string b.buf_elem)
        (match b.buf_role with
        | Input -> "input"
        | Intermediate -> "intermediate"
        | Output -> "output"))
    g.g_buffers;
  List.iter (fun b -> Format.fprintf fmt "%a@ " pp_block b) g.g_blocks;
  Format.fprintf fmt "@]"
