(* The compiled executor.  See compiled.mli for the contract; the
   load-bearing invariants of the implementation:

   - Point execution ([cb_exec_range]) is straight-line: flat-offset
     arithmetic over precomputed weight vectors, opcode kernels from
     {!Lower}, preallocated per-worker scratch, and byte flags for the
     single-assignment/unwritten-read checks.  Nothing in that path
     allocates — verified by the Gc assertion in the test suite.
   - No two workers write one cache line of engine state.  A worker
     writes two arrays of a block per point, both from [lanes], which
     pads them past their last line: its slots (the scratch-slot table,
     then every op's operands from the op's [co_base]) and its write
     offsets.  Every per-worker scratch tensor owns its lines
     ({!Tensor.uninit_exclusive}).  Unpadded, the small arrays of the
     workers of one front, or of the per-device executables of a
     sharded run, share lines of one size-class pool, written on every
     point.  One slot array rather than one array per op also keeps
     the lines a point touches few.
   - Every closure is built once, at compile time.  [execute] itself
     only walks int arrays and calls stored closures, so a steady-state
     run allocates zero minor words at [workers = 1].
   - Bitwise parity with the reference interpreter: the kernels
     ({!Lower}) run the interpreter's primitive loops in its order, so
     the schedule ({!Vm.schedule}) never changes a value.  Everything about
     a graph that can be checked without values — access shapes and
     extents, operand counts and ranks, writes into inputs, stored
     shapes — is checked here, at compile time; only unwritten reads
     and double writes are left to the run.
   - Write-in-place redirect: when a write edge's result is [O_op k]
     with the cell's element shape, worker scratch slot [k] is aliased
     to the destination cell for the duration of the point, so the
     kernel computes directly into the buffer and the epilogue copy
     disappears.  The alias is restored before the point ends.
   - Fusion (the [fuse] flag, default on) is scratch-slot coalescing:
     when an elementwise op's only-consumed chain operand has the same
     full shape as its result, both ops share one scratch slot and the
     tail computes in place ([tg] maps every op to its group's final
     slot).  Elementwise [_into] kernels read index [i] before writing
     it when [dst] aliases the full-shape operand, so the coalesced
     chain produces the same bits as the buffered one.  On top of
     that, [Matmul]/[Matmul_t] heads swallow a fused
     fixed-bias [Add] and/or activation tail into a GEMM epilogue
     ({!Tensor.apply_epilogue} — same per-element value chain), which
     is bitwise-neutral by construction.  Composed with the
     write-in-place redirect, an entire fused chain computes directly
     in its destination cell.
   - No operand is copied to be aligned: tensors and the arena are
     born 64-byte aligned ({!Aligned}), so a GEMM reads its right
     operand where it lives — an input cell, an intermediate or a
     block constant.  Nothing outlives a run but the executable's own
     storage, so an input tensor changed in place is read afresh by
     the next run. *)

module A = Bigarray.Array1

let err fmt = Format.kasprintf (fun s -> raise (Vm.Execution_error s)) fmt

(* Where an operand's tensor comes from at one iteration point. *)
type src =
  | S_fixed of Tensor.t  (* literal / block-const: same tensor always *)
  | S_scratch of int  (* result of an earlier op node this point *)
  | S_cell of int * int array
      (* store index + flat-offset weights [base; w_0 .. w_{dim-1}] *)

(* What an input cell points at between runs. *)
let unbound = Tensor.scalar 0.0

type store = {
  cs_buffer : Ir.buffer;
  cs_dims : int array;
  cs_cells : Tensor.t array;
  cs_written : Bytes.t;
  cs_arena : int * int;
      (* the arena floats [lo, hi) its cells occupy; empty off the arena *)
}

(* The read-before-write error of an illegal order. *)
let unwritten name st =
  err "block %s reads an unwritten cell of buffer %d — illegal order" name
    st.cs_buffer.Ir.buf_id

type cop = {
  co_srcs : src array;
  co_kernels : (Tensor.t array -> int -> Tensor.t -> unit) array;
      (* per worker *)
  co_base : int;  (* where the op's operands start in a worker's slots *)
}

type cwrite = {
  cw_store : int;
  cw_weights : int array;
  cw_src : src;
  cw_alias : int;  (* scratch slot redirected in place, or -1 *)
}

type fusion_stats = {
  fs_block : string;
  fs_groups : int;  (* fusion groups with >= 2 members *)
  fs_fused_ops : int;  (* ops coalesced into another op's slot *)
  fs_swallowed : int;  (* tails folded into GEMM epilogues *)
}

type cblock = {
  cb_name : string;
  cb_fronts : int array;  (* nfronts+1 offsets into the point sequence *)
  cb_front_ids : int array;  (* schedule front id per front *)
  cb_parallel : bool;
  cb_stats : Vm.block_stats;
  cb_exec_range : int -> int -> int -> unit;
      (* worker, lo, hi: a whole front (or chunk) as one batched loop *)
  cb_fusion : fusion_stats;
}

type t = {
  ex_blocks : cblock array;
  ex_stores : store array;
  ex_arena : Arena.t option;
  ex_workers : int;
  ex_fallbacks : string list;
  ex_outputs : (string * Fractal.t) list;
      (* the [Output] cells, wrapped once: the cells are never rebound *)
}

(* Elementwise ops whose [_into] kernel may run with [dst] aliasing the
   full-shape operand (each reads index [i] before writing it), so they
   are safe to coalesce onto their chain producer's slot. *)
let elementwise (p : Expr.prim) =
  match p with
  | Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Maximum | Expr.Tanh
  | Expr.Sigmoid | Expr.Exp | Expr.Neg | Expr.Relu | Expr.Scale _
  | Expr.Softmax ->
      true
  | _ -> false

let un_op_of_prim (p : Expr.prim) =
  match p with
  | Expr.Tanh -> Some Tensor.Utanh
  | Expr.Sigmoid -> Some Tensor.Usigmoid
  | Expr.Exp -> Some Tensor.Uexp
  | Expr.Neg -> Some Tensor.Uneg
  | Expr.Relu -> Some Tensor.Urelu
  | Expr.Scale k -> Some (Tensor.Uscale k)
  | _ -> None

(* Trailing slots of every per-worker array: two 64-byte lines, since
   the adjacent-line prefetcher moves lines in pairs.  Whatever the
   allocator places after an array, another worker's array included,
   starts past them. *)
let line_pad = 16

(* One [n]-slot array of [x] per worker, each padded by [line_pad]:
   the only way the engine allocates per-worker mutable state. *)
let lanes workers n x =
  Array.init workers (fun _ -> Array.make (n + line_pad) x)

let compile ?schedule ?(workers = 1) ?(fuse = true) (g : Ir.graph) =
  let workers = Stdlib.max 1 workers in
  let dummy = Tensor.scalar 0.0 in
  (* ---- storage: one preallocated tensor per buffer cell ---- *)
  let role_names role =
    List.filter_map
      (fun (bf : Ir.buffer) ->
        if bf.Ir.buf_role = role then Some bf.Ir.buf_name else None)
      g.Ir.g_buffers
  in
  let arena_t, slot_of =
    (* [Liveness.layout] speaks the 4-byte/f32 convention of
       [Effects.buffer_bytes]; real cells are float64.  Dividing the
       64-aligned byte offsets by 4 converts them to float64 element
       offsets scaled by the 8/4 ratio — a linear map, so slot
       disjointness and containment carry over verbatim. *)
    let intervals =
      Liveness.intervals ~live_in:(role_names Ir.Input)
        ~live_out:(role_names Ir.Output) (Analyze.steps g)
    in
    let ar = Liveness.layout intervals in
    if ar.Liveness.ar_slots = [] then (None, fun _ -> None)
    else
      let a = Arena.create ~floats:((ar.Liveness.ar_total + 3) / 4) in
      ( Some a,
        fun name ->
          List.find_opt
            (fun s -> s.Liveness.sl_buffer = name)
            ar.Liveness.ar_slots )
  in
  let buffers = Array.of_list g.Ir.g_buffers in
  let store_ix = Hashtbl.create 16 in
  Array.iteri
    (fun i (bf : Ir.buffer) -> Hashtbl.replace store_ix bf.Ir.buf_id i)
    buffers;
  let stores =
    Array.map
      (fun (bf : Ir.buffer) ->
        let ncells = Stdlib.max 1 (Array.fold_left ( * ) 1 bf.Ir.buf_dims) in
        let cellfloats = Shape.numel bf.Ir.buf_elem in
        let cells, span =
          match bf.Ir.buf_role with
          | Ir.Input -> (Array.make ncells dummy, (0, 0))
          | Ir.Output | Ir.Intermediate -> (
              let dedicated () =
                ( Array.init ncells (fun _ -> Tensor.uninit bf.Ir.buf_elem),
                  (0, 0) )
              in
              if bf.Ir.buf_role = Ir.Output then dedicated ()
              else
                match (arena_t, slot_of bf.Ir.buf_name) with
                | Some a, Some sl
                  when sl.Liveness.sl_bytes = 4 * ncells * cellfloats
                       && sl.Liveness.sl_offset mod 4 = 0 ->
                    let base = sl.Liveness.sl_offset / 4 in
                    ( Array.init ncells (fun ci ->
                          Tensor.of_buffer bf.Ir.buf_elem
                            (Arena.view a
                               ~off:(base + (ci * cellfloats))
                               ~len:cellfloats)),
                      (base, base + (ncells * cellfloats)) )
                | _ -> dedicated ())
        in
        {
          cs_buffer = bf;
          cs_dims = bf.Ir.buf_dims;
          cs_cells = cells;
          cs_written = Bytes.make ncells '\000';
          cs_arena = span;
        })
      buffers
  in
  (* ---- per-block compilation ---- *)
  let fallbacks = ref [] in
  let compile_block (b : Ir.block) =
    let all_points = Domain.enumerate b.Ir.blk_domain in
    let dim =
      match all_points with p :: _ -> Array.length p | [] -> 0
    in
    let sched, fell_back =
      match schedule with
      | Some f -> f b all_points
      | None -> Vm.guarded_schedule g Vm.Wavefront b all_points
    in
    if fell_back <> None then fallbacks := b.Ir.blk_name :: !fallbacks;
    let stats = Vm.stats_of_schedule b.Ir.blk_name sched in
    (* A sequential order is one front, run in order by one range
       call and kept off the pool. *)
    let fronts_list, parallel =
      match sched with
      | Vm.Ordered ps -> ([ (0, Array.of_list ps) ], false)
      | Vm.Fronts fs -> (fs, true)
    in
    let nfronts = List.length fronts_list in
    let npoints =
      List.fold_left (fun a (_, ps) -> a + Array.length ps) 0 fronts_list
    in
    let pts = Array.make (Stdlib.max 1 (npoints * dim)) 0 in
    let fronts = Array.make (nfronts + 1) 0 in
    let front_ids = Array.make (Stdlib.max 1 nfronts) 0 in
    let pos = ref 0 and fi = ref 0 in
    List.iter
      (fun (id, ps) ->
        front_ids.(!fi) <- id;
        Array.iter
          (fun p ->
            Array.blit p 0 pts (!pos * dim) dim;
            incr pos)
          ps;
        incr fi;
        fronts.(!fi) <- !pos)
      fronts_list;
    (* ---- operand resolution: strides folded to flat weights ---- *)
    let reads = Hashtbl.create 8 in
    List.iter
      (fun (e : Ir.edge) -> Hashtbl.replace reads e.Ir.e_label e)
      (Ir.live_reads b);
    (* The domain's box, when it is one with at least one point: the
       operand bounds then come off its corners. *)
    let box =
      if all_points = [] then None else Domain.rect_extents b.Ir.blk_domain
    in
    let compute_weights (e : Ir.edge) =
      let sti =
        match Hashtbl.find_opt store_ix e.Ir.e_buffer with
        | Some i -> i
        | None -> err "block %s: edge names unknown buffer %d"
                    b.Ir.blk_name e.Ir.e_buffer
      in
      let st = stores.(sti) in
      let rank = Array.length st.cs_dims in
      if Access_map.out_dim e.Ir.e_access <> rank then
        err "block %s: partial access of buffer %d" b.Ir.blk_name
          e.Ir.e_buffer;
      if Access_map.in_dim e.Ir.e_access <> dim then
        err "block %s: access arity %d over a %d-dimensional domain"
          b.Ir.blk_name
          (Access_map.in_dim e.Ir.e_access)
          dim;
      (* Per-axis bounds over the whole domain, proven now so the run
         loop can use raw flat offsets: off the box's corners, point by
         point for a general polyhedron or to name the first point
         that leaves the buffer. *)
      let am = e.Ir.e_access in
      (match Access_map.first_outside am ~dims:st.cs_dims ?box all_points with
      | Some (j, v) ->
          err "block %s: buffer %d index %d out of extent %d" b.Ir.blk_name
            e.Ir.e_buffer v st.cs_dims.(j)
      | None -> ());
      let sstrides = Vm.strides st.cs_dims in
      let w = Array.make (dim + 1) 0 in
      Array.iteri
        (fun j oj -> w.(0) <- w.(0) + (sstrides.(j) * oj))
        am.Access_map.offset;
      for i = 0 to dim - 1 do
        let acc = ref 0 in
        for j = 0 to rank - 1 do
          acc := !acc + (sstrides.(j) * am.Access_map.matrix.(j).(i))
        done;
        w.(i + 1) <- !acc
      done;
      (sti, w)
    in
    (* Each edge proven and folded once, however many operands name it. *)
    let weights = ref [] in
    let weights_of (e : Ir.edge) =
      match List.assq_opt e !weights with
      | Some w -> w
      | None ->
          let w = compute_weights e in
          weights := (e, w) :: !weights;
          w
    in
    let ops = Array.of_list b.Ir.blk_body in
    let nops = Array.length ops in
    (* ---- fusion planning: scratch-slot coalescing -------------
       [tg.(i)] is the final slot of [i]'s fusion group (identity
       when fusion is off or the op stands alone).  An elementwise
       op [j] joins producer [k]'s group when [O_op k] is the
       full-shape chain operand, shapes match along the chain, and
       [j] is [k]'s only consumer (counting block results).  Kernels
       then write [sl.(tg.(oi))], so the whole chain computes in
       one tensor — and, composed with the write-in-place redirect,
       often directly in the destination cell. *)
    let tg = Array.init (Stdlib.max 1 nops) (fun i -> i) in
    let succ = Array.make (Stdlib.max 1 nops) (-1) in
    let consumers = Array.make (Stdlib.max 1 nops) 0 in
    let count_operand = function
      | Ir.O_op k -> consumers.(k) <- consumers.(k) + 1
      | Ir.O_var _ | Ir.O_const _ -> ()
    in
    Array.iter
      (fun (o : Ir.op_node) -> List.iter count_operand o.Ir.operands)
      ops;
    List.iter count_operand b.Ir.blk_results;
    if fuse then
      Array.iteri
        (fun j (o : Ir.op_node) ->
          if elementwise o.Ir.op then begin
            let rec chain operands shapes =
              match (operands, shapes) with
              | Ir.O_op k :: _, s :: _
                when consumers.(k) = 1
                     && Shape.equal s o.Ir.result_shape
                     && Shape.equal ops.(k).Ir.result_shape
                          o.Ir.result_shape ->
                  Some k
              | _ :: os, _ :: ss -> chain os ss
              | _, _ -> None
            in
            match chain o.Ir.operands o.Ir.operand_shapes with
            | Some k ->
                succ.(k) <- j;
                for i = 0 to nops - 1 do
                  if tg.(i) = k then tg.(i) <- j
                done
            | None -> ()
          end)
        ops;
    (* ---- epilogue swallowing: GEMM + fused Add(fixed bias) and/or
       activation tails become one [matmul_into ~epilogue] call.
       Only an [Add] whose chain operand is on the left with a
       block-constant bias qualifies (the fused pass then computes
       the exact per-element value chain of the separate passes). *)
    let fixed_tensor = function
      | Ir.O_const t -> Some t
      | Ir.O_var tag -> List.assoc_opt tag b.Ir.blk_consts
      | Ir.O_op _ -> None
    in
    let swallowed = Array.make (Stdlib.max 1 nops) false in
    let epilogues = Array.make (Stdlib.max 1 nops) None in
    let swallow_count = ref 0 in
    if fuse then
      Array.iteri
        (fun h (o : Ir.op_node) ->
          match o.Ir.op with
          | Expr.Matmul | Expr.Matmul_t ->
              let bias, after_bias =
                match succ.(h) with
                | j when j >= 0 -> (
                    match ops.(j) with
                    | {
                        Ir.op = Expr.Add;
                        operands = [ Ir.O_op k; bo ];
                        result_shape;
                        _;
                      }
                      when k = h -> (
                        match fixed_tensor bo with
                        | Some bt
                          when Tensor.epilogue_bias_ok ~bias:bt
                                 ~dst:result_shape ->
                            (Some (j, bt), succ.(j))
                        | _ -> (None, j))
                    | _ -> (None, j))
                | _ -> (None, -1)
              in
              let act =
                match after_bias with
                | j when j >= 0 -> (
                    match un_op_of_prim ops.(j).Ir.op with
                    | Some u -> Some (j, u)
                    | None -> None)
                | _ -> None
              in
              if bias <> None || act <> None then begin
                (match bias with
                | Some (j, _) ->
                    swallowed.(j) <- true;
                    incr swallow_count
                | None -> ());
                (match act with
                | Some (j, _) ->
                    swallowed.(j) <- true;
                    incr swallow_count
                | None -> ());
                epilogues.(h) <-
                  Some
                    (Tensor.epilogue
                       ?bias:(Option.map snd bias)
                       ?act:(Option.map snd act) ())
              end
          | _ -> ())
        ops;
    let resolve (o : Ir.operand) =
      match o with
      | Ir.O_const t -> S_fixed t
      | Ir.O_op k -> S_scratch tg.(k)
      | Ir.O_var tag -> (
          match List.assoc_opt tag b.Ir.blk_consts with
          | Some t -> S_fixed t
          | None -> (
              match Hashtbl.find_opt reads tag with
              | Some e ->
                  let sti, w = weights_of e in
                  S_cell (sti, w)
              | None ->
                  err "block %s: operand %s has no edge or literal"
                    b.Ir.blk_name tag))
    in
    (* An [@T]'s block-constant right operand, which {!Lower.kernel}
       transposes once for every worker. *)
    let fixed_b (o : Ir.op_node) srcs =
      match (o.Ir.op, srcs) with
      | Expr.Matmul_t, [| _; S_fixed t |]
        when Shape.rank (Tensor.shape t) = 2 ->
          Some t
      | _ -> None
    in
    (* A worker's slots: the scratch-slot table [0, nops), then each
       executed op's operands from its [co_base]. *)
    let nslots = ref nops in
    let cops =
      Array.mapi
        (fun oi (o : Ir.op_node) ->
          if swallowed.(oi) then
            { co_srcs = [||]; co_kernels = [||]; co_base = 0 }
          else begin
            let srcs = Array.of_list (List.map resolve o.Ir.operands) in
            let factory =
              Lower.kernel ?epilogue:epilogues.(oi) ?fixed_b:(fixed_b o srcs)
                o.Ir.op ~operand_shapes:o.Ir.operand_shapes
                ~result_shape:o.Ir.result_shape
            in
            let kernels = Array.init workers (fun _ -> factory ()) in
            let base = !nslots in
            nslots := base + Array.length srcs;
            { co_srcs = srcs; co_kernels = kernels; co_base = base }
          end)
        ops
    in
    (* Ops the run loop actually executes (swallowed tails are
       computed inside their head's epilogue). *)
    let body_ops =
      let l = ref [] in
      for oi = nops - 1 downto 0 do
        if not swallowed.(oi) then l := oi :: !l
      done;
      Array.of_list !l
    in
    let nbody = Array.length body_ops in
    (* Coalesced slots share their group final's tensor; only finals
       get real scratch (the run loop never reads or writes a
       non-final slot). *)
    let slots = lanes workers !nslots dummy in
    Array.iter
      (fun sl ->
        Array.iteri
          (fun i (o : Ir.op_node) ->
            if tg.(i) = i then
              sl.(i) <- Tensor.uninit_exclusive o.Ir.result_shape)
          ops)
      slots;
    let slots_orig = Array.map Array.copy slots in
    let fusion =
      let fused_ops = ref 0 in
      let finals = Hashtbl.create 4 in
      for i = 0 to nops - 1 do
        if tg.(i) <> i then begin
          incr fused_ops;
          Hashtbl.replace finals tg.(i) ()
        end
      done;
      {
        fs_block = b.Ir.blk_name;
        fs_groups = Hashtbl.length finals;
        fs_fused_ops = !fused_ops;
        fs_swallowed = !swallow_count;
      }
    in
    (* ---- write edges ---- *)
    let writes = Ir.writes b in
    if List.length writes <> List.length b.Ir.blk_results then
      err "block %s: %d write edges for %d results" b.Ir.blk_name
        (List.length writes)
        (List.length b.Ir.blk_results);
    let aliased = Hashtbl.create 4 in
    let cwrites =
      Array.of_list
        (List.map2
           (fun (w : Ir.edge) result ->
             let sti, wt = weights_of w in
             (* Input cells are bound by aliasing the caller's
                tensors, so a write there is refused before any run
                could touch them. *)
             if stores.(sti).cs_buffer.Ir.buf_role = Ir.Input then
               err "block %s writes input buffer %d" b.Ir.blk_name
                 w.Ir.e_buffer;
             let elem = stores.(sti).cs_buffer.Ir.buf_elem in
             let src = resolve result in
             let src_shape =
               match src with
               | S_scratch k -> ops.(k).Ir.result_shape
               | S_fixed t -> Tensor.shape t
               | S_cell (si, _) -> stores.(si).cs_buffer.Ir.buf_elem
             in
             if not (Shape.equal src_shape elem) then
               err
                 "block %s: stored value shape %s differs from buffer \
                  element shape %s"
                 b.Ir.blk_name (Shape.to_string src_shape)
                 (Shape.to_string elem);
             let alias =
               match src with
               | S_scratch k when not (Hashtbl.mem aliased k) ->
                   Hashtbl.add aliased k ();
                   k
               | _ -> -1
             in
             { cw_store = sti; cw_weights = wt; cw_src = src; cw_alias = alias })
           writes b.Ir.blk_results)
    in
    let nwrites = Array.length cwrites in
    let alias_slots =
      Array.of_seq (Hashtbl.to_seq_keys aliased)
    in
    let woffs = lanes workers nwrites 0 in
    let name = b.Ir.blk_name in
    (* ---- the straight-line point loop (the hot path) ----
       One closure executes a whole range of a front's points: the
       per-front dispatch cost (scratch/offset lookups, closure
       calls) is paid once per range, not once per point, and the N
       homogeneous points of an anti-chain stream through the same
       kernels as a single batched loop. *)
    let exec_range w lo hi =
      let sl = slots.(w) in
      let offs = woffs.(w) in
      let orig = Array.unsafe_get slots_orig w in
      for i = lo to hi - 1 do
        let p = i * dim in
        (* write destinations: single-assignment check + in-place
           redirect, offsets memoised for the epilogue *)
        for wi = 0 to nwrites - 1 do
          let cw = Array.unsafe_get cwrites wi in
          let st = Array.unsafe_get stores cw.cw_store in
          let ws = cw.cw_weights in
          let off = ref (Array.unsafe_get ws 0) in
          for k = 0 to dim - 1 do
            off :=
              !off
              + (Array.unsafe_get ws (k + 1) * Array.unsafe_get pts (p + k))
          done;
          if Bytes.unsafe_get st.cs_written !off <> '\000' then
            err "block %s writes a cell twice — single assignment violated"
              name;
          Array.unsafe_set offs wi !off;
          if cw.cw_alias >= 0 then
            sl.(cw.cw_alias) <- Array.unsafe_get st.cs_cells !off
        done;
        (* body ops into (possibly redirected, possibly coalesced)
           scratch; swallowed tails are skipped — their value is
           produced by the head's epilogue *)
        for bi = 0 to nbody - 1 do
          let oi = Array.unsafe_get body_ops bi in
          let cop = Array.unsafe_get cops oi in
          let base = cop.co_base in
          let srcs = cop.co_srcs in
          for ai = 0 to Array.length srcs - 1 do
            match Array.unsafe_get srcs ai with
            | S_fixed t -> Array.unsafe_set sl (base + ai) t
            | S_scratch k ->
                Array.unsafe_set sl (base + ai) (Array.unsafe_get sl k)
            | S_cell (si, ws) ->
                let st = Array.unsafe_get stores si in
                let off = ref (Array.unsafe_get ws 0) in
                for k = 0 to dim - 1 do
                  off :=
                    !off
                    + (Array.unsafe_get ws (k + 1)
                      * Array.unsafe_get pts (p + k))
                done;
                if Bytes.unsafe_get st.cs_written !off = '\000' then
                  unwritten name st;
                Array.unsafe_set sl (base + ai)
                  (Array.unsafe_get st.cs_cells !off)
          done;
          (Array.unsafe_get cop.co_kernels w) sl base
            (Array.unsafe_get sl (Array.unsafe_get tg oi))
        done;
        (* epilogue: copy non-redirected results, set written flags *)
        for wi = 0 to nwrites - 1 do
          let cw = Array.unsafe_get cwrites wi in
          let st = Array.unsafe_get stores cw.cw_store in
          let off = Array.unsafe_get offs wi in
          if cw.cw_alias < 0 then begin
            let v =
              match cw.cw_src with
              | S_scratch k -> Array.unsafe_get sl k
              | S_fixed t -> t
              | S_cell (si, ws) ->
                  let sst = Array.unsafe_get stores si in
                  let soff = ref (Array.unsafe_get ws 0) in
                  for k = 0 to dim - 1 do
                    soff :=
                      !soff
                      + (Array.unsafe_get ws (k + 1)
                        * Array.unsafe_get pts (p + k))
                  done;
                  if Bytes.unsafe_get sst.cs_written !soff = '\000' then
                    unwritten name sst;
                  Array.unsafe_get sst.cs_cells !soff
            in
            Tensor.copy_into v ~dst:(Array.unsafe_get st.cs_cells off)
          end;
          Bytes.unsafe_set st.cs_written off '\001'
        done;
        for k = 0 to Array.length alias_slots - 1 do
          let s = Array.unsafe_get alias_slots k in
          sl.(s) <- Array.unsafe_get orig s
        done
      done
    in
    {
      cb_name = name;
      cb_fronts = fronts;
      cb_front_ids = front_ids;
      cb_parallel = parallel;
      cb_stats = stats;
      cb_exec_range = exec_range;
      cb_fusion = fusion;
    }
  in
  let blocks =
    Array.of_list
      (List.map
         (fun (b : Ir.block) ->
           try compile_block b
           with Lower.Unsupported m -> err "block %s: %s" b.Ir.blk_name m)
         (Ir.dataflow_order g))
  in
  {
    ex_blocks = blocks;
    ex_stores = stores;
    ex_arena = arena_t;
    ex_workers = workers;
    ex_fallbacks = List.rev !fallbacks;
    ex_outputs =
      List.filter_map
        (fun st ->
          if st.cs_buffer.Ir.buf_role <> Ir.Output then None
          else
            Some
              ( st.cs_buffer.Ir.buf_name,
                Vm.of_cells st.cs_buffer.Ir.buf_dims (fun pos -> st.cs_cells.(pos)) ))
        (Array.to_list stores);
  }

(* ------------------------------ running ------------------------------ *)

let load exe inputs =
  Array.iter
    (fun st ->
      match st.cs_buffer.Ir.buf_role with
      | Ir.Input -> (
          match List.assoc_opt st.cs_buffer.Ir.buf_name inputs with
          | None -> err "missing input %s" st.cs_buffer.Ir.buf_name
          | Some v ->
              Vm.iter_cells st.cs_buffer.Ir.buf_dims v (fun pos t ->
                  st.cs_cells.(pos) <- t);
              Bytes.fill st.cs_written 0 (Bytes.length st.cs_written) '\001')
      | Ir.Intermediate | Ir.Output -> ())
    exe.ex_stores

let run_front pool cb f =
  let lo = Array.unsafe_get cb.cb_fronts f
  and hi = Array.unsafe_get cb.cb_fronts (f + 1) in
  if cb.cb_parallel && hi - lo > 1 then
    match pool with
    | Some p -> Domain_pool.parallel_chunks p ~lo ~hi cb.cb_exec_range
    | None -> cb.cb_exec_range 0 lo hi
  else cb.cb_exec_range 0 lo hi

let run_block pool cb =
  for f = 0 to Array.length cb.cb_fronts - 2 do
    run_front pool cb f
  done

(* Wavefront-scheduled blocks emit one "vm.block" span and one
   "vm.front" per anti-chain; sequential (ordered or downgraded) blocks
   emit nothing. *)
let run_block_traced pool cb =
  if not cb.cb_parallel then run_block pool cb
  else
    Vm.block_span cb.cb_name cb.cb_stats (fun () ->
        for f = 0 to Array.length cb.cb_fronts - 2 do
          Vm.front_span ~block:cb.cb_name ~front:cb.cb_front_ids.(f)
            ~width:(cb.cb_fronts.(f + 1) - cb.cb_fronts.(f))
            pool
            (fun () -> run_front pool cb f)
        done)

let execute ?pool exe =
  (match pool with
  | Some p when Domain_pool.size p > exe.ex_workers ->
      err "compiled executable supports %d worker(s), pool has %d"
        exe.ex_workers (Domain_pool.size p)
  | _ -> ());
  let stores = exe.ex_stores in
  for si = 0 to Array.length stores - 1 do
    let st = Array.unsafe_get stores si in
    if st.cs_buffer.Ir.buf_role <> Ir.Input then
      Bytes.fill st.cs_written 0 (Bytes.length st.cs_written) '\000'
  done;
  let blocks = exe.ex_blocks in
  if Trace.active () then
    for bi = 0 to Array.length blocks - 1 do
      run_block_traced pool (Array.unsafe_get blocks bi)
    done
  else
    for bi = 0 to Array.length blocks - 1 do
      run_block pool (Array.unsafe_get blocks bi)
    done

(* A loop, not [Bytes.contains]: the steady state allocates nothing. *)
let outputs exe =
  let stores = exe.ex_stores in
  for si = 0 to Array.length stores - 1 do
    let st = Array.unsafe_get stores si in
    if st.cs_buffer.Ir.buf_role = Ir.Output then
      for pos = 0 to Bytes.length st.cs_written - 1 do
        if Bytes.unsafe_get st.cs_written pos = '\000' then
          err "output buffer %s has an unwritten cell" st.cs_buffer.Ir.buf_name
      done
  done;
  exe.ex_outputs

(* ------------------------ external placement ------------------------ *)

let reset exe =
  Array.iter
    (fun st ->
      if st.cs_buffer.Ir.buf_role = Ir.Input then
        Array.fill st.cs_cells 0 (Array.length st.cs_cells) unbound;
      Bytes.fill st.cs_written 0 (Bytes.length st.cs_written) '\000')
    exe.ex_stores

let exec_range exe block lo hi = exe.ex_blocks.(block).cb_exec_range 0 lo hi

let bind_input exe ~store off t =
  let st = exe.ex_stores.(store) in
  st.cs_cells.(off) <- t;
  Bytes.set st.cs_written off '\001'

let copy_cell ~src ~dst ~store off =
  let s = src.ex_stores.(store) and d = dst.ex_stores.(store) in
  if Bytes.get s.cs_written off <> '\000' then begin
    Tensor.copy_into s.cs_cells.(off) ~dst:d.cs_cells.(off);
    Bytes.set d.cs_written off '\001'
  end

let cell exe ~store off = exe.ex_stores.(store).cs_cells.(off)

let written exe ~store off =
  Bytes.get exe.ex_stores.(store).cs_written off <> '\000'

let shares_storage exe a b =
  let lo_a, hi_a = exe.ex_stores.(a).cs_arena
  and lo_b, hi_b = exe.ex_stores.(b).cs_arena in
  a <> b && lo_a < hi_b && lo_b < hi_a

let arena_floats exe =
  match exe.ex_arena with Some a -> Arena.floats a | None -> 0

let workers exe = exe.ex_workers
let stats exe = Array.to_list (Array.map (fun cb -> cb.cb_stats) exe.ex_blocks)
let sequential_fallbacks exe = exe.ex_fallbacks

let fusion_stats exe =
  Array.to_list (Array.map (fun cb -> cb.cb_fusion) exe.ex_blocks)
