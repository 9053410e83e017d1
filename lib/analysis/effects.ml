(* Static memory-effect analysis: footprints of access maps over
   iteration domains, and exact/conservative race proofs for the
   wavefront anti-chains the VM executes.  See effects.mli. *)

type precision = Must | May

type region = {
  rg_buffer : int;
  rg_name : string;
  rg_write : bool;
  rg_label : string;
  rg_lo : int array;
  rg_hi : int array;
  rg_precision : precision;
}

type footprint = {
  fp_block : string;
  fp_points : int;
  fp_reads : region list;
  fp_writes : region list;
}

type race_kind = WW | RW

type verdict =
  | Proven of string
  | Unproven of string
  | Race of race_kind * string

type race_report = {
  rr_block : string;
  rr_points : int;
  rr_fronts : int;
  rr_verdict : verdict;
}

let default_threshold = 4096

let verdict_name = function
  | Proven _ -> "proven-disjoint"
  | Unproven _ -> "unproven"
  | Race _ -> "race"

let buffer_bytes (bf : Ir.buffer) =
  4
  * Array.fold_left ( * ) 1 bf.Ir.buf_dims
  * Shape.numel bf.Ir.buf_elem

let vec_to_string v =
  "[" ^ String.concat "," (Array.to_list (Array.map string_of_int v)) ^ "]"

(* Every write edge and the reads evaluation consults ({!Ir.live_reads}):
   a read shadowed by a literal, used by no operand or superseded by a
   later same-label edge never executes, so footprints and race proofs
   describe exactly what runs. *)
let live_edges (b : Ir.block) =
  let live = Ir.live_reads b in
  List.filter
    (fun (e : Ir.edge) -> e.Ir.e_dir = Ir.Write || List.memq e live)
    b.Ir.blk_edges

(* Minimal well-formedness for doing arithmetic with an edge; anything
   failing this is V001/V012 territory and is skipped here. *)
let edge_usable (g : Ir.graph) (b : Ir.block) (e : Ir.edge) =
  let a = e.Ir.e_access in
  Access_map.in_dim a = b.Ir.blk_domain.Domain.dim
  && Array.length a.Access_map.offset = Array.length a.Access_map.matrix
  && Array.for_all
       (fun row -> Array.length row = Access_map.in_dim a)
       a.Access_map.matrix
  && List.exists (fun bf -> bf.Ir.buf_id = e.Ir.e_buffer) g.Ir.g_buffers

let usable_live_edges g b = List.filter (edge_usable g b) (live_edges b)

(* ------------------------------ footprints ------------------------- *)

(* The box is exact (Must) when the map is a partial permutation with
   ±1 entries: every row reads at most one variable, no variable drives
   two rows — then the image over a box is itself a box. *)
let box_is_exact matrix =
  let d = if Array.length matrix = 0 then 0 else Array.length matrix.(0) in
  let used = Array.make (Stdlib.max 1 d) false in
  Array.for_all
    (fun row ->
      let nz = ref [] in
      Array.iteri (fun j c -> if c <> 0 then nz := (j, c) :: !nz) row;
      match !nz with
      | [] -> true
      | [ (j, c) ] ->
          if abs c <> 1 || used.(j) then false
          else begin
            used.(j) <- true;
            true
          end
      | _ -> false)
    matrix

let clip_region bf lo hi =
  let changed = ref false in
  let lo' =
    Array.map
      (fun v ->
        let c = Stdlib.max v 0 in
        if c <> v then changed := true;
        c)
      lo
  and hi' =
    Array.mapi
      (fun i v ->
        let bound =
          if i < Array.length bf.Ir.buf_dims then bf.Ir.buf_dims.(i) - 1
          else v
        in
        let c = Stdlib.min v bound in
        if c <> v then changed := true;
        c)
      hi
  in
  (lo', hi', !changed)

(* [box] is the domain's {!Domain.rect_extents}; [points], for a
   general polyhedron, its points when they were enumerated. *)
let edge_region (g : Ir.graph) ~box points (e : Ir.edge) =
  let bf = Ir.buffer g e.Ir.e_buffer in
  let a = e.Ir.e_access in
  let m = Access_map.out_dim a in
  let mk lo hi prec =
    let lo, hi, clipped = clip_region bf lo hi in
    {
      rg_buffer = bf.Ir.buf_id;
      rg_name = bf.Ir.buf_name;
      rg_write = e.Ir.e_dir = Ir.Write;
      rg_label = e.Ir.e_label;
      rg_lo = lo;
      rg_hi = hi;
      rg_precision = (if clipped then May else prec);
    }
  in
  match box with
  | Some ext ->
      let lo = Array.make m 0 and hi = Array.make m 0 in
      Array.iteri
        (fun r row ->
          let l, h = Access_map.row_range row a.Access_map.offset.(r) ext in
          lo.(r) <- l;
          hi.(r) <- h)
        a.Access_map.matrix;
      mk lo hi (if box_is_exact a.Access_map.matrix then Must else May)
  | None -> (
      match points with
      | Some pts when pts <> [] ->
          let lo = Array.make m max_int and hi = Array.make m min_int in
          List.iter
            (fun p ->
              for r = 0 to m - 1 do
                let v = Access_map.row_at a r p in
                lo.(r) <- Stdlib.min lo.(r) v;
                hi.(r) <- Stdlib.max hi.(r) v
              done)
            pts;
          mk lo hi May
      | _ ->
          (* unknown domain shape: the whole buffer, may *)
          mk (Array.make m 0)
            (Array.map (fun d -> d - 1) bf.Ir.buf_dims)
            May)

(* The domain's point count, and its points when there are at most
   [threshold] of them: a box is judged by its volume before anything
   is enumerated, a general polyhedron (they only arise from region
   grouping and stay small) is enumerated once and judged by its
   length.  [points], when the caller already enumerated the domain,
   stands in for that enumeration; [box] is the domain's
   {!Domain.rect_extents}. *)
let domain_points ?(threshold = default_threshold) ?points ~box (d : Domain.t) =
  let all () =
    match points with Some pts -> pts | None -> Domain.enumerate d
  in
  match box with
  | Some ext ->
      let vol = Domain.box_volume ext in
      (vol, if vol <= threshold then Some (all ()) else None)
  | None ->
      let pts = all () in
      let n = List.length pts in
      (n, if n <= threshold then Some pts else None)

(* The points a region needs: only a general polyhedron's, since a
   box's regions come off its corners. *)
let region_points ~box (d : Domain.t) =
  match box with
  | Some ext -> (Domain.box_volume ext, None)
  | None -> domain_points ~box d

let block_footprint (g : Ir.graph) (b : Ir.block) =
  let box = Domain.rect_extents b.Ir.blk_domain in
  let count, points = region_points ~box b.Ir.blk_domain in
  let regions = List.map (edge_region g ~box points) (usable_live_edges g b) in
  {
    fp_block = b.Ir.blk_name;
    fp_points = count;
    fp_reads = List.filter (fun r -> not r.rg_write) regions;
    fp_writes = List.filter (fun r -> r.rg_write) regions;
  }

let footprints (g : Ir.graph) =
  List.map (block_footprint g) (Ir.dataflow_order g)

let region_cells r =
  let v = ref 1 in
  Array.iteri
    (fun i l -> v := !v * Stdlib.max 0 (r.rg_hi.(i) - l + 1))
    r.rg_lo;
  !v

let boxes_disjoint (lo1, hi1) (lo2, hi2) =
  let n = Array.length lo1 in
  let rec go i =
    if i >= n then false
    else if hi1.(i) < lo2.(i) || hi2.(i) < lo1.(i) then true
    else go (i + 1)
  in
  go 0

(* Footprint of one edge over a caller-chosen sub-box of the iteration
   space — the per-device footprint the distributed partitioner checks
   for disjointness.  Same interval arithmetic as [edge_region]'s
   rectangular branch; the sub-box (a device's shard, optionally
   widened by its halo) replaces the full domain extents. *)
let subrange_region (g : Ir.graph) (_b : Ir.block) ~ext (e : Ir.edge) =
  let bf = Ir.buffer g e.Ir.e_buffer in
  let a = e.Ir.e_access in
  let m = Access_map.out_dim a in
  let lo = Array.make m 0 and hi = Array.make m 0 in
  Array.iteri
    (fun r row ->
      let l, h = Access_map.row_range row a.Access_map.offset.(r) ext in
      lo.(r) <- l;
      hi.(r) <- h)
    a.Access_map.matrix;
  let lo, hi, clipped = clip_region bf lo hi in
  {
    rg_buffer = bf.Ir.buf_id;
    rg_name = bf.Ir.buf_name;
    rg_write = e.Ir.e_dir = Ir.Write;
    rg_label = e.Ir.e_label;
    rg_lo = lo;
    rg_hi = hi;
    rg_precision =
      (if (not clipped) && box_is_exact a.Access_map.matrix then Must else May);
  }

let regions_disjoint r1 r2 =
  r1.rg_buffer <> r2.rg_buffer
  || boxes_disjoint (r1.rg_lo, r1.rg_hi) (r2.rg_lo, r2.rg_hi)

(* ------------------------------ race proofs ------------------------ *)

(* The anti-chains {!Vm} runs: points keyed by their hyperplane value,
   all in front 0 when the block carries no dependence.  Grouped at
   most once per block, when first read; the schedule, the front count
   and the enumerated race proof all read the one table. *)
type fronts = {
  fr_hyperplane : int array option;
  fr_points : int array list;
  fr_table : (int, int array list) Hashtbl.t Lazy.t;
}

let group pi points =
  let table = Hashtbl.create 16 in
  let key p =
    match pi with
    | None -> 0
    | Some pi ->
        let k = ref 0 in
        Array.iteri (fun i c -> k := !k + (c * p.(i))) pi;
        !k
  in
  List.iter
    (fun p ->
      let k = key p in
      Hashtbl.replace table k
        (p :: (try Hashtbl.find table k with Not_found -> [])))
    points;
  table

let group_fronts (b : Ir.block) points =
  let pi = Reorder.hyperplane b in
  { fr_hyperplane = pi; fr_points = points; fr_table = lazy (group pi points) }

(* In hyperplane order, each front's points in reverse enumeration
   order; the whole domain in enumeration order when there is no
   hyperplane. *)
let front_list fr =
  match fr.fr_hyperplane with
  | None -> [ (0, Array.of_list fr.fr_points) ]
  | Some _ ->
      Hashtbl.fold
        (fun k ps acc -> (k, Array.of_list ps) :: acc)
        (Lazy.force fr.fr_table) []
      |> List.sort (fun (a, _) (b, _) -> compare a b)

exception Found of race_kind * string

(* Flat cell keys.  Each buffer the block writes (each rank it is
   written at) gets a base, and a cell of it the mixed-radix offset of
   its index over the per-axis range the block's write edges reach, out
   of bounds included: distinct written cells get distinct ints, so one
   int-keyed table decides a front.  A read outside that range touches
   no written cell. *)
type cell_space = {
  cs_lo : int array;  (** per-axis range the writes reach, inclusive *)
  cs_hi : int array;
  cs_stride : int array;
  mutable cs_base : int;
}

type keyed_edge = { ke_edge : Ir.edge; ke_buf : Ir.buffer; ke_space : cell_space }

(* Keys are non-negative and dense within each buffer's range: they
   are their own hash. *)
module Cells = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k
end)

exception Too_many_cells

(* [a * b] and [a + b] for non-negative operands, refused past
   [max_int]: a key space that large cannot be flattened. *)
let mul_fits a b = if a <> 0 && b > max_int / a then raise Too_many_cells else a * b
let add_fits a b = if b > max_int - a then raise Too_many_cells else a + b

(* The keyed write and read edges over the box [ext] (the domain's, or
   its enumerated points' bounding box), or [None] when the written
   cells do not fit in an int's range. *)
let cell_spaces g ext writes reads =
  let spaces = ref [] in
  let space_of (e : Ir.edge) =
    let m = Access_map.out_dim e.Ir.e_access in
    match List.assoc_opt (e.Ir.e_buffer, m) !spaces with
    | Some sp -> sp
    | None ->
        let sp =
          {
            cs_lo = Array.make m max_int;
            cs_hi = Array.make m min_int;
            cs_stride = Array.make m 0;
            cs_base = 0;
          }
        in
        spaces := ((e.Ir.e_buffer, m), sp) :: !spaces;
        sp
  in
  List.iter
    (fun (e : Ir.edge) ->
      let a = e.Ir.e_access and sp = space_of e in
      Array.iteri
        (fun r row ->
          let l, h = Access_map.row_range row a.Access_map.offset.(r) ext in
          sp.cs_lo.(r) <- Stdlib.min sp.cs_lo.(r) l;
          sp.cs_hi.(r) <- Stdlib.max sp.cs_hi.(r) h)
        a.Access_map.matrix)
    writes;
  let layout base (_, sp) =
    sp.cs_base <- base;
    let size = ref 1 in
    for r = Array.length sp.cs_lo - 1 downto 0 do
      sp.cs_stride.(r) <- !size;
      let reach = sp.cs_hi.(r) - sp.cs_lo.(r) in
      (* a negative reach overflowed *)
      if reach < 0 then raise Too_many_cells;
      size := mul_fits !size (add_fits reach 1)
    done;
    add_fits base !size
  in
  let keyed (e : Ir.edge) =
    { ke_edge = e; ke_buf = Ir.buffer g e.Ir.e_buffer; ke_space = space_of e }
  in
  match List.fold_left layout 0 !spaces with
  | exception Too_many_cells -> None
  | _ ->
      Some
        ( List.map keyed writes,
          (* a read of a buffer written only at another rank shares no
             cell *)
          List.filter_map
            (fun (e : Ir.edge) ->
              if
                List.mem_assoc
                  (e.Ir.e_buffer, Access_map.out_dim e.Ir.e_access)
                  !spaces
              then Some (keyed e)
              else None)
            reads )

(* The bounding box of enumerated points, [(lo, hi_exclusive)] per
   axis: where a general polyhedron's cell spaces are taken over. *)
let points_box dim pts =
  let lo = Array.make dim max_int and hi = Array.make dim min_int in
  List.iter
    (fun p ->
      Array.iteri
        (fun i v ->
          lo.(i) <- Stdlib.min lo.(i) v;
          hi.(i) <- Stdlib.max hi.(i) v)
        p)
    pts;
  Array.init dim (fun i -> (lo.(i), hi.(i) + 1))

(* The key of the cell [k] touches at [p]; for a read, [-1] when the
   cell is out of bounds (boundary-predicated, never executed) or
   outside what the writes reach. *)
let cell_key ~read k p =
  let a = k.ke_edge.Ir.e_access and sp = k.ke_space in
  let dims = k.ke_buf.Ir.buf_dims in
  let key = ref sp.cs_base and r = ref 0 in
  let m = Array.length sp.cs_lo in
  while !r < m do
    let v = Access_map.row_at a !r p in
    if
      read
      && ((!r < Array.length dims && (v < 0 || v >= dims.(!r)))
         || v < sp.cs_lo.(!r)
         || v > sp.cs_hi.(!r))
    then begin
      key := -1;
      r := m
    end
    else begin
      key := !key + (sp.cs_stride.(!r) * (v - sp.cs_lo.(!r)));
      incr r
    end
  done;
  !key

(* Exact decision by enumeration: replay the VM's front grouping and
   key every written cell; a duplicate write in one front is a W-W
   race, a read of a cell some *other* point of the same front writes
   is an R-W race.  Out-of-bounds reads are boundary-predicated (the
   region's consts mask them) and skipped.  One table serves the
   block, cleared between fronts; witness text is built only for a
   race found. *)
let enumerate_races g ext fronts npoints writes reads =
  match
    (* no point, nothing to key (and an empty box has no ranges) *)
    if Hashtbl.length fronts = 0 then Some ([], [])
    else cell_spaces g ext writes reads
  with
  | None -> Unproven "written cells span more keys than an int holds"
  | Some (writes, reads) -> (
      let cells = Cells.create (Stdlib.min 64 (npoints * List.length writes)) in
      let index k p = vec_to_string (Access_map.apply k.ke_edge.Ir.e_access p) in
      try
        Hashtbl.iter
          (fun front pts ->
            Cells.clear cells;
            List.iter
              (fun p ->
                List.iter
                  (fun k ->
                    let key = cell_key ~read:false k p in
                    match Cells.find_opt cells key with
                    | Some q ->
                        raise
                          (Found
                             ( WW,
                               Printf.sprintf
                                 "front %d: iterations %s and %s both write \
                                  %s%s"
                                 front (vec_to_string q) (vec_to_string p)
                                 k.ke_buf.Ir.buf_name (index k p) ))
                    | None -> Cells.add cells key p)
                  writes)
              pts;
            List.iter
              (fun p ->
                List.iter
                  (fun k ->
                    let key = cell_key ~read:true k p in
                    if key >= 0 then
                      match Cells.find_opt cells key with
                      | Some q when q <> p ->
                          raise
                            (Found
                               ( RW,
                                 Printf.sprintf
                                   "front %d: iteration %s reads %s%s, \
                                    written by sibling %s"
                                   front (vec_to_string p) k.ke_buf.Ir.buf_name
                                   (index k p) (vec_to_string q) ))
                      | _ -> ())
                  reads)
              pts)
          fronts;
        Proven
          ("enumerated " ^ string_of_int npoints ^ " iterations over "
          ^ string_of_int (Hashtbl.length fronts)
          ^ " fronts: all same-front cells disjoint")
      with Found (k, m) -> Race (k, m))

(* ---- algebraic path (domains too large to enumerate) --------------- *)

module Q = Linalg.Q

(* Solve M x = b exactly over Q.  Returns [`Unique x] when M has full
   column rank and the system is consistent, [`None] when inconsistent,
   [`Many] when the solution space is positive-dimensional. *)
let solve_exact m b =
  let rows = Array.length m in
  let cols = if rows = 0 then 0 else Array.length m.(0) in
  if cols = 0 then `Unique [||]
  else begin
    let a =
      Array.init rows (fun i ->
          Array.init (cols + 1) (fun j ->
              Q.of_int (if j < cols then m.(i).(j) else b.(i))))
    in
    let piv_of_col = Array.make cols (-1) in
    let r = ref 0 in
    for c = 0 to cols - 1 do
      if !r < rows then begin
        (* find a pivot *)
        let p = ref (-1) in
        for i = !r to rows - 1 do
          if !p = -1 && not (Q.is_zero a.(i).(c)) then p := i
        done;
        if !p >= 0 then begin
          let tmp = a.(!r) in
          a.(!r) <- a.(!p);
          a.(!p) <- tmp;
          let inv = Q.div Q.one a.(!r).(c) in
          a.(!r) <- Array.map (fun x -> Q.mul x inv) a.(!r);
          for i = 0 to rows - 1 do
            if i <> !r && not (Q.is_zero a.(i).(c)) then begin
              let f = a.(i).(c) in
              for j = 0 to cols do
                a.(i).(j) <- Q.sub a.(i).(j) (Q.mul f a.(!r).(j))
              done
            end
          done;
          piv_of_col.(c) <- !r;
          incr r
        end
      end
    done;
    (* consistency: a zero row with non-zero rhs *)
    let inconsistent = ref false in
    for i = !r to rows - 1 do
      if not (Q.is_zero a.(i).(cols)) then inconsistent := true
    done;
    if !inconsistent then `None
    else if Array.exists (fun p -> p = -1) piv_of_col then `Many
    else
      `Unique
        (Array.init cols (fun c -> a.(piv_of_col.(c)).(cols)))
  end

let dot a b =
  let s = ref 0 in
  Array.iteri (fun i x -> s := !s + (x * b.(i))) a;
  !s

(* delta fits inside the domain box: two points p and p + delta can
   both lie in the box iff |delta_i| <= extent_i - 1 per dimension. *)
let realizable ext delta =
  let ok = ref true in
  Array.iteri
    (fun i d -> if abs d > snd ext.(i) - fst ext.(i) - 1 then ok := false)
    delta;
  !ok

let stack_pi pi m =
  match pi with None -> m | Some pi -> Array.append m [| pi |]

(* W-W of a single write edge with itself: collisions within a front
   are exactly the non-zero integer null vectors of [M; pi].  An empty
   null space proves injectivity per front; a realizable basis vector
   is a genuine race witness. *)
let self_ww g ext pi (e : Ir.edge) =
  let stacked = stack_pi pi e.Ir.e_access.Access_map.matrix in
  let ns = Linalg.null_space stacked in
  if Array.length ns = 0 then
    Proven "write map injective within every front (trivial null space)"
  else
    let witness = Array.to_list ns |> List.find_opt (realizable ext) in
    match witness with
    | Some v ->
        Race
          ( WW,
            Printf.sprintf
              "iterations %s apart lie in one front and write the same \
               cell of %s"
              (vec_to_string v)
              (Ir.buffer g e.Ir.e_buffer).Ir.buf_name )
    | None ->
        Unproven
          (Printf.sprintf
             "write '%s': null direction %s of [M;pi] exceeds the domain \
              box — cannot witness or refute"
             e.Ir.e_label
             (vec_to_string ns.(0)))

(* Two accesses of one buffer with equal matrices M and offsets o1, o2:
   a collision needs M d = o2 - o1 with pi . d = 0 (same front) and
   d <> 0.  A unique integral solution decides the question exactly —
   this is what proves the recurrent state read (offset -1 or +1 along
   the sequential dimension) race-free: its d has pi . d <> 0, i.e. the
   dependence is carried *across* fronts. *)
let equal_matrix_pair ext pi kind bufname m o1 o2 =
  let delta_rhs = Array.init (Array.length o1) (fun i -> o2.(i) - o1.(i)) in
  if Array.for_all (fun x -> x = 0) delta_rhs then
    (* same map: only d in null(M) collide, same argument as self W-W *)
    let stacked = stack_pi pi m in
    let ns = Linalg.null_space stacked in
    if Array.length ns = 0 then
      Proven "identical access maps, injective within every front"
    else if Array.exists (realizable ext) ns then
      Race
        ( kind,
          Printf.sprintf "same-front iterations share a cell of %s" bufname )
    else Unproven "identical maps with an unrealizably large null direction"
  else
    match solve_exact m delta_rhs with
    | `None -> Proven "offset difference unreachable by the access matrix"
    | `Many ->
        Unproven
          "offset difference reachable along a positive-dimensional \
           solution space"
    | `Unique qs ->
        if Array.exists (fun q -> not (Q.is_integral q)) qs then
          Proven "offset difference only reachable at fractional iterations"
        else
          let d = Array.map Q.to_int qs in
          let carried = match pi with None -> 0 | Some pi -> dot pi d in
          if carried <> 0 then
            Proven
              (Printf.sprintf
                 "dependence distance %s is carried across fronts \
                  (pi.d = %d)"
                 (vec_to_string d) carried)
          else if realizable ext d then
            Race
              ( kind,
                Printf.sprintf
                  "iterations %s apart lie in one front and touch the \
                   same cell of %s"
                  (vec_to_string d) bufname )
          else
            Proven
              (Printf.sprintf
                 "collision distance %s exceeds the domain box"
                 (vec_to_string d))

let algebraic_races g ext pi writes reads =
  let region e = edge_region g ~box:(Some ext) None e in
  let boxes_of e =
    let r = region e in
    (r.rg_lo, r.rg_hi)
  in
  let pair_verdict kind (e1 : Ir.edge) (e2 : Ir.edge) =
    if e1.Ir.e_buffer <> e2.Ir.e_buffer then
      Proven "distinct buffers"
    else if boxes_disjoint (boxes_of e1) (boxes_of e2) then
      Proven "disjoint footprint boxes"
    else
      let a1 = e1.Ir.e_access and a2 = e2.Ir.e_access in
      if a1.Access_map.matrix = a2.Access_map.matrix then
        equal_matrix_pair ext pi kind
          (Ir.buffer g e1.Ir.e_buffer).Ir.buf_name a1.Access_map.matrix
          a1.Access_map.offset a2.Access_map.offset
      else
        Unproven
          (Printf.sprintf
             "accesses '%s' and '%s' of %s have dissimilar matrices and \
              overlapping boxes"
             e1.Ir.e_label e2.Ir.e_label
             (Ir.buffer g e1.Ir.e_buffer).Ir.buf_name)
  in
  let verdicts = ref [] in
  (* every write against itself *)
  List.iter (fun w -> verdicts := self_ww g ext pi w :: !verdicts) writes;
  (* distinct write pairs *)
  let rec ww = function
    | [] -> ()
    | w :: rest ->
        List.iter (fun w' -> verdicts := pair_verdict WW w w' :: !verdicts) rest;
        ww rest
  in
  ww writes;
  (* read against every write of the same buffer *)
  List.iter
    (fun r ->
      List.iter
        (fun w ->
          if r.Ir.e_buffer = w.Ir.e_buffer then
            verdicts := pair_verdict RW r w :: !verdicts)
        writes)
    reads;
  let vs = List.rev !verdicts in
  match List.find_opt (function Race _ -> true | _ -> false) vs with
  | Some r -> r
  | None -> (
      match List.find_opt (function Unproven _ -> true | _ -> false) vs with
      | Some u -> u
      | None ->
          Proven
            "algebraic: write maps injective per front; every read/write \
             collision distance carried across fronts or out of range")

let block_race ?(threshold = default_threshold) ?fronts (g : Ir.graph)
    (b : Ir.block) =
  let pi =
    match fronts with
    | Some fr -> fr.fr_hyperplane
    | None -> Reorder.hyperplane b
  in
  let edges = usable_live_edges g b in
  let writes = List.filter (fun (e : Ir.edge) -> e.Ir.e_dir = Ir.Write) edges in
  let written_bufs = List.map (fun (e : Ir.edge) -> e.Ir.e_buffer) writes in
  let reads =
    List.filter
      (fun (e : Ir.edge) ->
        e.Ir.e_dir = Ir.Read && List.mem e.Ir.e_buffer written_bufs)
      edges
  in
  let box = Domain.rect_extents b.Ir.blk_domain in
  let points = Option.map (fun fr -> fr.fr_points) fronts in
  let rr_points, points =
    domain_points ~threshold ?points ~box b.Ir.blk_domain
  in
  let fronts =
    match (fronts, points) with
    | _, None -> None
    | Some fr, Some _ -> Some (Lazy.force fr.fr_table)
    | None, Some pts -> Some (group pi pts)
  in
  let rr_fronts =
    match (pi, fronts) with
    | None, _ -> 1
    | Some _, Some fronts -> Hashtbl.length fronts
    | Some pi, None -> (
        match box with
        | Some ext ->
            let lo, hi = Access_map.row_range pi 0 ext in
            hi - lo + 1
        | None -> 0)
  in
  let verdict =
    if writes = [] then Proven "block writes nothing"
    else
      match (fronts, points) with
      | Some fronts, Some pts ->
          let ext =
            match box with
            | Some ext -> ext
            | None -> points_box b.Ir.blk_domain.Domain.dim pts
          in
          enumerate_races g ext fronts rr_points writes reads
      | _ -> (
          match box with
          | Some ext -> algebraic_races g ext pi writes reads
          | None ->
              Unproven
                (Printf.sprintf
                   "non-rectangular domain with more than %d points"
                   threshold))
  in
  { rr_block = b.Ir.blk_name; rr_points; rr_fronts; rr_verdict = verdict }

let race_check ?threshold (g : Ir.graph) =
  List.map (block_race ?threshold g) (Ir.dataflow_order g)

(* ------------------------------ flow checks ------------------------ *)

let never_read (g : Ir.graph) =
  List.filter_map
    (fun (bf : Ir.buffer) ->
      if bf.Ir.buf_role <> Ir.Intermediate then None
      else
        let touched dir =
          List.exists
            (fun (b : Ir.block) ->
              List.exists
                (fun (e : Ir.edge) ->
                  e.Ir.e_buffer = bf.Ir.buf_id && e.Ir.e_dir = dir
                  && (dir = Ir.Write
                     || not (List.mem_assoc e.Ir.e_label b.Ir.blk_consts)))
                b.Ir.blk_edges)
            g.Ir.g_blocks
        in
        if touched Ir.Write && not (touched Ir.Read) then Some bf.Ir.buf_name
        else None)
    g.Ir.g_buffers

let race_diagnostics ?stage ?threshold (g : Ir.graph) =
  let ctx b =
    match stage with Some s -> Some (s ^ ": " ^ b) | None -> Some b
  in
  List.filter_map
    (fun rr ->
      match rr.rr_verdict with
      | Proven _ -> None
      | Race (WW, m) ->
          Some
            (Diagnostic.errorf ?context:(ctx rr.rr_block) "V300"
               "wavefront write-write race: %s" m)
      | Race (RW, m) ->
          Some
            (Diagnostic.errorf ?context:(ctx rr.rr_block) "V301"
               "wavefront read-write race: %s" m)
      | Unproven m ->
          Some
            (Diagnostic.notef ?context:(ctx rr.rr_block) "V304"
               "wavefront disjointness unproven: %s" m))
    (race_check ?threshold g)

let flow_diagnostics ?stage (g : Ir.graph) =
  let ctx b =
    match stage with Some s -> Some (s ^ ": " ^ b) | None -> Some b
  in
  let dead =
    let nr = never_read g in
    List.concat_map
      (fun (b : Ir.block) ->
        List.filter_map
          (fun (e : Ir.edge) ->
            if e.Ir.e_dir = Ir.Write then
              match
                List.find_opt
                  (fun bf -> bf.Ir.buf_id = e.Ir.e_buffer)
                  g.Ir.g_buffers
              with
              | Some bf when List.mem bf.Ir.buf_name nr ->
                  Some
                    (Diagnostic.warningf ?context:(ctx b.Ir.blk_name) "V302"
                       "dead store: no block reads intermediate buffer %s"
                       bf.Ir.buf_name)
              | _ -> None
            else None)
          b.Ir.blk_edges)
      g.Ir.g_blocks
  in
  (* a read whose (clipped) footprint box lies outside the union
     bounding box of every writer of the buffer can only see
     uninitialized cells *)
  (* each block's points once, for its own reads and as a writer *)
  let block_points =
    List.map
      (fun (b : Ir.block) ->
        let box = Domain.rect_extents b.Ir.blk_domain in
        (b, (box, snd (region_points ~box b.Ir.blk_domain))))
      g.Ir.g_blocks
  in
  let uninit =
    List.concat_map
      (fun (b : Ir.block) ->
        let box, points = List.assq b block_points in
        List.filter_map
          (fun (e : Ir.edge) ->
            if e.Ir.e_dir <> Ir.Read || not (edge_usable g b e) then None
            else if List.mem_assoc e.Ir.e_label b.Ir.blk_consts then None
            else
              let bf = Ir.buffer g e.Ir.e_buffer in
              if bf.Ir.buf_role = Ir.Input then None
              else
                let writers =
                  List.concat_map
                    (fun (wb : Ir.block) ->
                      List.filter_map
                        (fun (w : Ir.edge) ->
                          if
                            w.Ir.e_dir = Ir.Write
                            && w.Ir.e_buffer = bf.Ir.buf_id
                            && edge_usable g wb w
                          then
                            let box, points = List.assq wb block_points in
                            Some (edge_region g ~box points w)
                          else None)
                        wb.Ir.blk_edges)
                    g.Ir.g_blocks
                in
                if writers = [] then
                  Some
                    (Diagnostic.warningf ?context:(ctx b.Ir.blk_name) "V303"
                       "read of buffer %s, which no block writes"
                       bf.Ir.buf_name)
                else
                  let r = edge_region g ~box points e in
                  let m = Array.length r.rg_lo in
                  let wlo = Array.make m max_int
                  and whi = Array.make m min_int in
                  List.iter
                    (fun w ->
                      Array.iteri
                        (fun i v -> wlo.(i) <- Stdlib.min wlo.(i) v)
                        w.rg_lo;
                      Array.iteri
                        (fun i v -> whi.(i) <- Stdlib.max whi.(i) v)
                        w.rg_hi)
                    writers;
                  if boxes_disjoint (r.rg_lo, r.rg_hi) (wlo, whi) then
                    Some
                      (Diagnostic.warningf ?context:(ctx b.Ir.blk_name) "V303"
                         "read of %s%s..%s lies outside everything written \
                          to it (%s..%s)"
                         bf.Ir.buf_name (vec_to_string r.rg_lo)
                         (vec_to_string r.rg_hi) (vec_to_string wlo)
                         (vec_to_string whi))
                  else None)
          b.Ir.blk_edges)
      g.Ir.g_blocks
  in
  dead @ uninit

let diagnostics ?stage ?threshold (g : Ir.graph) =
  race_diagnostics ?stage ?threshold g @ flow_diagnostics ?stage g
