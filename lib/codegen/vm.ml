type order = Sequential | Wavefront

exception Execution_error of string

let err fmt = Format.kasprintf (fun s -> raise (Execution_error s)) fmt

let strides dims =
  let n = Array.length dims in
  let st = Array.make n 1 in
  for i = n - 2 downto 0 do
    st.(i) <- st.(i + 1) * dims.(i + 1)
  done;
  st

(* Row-major walk of a nested FractalTensor that must be shaped
   [dims]: [f pos t] for every leaf.  The position is threaded through
   the recursion, so the walk itself allocates nothing. *)
let rec iter_from dims f depth pos v =
  match v with
  | Fractal.Leaf t ->
      if depth <> Array.length dims then
        err "input nesting depth does not match the buffer rank";
      f pos t;
      pos + 1
  | Fractal.Node elems ->
      if depth >= Array.length dims then
        err "input nesting exceeds the buffer rank";
      if Array.length elems <> dims.(depth) then
        err "input extent %d differs from buffer extent %d"
          (Array.length elems) dims.(depth);
      let p = ref pos in
      for i = 0 to Array.length elems - 1 do
        p := iter_from dims f (depth + 1) !p (Array.unsafe_get elems i)
      done;
      !p

let iter_cells dims value f = ignore (iter_from dims f 0 0 value : int)

(* The nested FractalTensor shaped [dims] whose row-major leaves are
   [cell pos]. *)
let of_cells dims cell =
  let pos = ref 0 in
  let rec go depth =
    if depth = Array.length dims then begin
      let t = cell !pos in
      incr pos;
      Fractal.Leaf t
    end
    else Fractal.Node (Array.init dims.(depth) (fun _ -> go (depth + 1)))
  in
  go 0

(* How a block's points run:
   - [Ordered]: one strict sequence (the naive directional
     lexicographic order);
   - [Fronts]: wavefront anti-chains in hyperplane order.  Points
     inside one front are mutually independent whenever the schedule
     is legal — the schedule-legality verifier (lib/analysis) is the
     static safety net — so each front fans out across the domain
     pool. *)
type schedule =
  | Ordered of int array list
  | Fronts of (int * int array array) list

(* The naive order must follow each dimension's recurrence direction:
   right-directional aggregates (foldr/scanr) carry their dependence
   toward smaller indices, so their dimensions iterate descending. *)
let directional_points (b : Ir.block) points =
  let dir i =
    if i < Array.length b.Ir.blk_ops then
      match b.Ir.blk_ops.(i) with
      | Expr.Foldr | Expr.Scanr -> -1
      | _ -> 1
    else 1
  in
  let cmp p q =
    let rec go i =
      if i >= Array.length p then 0
      else
        let c = compare p.(i) q.(i) in
        if c <> 0 then c * dir i else go (i + 1)
    in
    go 0
  in
  List.stable_sort cmp points

let schedule order (b : Ir.block) points =
  match order with
  | Sequential -> Ordered (directional_points b points)
  | Wavefront -> Fronts (Effects.front_list (Effects.group_fronts b points))

type block_stats = {
  bs_block : string;
  bs_points : int;
  bs_fronts : int;
  bs_max_width : int;
}

let stats_of_schedule name = function
  | Ordered ps ->
      let n = List.length ps in
      { bs_block = name; bs_points = n; bs_fronts = n; bs_max_width = 1 }
  | Fronts fs ->
      List.fold_left
        (fun acc (_, pts) ->
          let w = Array.length pts in
          {
            acc with
            bs_points = acc.bs_points + w;
            bs_fronts = acc.bs_fronts + 1;
            bs_max_width = Stdlib.max acc.bs_max_width w;
          })
        { bs_block = name; bs_points = 0; bs_fronts = 0; bs_max_width = 0 }
        fs

let parallelism st =
  if st.bs_fronts = 0 then 1.0
  else float_of_int st.bs_points /. float_of_int st.bs_fronts

let wavefront_stats (g : Ir.graph) =
  List.map
    (fun (b : Ir.block) ->
      stats_of_schedule b.Ir.blk_name
        (schedule Wavefront b (Domain.enumerate b.Ir.blk_domain)))
    (Ir.dataflow_order g)

(* The "vm"-track spans every engine emits for a wavefront block and
   each of its anti-chains, so profiles cannot tell engines apart. *)
let block_span name st body =
  Trace.timed ~track:"vm" ~cat:"block"
    ~args:
      [
        ("block", Trace.String name);
        ("points", Trace.Int st.bs_points);
        ("fronts", Trace.Int st.bs_fronts);
        ("max_width", Trace.Int st.bs_max_width);
        ("parallelism", Trace.Float (parallelism st));
      ]
    "vm.block" body

let front_span ~block ~front ~width pool body =
  Trace.timed ~track:"vm" ~cat:"front"
    ~args:
      [
        ("block", Trace.String block);
        ("front", Trace.Int front);
        ("width", Trace.Int width);
        ( "domains",
          Trace.Int (match pool with Some p -> Domain_pool.size p | None -> 1)
        );
      ]
    "vm.front" body

(* Wavefront blocks whose same-front disjointness the static prover
   could not establish run sequentially instead — parallel execution
   of an unproven front would turn "unchecked assumption" into a
   possible race.  The handler observes each downgrade (default: a
   warning on stderr). *)
let fallback_handler =
  ref (fun blk reason ->
      Format.eprintf
        "vm: warning: block %s falls back to sequential execution — %s@."
        blk reason)

let set_fallback_handler f = fallback_handler := f
let report_fallback blk reason = !fallback_handler blk reason

(* The race guard, shared by every engine: a block only runs its
   anti-chains in parallel when the static prover certifies same-front
   disjointness.  Anything else — a proven race (which Verify would
   have flagged) or an unproven verdict — downgrades to the
   always-legal sequential order, reported through the handler. *)
let race_downgrade ?fronts g b =
  match (Effects.block_race ?fronts g b).Effects.rr_verdict with
  | Effects.Proven _ -> None
  | Effects.Unproven m -> Some ("same-front disjointness unproven: " ^ m)
  | Effects.Race (_, m) -> Some ("statically-proven race: " ^ m)

(* The schedule's fronts are the race prover's too: the guard groups
   them once and hands them over. *)
let guard g order (b : Ir.block) points =
  match order with
  | Sequential -> (schedule Sequential b points, None)
  | Wavefront -> (
      let fronts = Effects.group_fronts b points in
      match race_downgrade ~fronts g b with
      | None -> (Fronts (Effects.front_list fronts), None)
      | reason -> (schedule Sequential b points, reason))

let guarded_schedule g order (b : Ir.block) points =
  let (_, reason) as guarded = guard g order b points in
  Option.iter (report_fallback b.Ir.blk_name) reason;
  guarded
