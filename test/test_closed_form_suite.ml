(* The compile path proves operand bounds and wavefront race freedom in
   closed form: row ranges off a box's corners, cells keyed by one int,
   boxes enumerated by nested loops.  These suites check each against
   the per-point enumeration it replaced, kept here as the reference:
   a race prover keyed by [(buffer, index list)], an every-point bounds
   scan through [Access_map.apply], and the loop nest that re-eliminates
   every inner variable for each point prefix.  Every workload (default
   and paper sizes), every .ft in the repository and the compiled
   programs among 200 generated ones, on the built and the emitted
   graph, and on maps mutated to force a W-W race, an R-W race and
   out-of-bounds accesses. *)

let checkb = Alcotest.(check bool)

(* Domains up to this many points are enumerated by the references;
   operand bounds and race proofs up to the race prover's own
   enumeration bound. *)
let max_enumerated = 1 lsl 16
let max_proven = Effects.default_threshold

let vec_to_string v =
  "[" ^ String.concat "," (Array.to_list (Array.map string_of_int v)) ^ "]"

(* The graph with one edge of block [b] replaced, and the new block. *)
let replace_edge (g : Ir.graph) (b : Ir.block) old e' =
  let b' =
    {
      b with
      Ir.blk_edges =
        List.map (fun e -> if e == old then e' else e) b.Ir.blk_edges;
    }
  in
  ( { g with Ir.g_blocks = List.map (fun x -> if x == b then b' else x) g.Ir.g_blocks },
    b' )

(* ----------------------------- domains ----------------------------- *)

(* The loop nest as [Domain.bounds] gives it at every prefix, each
   point tested for membership. *)
let reference_enumerate (d : Domain.t) =
  if d.Domain.dim = 0 then [ [||] ]
  else begin
    let out = ref [] and point = Array.make d.Domain.dim 0 in
    let rec go k =
      if k = d.Domain.dim then begin
        if Domain.mem d point then out := Array.copy point :: !out
      end
      else
        match Domain.bounds d k ~outer:point with
        | None -> ()
        | Some (lo, hi) ->
            for v = lo to hi do
              point.(k) <- v;
              go (k + 1)
            done
    in
    go 0;
    List.rev !out
  end

(* Per-dimension bounds collected from single-variable constraints. *)
let reference_rect_extents (d : Domain.t) =
  let lo = Array.make d.Domain.dim None and hi = Array.make d.Domain.dim None in
  let box = ref true in
  List.iter
    (fun (c : Domain.ineq) ->
      let nz =
        Array.to_list c.Domain.coeffs
        |> List.mapi (fun k a -> (k, a))
        |> List.filter (fun (_, a) -> a <> 0)
      in
      let tighten cur v f = Some (match cur with None -> v | Some c -> f c v) in
      match nz with
      | [ (k, 1) ] -> lo.(k) <- tighten lo.(k) (-c.Domain.const) Stdlib.max
      | [ (k, -1) ] -> hi.(k) <- tighten hi.(k) (c.Domain.const + 1) Stdlib.min
      | _ -> box := false)
    d.Domain.cs;
  if not !box then None
  else
    try
      Some
        (Array.init d.Domain.dim (fun k ->
             match (lo.(k), hi.(k)) with
             | Some a, Some b -> (a, b)
             | _ -> raise Exit))
    with Exit -> None

(* The block domains, and each 2-D-or-more box skewed by the unimodular
   [t0 += t1] — a general polyhedron like a reordered block's. *)
let skew (d : Domain.t) =
  let n = d.Domain.dim in
  Domain.transform
    (Array.init n (fun i ->
         Array.init n (fun j -> if i = j || (i = 0 && j = 1) then 1 else 0)))
    d

let domain_parity ctx (d : Domain.t) =
  checkb (ctx ^ ": rect_extents") true
    (Domain.rect_extents d = reference_rect_extents d);
  if Domain.card d <= max_enumerated then begin
    let expected = reference_enumerate d in
    checkb (ctx ^ ": enumerate") true (Domain.enumerate d = expected);
    checkb (ctx ^ ": card") true (Domain.card d = List.length expected);
    checkb (ctx ^ ": is_empty") true (Domain.is_empty d = (expected = []))
  end

let domains_case () =
  let boxes = ref 0 and general = ref 0 in
  Test_facts_suite.every_block
    (fun ctx _ (b : Ir.block) ->
      let d = b.Ir.blk_domain in
      let count d =
        if Domain.card d <= max_enumerated then
          if Domain.rect_extents d = None then incr general else incr boxes
      in
      domain_parity ctx d;
      count d;
      if d.Domain.dim >= 2 then begin
        let s = skew d in
        domain_parity (ctx ^ " (skewed)") s;
        count s
      end)
    ();
  (* empty boxes, a bare dimension-0 domain, one empty general
     polyhedron *)
  List.iter
    (fun (name, d) -> domain_parity name d)
    [
      ("empty box", Domain.rect ~lo:[| 0; 3 |] ~hi:[| 2; 3 |]);
      ("dimension 0", Domain.of_extents [||]);
      ("empty skewed", skew (Domain.rect ~lo:[| 0; 3 |] ~hi:[| 2; 3 |]));
    ];
  checkb "some boxes and general polyhedra enumerated" true
    (!boxes > 100 && !general > 10)

(* -------------------------- operand bounds ------------------------- *)

(* Every point through [apply], rows in order. *)
let reference_outside a ~dims points =
  List.find_map
    (fun p ->
      let idx = Access_map.apply a p in
      let bad = ref None in
      Array.iteri
        (fun r v ->
          if !bad = None && (v < 0 || v >= dims.(r)) then bad := Some (r, v))
        idx;
      !bad)
    points

(* Each map shifted by one step either way along each row: off the
   buffer at one face (or one corner) of the domain only. *)
let shifted (a : Access_map.t) =
  List.concat_map
    (fun r ->
      List.map
        (fun s ->
          let off = Array.copy a.Access_map.offset in
          off.(r) <- off.(r) + s;
          { a with Access_map.offset = off })
        [ -1; 1 ])
    (List.init (Access_map.out_dim a) Fun.id)

let bounds_parity ctx ~rejected g (b : Ir.block) =
  let d = b.Ir.blk_domain in
  if Domain.card d <= max_proven then begin
    let points = Domain.enumerate d in
    let box = if points = [] then None else Domain.rect_extents d in
    List.iter
      (fun (e : Ir.edge) ->
        let dims = (Ir.buffer g e.Ir.e_buffer).Ir.buf_dims in
        if
          Access_map.out_dim e.Ir.e_access = Array.length dims
          && Access_map.in_dim e.Ir.e_access = d.Domain.dim
        then
          List.iter
            (fun a ->
              let expected = reference_outside a ~dims points in
              if expected <> None then incr rejected;
              checkb (ctx ^ "/" ^ e.Ir.e_label ^ ": bounds") true
                (Access_map.first_outside a ~dims ?box points = expected))
            (e.Ir.e_access :: shifted e.Ir.e_access))
      b.Ir.blk_edges
  end

(* A map that leaves the buffer at one corner of its box only: [t0 + t1]
   over [0,3) x [0,4) reaches 5 at [2,3] alone.  And maps [apply]
   rejects, which no corner decides. *)
let corner_case () =
  let a = Access_map.make [| [| 1; 1 |] |] [| 0 |] in
  let d = Domain.of_extents [| 3; 4 |] in
  let points = Domain.enumerate d and box = Domain.rect_extents d in
  let expected = reference_outside a ~dims:[| 5 |] points in
  checkb "one corner leaves the buffer" true (expected = Some (0, 5));
  checkb "corner-derived bounds name it" true
    (Access_map.first_outside a ~dims:[| 5 |] ?box points = expected);
  checkb "a wider buffer holds it" true
    (Access_map.first_outside a ~dims:[| 6 |] ?box points = None);
  (* a ragged matrix and a short offset fail as [apply] fails *)
  let outcome f = match f () with v -> Ok v | exception e -> Error e in
  List.iter
    (fun (name, a) ->
      checkb (name ^ ": as the scan fails") true
        (outcome (fun () -> Access_map.first_outside a ~dims:[| 9; 9 |] ?box points)
        = outcome (fun () -> reference_outside a ~dims:[| 9; 9 |] points)))
    [
      ("ragged", Access_map.make [| [| 1; 0 |]; [| 1 |] |] [| 0; 0 |]);
      ("short offset", { (Access_map.identity 2) with Access_map.offset = [| 0 |] });
    ]

(* [Compiled.compile] rejects a live read shifted off its buffer with the
   message the every-point scan gives. *)
let compile_error_parity ctx ~checked g (b : Ir.block) =
  if Domain.card b.Ir.blk_domain <= max_proven then
    match Ir.live_reads b with
    | [] -> ()
    | r :: _ ->
        let points = Domain.enumerate b.Ir.blk_domain in
        let bf = Ir.buffer g r.Ir.e_buffer in
        List.iter
          (fun a ->
            match reference_outside a ~dims:bf.Ir.buf_dims points with
            | None -> ()
            | Some (row, v) ->
                let g', _ = replace_edge g b r { r with Ir.e_access = a } in
                let expected =
                  Printf.sprintf "block %s: buffer %d index %d out of extent %d"
                    b.Ir.blk_name r.Ir.e_buffer v bf.Ir.buf_dims.(row)
                in
                let got =
                  match Compiled.compile g' with
                  | _ -> "compiled"
                  | exception Vm.Execution_error m -> m
                in
                incr checked;
                checkb (ctx ^ ": compile error") true (got = expected))
          (shifted r.Ir.e_access)

let max_compiled_bytes = 1 lsl 22

let bounds_case () =
  Vm.set_fallback_handler (fun _ _ -> ());
  let rejected = ref 0 and checked = ref 0 in
  Test_facts_suite.every_block
    (fun ctx g b -> bounds_parity ctx ~rejected g b)
    ();
  List.iter
    (fun (name, p) ->
      let g = Build.build p in
      (* every buffer gets its storage at compile time *)
      let small =
        List.fold_left (fun n bf -> n + Effects.buffer_bytes bf) 0 g.Ir.g_buffers
        <= max_compiled_bytes
      in
      if
        small && match Compiled.compile g with _ -> true | exception _ -> false
      then
        List.iter
          (fun (b : Ir.block) ->
            compile_error_parity (name ^ "/" ^ b.Ir.blk_name) ~checked g b)
          g.Ir.g_blocks)
    (Test_facts_suite.programs ());
  checkb "some maps rejected" true (!rejected > 100);
  checkb "some compile errors compared" true (!checked > 50)

(* ---------------------------- race proofs -------------------------- *)

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

exception Found of Effects.race_kind * string

(* The enumerated verdict with every cell keyed by its buffer and index
   list, in a fresh table per front: the fronts in the grouping table's
   order, each front's writes then its reads. *)
let reference_verdict g (b : Ir.block) =
  let live = Ir.live_reads b and dim = b.Ir.blk_domain.Domain.dim in
  let usable (e : Ir.edge) =
    let a = e.Ir.e_access in
    Access_map.in_dim a = dim
    && Array.length a.Access_map.offset = Array.length a.Access_map.matrix
    && Array.for_all (fun row -> Array.length row = dim) a.Access_map.matrix
    && List.exists (fun bf -> bf.Ir.buf_id = e.Ir.e_buffer) g.Ir.g_buffers
  in
  let edges =
    List.filter
      (fun (e : Ir.edge) ->
        (e.Ir.e_dir = Ir.Write || List.memq e live) && usable e)
      b.Ir.blk_edges
  in
  let writes = List.filter (fun (e : Ir.edge) -> e.Ir.e_dir = Ir.Write) edges in
  let reads =
    List.filter
      (fun (e : Ir.edge) ->
        e.Ir.e_dir = Ir.Read
        && List.exists (fun (w : Ir.edge) -> w.Ir.e_buffer = e.Ir.e_buffer) writes)
      edges
  in
  if writes = [] then Effects.Proven "block writes nothing"
  else
    let points = reference_enumerate b.Ir.blk_domain in
    let fronts = group (Reorder.hyperplane b) points in
    try
      Hashtbl.iter
        (fun front pts ->
          let cells = Hashtbl.create 64 in
          List.iter
            (fun p ->
              List.iter
                (fun (e : Ir.edge) ->
                  let idx = Access_map.apply e.Ir.e_access p in
                  let ck = (e.Ir.e_buffer, Array.to_list idx) in
                  match Hashtbl.find_opt cells ck with
                  | Some q ->
                      raise
                        (Found
                           ( Effects.WW,
                             Printf.sprintf
                               "front %d: iterations %s and %s both write %s%s"
                               front (vec_to_string q) (vec_to_string p)
                               (Ir.buffer g e.Ir.e_buffer).Ir.buf_name
                               (vec_to_string idx) ))
                  | None -> Hashtbl.add cells ck p)
                writes)
            pts;
          List.iter
            (fun p ->
              List.iter
                (fun (e : Ir.edge) ->
                  let bf = Ir.buffer g e.Ir.e_buffer in
                  let idx = Access_map.apply e.Ir.e_access p in
                  let inside =
                    Array.for_all Fun.id
                      (Array.mapi
                         (fun i v ->
                           i >= Array.length bf.Ir.buf_dims
                           || (v >= 0 && v < bf.Ir.buf_dims.(i)))
                         idx)
                  in
                  if inside then
                    match
                      Hashtbl.find_opt cells (e.Ir.e_buffer, Array.to_list idx)
                    with
                    | Some q when q <> p ->
                        raise
                          (Found
                             ( Effects.RW,
                               Printf.sprintf
                                 "front %d: iteration %s reads %s%s, written \
                                  by sibling %s"
                                 front (vec_to_string p) bf.Ir.buf_name
                                 (vec_to_string idx) (vec_to_string q) ))
                    | _ -> ())
                reads)
            pts)
        fronts;
      Effects.Proven
        (Printf.sprintf
           "enumerated %d iterations over %d fronts: all same-front cells \
            disjoint"
           (List.length points) (Hashtbl.length fronts))
    with Found (k, m) -> Effects.Race (k, m)

(* The block, and its maps mutated: the first write losing its last
   column (same-front points collide), shifted off its buffer either
   way (and up with the lost column), and the first live read turned
   into that write, in or off its buffer, shifted one step either way
   along its last row (a sibling's cell). *)
let variants g (b : Ir.block) =
  let d = b.Ir.blk_domain.Domain.dim in
  let with_map (e : Ir.edge) a = { e with Ir.e_access = a } in
  let original = [ ("original", g, b) ] in
  match Ir.writes b with
  | w :: _ when d > 0 && Access_map.regular w.Ir.e_access ->
      let a = w.Ir.e_access in
      let m = Access_map.out_dim a in
      let lost =
        {
          a with
          Access_map.matrix =
            Array.map
              (fun row -> Array.mapi (fun j c -> if j = d - 1 then 0 else c) row)
              a.Access_map.matrix;
        }
      in
      (* moved a whole extent up ([sign] 1) or down ([sign] -1) *)
      let off_buffer ?(sign = 1) (a : Access_map.t) =
        let dims = (Ir.buffer g w.Ir.e_buffer).Ir.buf_dims in
        let off = Array.copy a.Access_map.offset in
        if m > 0 && Array.length dims > 0 then
          off.(0) <- off.(0) + (sign * dims.(0));
        { a with Access_map.offset = off }
      in
      let mutant name old e' =
        let g', b' = replace_edge g b old e' in
        (name, g', b')
      in
      (* the read lands on a sibling's cell, in the buffer or (with the
         write moved off it) outside, where it is never executed *)
      let reads =
        match Ir.live_reads b with
        | r :: _ when m > 0 ->
            List.concat_map
              (fun (what, (base : Access_map.t), w') ->
                List.map
                  (fun s ->
                    let off = Array.copy base.Access_map.offset in
                    off.(m - 1) <- off.(m - 1) + s;
                    let g', b' =
                      replace_edge g b r
                        {
                          r with
                          Ir.e_buffer = w.Ir.e_buffer;
                          e_access = { base with Access_map.offset = off };
                        }
                    in
                    let g', b' = replace_edge g' b' w w' in
                    (Printf.sprintf "read of %s%+d" what s, g', b'))
                  [ -1; 1 ])
              [
                ("write", a, w);
                ("off-buffer write", off_buffer a, with_map w (off_buffer a));
                ( "below-buffer write",
                  off_buffer ~sign:(-1) a,
                  with_map w (off_buffer ~sign:(-1) a) );
              ]
        | _ -> []
      in
      original
      @ [
          mutant "lost column" w (with_map w lost);
          mutant "off buffer" w (with_map w (off_buffer a));
          mutant "below buffer" w (with_map w (off_buffer ~sign:(-1) a));
          mutant "off buffer, lost column" w (with_map w (off_buffer lost));
        ]
      @ reads
  | _ -> original

let races_case () =
  let ww = ref 0 and rw = ref 0 and oob_ww = ref 0 and proven = ref 0 in
  Test_facts_suite.every_block
    (fun ctx g b ->
      if Domain.card b.Ir.blk_domain <= max_proven then
        List.iter
          (fun (name, g', b') ->
            let expected = reference_verdict g' b' in
            (match expected with
            | Effects.Race (Effects.WW, _) ->
                incr ww;
                if name = "off buffer, lost column" then incr oob_ww
            | Effects.Race (Effects.RW, _) -> incr rw
            | _ -> incr proven);
            let rr = Effects.block_race ~threshold:max_proven g' b' in
            checkb (ctx ^ " " ^ name ^ ": race verdict") true
              (rr.Effects.rr_verdict = expected);
            let fronts =
              Effects.group_fronts b' (Domain.enumerate b'.Ir.blk_domain)
            in
            checkb (ctx ^ " " ^ name ^ ": guard's verdict") true
              ((Effects.block_race ~threshold:max_proven ~fronts g' b')
                 .Effects.rr_verdict = expected))
          (variants g b))
    ();
  checkb "W-W races found" true (!ww > 50);
  checkb "out-of-bounds W-W races found" true (!oob_ww > 20);
  checkb "R-W races found" true (!rw > 20);
  checkb "disjoint blocks proven" true (!proven > 100)

(* Written cells whose index range does not fit in an int's key space
   are not keyed: the verdict is unproven, never a wrong proof. *)
let key_space_case () =
  let spread = ref 0 in
  Test_facts_suite.every_block
    (fun ctx g (b : Ir.block) ->
      let wide (a : Access_map.t) =
        {
          a with
          Access_map.matrix =
            Array.map (Array.map (fun c -> c lsl 40)) a.Access_map.matrix;
        }
      in
      (* every row of the widened map spans at least 2^40 cells *)
      let spans_wide (a : Access_map.t) ext =
        Array.for_all
          (fun row ->
            let lo, hi = Access_map.row_range row 0 ext in
            hi - lo >= 1 lsl 40)
          (wide a).Access_map.matrix
      in
      match (Ir.writes b, Domain.rect_extents b.Ir.blk_domain) with
      | w :: _, Some ext
        when Access_map.out_dim w.Ir.e_access >= 2
             && Access_map.regular w.Ir.e_access
             && Domain.card b.Ir.blk_domain <= max_proven
             && spans_wide w.Ir.e_access ext ->
          let wide = wide w.Ir.e_access in
          let g', b' = replace_edge g b w { w with Ir.e_access = wide } in
          incr spread;
          checkb (ctx ^ ": unproven") true
            ((Effects.block_race ~threshold:max_proven g' b').Effects.rr_verdict
            = Effects.Unproven "written cells span more keys than an int holds")
      | _ -> ())
    ();
  checkb "some key spaces overflow" true (!spread > 10)

let suites =
  [
    ( "closed-form",
      [
        Alcotest.test_case
          "box enumeration and rect_extents equal the per-prefix loop nest"
          `Quick domains_case;
        Alcotest.test_case
          "a map off its box at one corner only; malformed maps" `Quick
          corner_case;
        Alcotest.test_case
          "corner-derived bounds accept and reject as the every-point scan"
          `Quick bounds_case;
        Alcotest.test_case
          "the int-keyed race prover equals a list-keyed reference" `Quick
          races_case;
        Alcotest.test_case "a key space past max_int is unproven" `Quick
          key_space_case;
      ] );
  ]
