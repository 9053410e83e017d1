(* Cell-level shadow memory over a graph's schedule: walk each block's
   fronts, record (block, front, point) per access through the access
   maps, flag same-front overlaps as they are recorded, and
   cross-validate the static memory-effect verdicts at the end.  See
   shadow.mli. *)

exception Violation of string

type writer = { w_block : string; w_front : int; w_point : int array }

(* Observed bounding box of one block's accesses to one buffer. *)
type obs = { mutable ob_lo : int array; mutable ob_hi : int array }

type t = {
  graph : Ir.graph;
  cells : (int * int list, writer) Hashtbl.t;
  boxes : (string * int * bool, obs) Hashtbl.t;  (* block, buffer, write *)
  read_bufs : (int, unit) Hashtbl.t;
  mutable reads : int;
  mutable writes : int;
}

let vec_to_string v =
  "[" ^ String.concat "," (Array.to_list (Array.map string_of_int v)) ^ "]"

let buf_name t id =
  match List.find_opt (fun bf -> bf.Ir.buf_id = id) t.graph.Ir.g_buffers with
  | Some bf -> bf.Ir.buf_name
  | None -> Printf.sprintf "#%d" id

let observe t ~block ~buffer ~write idx =
  let key = (block, buffer, write) in
  match Hashtbl.find_opt t.boxes key with
  | None ->
      Hashtbl.add t.boxes key
        { ob_lo = Array.copy idx; ob_hi = Array.copy idx }
  | Some ob ->
      Array.iteri
        (fun i v ->
          if v < ob.ob_lo.(i) then ob.ob_lo.(i) <- v;
          if v > ob.ob_hi.(i) then ob.ob_hi.(i) <- v)
        idx

let on_write t ~block ~front ~point ~buffer idx =
  t.writes <- t.writes + 1;
  observe t ~block ~buffer ~write:true idx;
  let key = (buffer, Array.to_list idx) in
  match Hashtbl.find_opt t.cells key with
  | Some w when w.w_block = block && w.w_front = front ->
      raise
        (Violation
           (Printf.sprintf
              "same-front write-write overlap: block %s front %d, iterations \
               %s and %s both write %s%s"
              block front (vec_to_string w.w_point) (vec_to_string point)
              (buf_name t buffer) (vec_to_string idx)))
  | Some _ ->
      (* cross-front double write: the engine's single-assignment check
         reports it; keep the first writer on record *)
      ()
  | None ->
      Hashtbl.add t.cells key { w_block = block; w_front = front;
                                w_point = point }

let on_read t ~block ~front ~point ~buffer idx =
  t.reads <- t.reads + 1;
  observe t ~block ~buffer ~write:false idx;
  Hashtbl.replace t.read_bufs buffer ();
  (* a point records all its reads before its writes, so a same-front
     writer found here is always a sibling *)
  match Hashtbl.find_opt t.cells (buffer, Array.to_list idx) with
  | Some w when w.w_block = block && w.w_front = front ->
      raise
        (Violation
           (Printf.sprintf
              "same-front read-write overlap: block %s front %d, iteration %s \
               reads %s%s written by sibling %s"
              block front (vec_to_string point) (buf_name t buffer)
              (vec_to_string idx) (vec_to_string w.w_point)))
  | _ -> ()

type summary = {
  sh_reads : int;
  sh_writes : int;
  sh_read_buffers : string list;
}

let cross_check t summary =
  let g = t.graph in
  let issues = ref [] in
  (* 1. a statically-dead store that the schedule reads *)
  List.iter
    (fun name ->
      if List.mem name summary.sh_read_buffers then
        issues :=
          Printf.sprintf
            "static analysis marked buffer %s never-read (V302), but the \
             schedule reads it"
            name
          :: !issues)
    (Effects.never_read g);
  (* 2. every recorded access box must lie inside the block's static
     footprint (static regions over-approximate, so containment is an
     obligation, not a heuristic) *)
  let fps = Effects.footprints g in
  Hashtbl.iter
    (fun (block, buffer, write) (ob : obs) ->
      match List.find_opt (fun fp -> fp.Effects.fp_block = block) fps with
      | None -> ()  (* a block the static pass did not model (children) *)
      | Some fp ->
          let regions =
            List.filter
              (fun r -> r.Effects.rg_buffer = buffer)
              (if write then fp.Effects.fp_writes else fp.Effects.fp_reads)
          in
          let covered i v =
            List.exists
              (fun r ->
                i < Array.length r.Effects.rg_lo
                && r.Effects.rg_lo.(i) <= v
                && v <= r.Effects.rg_hi.(i))
              regions
          in
          let inside =
            regions <> []
            && Array.length ob.ob_lo > 0
            && Array.for_all Fun.id
                 (Array.mapi
                    (fun i l -> covered i l && covered i ob.ob_hi.(i))
                    ob.ob_lo)
          in
          if (not inside) && Array.length ob.ob_lo > 0 then
            issues :=
              Printf.sprintf
                "block %s %s %s%s..%s outside its static footprint"
                block
                (if write then "wrote" else "read")
                (buf_name t buffer) (vec_to_string ob.ob_lo)
                (vec_to_string ob.ob_hi)
              :: !issues)
    t.boxes;
  List.rev !issues

let check ?schedule (g : Ir.graph) =
  let schedule = Option.value schedule ~default:(Vm.guard g Vm.Wavefront) in
  let t =
    {
      graph = g;
      cells = Hashtbl.create 512;
      boxes = Hashtbl.create 32;
      read_bufs = Hashtbl.create 8;
      reads = 0;
      writes = 0;
    }
  in
  List.iter
    (fun (b : Ir.block) ->
      let block = b.Ir.blk_name in
      let reads = Ir.live_reads b and writes = Ir.writes b in
      let record front point =
        let note on_access (e : Ir.edge) =
          on_access t ~block ~front ~point ~buffer:e.Ir.e_buffer
            (Access_map.apply e.Ir.e_access point)
        in
        List.iter (note on_read) reads;
        List.iter (note on_write) writes
      in
      match fst (schedule b (Domain.enumerate b.Ir.blk_domain)) with
      | Vm.Ordered ps -> List.iteri record ps  (* one front per point *)
      | Vm.Fronts fs -> List.iter (fun (id, ps) -> Array.iter (record id) ps) fs)
    (Ir.dataflow_order g);
  let summary =
    {
      sh_reads = t.reads;
      sh_writes = t.writes;
      sh_read_buffers =
        Hashtbl.fold (fun id () acc -> buf_name t id :: acc) t.read_bufs []
        |> List.sort compare;
    }
  in
  (summary, cross_check t summary)
