(* Cell-level shadow memory: record (block, front, point) per access,
   flag same-front overlaps as they happen, and cross-validate the
   static memory-effect verdicts after the run.  See shadow.mli. *)

exception Violation of string

type writer = { w_block : string; w_front : int; w_point : int array }

(* Observed bounding box of one block's accesses to one buffer. *)
type obs = { mutable ob_lo : int array; mutable ob_hi : int array }

type t = {
  m : Mutex.t;
  graph : Ir.graph;
  cells : (int * int list, writer) Hashtbl.t;
  boxes : (string * int * bool, obs) Hashtbl.t;  (* block, buffer, write *)
  read_bufs : (int, unit) Hashtbl.t;
  mutable reads : int;
  mutable writes : int;
}

let create g =
  {
    m = Mutex.create ();
    graph = g;
    cells = Hashtbl.create 512;
    boxes = Hashtbl.create 32;
    read_bufs = Hashtbl.create 8;
    reads = 0;
    writes = 0;
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
  Mutex.protect t.m (fun () ->
      t.writes <- t.writes + 1;
      observe t ~block ~buffer ~write:true idx;
      let key = (buffer, Array.to_list idx) in
      match Hashtbl.find_opt t.cells key with
      | Some w when w.w_block = block && w.w_front = front ->
          raise
            (Violation
               (Printf.sprintf
                  "same-front write-write overlap: block %s front %d, \
                   iterations %s and %s both write %s%s"
                  block front (vec_to_string w.w_point) (vec_to_string point)
                  (buf_name t buffer) (vec_to_string idx)))
      | Some _ ->
          (* cross-front double write: the engine's single-assignment
             check reports it; keep the first writer on record *)
          ()
      | None ->
          Hashtbl.add t.cells key { w_block = block; w_front = front;
                                    w_point = point })

let on_read t ~block ~front ~point ~buffer idx =
  Mutex.protect t.m (fun () ->
      t.reads <- t.reads + 1;
      observe t ~block ~buffer ~write:false idx;
      Hashtbl.replace t.read_bufs buffer ();
      match Hashtbl.find_opt t.cells (buffer, Array.to_list idx) with
      | Some w
        when w.w_block = block && w.w_front = front && w.w_point <> point ->
          raise
            (Violation
               (Printf.sprintf
                  "same-front read-write overlap: block %s front %d, \
                   iteration %s reads %s%s written by sibling %s"
                  block front (vec_to_string point) (buf_name t buffer)
                  (vec_to_string idx) (vec_to_string w.w_point)))
      | _ -> ())

type summary = {
  sh_reads : int;
  sh_writes : int;
  sh_cells : int;
  sh_read_buffers : string list;
}

let finish t =
  Mutex.protect t.m (fun () ->
      {
        sh_reads = t.reads;
        sh_writes = t.writes;
        sh_cells = Hashtbl.length t.cells;
        sh_read_buffers =
          Hashtbl.fold (fun id () acc -> buf_name t id :: acc) t.read_bufs []
          |> List.sort compare;
      })

let cross_check (g : Ir.graph) summary t =
  let issues = ref [] in
  (* 1. a statically-dead store that was dynamically read *)
  List.iter
    (fun name ->
      if List.mem name summary.sh_read_buffers then
        issues :=
          Printf.sprintf
            "static analysis marked buffer %s never-read (V302), but the \
             run read it"
            name
          :: !issues)
    (Effects.never_read g);
  (* 2. every observed access box must lie inside the block's static
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
