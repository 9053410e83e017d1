(* Assembly of the `ftc analyze` report: footprints, race verdicts,
   diagnostics, liveness and the arena proposal over the built ETDG.
   See analyze.mli. *)

type report = {
  rp_program : string;
  rp_blocks : int;
  rp_buffers : int;
  rp_footprints : Effects.footprint list;
  rp_races : Effects.race_report list;
  rp_diagnostics : Diagnostic.t list;
  rp_intervals : Liveness.interval list;
  rp_arena : Liveness.arena;
}

(* One liveness step per top-level block: the buffers its live edges
   touch, reads first and then writes as a footprint lists them, at
   full allocation size (the arena places whole buffers, not regions),
   so no domain is enumerated and no region box computed. *)
let steps g =
  List.map
    (fun b ->
      let edges = Effects.usable_live_edges g b in
      let acc (e : Ir.edge) =
        let bf = Ir.buffer g e.Ir.e_buffer in
        {
          Liveness.ac_buffer = bf.Ir.buf_name;
          ac_bytes = Effects.buffer_bytes bf;
          ac_write = e.Ir.e_dir = Ir.Write;
        }
      in
      let writes, reads =
        List.partition (fun (e : Ir.edge) -> e.Ir.e_dir = Ir.Write) edges
      in
      {
        Liveness.sp_name = b.Ir.blk_name;
        sp_accesses = List.map acc reads @ List.map acc writes;
      })
    (Ir.dataflow_order g)

let role_names role g =
  List.filter_map
    (fun bf -> if bf.Ir.buf_role = role then Some bf.Ir.buf_name else None)
    g.Ir.g_buffers

let graph ?(name = "") g =
  let diags =
    Diagnostic.sort
      (Verify.graph ~check_races:false g @ Effects.diagnostics g)
  in
  let intervals =
    Liveness.intervals
      ~live_in:(role_names Ir.Input g)
      ~live_out:(role_names Ir.Output g)
      (steps g)
  in
  {
    rp_program = name;
    rp_blocks = List.length g.Ir.g_blocks;
    rp_buffers = List.length g.Ir.g_buffers;
    rp_footprints = Effects.footprints g;
    rp_races = Effects.race_check g;
    rp_diagnostics = diags;
    rp_intervals = intervals;
    rp_arena = Liveness.layout intervals;
  }

let program (p : Expr.program) = graph ~name:p.Expr.name (Build.build p)

let file path =
  let p = Parse.program_file path in
  ignore (Typecheck.check_program p);
  program p

let errors r = List.exists Diagnostic.is_error r.rp_diagnostics

(* ------------------------------- text ----------------------------- *)

let vec v =
  "[" ^ String.concat "," (Array.to_list (Array.map string_of_int v)) ^ "]"

let verdict_detail = function
  | Effects.Proven m | Effects.Unproven m | Effects.Race (_, m) -> m

let to_text r =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "program %s: %d block(s), %d buffer(s)\n\n" r.rp_program r.rp_blocks
    r.rp_buffers;
  pf "footprints:\n";
  List.iter
    (fun fp ->
      pf "  %s (%d points)\n" fp.Effects.fp_block fp.Effects.fp_points;
      List.iter
        (fun (rg : Effects.region) ->
          pf "    %-5s %s%s..%s  %s  (%s, %d cells)\n"
            (if rg.Effects.rg_write then "write" else "read")
            rg.Effects.rg_name (vec rg.Effects.rg_lo) (vec rg.Effects.rg_hi)
            rg.Effects.rg_label
            (match rg.Effects.rg_precision with
            | Effects.Must -> "must"
            | Effects.May -> "may")
            (Effects.region_cells rg))
        (fp.Effects.fp_reads @ fp.Effects.fp_writes))
    r.rp_footprints;
  pf "\nwavefront race check:\n";
  List.iter
    (fun rr ->
      pf "  %-40s %6d points %5d fronts  %s\n    %s\n" rr.Effects.rr_block
        rr.Effects.rr_points rr.Effects.rr_fronts
        (Effects.verdict_name rr.Effects.rr_verdict)
        (verdict_detail rr.Effects.rr_verdict))
    r.rp_races;
  pf "\ndiagnostics:%s\n"
    (if r.rp_diagnostics = [] then " none" else "");
  List.iter
    (fun d ->
      pf "  %s\n" (Format.asprintf "%a" (Diagnostic.pp ?path:None) d))
    r.rp_diagnostics;
  pf "\nliveness (block dataflow order):\n";
  List.iter
    (fun (iv : Liveness.interval) ->
      pf "  %-16s %8d bytes  steps %d..%d%s\n" iv.Liveness.iv_buffer
        iv.Liveness.iv_bytes iv.Liveness.iv_first iv.Liveness.iv_last
        (if iv.Liveness.iv_fixed then "  (fixed)" else ""))
    r.rp_intervals;
  let a = r.rp_arena in
  pf "\narena (intermediates, first-fit, 64-byte aligned):\n";
  List.iter
    (fun (s : Liveness.slot) ->
      pf "  %-16s offset %8d  %8d bytes\n" s.Liveness.sl_buffer
        s.Liveness.sl_offset s.Liveness.sl_bytes)
    a.Liveness.ar_slots;
  if a.Liveness.ar_slots = [] then pf "  (no placeable buffers)\n"
  else
    pf "  total %d bytes for %d bytes of buffers%s\n" a.Liveness.ar_total
      a.Liveness.ar_sum
      (if a.Liveness.ar_total < a.Liveness.ar_sum then
         Printf.sprintf " — in-place reuse saves %d bytes"
           (a.Liveness.ar_sum - a.Liveness.ar_total)
       else " — no reuse opportunity");
  Buffer.contents b

(* ------------------------------- json ----------------------------- *)

let vec_jsonv v = Jsonw.List (Array.to_list (Array.map (fun i -> Jsonw.Int i) v))

let region_jsonv (rg : Effects.region) =
  Jsonw.Obj
    [
      ("buffer", Jsonw.String rg.Effects.rg_name);
      ("dir", Jsonw.String (if rg.Effects.rg_write then "write" else "read"));
      ("label", Jsonw.String rg.Effects.rg_label);
      ("lo", vec_jsonv rg.Effects.rg_lo);
      ("hi", vec_jsonv rg.Effects.rg_hi);
      ( "precision",
        Jsonw.String
          (match rg.Effects.rg_precision with
          | Effects.Must -> "must"
          | Effects.May -> "may") );
      ("cells", Jsonw.Int (Effects.region_cells rg));
    ]

let footprint_jsonv (fp : Effects.footprint) =
  Jsonw.Obj
    [
      ("block", Jsonw.String fp.Effects.fp_block);
      ("points", Jsonw.Int fp.Effects.fp_points);
      ("reads", Jsonw.List (List.map region_jsonv fp.Effects.fp_reads));
      ("writes", Jsonw.List (List.map region_jsonv fp.Effects.fp_writes));
    ]

let race_jsonv (rr : Effects.race_report) =
  Jsonw.Obj
    ([
       ("block", Jsonw.String rr.Effects.rr_block);
       ("points", Jsonw.Int rr.Effects.rr_points);
       ("fronts", Jsonw.Int rr.Effects.rr_fronts);
       ("verdict", Jsonw.String (Effects.verdict_name rr.Effects.rr_verdict));
     ]
    @ (match rr.Effects.rr_verdict with
      | Effects.Race (k, _) ->
          [
            ( "kind",
              Jsonw.String
                (match k with
                | Effects.WW -> "write-write"
                | Effects.RW -> "read-write") );
          ]
      | _ -> [])
    @ [ ("detail", Jsonw.String (verdict_detail rr.Effects.rr_verdict)) ])

let diag_jsonv (d : Diagnostic.t) =
  Jsonw.Obj
    ([
       ("severity", Jsonw.String (Diagnostic.severity_name d.Diagnostic.severity));
       ("code", Jsonw.String d.Diagnostic.code);
       ("check_id", Jsonw.String (Diagnostic.check_id d.Diagnostic.code));
       ("message", Jsonw.String d.Diagnostic.message);
     ]
    @
    match d.Diagnostic.context with
    | None -> []
    | Some c -> [ ("context", Jsonw.String c) ])

let interval_jsonv (iv : Liveness.interval) =
  Jsonw.Obj
    [
      ("buffer", Jsonw.String iv.Liveness.iv_buffer);
      ("bytes", Jsonw.Int iv.Liveness.iv_bytes);
      ("first", Jsonw.Int iv.Liveness.iv_first);
      ("last", Jsonw.Int iv.Liveness.iv_last);
      ("fixed", Jsonw.Bool iv.Liveness.iv_fixed);
    ]

let arena_jsonv (a : Liveness.arena) =
  Jsonw.Obj
    [
      ( "slots",
        Jsonw.List
          (List.map
             (fun (s : Liveness.slot) ->
               Jsonw.Obj
                 [
                   ("buffer", Jsonw.String s.Liveness.sl_buffer);
                   ("offset", Jsonw.Int s.Liveness.sl_offset);
                   ("bytes", Jsonw.Int s.Liveness.sl_bytes);
                 ])
             a.Liveness.ar_slots) );
      ("total", Jsonw.Int a.Liveness.ar_total);
      ("sum", Jsonw.Int a.Liveness.ar_sum);
      ("reuse", Jsonw.Bool (a.Liveness.ar_total < a.Liveness.ar_sum));
    ]

let to_jsonv r =
  Jsonw.Obj
    [
      ("program", Jsonw.String r.rp_program);
      ("blocks", Jsonw.Int r.rp_blocks);
      ("buffers", Jsonw.Int r.rp_buffers);
      ("footprints", Jsonw.List (List.map footprint_jsonv r.rp_footprints));
      ("races", Jsonw.List (List.map race_jsonv r.rp_races));
      ("diagnostics", Jsonw.List (List.map diag_jsonv r.rp_diagnostics));
      ("errors", Jsonw.Int (Diagnostic.count_errors r.rp_diagnostics));
      ("warnings", Jsonw.Int (Diagnostic.count_warnings r.rp_diagnostics));
      ("liveness", Jsonw.List (List.map interval_jsonv r.rp_intervals));
      ("arena", arena_jsonv r.rp_arena);
    ]
