type stage = Build | Lower | Group | Merge | Reorder

let stage_name = function
  | Build -> "build"
  | Lower -> "coarsen.lower"
  | Group -> "coarsen.group"
  | Merge -> "coarsen.merge"
  | Reorder -> "reorder"

let stage_of_name = function
  | "build" -> Some Build
  | "coarsen.lower" -> Some Lower
  | "coarsen.group" -> Some Group
  | "coarsen.merge" -> Some Merge
  | "reorder" -> Some Reorder
  | _ -> None

let all_stages = [ Build; Lower; Group; Merge; Reorder ]
let default_stages = [ Group; Merge ]

(* The production prefix ending at a stage: what `ftc show --stage`
   compiles.  Lower is a diagnostic view off the production path, so
   its prefix is just itself; Reorder is a view of the emitted graph,
   so its prefix is the whole production pipeline. *)
let stages_until = function
  | Build -> []
  | Lower -> [ Lower ]
  | Group -> [ Group ]
  | Merge | Reorder -> default_stages

type stage_result = {
  sr_stage : stage;
  sr_graph : Ir.graph;
  sr_wall_ms : float;
  sr_diagnostics : Diagnostic.t list option;
}

type t = {
  p_stages : stage_result list;
  p_emit_graph : Ir.graph;
  p_plan : Plan.t;
  p_emit_diagnostics : Diagnostic.t list option;
}

let now_ms () = Unix.gettimeofday () *. 1e3

(* The one per-stage check: [Verify.graph] on the graph a stage
   produced, in original coordinates. *)
let verify_graph ~on ~fatal sname g =
  if not on then None
  else begin
    let ds = Verify.graph ~stage:sname g in
    if fatal && List.exists Diagnostic.is_error ds then
      raise (Verify.Verification_failed (sname, ds));
    Some ds
  end

let run_stage g = function
  | Build ->
      invalid_arg
        "Pipeline: Build runs implicitly; pass a program to compile"
  | Reorder ->
      invalid_arg
        "Pipeline: Reorder is a view of the emitted graph; read it with \
         stage_graph"
  | Lower -> Coarsen.lower g
  | Group -> Coarsen.group_regions g
  | Merge -> Coarsen.merge_only g

let compile_from ~stage_checks ~emit_check ~fatal ~collapse_reuse ~tile ~stages
    ~init_results g0 =
  let results = ref (List.rev init_results) in
  let g =
    List.fold_left
      (fun prev st ->
        let t0 = now_ms () in
        let g' = run_stage prev st in
        let wall = now_ms () -. t0 in
        let ds = verify_graph ~on:stage_checks ~fatal (stage_name st) g' in
        results :=
          { sr_stage = st; sr_graph = g'; sr_wall_ms = wall; sr_diagnostics = ds }
          :: !results;
        g')
      g0 stages
  in
  (* The graph emission sees is the last stage's graph: when that stage
     was checked, its findings are the emit check's, not a repeat of
     the same check on the same graph. *)
  let emit_ds =
    match !results with
    | { sr_graph; sr_diagnostics = Some ds; _ } :: _
      when emit_check && sr_graph == g ->
        Some ds
    | _ -> verify_graph ~on:emit_check ~fatal "emit" g
  in
  let plan = Emit.emit_plan ~collapse_reuse ~tile g in
  {
    p_stages = List.rev !results;
    p_emit_graph = g;
    p_plan = plan;
    p_emit_diagnostics = emit_ds;
  }

let with_trace trace f =
  match trace with None -> f () | Some s -> Trace.with_sink s f

(* Keys digest every compile input that changes the emitted plan:
   program (or source text) plus the option set, tile config included.
   Expr.program is pure data — no closures — so Marshal is
   deterministic; Bigarray literals serialise dims + contents. *)
let program_key ?(verify = true) ?(tile = Tile.default_config)
    (p : Expr.program) =
  Digest.to_hex
    (Digest.string (Marshal.to_string ("program", p, verify, tile) []))

let source_key ?(verify = true) ?(tile = Tile.default_config) src =
  Digest.to_hex
    (Digest.string (Marshal.to_string ("source", src, verify, tile) []))

let compile ?(verify = true) ?(fatal = true) ?trace
    ?(tile = Tile.default_config) ?(stages = default_stages)
    (p : Expr.program) =
  with_trace trace (fun () ->
      let t0 = now_ms () in
      let g = Build.build p in
      let wall = now_ms () -. t0 in
      let ds = verify_graph ~on:verify ~fatal "build" g in
      let init =
        [ { sr_stage = Build; sr_graph = g; sr_wall_ms = wall;
            sr_diagnostics = ds } ]
      in
      compile_from ~stage_checks:verify ~emit_check:verify ~fatal
        ~collapse_reuse:true ~tile ~stages ~init_results:init g)

(* The terse compile-to-plan paths verify the graph once, just before
   emission — per-stage checking is [compile]'s job. *)
let plan_of_graph ?(verify = true) ?(collapse_reuse = true)
    ?(tile = Tile.default_config) g =
  (compile_from ~stage_checks:false ~emit_check:verify ~fatal:true
     ~collapse_reuse ~tile ~stages:default_stages ~init_results:[] g)
    .p_plan

let plan ?(verify = true) ?(tile = Tile.default_config) (p : Expr.program) =
  plan_of_graph ~verify ~tile (Build.build p)

(* ---------------------------- plan cache --------------------------- *)

(* Bump [version] when Plan.t (or anything reachable from it) changes
   layout: stale disk entries then fail the version check and
   recompile.  v2: kernel_spec gained ks_gemm.  v3: the
   compiled-executor release.  [limit] sits above the measured peak of
   live entries (see DESIGN.md, "Caches"). *)
module Cache = Disk_store.Make (struct
  type value = Plan.t

  let env_var = "FT_PLAN_CACHE"
  let prefix = "ftplan-"
  let suffix = ".bin"
  let version = 3
  let limit = 64
end)

let plan_cached ?(verify = true) ?(tile = Tile.default_config)
    (p : Expr.program) =
  Cache.find_or_compile (program_key ~verify ~tile p) (fun () ->
      plan ~verify ~tile p)

let read_source path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let plan_file ?(verify = true) ?(tile = Tile.default_config) path =
  let src = read_source path in
  let key = source_key ~verify ~tile src in
  Cache.find_or_compile key (fun () ->
      let p = Parse.program src in
      ignore (Typecheck.check_program p);
      plan ~verify ~tile p)

(* The reordered graph is what emission sees block by block
   ([Emit] calls [Reorder.apply] itself); nothing compiles or checks it
   as a whole. *)
let stage_graph t = function
  | Reorder ->
      let g = t.p_emit_graph in
      Some
        { g with
          Ir.g_blocks =
            List.map (fun b -> (Reorder.apply b).Reorder.block) g.Ir.g_blocks }
  | st ->
      List.find_map
        (fun sr -> if sr.sr_stage = st then Some sr.sr_graph else None)
        t.p_stages

let stage_diagnostics t =
  List.map
    (fun sr ->
      (stage_name sr.sr_stage, Option.value sr.sr_diagnostics ~default:[]))
    t.p_stages

let verify_stages (p : Expr.program) =
  stage_diagnostics (compile ~verify:true ~fatal:false p)
