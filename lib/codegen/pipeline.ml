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
let default_stages = [ Group; Merge; Reorder ]

(* The production prefix ending at a stage: what `ftc show --stage`
   compiles.  Lower is a diagnostic view off the production path, so
   its prefix is just itself. *)
let stages_until = function
  | Build -> []
  | Lower -> [ Lower ]
  | Group -> [ Group ]
  | Merge -> [ Group; Merge ]
  | Reorder -> default_stages

type stage_result = {
  sr_stage : stage;
  sr_graph : Ir.graph;
  sr_wall_ms : float;
  sr_diagnostics : Diagnostic.t list option;
}

type t = {
  p_stages : stage_result list;
  p_reorder : (string * Reorder.result) list;
  p_emit_graph : Ir.graph;
  p_plan : Plan.t;
  p_emit_diagnostics : Diagnostic.t list option;
}

let now_ms () = Unix.gettimeofday () *. 1e3

let check ~fatal sname ds =
  if fatal && List.exists Diagnostic.is_error ds then
    raise (Verify.Verification_failed (sname, ds))

(* Per-stage checks, mirroring what Verify.install hooks run: full
   graph checks everywhere except after Reorder, where access maps are
   already in transformed coordinates — there we re-check structure
   and bounds on the reordered graph and validate each block's actual
   transform against its pre-reorder dependences. *)
let verify_stage ~prev stage g reorder_results =
  let sname = stage_name stage in
  match stage with
  | Reorder ->
      Verify.structure ~stage:sname g
      @ Verify.access_maps ~stage:sname g
      @ List.concat_map
          (fun (name, (r : Reorder.result)) ->
            match
              List.find_opt
                (fun b -> b.Ir.blk_name = name)
                prev.Ir.g_blocks
            with
            | Some b -> Verify.schedule ~stage:sname b r.Reorder.transform
            | None -> [])
          reorder_results
  | _ -> Verify.graph ~stage:sname g

let run_stage g = function
  | Build ->
      invalid_arg
        "Pipeline: Build runs implicitly; pass a program to compile"
  | Lower -> (Coarsen.lower g, None)
  | Group -> (Coarsen.group_regions g, None)
  | Merge -> (Coarsen.merge_only g, None)
  | Reorder ->
      let rs, g' = Reorder.reorder g in
      (g', Some rs)

let compile_from ~stage_checks ~emit_check ~fatal ~collapse_reuse ~tile ~stages
    ~init_results g0 =
  let results = ref (List.rev init_results) in
  let reorder_acc = ref [] in
  let emit_graph = ref g0 in
  let prev = ref g0 in
  List.iter
    (fun st ->
      let t0 = now_ms () in
      let g', rs = run_stage !prev st in
      let wall = now_ms () -. t0 in
      (match rs with Some r -> reorder_acc := r | None -> ());
      let ds =
        if stage_checks then begin
          let d =
            verify_stage ~prev:!prev st g'
              (match rs with Some r -> r | None -> [])
          in
          check ~fatal (stage_name st) d;
          Some d
        end
        else None
      in
      if st <> Reorder then emit_graph := g';
      results :=
        { sr_stage = st; sr_graph = g'; sr_wall_ms = wall; sr_diagnostics = ds }
        :: !results;
      prev := g')
    stages;
  let emit_ds =
    if emit_check then begin
      let d = Verify.graph ~stage:"emit" !emit_graph in
      check ~fatal "emit" d;
      Some d
    end
    else None
  in
  let plan = Emit.emit_plan ~collapse_reuse ~tile !emit_graph in
  {
    p_stages = List.rev !results;
    p_reorder = !reorder_acc;
    p_emit_graph = !emit_graph;
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
      let ds =
        if verify then begin
          let d = Verify.graph ~stage:"build" g in
          check ~fatal "build" d;
          Some d
        end
        else None
      in
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
     ~collapse_reuse ~tile ~stages:[ Group; Merge ] ~init_results:[] g)
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

let stage_graph t st =
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
