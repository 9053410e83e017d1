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

(* The ambient tuned-config source: given a program/source digest
   (computed at the default tile config), the best-known tile config
   for it, if any.  [Tune_db.install] (lib/tune) registers the
   FT_TUNE_DB lookup here; compiles passing [~tune:true] consult it.
   A hook rather than a direct call: the tuning database lives above
   this library. *)
let tune_source : (string -> Tile.config option) ref = ref (fun _ -> None)
let set_tune_source f = tune_source := f
let tuned_config_for key = !tune_source key

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
let program_key ?(verify = true) ?(collapse_reuse = true)
    ?(tile = Tile.default_config) (p : Expr.program) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string ("program", p, verify, collapse_reuse, tile) []))

let source_key ?(verify = true) ?(collapse_reuse = true)
    ?(tile = Tile.default_config) src =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string ("source", src, verify, collapse_reuse, tile) []))

(* [~tune:true] with no explicit tile: look the program up in the
   registered tuning database (keyed at the default config) and apply
   the best-known tile config — no search happens here. *)
let resolve_tile ~verify ~collapse_reuse ~tune ~tile ~base_key =
  match tile with
  | Some t -> t
  | None ->
      if tune then
        Option.value
          (tuned_config_for (base_key ~verify ~collapse_reuse ()))
          ~default:Tile.default_config
      else Tile.default_config

let compile ?(verify = true) ?(fatal = true) ?trace ?(collapse_reuse = true)
    ?tile ?(tune = false) ?(stages = default_stages) (p : Expr.program) =
  let tile =
    resolve_tile ~verify ~collapse_reuse ~tune ~tile
      ~base_key:(fun ~verify ~collapse_reuse () ->
        program_key ~verify ~collapse_reuse p)
  in
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
        ~collapse_reuse ~tile ~stages ~init_results:init g)

(* The terse compile-to-plan paths verify the graph once, just before
   emission — per-stage checking is [compile]'s job. *)
let plan_of_graph ?(verify = true) ?(collapse_reuse = true)
    ?(tile = Tile.default_config) g =
  (compile_from ~stage_checks:false ~emit_check:verify ~fatal:true
     ~collapse_reuse ~tile ~stages:[ Group; Merge ] ~init_results:[] g)
    .p_plan

let plan ?(verify = true) ?(collapse_reuse = true)
    ?(tile = Tile.default_config) (p : Expr.program) =
  plan_of_graph ~verify ~collapse_reuse ~tile (Build.build p)

(* ---------------------------- plan cache --------------------------- *)

module Cache = struct
  type stats = { hits : int; misses : int; disk_hits : int; evictions : int }

  (* Bump when Plan.t (or anything reachable from it) changes layout:
     stale disk entries then fail the version check and recompile.
     v2: kernel_spec gained ks_gemm.
     v3: the compiled-executor release — {!Executor} keys its in-memory
     executable cache by the same program/source digests, so bumping
     here keeps disk plans and compiled artifacts in lockstep. *)
  let version = 3

  (* Above the measured peak of live entries (see DESIGN.md, "Caches"). *)
  let limit = 64
  let table : (string, Plan.t) Bounded_cache.t = Bounded_cache.create ~limit

  (* A memory miss answered from disk is a disk hit, not a miss. *)
  let disk_hits = Atomic.make 0

  let stats () =
    let { Bounded_cache.hits; misses; evictions; _ } =
      Bounded_cache.stats table
    in
    let disk_hits = Atomic.get disk_hits in
    { hits; misses = misses - disk_hits; disk_hits; evictions }

  let clear () =
    Bounded_cache.clear table;
    Atomic.set disk_hits 0

  let dir () =
    match Sys.getenv_opt "FT_PLAN_CACHE" with
    | None | Some "" -> None
    | d -> d
  let disk_path d key = Filename.concat d ("ftplan-" ^ key ^ ".bin")

  (* A disk entry is Marshal of (version, plan).  Any failure — missing
     file, truncation, version skew, unmarshalable bytes — reads as a
     miss; the cache never turns corruption into an error. *)
  let disk_read key =
    match dir () with
    | None -> None
    | Some d -> (
        match open_in_bin (disk_path d key) with
        | exception Sys_error _ -> None
        | ic -> (
            let r =
              match Marshal.from_channel ic with
              | exception _ -> None
              | v, (plan : Plan.t) -> if v = version then Some plan else None
            in
            close_in_noerr ic;
            r))

  let disk_write key (plan : Plan.t) =
    match dir () with
    | None -> ()
    | Some d -> (
        try
          if not (Sys.file_exists d) then Sys.mkdir d 0o755;
          let path = disk_path d key in
          let tmp = path ^ ".tmp." ^ string_of_int (Unix.getpid ()) in
          let oc = open_out_bin tmp in
          Marshal.to_channel oc (version, plan) [];
          close_out oc;
          Sys.rename tmp path
        with Sys_error _ | Unix.Unix_error _ -> ())

  (* Shared hit/miss path.  [compute] runs outside the lock (compiles
     can be slow and may themselves take other locks); a racing miss on
     the same key just compiles twice and last-write-wins — both
     results are equal by construction. *)
  let find_or_compile key compute =
    Bounded_cache.find_or_add table key (fun () ->
        match disk_read key with
        | Some plan ->
            Atomic.incr disk_hits;
            plan
        | None ->
            let plan = compute () in
            disk_write key plan;
            plan)

  let mem key = Bounded_cache.peek table key <> None

  let store key (plan : Plan.t) =
    Bounded_cache.put table key plan;
    disk_write key plan

  let on_disk key =
    match dir () with
    | None -> false
    | Some d -> Sys.file_exists (disk_path d key)
end

let plan_cached ?(verify = true) ?(collapse_reuse = true) ?tile
    ?(tune = false) (p : Expr.program) =
  let tile =
    resolve_tile ~verify ~collapse_reuse ~tune ~tile
      ~base_key:(fun ~verify ~collapse_reuse () ->
        program_key ~verify ~collapse_reuse p)
  in
  Cache.find_or_compile
    (program_key ~verify ~collapse_reuse ~tile p)
    (fun () -> plan ~verify ~collapse_reuse ~tile p)

let read_source path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let plan_file ?(verify = true) ?(collapse_reuse = true) ?tile ?(tune = false)
    path =
  let src = read_source path in
  let tile =
    resolve_tile ~verify ~collapse_reuse ~tune ~tile
      ~base_key:(fun ~verify ~collapse_reuse () ->
        source_key ~verify ~collapse_reuse src)
  in
  let key = source_key ~verify ~collapse_reuse ~tile src in
  Cache.find_or_compile key (fun () ->
      let p = Parse.program src in
      ignore (Typecheck.check_program p);
      plan ~verify ~collapse_reuse ~tile p)

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
