(* Per-tenant execution context.

   A session pins one servable and one option set, and resolves each
   batch width to a prepared executable exactly once: program digest →
   tuned tile config (Tune_db, when installed) → plan cache warm →
   Executor.prepare_cached under a tenant-prefixed key.  The tenant
   prefix is the isolation boundary — two tenants serving the same
   program never share a prepared executable (a prepared is stateful
   and single-consumer), while within a tenant every width is compiled
   once and reused for as long as the width ladder fits the cache. *)

(* Every prepared width has its servable's buffers. *)
let width_limit = Servable.width_limit

type t = {
  ssn_tenant : string;
  ssn_servable : Servable.t;
  ssn_opts : Run_opts.t;
  ssn_prepared : (int, Executor.prepared) Bounded_cache.t;
}

let create ?(tenant = "default") ?(opts = Run_opts.default) sv =
  {
    ssn_tenant = tenant;
    ssn_servable = sv;
    ssn_opts = opts;
    ssn_prepared = Bounded_cache.create ~limit:width_limit;
  }

let servable t = t.ssn_servable

let prepared t ~width =
  Bounded_cache.find_or_add t.ssn_prepared width (fun () ->
      let prog = t.ssn_servable.Servable.sv_step width in
      let key = Pipeline.program_key prog in
      (* Warm the plan cache (FT_PLAN_CACHE shares it across
         processes) and pick up any tuned config for this digest; the
         tuned tile carries the compiled engine's chunk/fuse knobs,
         both bitwise-neutral. *)
      ignore (Pipeline.plan_cached ~tune:true prog);
      let tile =
        Option.value
          (Pipeline.tuned_config_for key)
          ~default:Tile.default_config
      in
      let opts = Run_opts.with_tile tile t.ssn_opts in
      let g = Build.build prog in
      Executor.prepare_cached ~key:(t.ssn_tenant ^ ":" ^ key) ~opts g)

let widths_prepared t = List.sort compare (Bounded_cache.keys t.ssn_prepared)
let cache_stats t = Bounded_cache.stats t.ssn_prepared

let engine t ~width = Executor.engine (prepared t ~width)
