(* Per-tenant execution context.

   A session pins one servable and one option set, and resolves each
   batch width to a prepared executable exactly once: the step
   program's digest names an Executor.prepare_cached entry under a
   tenant-prefixed key, built from Build.build's graph with the
   session's options.  No tuned config and no plan are consulted:
   serving runs the graph, never a simulated plan.  The tenant
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
      let key = t.ssn_tenant ^ ":" ^ Pipeline.program_key prog in
      Executor.prepare_cached ~key ~opts:t.ssn_opts (Build.build prog))

let widths_prepared t = List.sort compare (Bounded_cache.keys t.ssn_prepared)
let cache_stats t = Bounded_cache.stats t.ssn_prepared

let engine t ~width = Executor.engine (prepared t ~width)
