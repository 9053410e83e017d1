(* Per-session execution context.

   A session pins one servable and one option set, and prepares each
   batch width's step program exactly once, from Build.build's graph
   with the session's options.  No tuned config and no plan are
   consulted: serving runs the graph, never a simulated plan.  A
   prepared executable is stateful and single-consumer, so it belongs
   to its session alone: two sessions, of one tenant or of two, never
   share one. *)

(* Every prepared width has its servable's buffers. *)
let width_limit = Servable.width_limit

type t = {
  ssn_servable : Servable.t;
  ssn_opts : Run_opts.t;
  ssn_prepared : (int, Executor.prepared) Bounded_cache.t;
}

let create ?tenant:_ ?(opts = Run_opts.default) sv =
  {
    ssn_servable = sv;
    ssn_opts = opts;
    ssn_prepared = Bounded_cache.create ~limit:width_limit;
  }

let servable t = t.ssn_servable

(* A width's servable buffers are allocated here, right after its
   executable, rather than by the first tick: allocated late, they land
   in memory freed by dead sessions, and the served stacked RNN's
   execute per tick read 4.2 instead of 3.7 µs for the same work
   (bench/e2e serve_rnn_closed on a 2-vCPU host, median of 6 traced
   runs each). *)
let prepared t ~width =
  Bounded_cache.find_or_add t.ssn_prepared width (fun () ->
      let sv = t.ssn_servable in
      let pr =
        Executor.prepare ~opts:t.ssn_opts (Build.build (sv.Servable.sv_step width))
      in
      sv.Servable.sv_reserve ~width;
      pr)

let widths_prepared t = List.sort compare (Bounded_cache.keys t.ssn_prepared)
let cache_stats t = Bounded_cache.stats t.ssn_prepared
