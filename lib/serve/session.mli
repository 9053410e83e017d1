(** Per-tenant execution context: servable + options + one prepared
    executable per batch width.

    Each width's step program is built ({!Build.build}) and prepared
    with the session's options through {!Executor.prepare_cached},
    keyed by the tenant and the program digest, so tenants never share
    the stateful prepared executable while each width compiles at most
    once per process.  No tuned config and no simulated plan is
    consulted. *)

val width_limit : int
(** Most widths a session keeps prepared (a {!Bounded_cache}):
    {!Servable.width_limit}. *)

type t

val create : ?tenant:string -> ?opts:Run_opts.t -> Servable.t -> t
val servable : t -> Servable.t

val prepared : t -> width:int -> Executor.prepared
(** Compile-once access, prepared with the session's [opts]. *)

val widths_prepared : t -> int list
val cache_stats : t -> Bounded_cache.stats
val engine : t -> width:int -> string
(** The engine that runs one width's step program ({!Executor.engine}). *)
