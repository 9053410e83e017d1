(** Per-tenant execution context: servable + options + one prepared
    executable per batch width.

    Width resolution goes program digest → tuned tile config → plan
    cache warm ({!Pipeline.plan_cached}) → {!Executor.prepare_cached}
    under a tenant-prefixed key, so tenants never share the stateful
    prepared executable while each width compiles at most once per
    process. *)

val width_limit : int
(** Most widths a session keeps prepared (a {!Bounded_cache}):
    {!Servable.width_limit}. *)

type t

val create : ?tenant:string -> ?opts:Run_opts.t -> Servable.t -> t
val servable : t -> Servable.t

val prepared : t -> width:int -> Executor.prepared
(** Compile-once access; the tuned config (when the tune DB is
    installed) supplies chunk/fuse, [opts] everything else.
    @raise Invalid_argument naming the input when one of the
    servable's [sv_rebound] inputs is among the step's
    {!Compiled.identity_keyed_inputs}: refilled in place, it would be
    read stale. *)

val widths_prepared : t -> int list
val cache_stats : t -> Bounded_cache.stats
val engine : t -> width:int -> string
(** The engine that runs one width's step program ({!Executor.engine}). *)
