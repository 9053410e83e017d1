(** Per-session execution context: servable + options + one prepared
    executable per batch width.

    Each width's step program is built ({!Build.build}) and prepared
    with the session's options ({!Executor.prepare}) the first time the
    width is asked for.  A prepared executable is stateful, so no two
    sessions share one — not even two of the same tenant.  No tuned
    config and no simulated plan is consulted. *)

val width_limit : int
(** Most widths a session keeps prepared (a {!Bounded_cache}):
    {!Servable.width_limit}. *)

type t

val create : ?tenant:string -> ?opts:Run_opts.t -> Servable.t -> t
(** [tenant] is accepted and ignored: it selects nothing, since no
    session shares its executables.  It stays because the end-to-end
    benchmark passes it. *)

val servable : t -> Servable.t

val prepared : t -> width:int -> Executor.prepared
(** Compile-once access, prepared with the session's [opts]. *)

val widths_prepared : t -> int list
val cache_stats : t -> Bounded_cache.stats
