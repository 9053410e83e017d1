(** A fixed pool of worker domains for data-parallel loops.

    The wavefront schedule ({!Vm.schedule}) groups points into anti-chains
    whose points are independent by construction; this pool is how those
    points (and the benchmark harness's table cells) actually run on
    multiple cores.  Design constraints, in order:

    - {b determinism}: [parallel_for] writes to disjoint indices, so
      its result never depends on scheduling;
    - {b fixed workers}: [size - 1] domains are spawned once at
      {!create} and reused for every loop — no per-loop spawn cost;
    - {b safe nesting}: a loop issued from inside a worker runs inline
      on that worker instead of deadlocking the pool;
    - {b safe concurrent submission}: client domains may issue loops on
      the same pool concurrently — whole loops serialize on an internal
      submission lock (the job board holds one job at a time), so a
      second submitter blocks until the first loop quiesces instead of
      corrupting it.  This is what the serving layer's broker/scheduler
      domains rely on;
    - {b cheap fork/join}: a loop's state lives in the pool record, so
      handing a loop to the workers and joining them allocates nothing
      (unless a body raises).  A waiting domain — an idle worker, or
      the caller once its own share is done — spins on an atomic with
      [Domain.cpu_relax] for about 10 µs (a duration fixed in code,
      converted to a spin count once per pool), then blocks on a
      condition, so loops issued back to back never sleep and an idle
      pool burns no CPU.  A pool larger than
      [Domain.recommended_domain_count ()] never spins: it blocks at
      once, since a spinning domain would hold the core the domain it
      waits for needs.

    One registry holds a pool per domain count ({!sized}); the ambient
    pool ({!get}) is sized by [FT_NUM_DOMAINS] (or {!set_num_domains},
    the CLI's hook), so [FT_NUM_DOMAINS=4 ftc run prog.ft] is the whole
    user interface. *)

type t

val create : domains:int -> t
(** A pool that runs loops over [max 1 domains] domains: the calling
    domain plus [domains - 1] spawned workers.  [create ~domains:1]
    spawns nothing and runs every loop inline. *)

val size : t -> int
(** The total parallelism, including the calling domain. *)

val spins : t -> int
(** The [Domain.cpu_relax] rounds a waiting domain of this pool spins
    before it blocks (about 10 µs): [0] for a pool of one domain or
    one larger than [Domain.recommended_domain_count ()].  A runner
    that waits inside a loop body ({!Progress.await}) spins as long. *)

val shutdown : t -> unit
(** Stop and join the workers, after any loop in flight has
    quiesced.  Idempotent.  Loops submitted after shutdown run inline
    on the caller. *)

val parallel_for : ?chunk:int -> t -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for pool ~lo ~hi f] runs [f i] for every [lo <= i < hi],
    split into contiguous chunks claimed by the pool's domains.  [f]
    must be safe to call concurrently on distinct indices.  Empty
    ranges ([hi <= lo]) are a no-op; ranges smaller than the pool run
    on however many domains they fill.  [chunk] (default: a fraction
    of [hi - lo] per domain) bounds each claim.  The first exception
    raised by any [f i] is re-raised in the caller (with its
    backtrace) after the loop quiesces. *)

val parallel_chunks :
  ?chunk:int -> t -> lo:int -> hi:int -> (int -> int -> int -> unit) -> unit
(** [parallel_chunks pool ~lo ~hi f] is {!parallel_for} one chunk at a
    time: the body receives [f worker clo chi] for each claimed chunk
    [clo, chi), where [worker] identifies the domain running it: [0]
    for the calling domain, [1..size-1] for spawned workers.  Bodies
    that index per-worker scratch by [worker] are race-free.  The
    inline paths (pool of one, single chunk, call issued from inside a
    worker) make one call [f 0 lo hi].  Neither the inline nor the
    forked path allocates unless [f] raises. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array pool f a] is [Array.map f a] with the elements computed
    across the pool (element order preserved in the result). *)

(** {1 The pool registry} *)

val default_num_domains : unit -> int
(** [FT_NUM_DOMAINS] when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]. *)

val num_domains : unit -> int
(** The size the ambient pool will have: the {!set_num_domains}
    override when present, else {!default_num_domains}. *)

val set_num_domains : int option -> unit
(** Override (or clear the override of) the ambient pool size — the CLI
    knob behind [--domains].  Takes effect on the next {!get}. *)

val sized : int -> t
(** The registry's pool of [max 1 n] domains, created on first use and
    shared by every caller asking for that size. *)

val get : unit -> t
(** [sized (num_domains ())].  A resize switches pools; none stops. *)

val reset : unit -> unit
(** Shut down every registry pool (idle domains still join each
    stop-the-world minor collection, so benchmarks reset between
    measurements).  A holder of a reset pool runs its loops inline. *)
