(** Serving telemetry: latency percentiles (nearest-rank p50/p95/p99),
    request and token throughput, and the batch-occupancy histogram,
    rendered through {!Jsonw} for [BENCH_serve.json] and
    [ftc serve --json]. *)

type t

val create : unit -> t
val start : t -> unit
val stop : t -> unit

val on_tick : t -> active:int -> advanced:int -> exec_ms:float -> unit
val on_complete : t -> Request.t -> unit
val on_reject : t -> unit

val percentile_of : float list -> float -> float
(** Nearest-rank percentile of a sample list: the smallest sample s
    such that at least p% of the samples are [<= s]; [nan] on the
    empty list.  [percentile] is this over the completed-request
    latencies. *)

val percentile : t -> float -> float
(** Nearest-rank percentile of completed-request latency in ms; [nan]
    with no completions. *)

val tokens_per_s : t -> float
val mean_occupancy : t -> float
val completed : t -> int
val ticks : t -> int
val tokens : t -> int
val exec_ms : t -> float

val jsonv : t -> Jsonw.t
val pp : Format.formatter -> t -> unit
