(** Serving telemetry: latency percentiles (nearest-rank p50/p95/p99),
    request and token throughput, and the batch-occupancy histogram. *)

type t

val create : unit -> t
val start : t -> unit
val stop : t -> unit

val on_tick : t -> active:int -> advanced:int -> exec_ms:float -> unit
val on_complete : t -> Request.t -> unit

val percentile_of : float list -> float -> float
(** Nearest-rank percentile of a sample list: the smallest sample s
    such that at least p% of the samples are [<= s]; [nan] on the
    empty list.  [percentile] is this over the completed-request
    latencies. *)

val percentile : t -> float -> float
(** Nearest-rank percentile of completed-request latency in ms; [nan]
    with no completions. *)

val wall_s : t -> float
(** Seconds from {!start} to {!stop} (or to now, before {!stop}). *)

val throughput_rps : t -> float
val tokens_per_s : t -> float
val mean_occupancy : t -> float

val occupancy_histogram : t -> (int * int) list
(** [(active rows, ticks)] pairs, ascending by active rows. *)

val completed : t -> int
val ticks : t -> int
val tokens : t -> int
val exec_ms : t -> float

val pp : Format.formatter -> t -> unit
