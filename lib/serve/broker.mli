(** The admission queue between submitter domains and the scheduler.

    A bounded MPSC queue hand-rolled on [Mutex]/[Condition] — no async
    runtime.  Producers on any domain {!submit} (blocking backpressure)
    or {!try_submit} (load shedding: reject when full); the scheduler
    alone drains with {!pop_ready}, which releases a request only once
    the consumer's virtual clock reaches its arrival tick, keeping
    seeded join schedules replayable. *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument when [capacity < 1]. *)

val try_submit : t -> Request.t -> bool
(** Non-blocking; [false] marks the request [Rejected] (queue full or
    broker closed). *)

val submit : t -> Request.t -> bool
(** Blocking while full; [false] only if the broker closed while
    waiting (the request is then [Rejected]). *)

val pop_ready : t -> tick:int -> max:int -> Request.t list
(** FIFO prefix of queued requests with [rq_arrival <= tick], at most
    [max] of them.  Never blocks. *)

val pending : t -> int
val close : t -> unit
(** Idempotent; wakes all blocked producers. *)

val drained : t -> bool
(** Closed and empty — the scheduler's termination test. *)
