(** Seeded load generation: Poisson arrivals in virtual (tick) time
    with uniform sequence lengths, fully replayable from the seed. *)

type item = { ld_arrival : int; ld_len : int }
type plan = item array

val plan :
  seed:int -> n:int -> rate:float -> len_lo:int -> len_hi:int -> plan
(** [rate] is requests per tick (exponential interarrival gaps).
    @raise Invalid_argument on a non-positive rate or bad length
    range. *)

val requests : ?id0:int -> Servable.t -> seed:int -> plan -> Request.t array
(** Materialize a plan: each request's contents come from its own
    seeded stream, independent of plan order. *)

val submit_all : Broker.t -> Request.t array -> unit
(** Enqueue everything up front (blocking submit) and close the broker
    — the deterministic, single-domain drive; the broker's
    virtual-arrival gate still paces admission. *)

val spawn :
  Broker.t -> clock:(unit -> int) -> Request.t array -> int Stdlib.Domain.t
(** Play the plan open-loop from a fresh domain against a live clock
    (usually [fun () -> Scheduler.now s]): [try_submit] at each arrival
    tick, shedding when the queue is full; closes the broker after the
    last arrival.  Joining the domain returns the shed count. *)
