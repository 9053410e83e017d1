(** Progress counters for a dependence-driven runner: one counter per
    lane (a device of a sharded run), each on its own cache lines, and a
    wait that spins, then blocks.

    A lane publishes the position it has finished; another lane that
    needs that position waits for the counter to reach it.  Counters
    only grow within a run ({!reset} starts the next one).  The
    publication is an [Atomic] store, so everything the lane wrote
    before {!publish} is visible to a domain that reads the published
    value.

    Waiting follows {!Domain_pool}'s job board: spin for [spins] rounds
    of [Domain.cpu_relax], then block on a condition, counted in a
    sleeper count that {!publish} reads after its store, so no wake-up
    is lost.  Nothing here allocates. *)

type t

val create : int -> t
(** [create n]: counters [0 .. n-1], each at [-1]. *)

val reset : t -> unit
(** Every counter back to [-1].  Call it while no lane runs. *)

val get : t -> int -> int
(** The counter's current value. *)

val publish : t -> int -> int -> unit
(** [publish t i v] stores [v] in counter [i] and wakes every blocked
    waiter. *)

val wake : t -> unit
(** Wake every blocked waiter without publishing: for a state change
    the waiters' predicates read elsewhere (a failure). *)

val await : t -> spins:int -> ('a -> int -> bool) -> 'a -> int -> unit
(** [await t ~spins ready x i] returns once [ready x i] holds.  [ready]
    is re-evaluated after every {!publish} or {!wake}, so it must only
    read what those publish.  Passing a top-level [ready] and the values
    it reads, rather than a closure over them, keeps the wait
    allocation-free. *)
