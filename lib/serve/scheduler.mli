(** The serving tick loop: admit → repack → execute → demux → complete.

    One tick advances every active request by one token as a single
    {!Executor} run of the session's step program at the current
    bucketed width; requests join and leave only between ticks
    (continuous batching).  The loop is the broker's single consumer;
    its virtual tick counter is published atomically so open-loop load
    generators on other domains can pace arrivals against it. *)

type t

val create :
  ?tick_ms:float ->
  ?compact:bool ->
  ?max_ticks:int ->
  session:Session.t ->
  broker:Broker.t ->
  max_batch:int ->
  metrics:Metrics.t ->
  unit ->
  t
(** [tick_ms > 0] pins each tick to a wall-time deadline (otherwise the
    loop runs flat out); [compact] (default on) repacks slots between
    ticks when eviction holes would inflate the bucketed width;
    [max_ticks > 0] is a safety valve for open-ended runs. *)

val now : t -> int
(** The current virtual tick (readable from any domain). *)

val run : ?on_complete:(Request.t -> unit) -> t -> unit
(** Serve until the broker is drained (closed and empty) and every
    admitted request has completed (or [max_ticks] passed); each
    completion goes to [on_complete], in completion order, and nothing
    else keeps it.  A request that completes, or is still running when
    [run] returns, holds its own copy of its carried state, never a
    buffer of the servable.  Must be called from exactly one domain,
    and no other scheduler may run the same servable meanwhile. *)
