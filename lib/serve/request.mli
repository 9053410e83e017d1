(** One inference request in flight through the serving layer.

    A request is a token stream plus the carried state its servable
    threads between ticks.  The scheduler owns all mutation; the
    immutable core (initial state, token array) lets a request be
    {!reset} and replayed bit-for-bit — the solo reference runs of the
    differential suite and the interleaved benchmark depend on it. *)

type status = Queued | Running | Done | Rejected

type t = {
  rq_id : int;
  rq_tenant : string;
  rq_arrival : int;
      (** earliest tick at which admission is allowed (virtual time) *)
  rq_len : int;
  rq_state0 : Fractal.t;
  rq_tokens : Fractal.t array;
  mutable rq_status : status;
  mutable rq_pos : int;  (** tokens consumed so far *)
  mutable rq_state : Fractal.t;
  mutable rq_response : Fractal.t option;
  mutable rq_submit_s : float;
  mutable rq_done_s : float;
  mutable rq_join_tick : int;
  mutable rq_done_tick : int;
}

val make :
  id:int ->
  ?tenant:string ->
  ?arrival:int ->
  state0:Fractal.t ->
  tokens:Fractal.t array ->
  unit ->
  t
(** @raise Invalid_argument on an empty token array. *)

val reset : t -> unit
(** Back to the as-submitted state: same id, same tokens, same initial
    carried state. *)

val finished : t -> bool
val next_token : t -> Fractal.t
val latency_ms : t -> float
(** Submit-to-done wall latency; [nan] until the request completes. *)
