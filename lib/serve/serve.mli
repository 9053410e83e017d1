(** The serving front door: servable + broker + session + scheduler
    wired together, plus the drive and differential entry points behind
    [ftc serve] and the serve benchmark. *)

val program_of : string -> (Expr.program, string) result
(** A [.ft] file, parsed and type-checked, or else a builtin's source. *)

val servable_of_file : string -> (Servable.t, string) result
(** The servable derived from {!program_of}. *)

type outcome = {
  oc_metrics : Metrics.t;
  oc_completed : Request.t list;  (** completion order *)
  oc_wall_s : float;
  oc_shed : int;  (** open-loop only: arrivals dropped at the door *)
}

val run_requests :
  ?opts:Run_opts.t ->
  ?max_batch:int ->
  ?queue:int ->
  ?tick_ms:float ->
  Servable.t ->
  Request.t array ->
  outcome
(** Closed loop: queue the whole set up front (virtual arrival ticks
    still gate admission), serve to completion. *)

val solo :
  ?tenant:string -> ?opts:Run_opts.t -> Servable.t -> Request.t array ->
  outcome
(** Reset and serve each request entirely alone ([max_batch = 1]) —
    the sequential baseline and the bitwise reference.  [tenant] is
    accepted and ignored, as by {!Session.create}: nothing is selected
    by a caller's name.  It stays because the end-to-end benchmark
    passes it. *)

val run_open_loop :
  ?opts:Run_opts.t ->
  ?max_batch:int ->
  queue:int ->
  ?tick_ms:float ->
  ?max_ticks:int ->
  Servable.t ->
  Request.t array ->
  outcome
(** Open loop: play the arrivals from a second domain against the live
    scheduler clock through a bounded queue; full-queue arrivals are
    shed. *)

val mismatches : Request.t list -> Request.t list -> int
(** Requests matched by id across two servings; a mismatch is any
    difference — by {!Fractal.equal_exact} — in response or final
    carried state, or a request present on one side only. *)

val reference_mismatches : Expr.program -> Request.t list -> int
(** Completed requests whose response differs — by
    {!Fractal.equal_exact} — from {!Servable.reference} on the source
    program, or that have none. *)
