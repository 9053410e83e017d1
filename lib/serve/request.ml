(* One inference request: a sequence of per-tick input tokens plus the
   carried state the servable threads between ticks.  The scheduler
   mutates position and state as the request advances through the
   shared batch; everything needed to re-serve the request from scratch
   (initial state, token array) is immutable, so a request can be reset
   and replayed — the differential tests re-run the same request solo
   and compare bitwise. *)

type status = Queued | Running | Done | Rejected

type t = {
  rq_id : int;
  rq_arrival : int;
      (* earliest tick at which admission is allowed (virtual time);
         0 = immediately.  Wall-clock arrival is [rq_submit_s]. *)
  rq_len : int;
  rq_state0 : Fractal.t;
  rq_tokens : Fractal.t array;
  mutable rq_status : status;
  mutable rq_pos : int; (* tokens consumed so far *)
  mutable rq_state : Fractal.t;
  mutable rq_response : Fractal.t option;
  mutable rq_submit_s : float;
  mutable rq_done_s : float;
  mutable rq_join_tick : int;
  mutable rq_done_tick : int;
}

let make ~id ?(arrival = 0) ~state0 ~tokens () =
  if Array.length tokens = 0 then
    invalid_arg "Request.make: a request needs at least one token";
  {
    rq_id = id;
    rq_arrival = arrival;
    rq_len = Array.length tokens;
    rq_state0 = state0;
    rq_tokens = tokens;
    rq_status = Queued;
    rq_pos = 0;
    rq_state = state0;
    rq_response = None;
    rq_submit_s = 0.;
    rq_done_s = 0.;
    rq_join_tick = -1;
    rq_done_tick = -1;
  }

(* Back to the as-submitted state: same id, same tokens, same initial
   carried state.  Used to serve the identical request again (solo
   reference runs, interleaved benchmark repeats). *)
let reset r =
  r.rq_status <- Queued;
  r.rq_pos <- 0;
  r.rq_state <- r.rq_state0;
  r.rq_response <- None;
  r.rq_submit_s <- 0.;
  r.rq_done_s <- 0.;
  r.rq_join_tick <- -1;
  r.rq_done_tick <- -1

let finished r = r.rq_pos >= r.rq_len
let next_token r = r.rq_tokens.(r.rq_pos)

let latency_ms r =
  if r.rq_status = Done && r.rq_done_s >= r.rq_submit_s then
    (r.rq_done_s -. r.rq_submit_s) *. 1e3
  else Float.nan
