(* The admission queue between submitter domains and the scheduler.

   A bounded MPSC queue, hand-rolled on Mutex + Condition (the repo
   takes no async runtime): any number of producer domains submit;
   exactly one consumer — the scheduler's tick loop — drains.  A full
   queue either rejects ([try_submit], the open-loop load generator's
   spelling: a real front door sheds load rather than buffering it
   without bound) or blocks ([submit], closed-loop backpressure).

   Requests carry a virtual arrival tick; [pop_ready] only releases a
   request once the consumer's clock has reached it, which is what
   makes join schedules replayable: the same seed produces the same
   arrival ticks and therefore the same join order, independent of
   wall-clock scheduling noise. *)

type t = {
  cap : int;
  m : Mutex.t;
  nonfull : Condition.t;
  nonempty : Condition.t;
  q : Request.t Queue.t;
  mutable closed : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Broker.create: capacity must be >= 1";
  {
    cap = capacity;
    m = Mutex.create ();
    nonfull = Condition.create ();
    nonempty = Condition.create ();
    q = Queue.create ();
    closed = false;
  }

let with_lock b f =
  Mutex.lock b.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock b.m) f

let accept_locked b r =
  r.Request.rq_submit_s <- Unix.gettimeofday ();
  Queue.push r b.q;
  Condition.signal b.nonempty

(* Non-blocking admission: reject when full or closed. *)
let try_submit b r =
  with_lock b (fun () ->
      if b.closed || Queue.length b.q >= b.cap then begin
        r.Request.rq_status <- Request.Rejected;
        false
      end
      else begin
        accept_locked b r;
        true
      end)

(* Blocking admission: wait for space (closed-loop backpressure).
   Returns [false] only if the broker closed while waiting. *)
let submit b r =
  with_lock b (fun () ->
      while (not b.closed) && Queue.length b.q >= b.cap do
        Condition.wait b.nonfull b.m
      done;
      if b.closed then begin
        r.Request.rq_status <- Request.Rejected;
        false
      end
      else begin
        accept_locked b r;
        true
      end)

(* Drain every queued request whose virtual arrival tick has come.
   FIFO order within a tick.  Non-blocking: the scheduler polls once
   per tick and otherwise keeps executing. *)
let pop_ready b ~tick ~max =
  with_lock b (fun () ->
      let rec take acc n =
        if n = 0 || Queue.is_empty b.q then List.rev acc
        else
          let r = Queue.peek b.q in
          if r.Request.rq_arrival <= tick then begin
            ignore (Queue.pop b.q);
            Condition.signal b.nonfull;
            take (r :: acc) (n - 1)
          end
          else List.rev acc
      in
      take [] max)

let pending b = with_lock b (fun () -> Queue.length b.q)

let close b =
  with_lock b (fun () ->
      b.closed <- true;
      Condition.broadcast b.nonfull;
      Condition.broadcast b.nonempty)

let drained b = with_lock b (fun () -> b.closed && Queue.is_empty b.q)
