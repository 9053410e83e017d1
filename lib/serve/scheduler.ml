(* The serving tick loop: admit → repack → execute → demux → complete.

   One tick advances every active request by exactly one token, as a
   single Executor run of the session's step program at the current
   bucketed width.  Requests join between ticks (from the broker, once
   their virtual arrival tick has come) and leave between ticks (when
   their token stream is exhausted) — continuous batching.  Empty slots
   inside the executed width carry the servable's pad rows, whose math
   touches only their own leaves, so occupancy changes never perturb
   live rows.

   The loop is the broker's single consumer.  Time is a virtual tick
   counter published through an atomic so open-loop load generators on
   other domains can pace arrivals against it; [tick_ms] optionally
   pins a tick to wall time (a serving deadline), otherwise the loop
   runs flat out. *)

type t = {
  sch_session : Session.t;
  sch_broker : Broker.t;
  sch_batch : Batch.t;
  sch_metrics : Metrics.t;
  sch_tick : int Atomic.t;
  sch_tick_ms : float;
  sch_max_ticks : int;
}

let create ?(tick_ms = 0.) ?(max_ticks = 0) ~session ~broker ~max_batch
    ~metrics () =
  {
    sch_session = session;
    sch_broker = broker;
    sch_batch = Batch.create ~max_batch;
    sch_metrics = metrics;
    sch_tick = Atomic.make 0;
    sch_tick_ms = tick_ms;
    sch_max_ticks = max_ticks;
  }

let now t = Atomic.get t.sch_tick

let admit t =
  let tick = now t in
  let free = Batch.free t.sch_batch in
  if free > 0 then
    Broker.pop_ready t.sch_broker ~tick ~max:free
    |> List.iter (fun r ->
           match Batch.join t.sch_batch r with
           | Some _ ->
               r.Request.rq_status <- Request.Running;
               r.Request.rq_join_tick <- tick
           | None -> assert false (* pop_ready bounded by free *))

(* A running request's state may be the servable's buffer, which the
   next tick at that width overwrites; a request that leaves the loop
   takes a copy. *)
let keep = Fractal.map_leaves Tensor.copy

(* One executed tick over the current occupants.  Returns the requests
   completed this tick, in slot order. *)
let step t =
  let sv = Session.servable t.sch_session in
  let batch = t.sch_batch in
  let width = Batch.width batch in
  assert (width > 0);
  let slots = Batch.slots batch in
  let rows =
    Array.init width (fun i ->
        match slots.(i) with
        | Some r -> (r.Request.rq_state, Request.next_token r)
        | None -> sv.Servable.sv_pad)
  in
  let env = sv.Servable.sv_env ~width rows in
  let pr = Session.prepared t.sch_session ~width in
  let t0 = Unix.gettimeofday () in
  let outs = Executor.execute pr env in
  let exec_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  let states = sv.Servable.sv_demux ~width outs in
  let active = ref 0 and finished = ref [] in
  for i = 0 to width - 1 do
    match slots.(i) with
    | None -> ()
    | Some r ->
        incr active;
        r.Request.rq_state <- states.(i);
        r.Request.rq_pos <- r.Request.rq_pos + 1;
        if Request.finished r then begin
          r.Request.rq_state <- keep r.Request.rq_state;
          r.Request.rq_response <- Some (sv.Servable.sv_finish r.Request.rq_state);
          r.Request.rq_status <- Request.Done;
          r.Request.rq_done_s <- Unix.gettimeofday ();
          r.Request.rq_done_tick <- now t;
          ignore (Batch.evict batch i);
          Metrics.on_complete t.sch_metrics r;
          finished := r :: !finished
        end
  done;
  Metrics.on_tick t.sch_metrics ~active:!active ~advanced:!active ~exec_ms;
  (* Repack only when it pays: dropping to a smaller bucket shrinks the
     next executor run.  Row positions only matter within one tick, so
     moving requests here is invisible to results. *)
  if Batch.span batch > Batch.occupancy batch then Batch.compact batch;
  List.rev !finished

let pace t t_tick0 =
  if t.sch_tick_ms > 0. then begin
    let elapsed_ms = (Unix.gettimeofday () -. t_tick0) *. 1e3 in
    let remain = t.sch_tick_ms -. elapsed_ms in
    if remain > 0. then Unix.sleepf (remain /. 1e3)
  end

(* Serve until the broker is closed and every admitted request has
   completed.  Completions go to [on_complete] only: a long run holds
   no more requests than its batch and broker do. *)
let run ?(on_complete = fun _ -> ()) t =
  Metrics.start t.sch_metrics;
  let rec loop () =
    let t_tick0 = Unix.gettimeofday () in
    admit t;
    if Batch.is_empty t.sch_batch then begin
      if Broker.drained t.sch_broker then ()
      else if t.sch_max_ticks > 0 && now t >= t.sch_max_ticks then ()
      else begin
        (* Nothing runnable yet: advance virtual time toward the next
           arrival (or a producer that has not finished submitting). *)
        Atomic.incr t.sch_tick;
        if t.sch_tick_ms > 0. then pace t t_tick0 else Stdlib.Domain.cpu_relax ();
        loop ()
      end
    end
    else begin
      List.iter on_complete (step t);
      Atomic.incr t.sch_tick;
      pace t t_tick0;
      if t.sch_max_ticks > 0 && now t >= t.sch_max_ticks then ()
      else loop ()
    end
  in
  loop ();
  (* stopped by [max_ticks]: the requests still running keep their own
     state *)
  Array.iter
    (Option.iter (fun (r : Request.t) -> r.Request.rq_state <- keep r.Request.rq_state))
    (Batch.slots t.sch_batch);
  Metrics.stop t.sch_metrics
