(* Seeded load generation.

   Arrivals are an open-loop Poisson process in *virtual* time: seeded
   exponential interarrival gaps at [rate] requests per tick, rounded
   onto the scheduler's tick grid, with sequence lengths uniform in a
   range.  The same seed always produces the same (arrival, length)
   plan and the same request contents, so any schedule the serving
   layer is exercised with can be replayed exactly — including the
   randomized join/leave schedules of the differential suite.

   A plan can be driven two ways: [submit_all] enqueues everything
   up front and lets the broker's virtual-arrival gate pace admission
   (single-domain, fully deterministic), or [spawn] plays it from a
   separate domain against the scheduler's live clock with [try_submit]
   — true open-loop arrivals that shed load when the queue is full. *)

type item = { ld_arrival : int; ld_len : int }

type plan = item array

let plan ~seed ~n ~rate ~len_lo ~len_hi =
  if rate <= 0. then invalid_arg "Loadgen.plan: rate must be positive";
  if len_lo < 1 || len_hi < len_lo then
    invalid_arg "Loadgen.plan: bad length range";
  let rng = Rng.create seed in
  let t = ref 0. in
  Array.init n (fun _ ->
      let u = Rng.uniform rng ~lo:Float.epsilon ~hi:1.0 in
      t := !t +. (-.Float.log u /. rate);
      let len = len_lo + Rng.int rng (len_hi - len_lo + 1) in
      { ld_arrival = int_of_float !t; ld_len = len })

let requests ?(id0 = 0) sv ~seed (pl : plan) =
  Array.mapi
    (fun i it ->
      (* Each request draws from its own stream so content does not
         depend on how many requests precede it in the plan. *)
      let rng = Rng.create (seed + (7919 * (id0 + i)) + 1) in
      let state0, tokens =
        sv.Servable.sv_new_request rng ~len:it.ld_len
      in
      Request.make ~id:(id0 + i) ~arrival:it.ld_arrival ~state0 ~tokens ())
    pl

(* Deterministic drive: everything queued before the first tick; the
   broker's arrival gate paces admission.  Requires capacity >= n. *)
let submit_all broker rs =
  Array.iter (fun r -> ignore (Broker.submit broker r)) rs;
  Broker.close broker

(* Open loop from a separate domain: submit each request once the
   serving clock reaches its arrival tick; a full queue rejects (load
   shedding).  Closes the broker after the last arrival. *)
let spawn broker ~clock rs =
  Stdlib.Domain.spawn (fun () ->
      let shed = ref 0 in
      Array.iter
        (fun r ->
          while clock () < r.Request.rq_arrival do
            Stdlib.Domain.cpu_relax ()
          done;
          if not (Broker.try_submit broker r) then incr shed)
        rs;
      Broker.close broker;
      !shed)
