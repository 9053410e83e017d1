(* serve_rnn_closed: [serve_stacked_rnn.ft] served by continuous
   batching to 8 closed-loop clients, each sending its next request as
   soon as the previous one completes.  The executor runs at one
   domain, [max_batch] is 8 and request lengths are uniform in
   [seq/4, seq].  Here [Executor.execute] runs at tiny per-tick sizes,
   so per-call overhead, mux/demux and admission show; a change that
   speeds kernels but adds per-call cost loses here.

   The traced round adds an open-loop phase: Poisson arrivals at one
   fixed wall-clock rate, played by a producer on the second domain
   and timed from each request's due time. *)

open Common

let clients = 8
let max_batch = 8

(* The distinct request contents: every length in [seq/4, seq] occurs
   equally often among about [n_contents] of them, and the seed shuffles
   their order and draws their tokens.  The lengths are uniform without
   being random, so every seed asks for the same work.  Request [id]
   carries contents [id mod n]. *)
let n_contents = 128

(* The closed loop serves bursts of whole passes over the contents, at
   least [burst_tokens] tokens each, each burst through one
   [Scheduler.run] (which keeps every request it completes), so memory
   does not grow with throughput. *)
let burst_tokens = 4096

(* Open-loop load in tokens per second: about half the closed-loop
   capacity measured on a 2-core x86-64 host (about 200000 tokens/s).
   Requests arrive at this over the contents' mean length. *)
let open_tokens_per_s = 100_000.
let open_queue = 16

type contents = (Fractal.t * Fractal.t array) array

let request (contents : contents) id =
  let state0, tokens = contents.(id mod Array.length contents) in
  Request.make ~id ~state0 ~tokens ()

(* The same number of requests of every length in [lo, hi], in a seeded
   order. *)
let plan ~seed ~lo ~hi : Loadgen.plan =
  let span = hi - lo + 1 in
  let copies = Stdlib.max 1 (n_contents / span) in
  let lens = Array.init (copies * span) (fun k -> lo + (k mod span)) in
  let rng = Rng.create seed in
  for i = Array.length lens - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = lens.(i) in
    lens.(i) <- lens.(j);
    lens.(j) <- t
  done;
  Array.map (fun len -> { Loadgen.ld_arrival = 0; ld_len = len }) lens

let widths = Batch.buckets (Batch.create ~max_batch)

(* Tick spans from the servable's own mux and demux calls: a tick runs
   from one mux to the next and holds the mux, the execute between mux
   and demux, and the demux; what is left is admission and completion. *)
type ticks = {
  tr : Spans.t;
  mutable recording : bool;  (** off outside the measured loop *)
  mutable tick : int;
  mutable tick_id : int;
  mutable tick_t0 : float;
  mutable mux_t1 : float;
}

let close_tick tk t =
  if tk.tick_id >= 0 then
    Spans.add tk.tr ~op:tk.tick ~id:tk.tick_id ~parent:(-1) "serve.tick" tk.tick_t0 t;
  tk.tick_id <- -1

let child tk name t0 t1 = Spans.add tk.tr ~op:tk.tick ~id:(Spans.fresh tk.tr) ~parent:tk.tick_id name t0 t1

let instrument tk (sv : Servable.t) =
  let env ~width rows =
    let t0 = now () in
    close_tick tk t0;
    tk.tick <- tk.tick + 1;
    tk.tick_id <- Spans.fresh tk.tr;
    tk.tick_t0 <- t0;
    let env = sv.Servable.sv_env ~width rows in
    tk.mux_t1 <- now ();
    child tk "serve.mux" t0 tk.mux_t1;
    env
  in
  let demux ~width outs =
    let t0 = now () in
    child tk "serve.execute" tk.mux_t1 t0;
    let states = sv.Servable.sv_demux ~width outs in
    child tk "serve.demux" t0 (now ());
    states
  in
  {
    sv with
    Servable.sv_env =
      (fun ~width rows ->
        if tk.recording then env ~width rows else sv.Servable.sv_env ~width rows);
    sv_demux =
      (fun ~width outs ->
        if tk.recording then demux ~width outs else sv.Servable.sv_demux ~width outs);
  }

type burst = {
  recorded : bool;  (** tick spans were recorded *)
  mid_s : float;  (** when the burst ran: its mid-time *)
  wall_s : float;
  requests : int;
  ticks : int;
  exec_ms : float;  (** the scheduler's exec counter *)
  busy_rows : float;  (** occupied rows summed over ticks *)
  tokens : int;
}

let sum f bs = List.fold_left (fun a b -> a +. f b) 0. bs

(* Closed loop for [budget_s], in bursts: every completion resubmits
   until the burst's [burst] requests are in, then the in-flight ones
   drain.  With [ticks], bursts alternate recorded and unrecorded, so
   the tracing overhead is measured inside one process.  A probe slice
   runs before the first burst and after every burst.  After each
   burst, every 8th completed request is checked bitwise against its
   solo-served reference. *)
let closed_loop ?ticks ~probe session contents ~solo ~budget_s =
  let pass_tokens = Array.fold_left (fun a (_, tokens) -> a + Array.length tokens) 0 contents in
  let burst = Array.length contents * ((burst_tokens + pass_tokens - 1) / pass_tokens) in
  let samples = Samples.create () and keys = Samples.create () in
  let mismatched = ref [] and bursts = ref [] in
  let spent () = sum (fun b -> b.wall_s) !bursts in
  Probe.slice probe;
  while List.length !bursts < (if ticks = None then 1 else 2) || spent () < budget_s do
    let recorded = ticks <> None && List.length !bursts mod 2 = 0 in
    Option.iter (fun tk -> tk.recording <- recorded) ticks;
    let broker = Broker.create ~capacity:clients in
    let metrics = Metrics.create () in
    let sch = Scheduler.create ~session ~broker ~max_batch ~metrics () in
    (* a closed-loop request's id is its contents index, the key of its
       solo reference *)
    let submitted = ref 0 and kept = ref [] in
    let submit () =
      ignore (Broker.submit broker (request contents (!submitted mod Array.length contents)));
      incr submitted;
      if !submitted = burst then Broker.close broker
    in
    let on_complete (r : Request.t) =
      Samples.add samples (Request.latency_ms r);
      Samples.add keys (float_of_int r.Request.rq_id);
      if samples.Samples.n mod 8 = 1 then kept := r :: !kept;
      Option.iter
        (fun tk ->
          if recorded then
            Spans.add tk.tr ~track:"requests" ~op:tk.tick ~id:(Spans.fresh tk.tr) ~parent:(-1)
              "request" r.Request.rq_submit_s r.Request.rq_done_s)
        ticks;
      if !submitted < burst then submit ()
    in
    let t0 = now () in
    for _ = 1 to clients do
      submit ()
    done;
    ignore (Scheduler.run ~on_complete sch);
    let wall_s = now () -. t0 in
    Probe.slice probe;
    Option.iter
      (fun tk ->
        close_tick tk (now ());
        tk.recording <- false)
      ticks;
    let n_ticks = Metrics.ticks metrics in
    bursts :=
      {
        recorded;
        mid_s = t0 +. (wall_s /. 2.);
        wall_s;
        requests = burst;
        ticks = n_ticks;
        exec_ms = Metrics.exec_ms metrics;
        busy_rows = Metrics.mean_occupancy metrics *. float_of_int n_ticks;
        tokens = Metrics.tokens metrics;
      }
      :: !bursts;
    List.iter
      (fun (r : Request.t) ->
        if Serve.mismatches [ r ] [ solo.(r.Request.rq_id) ] > 0 then
          mismatched :=
            Printf.sprintf "request %d differs from solo service" r.Request.rq_id :: !mismatched)
      !kept
  done;
  (Samples.to_array samples, Samples.to_array keys, !mismatched, !bursts)

(* Open loop: Poisson arrivals at [open_tokens_per_s] for [budget_s],
   submitted by a producer domain that never waits for replies; a full
   queue sheds.  Latency runs from each request's due time. *)
let open_loop ctx session contents ~budget_s =
  let tokens = Array.fold_left (fun a (_, ts) -> a + Array.length ts) 0 contents in
  let rate = open_tokens_per_s *. float_of_int (Array.length contents) /. float_of_int tokens in
  let rng = Rng.create (ctx.seed + 1) in
  let due = Samples.create () in
  let t = ref 0. in
  while !t < budget_s do
    t := !t -. (Float.log (Rng.uniform rng ~lo:Float.epsilon ~hi:1.0) /. rate);
    Samples.add due !t
  done;
  let due = Samples.to_array due in
  let n = Array.length due in
  let reqs = Array.init n (request contents) in
  let broker = Broker.create ~capacity:open_queue in
  let sch = Scheduler.create ~session ~broker ~max_batch ~metrics:(Metrics.create ()) () in
  let start = now () +. 0.001 in
  let producer =
    Stdlib.Domain.spawn (fun () ->
        let shed = ref 0 and late = Array.make n 0. in
        Array.iteri
          (fun k r ->
            let t_due = start +. due.(k) in
            let rec wait () =
              let d = t_due -. now () in
              if d > 0.002 then begin
                Unix.sleepf (d -. 0.001);
                wait ()
              end
              else if d > 0. then begin
                Stdlib.Domain.cpu_relax ();
                wait ()
              end
            in
            wait ();
            late.(k) <- (now () -. t_due) *. 1e3;
            if not (Broker.try_submit broker r) then incr shed)
          reqs;
        Broker.close broker;
        (!shed, late))
  in
  let lat = Samples.create () in
  ignore
    (Scheduler.run
       ~on_complete:(fun r ->
         Samples.add lat ((r.Request.rq_done_s -. (start +. due.(r.Request.rq_id))) *. 1e3))
       sch);
  let shed, late = Stdlib.Domain.join producer in
  let lat = Array.to_list (Samples.to_array lat) in
  [
    ("serve.open.latency_p50_ms", Metrics.percentile_of lat 50.);
    ("serve.open.latency_p99_ms", Metrics.percentile_of lat 99.);
    ("serve.open.late_p99_ms", Metrics.percentile_of (Array.to_list late) 99.);
    ("serve.open.shed_frac", float_of_int shed /. float_of_int (Stdlib.max 1 n));
  ]

(* The servable from its file and a session with every batch width
   prepared, as a fresh process would: the plan cache starts empty. *)
let open_session ~tenant ~opts ctx ?ticks () =
  Pipeline.Cache.clear ();
  let path = Filename.concat ctx.programs "serve_stacked_rnn.ft" in
  let sv = match Serve.servable_of_file path with Ok sv -> sv | Error e -> failwith e in
  let session =
    Session.create ~tenant ~opts (match ticks with Some tk -> instrument tk sv | None -> sv)
  in
  let (), prepare_ms =
    timed (fun () -> Array.iter (fun width -> ignore (Session.prepared session ~width)) widths)
  in
  (sv, session, prepare_ms)

let run ctx =
  let opts = opts ~domains:1 in
  let ticks =
    Option.map
      (fun tr -> { tr; recording = false; tick = -1; tick_id = -1; tick_t0 = 0.; mux_t1 = 0. })
      ctx.trace
  in
  let (sv, session, prepare_ms), setup =
    repeated_setup ctx (fun i ->
        open_session ~tenant:(Printf.sprintf "bench%d" i) ~opts ctx ?ticks ())
  in
  let seq = sv.Servable.sv_seq_len in
  let contents =
    Array.map
      (fun r -> (r.Request.rq_state0, r.Request.rq_tokens))
      (Loadgen.requests sv ~seed:ctx.seed (plan ~seed:ctx.seed ~lo:(Stdlib.max 1 (seq / 4)) ~hi:seq))
  in
  let n = Array.length contents in
  let solo_run = Serve.solo ~tenant:"solo" ~opts sv (Array.init n (request contents)) in
  let solo = Array.make n (List.hd solo_run.Serve.oc_completed) in
  List.iter (fun r -> solo.(r.Request.rq_id) <- r) solo_run.Serve.oc_completed;
  (* one untimed burst warms caches and finishes lazy set-up *)
  ignore (closed_loop ~probe:ctx.probe session contents ~solo ~budget_s:0.);
  let samples, keys, mismatched, bursts =
    closed_loop ?ticks ~probe:ctx.probe session contents ~solo ~budget_s:ctx.budget_s
  in
  let layers =
    match ticks with
    | None -> []
    | Some tk ->
        let ls = Spans.layers tk.tr in
        let recorded, plain = List.partition (fun b -> b.recorded) bursts in
        let ticks = sum (fun b -> float_of_int b.ticks) recorded in
        let per_tick name =
          match List.assoc_opt name ls with Some l -> l.Spans.l_total_ms /. ticks | None -> 0.
        in
        let tick = per_tick "serve.tick" and mux = per_tick "serve.mux" in
        let demux = per_tick "serve.demux" and exec = sum (fun b -> b.exec_ms) recorded /. ticks in
        let per_request bs = sum (fun b -> b.wall_s) bs /. sum (fun b -> float_of_int b.requests) bs in
        let all_ticks = sum (fun b -> float_of_int b.ticks) bursts in
        let _, open_session, _ = open_session ~tenant:"open" ~opts ctx () in
        [
          ("serve.session.prepare.ms", prepare_ms);
          ("serve.tick.ms", tick);
          ("serve.mux.ms_per_tick", mux);
          ("serve.execute.ms_per_tick", exec);
          ("serve.demux.ms_per_tick", demux);
          ("serve.other.ms_per_tick", tick -. mux -. exec -. demux);
          ("serve.ticks_per_request", all_ticks /. float_of_int (Array.length samples));
          ("serve.occupancy_mean", sum (fun b -> b.busy_rows) bursts /. all_ticks);
          ( "serve.tokens_per_s",
            sum (fun b -> float_of_int b.tokens) bursts /. sum (fun b -> b.wall_s) bursts );
          ("serve.solo.tokens_per_s", Metrics.tokens_per_s solo_run.Serve.oc_metrics);
          ( "bench.trace_overhead_pct",
            overhead_pct ~traced:(per_request recorded) ~plain:(per_request plain) );
        ]
        @ open_loop ctx open_session contents ~budget_s:ctx.budget_s
  in
  (* a burst's requests are contiguous in [samples], in burst order, and
     scale by the probe slices around their burst *)
  let slowdown = Probe.slowdown ctx.probe in
  let scaled = Array.copy samples and next = ref 0 in
  List.iter
    (fun b ->
      let f = slowdown b.mid_s in
      for i = !next to !next + b.requests - 1 do
        scaled.(i) <- samples.(i) /. f
      done;
      next := !next + b.requests)
    (List.rev bursts);
  let requests = sum (fun b -> float_of_int b.requests) bursts in
  make_result ctx ~setup
    ~raw:(requests /. sum (fun b -> b.wall_s) bursts, samples)
    ~scaled:(requests /. sum (fun b -> b.wall_s /. slowdown b.mid_s) bursts, scaled)
    ~keys:(Array.map int_of_float keys)
    ~ops:(Array.length samples) ~failed:(List.length mismatched)
    ~errors:(List.filteri (fun i _ -> i < 5) mismatched)
    ~counts:[] ~layers
