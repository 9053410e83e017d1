(* The serving front door: wire servable + broker + session + scheduler
   together, and measure.

   Two measurement modes matter:

   - closed loop ([run_requests]): a fixed request set queued up front,
     served to completion — the saturation-throughput measurement, and
     (at [max_batch = 1]) the sequential one-request-at-a-time baseline
     the benchmark compares against;
   - open loop ([run_open_loop]): a seeded Poisson arrival process
     played from a second domain against the live scheduler clock
     through a bounded queue — the latency-percentile and backpressure
     measurement.

   [mismatches] is the correctness keystone's workhorse: it demands
   bitwise equality ([Fractal.equal_exact]) of both the response and
   the full final carried state between any two servings of the same
   request set — batched vs solo, across domain counts, across
   join/leave schedules. *)

let program_of path : (Expr.program, string) result =
  match Servable.builtin_program path with
  | Some p when not (Sys.file_exists path) -> Ok p
  | _ -> (
      match Parse.program_file path with
      | exception Parse.Syntax_error { line; col; message } ->
          Error (Printf.sprintf "%s:%d:%d: %s" path line col message)
      | exception Sys_error _ ->
          Error
            (Printf.sprintf "no file or builtin servable %S (builtins: %s)"
               path (String.concat ", " Servable.builtin_names))
      | p -> (
          match Typecheck.check_program p with
          | exception Typecheck.Type_error m ->
              Error (Printf.sprintf "%s: type error: %s" path m)
          | _ -> Ok p))

let servable_of_file path = Result.bind (program_of path) Servable.of_program

type outcome = {
  oc_metrics : Metrics.t;
  oc_completed : Request.t list;  (** completion order *)
  oc_wall_s : float;
  oc_engine : string;
  oc_shed : int;  (** open-loop only: arrivals dropped at the door *)
}

(* One scheduler run over a fresh broker and session; [drive] feeds the
   broker while the scheduler runs and returns the count it shed. *)
let serve ~tenant ~opts ~max_batch ~queue ~tick_ms ~compact ?max_ticks sv
    drive =
  let broker = Broker.create ~capacity:queue in
  let session = Session.create ~tenant ~opts sv in
  let metrics = Metrics.create () in
  let sch =
    Scheduler.create ~tick_ms ~compact ?max_ticks ~session ~broker ~max_batch
      ~metrics ()
  in
  let t0 = Unix.gettimeofday () in
  let finish_drive = drive broker sch in
  let completed = Scheduler.run sch in
  let shed = finish_drive () in
  {
    oc_metrics = metrics;
    oc_completed = completed;
    oc_wall_s = Unix.gettimeofday () -. t0;
    oc_engine =
      (match Session.widths_prepared session with
      | w :: _ -> Session.engine session ~width:w
      | [] -> "idle");
    oc_shed = shed;
  }

let run_requests ?(tenant = "default") ?(opts = Run_opts.default)
    ?(max_batch = 8) ?queue ?(tick_ms = 0.) ?(compact = true) sv rs =
  let queue = Option.value queue ~default:(Stdlib.max 1 (Array.length rs)) in
  serve ~tenant ~opts ~max_batch ~queue ~tick_ms ~compact sv (fun broker _ ->
      Loadgen.submit_all broker rs;
      fun () -> 0)

(* Each request served entirely alone — the reference semantics the
   batched path must reproduce bit for bit. *)
let solo ?(tenant = "default") ?(opts = Run_opts.default) sv rs =
  Array.iter Request.reset rs;
  run_requests ~tenant ~opts ~max_batch:1 sv rs

let run_open_loop ?(tenant = "default") ?(opts = Run_opts.default)
    ?(max_batch = 8) ~queue ?(tick_ms = 0.) ?(compact = true)
    ?(max_ticks = 0) sv rs =
  serve ~tenant ~opts ~max_batch ~queue ~tick_ms ~compact ~max_ticks sv
    (fun broker sch ->
      let producer =
        Loadgen.spawn broker ~clock:(fun () -> Scheduler.now sch) rs
      in
      fun () -> Stdlib.Domain.join producer)

(* Bitwise comparison of two servings of the same request set, matched
   by id: response and full final carried state must be identical. *)
let mismatches (a : Request.t list) (b : Request.t list) =
  let tbl = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace tbl r.Request.rq_id r) b;
  List.fold_left
    (fun bad (ra : Request.t) ->
      match Hashtbl.find_opt tbl ra.Request.rq_id with
      | None -> bad + 1
      | Some rb ->
          let resp_ok =
            match (ra.Request.rq_response, rb.Request.rq_response) with
            | Some va, Some vb -> Fractal.equal_exact va vb
            | None, None -> true
            | _ -> false
          in
          let state_ok =
            Fractal.equal_exact ra.Request.rq_state rb.Request.rq_state
          in
          if resp_ok && state_ok then bad else bad + 1)
    0 a

(* Completed requests whose response differs bitwise from the
   reference interpreter's on the source program. *)
let reference_mismatches p (rs : Request.t list) =
  let differs (r : Request.t) =
    match r.rq_response with
    | Some v -> not (Fractal.equal_exact v (Servable.reference p r.rq_tokens))
    | None -> true
  in
  List.length (List.filter differs rs)

(* ------------------------------ bench ----------------------------- *)

type bench_cfg = {
  bc_seed : int;
  bc_requests : int;
  bc_max_batch : int;
  bc_repeat : int;
  bc_queue : int;  (** open-loop queue bound (backpressure) *)
  bc_rate : float;  (** open-loop arrivals per tick *)
  bc_tick_ms : float;  (** open-loop tick deadline (wall pacing) *)
  bc_domains : int option;
}

(* Open-loop defaults deliberately overload: [bc_rate] arrivals per
   tick at mean length ~3/4 seq_len offers more tokens per tick than
   [bc_max_batch] can serve, so the bounded queue must fill and the
   door must shed — the backpressure regime the p99 gate runs in. *)
let default_bench_cfg =
  {
    bc_seed = 2024;
    bc_requests = 32;
    bc_max_batch = 8;
    bc_repeat = 7;
    bc_queue = 4;
    bc_rate = 2.0;
    bc_tick_ms = 0.2;
    bc_domains = None;
  }

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Throughput (closed loop, saturation) + latency (open loop, bounded
   queue) for one workload.  Batched and solo runs are interleaved
   within each repeat so machine noise hits both alike; the bitwise
   differential runs on the final repeat's results. *)
let bench_servable ?(cfg = default_bench_cfg) sv =
  let opts =
    { Run_opts.default with Run_opts.domains = cfg.bc_domains }
  in
  let pl =
    Loadgen.plan ~seed:cfg.bc_seed ~n:cfg.bc_requests ~rate:1e9
      ~len_lo:(Stdlib.max 1 (sv.Servable.sv_seq_len / 2))
      ~len_hi:sv.Servable.sv_seq_len
  in
  (* arrival ticks collapse to 0 at rate 1e9: a saturated queue *)
  let batched_wall = Array.make cfg.bc_repeat 0. in
  let solo_wall = Array.make cfg.bc_repeat 0. in
  let last = ref None in
  for rep = 0 to cfg.bc_repeat - 1 do
    let rs = Loadgen.requests sv ~seed:cfg.bc_seed pl in
    let b =
      run_requests ~tenant:"bench" ~opts ~max_batch:cfg.bc_max_batch sv rs
    in
    batched_wall.(rep) <- b.oc_wall_s;
    let rs_solo = Loadgen.requests sv ~seed:cfg.bc_seed pl in
    let s = solo ~tenant:"bench" ~opts sv rs_solo in
    solo_wall.(rep) <- s.oc_wall_s;
    last := Some (b, s)
  done;
  let b, s = Option.get !last in
  let bad = mismatches b.oc_completed s.oc_completed in
  let bm = median batched_wall and sm = median solo_wall in
  (* Open loop under backpressure: arrivals faster than the queue
     bound absorbs, so rejection must engage and p99 must stay
     finite. *)
  let open_pl =
    Loadgen.plan ~seed:(cfg.bc_seed + 1) ~n:(cfg.bc_requests * 2)
      ~rate:cfg.bc_rate
      ~len_lo:(Stdlib.max 1 (sv.Servable.sv_seq_len / 2))
      ~len_hi:sv.Servable.sv_seq_len
  in
  let open_rs = Loadgen.requests sv ~seed:(cfg.bc_seed + 1) open_pl in
  let o =
    run_open_loop ~tenant:"bench" ~opts ~max_batch:cfg.bc_max_batch
      ~queue:cfg.bc_queue ~tick_ms:cfg.bc_tick_ms sv open_rs
  in
  for _ = 1 to o.oc_shed do
    Metrics.on_reject o.oc_metrics
  done;
  let stats_o = Metrics.jsonv o.oc_metrics in
  Jsonw.Obj
    [
      ("workload", Jsonw.String sv.Servable.sv_name);
      ("engine", Jsonw.String b.oc_engine);
      ("seq_len", Jsonw.Int sv.Servable.sv_seq_len);
      ("requests", Jsonw.Int cfg.bc_requests);
      ("max_batch", Jsonw.Int cfg.bc_max_batch);
      ( "domains",
        match cfg.bc_domains with
        | Some d -> Jsonw.Int d
        | None -> Jsonw.Null );
      ("repeat", Jsonw.Int cfg.bc_repeat);
      ("batched_wall_s", Jsonw.Float bm);
      ("solo_wall_s", Jsonw.Float sm);
      ("speedup_vs_solo", Jsonw.Float (sm /. Float.max 1e-9 bm));
      ("batched_tokens_per_s", Jsonw.Float (Metrics.tokens_per_s b.oc_metrics));
      ("solo_tokens_per_s", Jsonw.Float (Metrics.tokens_per_s s.oc_metrics));
      ("mean_occupancy", Jsonw.Float (Metrics.mean_occupancy b.oc_metrics));
      ("bitwise_mismatches", Jsonw.Int bad);
      ( "open_loop",
        Jsonw.Obj
          [
            ("queue", Jsonw.Int cfg.bc_queue);
            ("rate_per_tick", Jsonw.Float cfg.bc_rate);
            ("offered", Jsonw.Int (Array.length open_rs));
            ("shed", Jsonw.Int o.oc_shed);
            ("stats", stats_o);
          ] );
    ]

let bench ?(cfg = default_bench_cfg) names =
  let records, errors =
    List.fold_left
      (fun (recs, errs) name ->
        match servable_of_file name with
        | Ok sv -> (bench_servable ~cfg sv :: recs, errs)
        | Error e -> (recs, (name, e) :: errs))
      ([], []) names
  in
  ( Jsonw.Obj
      [
        ("bench", Jsonw.String "serve");
        ("seed", Jsonw.Int cfg.bc_seed);
        ("workloads", Jsonw.List (List.rev records));
      ],
    List.rev errors )
