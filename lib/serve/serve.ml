(* The serving front door: wire servable + broker + session + scheduler
   together.

   Two drive modes matter:

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
  let completed = ref [] in
  Scheduler.run ~on_complete:(fun r -> completed := r :: !completed) sch;
  let shed = finish_drive () in
  {
    oc_metrics = metrics;
    oc_completed = List.rev !completed;
    oc_wall_s = Unix.gettimeofday () -. t0;
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
