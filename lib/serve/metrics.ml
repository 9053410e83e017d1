(* Serving telemetry: latency percentiles, throughput, and the
   batch-occupancy histogram — the numbers that say whether continuous
   batching actually bought anything. *)

type t = {
  mutable latencies_ms : float list; (* completed requests, newest first *)
  mutable completed : int;
  mutable tokens : int; (* request tokens advanced (padding excluded) *)
  mutable ticks : int;
  mutable exec_ms : float; (* wall time inside Executor.execute *)
  occupancy : (int, int) Hashtbl.t; (* active rows -> tick count *)
  mutable t_start : float;
  mutable t_stop : float;
}

let create () =
  {
    latencies_ms = [];
    completed = 0;
    tokens = 0;
    ticks = 0;
    exec_ms = 0.;
    occupancy = Hashtbl.create 17;
    t_start = 0.;
    t_stop = 0.;
  }

let start m = m.t_start <- Unix.gettimeofday ()
let stop m = m.t_stop <- Unix.gettimeofday ()

let on_tick m ~active ~advanced ~exec_ms =
  m.ticks <- m.ticks + 1;
  m.tokens <- m.tokens + advanced;
  m.exec_ms <- m.exec_ms +. exec_ms;
  Hashtbl.replace m.occupancy active
    (1 + Option.value ~default:0 (Hashtbl.find_opt m.occupancy active))

let on_complete m r =
  m.completed <- m.completed + 1;
  m.latencies_ms <- Request.latency_ms r :: m.latencies_ms

let wall_s m =
  let t1 = if m.t_stop > 0. then m.t_stop else Unix.gettimeofday () in
  Float.max 1e-9 (t1 -. m.t_start)

(* Nearest-rank percentile: the smallest sample s such that at least
   p% of the samples are <= s.  Pure over the list so the rank
   arithmetic is testable without staging completed requests. *)
let percentile_of samples p =
  match samples with
  | [] -> Float.nan
  | ls ->
      let a = Array.of_list ls in
      Array.sort compare a;
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      a.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

let percentile m p = percentile_of m.latencies_ms p

let throughput_rps m = float_of_int m.completed /. wall_s m
let tokens_per_s m = float_of_int m.tokens /. wall_s m

let mean_occupancy m =
  let n = ref 0 and sum = ref 0 in
  Hashtbl.iter
    (fun occ ticks ->
      n := !n + ticks;
      sum := !sum + (occ * ticks))
    m.occupancy;
  if !n = 0 then 0. else float_of_int !sum /. float_of_int !n

let occupancy_histogram m =
  Hashtbl.fold (fun occ ticks acc -> (occ, ticks) :: acc) m.occupancy []
  |> List.sort compare

let completed m = m.completed
let ticks m = m.ticks
let tokens m = m.tokens
let exec_ms m = m.exec_ms

let pp ppf m =
  Format.fprintf ppf
    "completed %d, %d ticks / %d tokens in %.3f s@\n\
     latency p50 %.3f ms, p95 %.3f ms, p99 %.3f ms@\n\
     throughput %.1f req/s (%.1f tok/s), mean occupancy %.2f"
    m.completed m.ticks m.tokens (wall_s m) (percentile m 50.)
    (percentile m 95.) (percentile m 99.) (throughput_rps m) (tokens_per_s m)
    (mean_occupancy m)
