(* Deterministic schedule search under an evaluation budget.

   Coordinate descent through one evaluator: a memo table over points,
   a budget counter that only distinct evaluations consume, and a
   "tune" trace track (one span per evaluation, cost as duration) on
   any installed sink.  Nothing random and no wall clock: a (budget,
   space) pair fully determines the outcome. *)

type eval = {
  e_index : int;
  e_point : int array;
  e_candidate : Knobs.candidate;
  e_cost : float;
}

type result = {
  r_budget : int;
  r_evals : eval list;  (** in evaluation order; [e_index] 0 first *)
  r_best : eval;
  r_default : eval;     (** always evaluated, always [e_index] 0 *)
}

exception Budget_exhausted

type evaluator = {
  ev_space : Knobs.space;
  ev_cost : Knobs.candidate -> float;
  ev_budget : int;
  ev_memo : (string, float) Hashtbl.t;
  mutable ev_count : int;
  mutable ev_log : eval list;  (* reversed *)
}

let evaluator space cost budget =
  {
    ev_space = space;
    ev_cost = cost;
    ev_budget = budget;
    ev_memo = Hashtbl.create 64;
    ev_count = 0;
    ev_log = [];
  }

(* Evaluate a point; memoized points are free, fresh ones consume one
   budget unit.  Raises [Budget_exhausted] instead of evaluating past
   the budget — the search catches it and keeps its best-so-far. *)
let evaluate ev pt =
  let key = Knobs.point_key pt in
  match Hashtbl.find_opt ev.ev_memo key with
  | Some cost -> cost
  | None ->
      if ev.ev_count >= ev.ev_budget then raise Budget_exhausted;
      let c = Knobs.decode ev.ev_space pt in
      let cost = ev.ev_cost c in
      let e =
        { e_index = ev.ev_count; e_point = Array.copy pt;
          e_candidate = c; e_cost = cost }
      in
      ev.ev_count <- ev.ev_count + 1;
      ev.ev_log <- e :: ev.ev_log;
      Hashtbl.replace ev.ev_memo key cost;
      if Trace.active () then
        Trace.emit_span ~track:"tune"
          ~args:
            [ ("cost", Trace.Float cost);
              ("config", Trace.String (Knobs.to_string c)) ]
          (Printf.sprintf "tune.eval.%d" e.e_index)
          ~ts_us:(float_of_int e.e_index) ~dur_us:cost;
      cost

let try_evaluate ev pt = try Some (evaluate ev pt) with Budget_exhausted -> None

(* ----------------------------- greedy ----------------------------- *)

(* Coordinate descent from the default point: sweep the axes in
   order, trying every value of one axis with the others fixed; move
   to the best improving value; repeat until a full sweep improves
   nothing (or the budget runs out). *)
let greedy ev =
  let sp = ev.ev_space in
  let axes = Knobs.axes sp in
  let current = ref (Knobs.default_point sp) in
  let current_cost = ref (evaluate ev !current) in
  (try
     let improved = ref true in
     while !improved do
       improved := false;
       Array.iteri
         (fun d n ->
           let best_v = ref !current.(d) and best_c = ref !current_cost in
           for v = 0 to n - 1 do
             if v <> !current.(d) then begin
               let pt = Array.copy !current in
               pt.(d) <- v;
               if Knobs.valid_point sp pt then
                 match try_evaluate ev pt with
                 | Some c when c < !best_c ->
                     best_c := c;
                     best_v := v
                 | _ -> ()
             end
           done;
           if !best_v <> !current.(d) then begin
             let pt = Array.copy !current in
             pt.(d) <- !best_v;
             current := pt;
             current_cost := !best_c;
             improved := true
           end)
         axes
     done
   with Budget_exhausted -> ())

(* ------------------------------ run ------------------------------- *)

let run ~budget space cost =
  if budget < 1 then invalid_arg "Search.run: budget must be >= 1";
  let ev = evaluator space cost budget in
  greedy ev;
  let evals = List.rev ev.ev_log in
  let default_eval = List.hd evals in
  let best =
    List.fold_left
      (fun acc e -> if e.e_cost < acc.e_cost then e else acc)
      default_eval evals
  in
  { r_budget = budget; r_evals = evals; r_best = best; r_default = default_eval }
