(* [main.exe check A.json B.json]: is B a regression of A?

   One row per (workload, metric).  An end-to-end metric regresses when
   B is worse than A by more than the metric's bound in BENCHMARK.json;
   it is "unresolved" when either side's spread (below) exceeds the
   bound, because then the runs cannot tell a change of that size from
   noise.  Deterministic counts (kernels, blocks, fused ops,
   transfers, fallbacks) must match exactly, and any increase in failed
   ops is a regression.  Each end-to-end row also shows how the raw
   wall-clock values moved, for information: they carry the host's
   speed and are not judged.  Returns false on a regression or a
   mismatch. *)

type record = { value : float; raw : float option; rounds : float array; count : bool }

let load path =
  let j = Jsonr.file path in
  let records =
    List.map
      (fun r ->
        let str k = Jsonr.to_string (Jsonr.field k r) in
        ( (str "workload", str "metric"),
          {
            value = Jsonr.to_float (Jsonr.field "value" r);
            raw = Option.map Jsonr.to_float (Jsonr.field_opt "raw" r);
            rounds = Array.of_list (List.map Jsonr.to_float (Jsonr.to_list (Jsonr.field "rounds" r)));
            count = Jsonr.to_string (Jsonr.field "statistic" (Jsonr.field "method" r)) = "count";
          } ))
      (Jsonr.to_list (Jsonr.field "records" j))
  in
  let failed =
    List.map
      (fun w -> (Jsonr.to_string (Jsonr.field "name" w), Jsonr.to_int (Jsonr.field "failed" w)))
      (Jsonr.to_list (Jsonr.field "workloads" j))
  in
  (records, failed)

(* How far a run's value can move by noise alone: its rounds' relative
   interquartile distance over the square root of their count, since
   the median of n rounds is about that much steadier than one round. *)
let spread r = Stats.spread r.rounds /. sqrt (float_of_int (Stdlib.max 1 (Array.length r.rounds)))

(* How much worse [b] is than [a], as a share of [a]. *)
let worse (m : Spec.metric) a b =
  let change = (b -. a) /. a in
  if m.Spec.lower_is_better then change else -.change

(* (is a regression, verdict) for one end-to-end metric. *)
let judge (m : Spec.metric) a b =
  let bound = Option.value m.Spec.bound ~default:0. in
  let worse_pct = 100. *. worse m a.value b.value in
  let spread = Float.max (spread a) (spread b) in
  let raw =
    match (a.raw, b.raw) with
    | Some ra, Some rb -> Printf.sprintf "; raw %+.1f%%" (100. *. worse m ra rb)
    | _ -> ""
  in
  if spread > bound then
    ( false,
      Printf.sprintf "unresolved (spread %.1f%% > bound %.0f%%%s)" (100. *. spread) (100. *. bound) raw )
  else if worse_pct > 100. *. bound then
    (true, Printf.sprintf "REGRESSION (%+.1f%% worse, bound %.0f%%%s)" worse_pct (100. *. bound) raw)
  else (false, Printf.sprintf "ok (%+.1f%% worse, bound %.0f%%%s)" worse_pct (100. *. bound) raw)

let run (spec : Spec.t) a_path b_path =
  let a, a_failed = load a_path and b, b_failed = load b_path in
  let ok = ref true in
  let row w metric va vb (bad, verdict) =
    if bad then ok := false;
    Printf.printf "%-18s %-40s %14s %14s  %s\n" w metric va vb verdict
  in
  let num = Printf.sprintf "%.6g" in
  row "workload" "metric" "A" "B" (false, "verdict");
  List.iter
    (fun (w, fa) ->
      match List.assoc_opt w b_failed with
      | None -> row w "(workload)" "present" "missing" (true, "MISMATCH")
      | Some fb ->
          row w "failed_ops" (string_of_int fa) (string_of_int fb)
            (if fb > fa then (true, "REGRESSION") else (false, "ok"));
          List.iter
            (fun (m : Spec.metric) ->
              match (List.assoc_opt (w, m.Spec.name) a, List.assoc_opt (w, m.Spec.name) b) with
              | Some ra, Some rb -> row w m.Spec.name (num ra.value) (num rb.value) (judge m ra rb)
              | Some ra, None -> row w m.Spec.name (num ra.value) "missing" (true, "MISMATCH")
              | None, _ -> ())
            spec.Spec.end_to_end;
          List.iter
            (fun ((w', metric), ra) ->
              if w' = w && ra.count then
                match List.assoc_opt (w, metric) b with
                | Some rb ->
                    row w metric (num ra.value) (num rb.value)
                      (if rb.value = ra.value then (false, "ok") else (true, "MISMATCH"))
                | None -> row w metric (num ra.value) "missing" (true, "MISMATCH"))
            a)
    a_failed;
  !ok
