(* The one record shape of every BENCH_*.json file, its writer, and the
   gates the vm, kernels, serve and dist experiments hold their own
   records to.

   A record is bench/e2e's: one number with the configuration it was
   taken under.  [layer] names the configuration inside the workload
   (plan and device, order and engine, kernel and variant, strategy
   and link, …); set parameters are records of their own with
   statistic "config"; a ratio has statistic "ratio" and names its
   base in its metric ([speedup_vs_interp]).  [source] keeps model
   output apart from wall clock.  [bitwise] is "fail" when the value
   check of that configuration failed; a record no value check covers
   (model output) carries "pass".

   The gates are pure functions over records, so their floors can be
   tested at the limit with synthetic records. *)

type source = Measured | Simulated

type t = {
  experiment : string;
  workload : string;
  layer : string;
  metric : string;
  unit_ : string;
  value : float;
  source : source;
  repeat : int;
  warmup : int;
  interleaved : bool;
  statistic : string;
  domains : int;
  seed : int option;
  bitwise : bool;
}

let hw_cores () = Stdlib.Domain.recommended_domain_count ()

let to_json r =
  let open Jsonw in
  Obj
    [
      ("experiment", String r.experiment);
      ("workload", String r.workload);
      ("layer", String r.layer);
      ("metric", String r.metric);
      ("unit", String r.unit_);
      ("value", Float r.value);
      ( "source",
        String (match r.source with Measured -> "measured" | Simulated -> "simulated") );
      ( "method",
        Obj
          [
            ("repeat", Int r.repeat);
            ("warmup", Int r.warmup);
            ("interleaved", Bool r.interleaved);
            ("statistic", String r.statistic);
          ] );
      ( "environment",
        Obj
          [
            ("hw_cores", Int (hw_cores ()));
            ("domains", Int r.domains);
            ("oversubscribed", Bool (r.domains > hw_cores ()));
            ("ocaml", String Sys.ocaml_version);
            ("seed", match r.seed with Some s -> Int s | None -> Null);
          ] );
      ("bitwise", String (if r.bitwise then "pass" else "fail"));
    ]

(* bench/e2e's top level.  [seed] is the records' common seed, or null
   when they were drawn from several (a multi-experiment run). *)
let document records =
  let seed =
    match List.sort_uniq compare (List.map (fun r -> r.seed) records) with
    | [ Some s ] -> Jsonw.Int s
    | _ -> Jsonw.Null
  in
  Jsonw.Obj
    [
      ("benchmark", Jsonw.String "bench/main");
      ("seed", seed);
      ("records", Jsonw.List (List.map to_json records));
    ]

(* ------------------------------ gates ------------------------------ *)

(* One gate row: its verdict and the line printed after ok/FAIL. *)
type row = bool * string

let workloads rs =
  List.fold_left
    (fun acc r -> if List.mem r.workload acc then acc else acc @ [ r.workload ])
    [] rs

let find rs ~workload ?layer metric =
  List.find_opt
    (fun r ->
      r.workload = workload && r.metric = metric
      && match layer with Some l -> r.layer = l | None -> true)
    rs

let verdict b = if b then "pass" else "fail"

(* The compiled wavefront engine at one domain, fused or not, is never
   slower than the reference interpreter and stays bitwise-equal to it;
   fusion never costs more than 10% (clock noise on a workload with no
   fusible tail) against the same engine with fusion off. *)
let vm rs : row list =
  let at1 =
    List.filter
      (fun r ->
        String.starts_with ~prefix:"wavefront/" r.layer
        && r.domains = 1 && r.metric = "speedup_vs_interp")
      rs
  in
  if at1 = [] then [ (false, "no wavefront@1 records") ]
  else
    List.map
      (fun r ->
        ( r.value >= 1.0 && r.bitwise,
          Printf.sprintf "%s: %s@1 %.2fx interp, bitwise %s" r.workload
            r.layer r.value (verdict r.bitwise) ))
      at1
    @ List.map
        (fun wl ->
          let time layer =
            List.find_opt
              (fun r ->
                r.workload = wl && r.layer = layer && r.domains = 1
                && r.metric = "time_ms")
              rs
          in
          match (time "wavefront/compiled", time "wavefront/compiled-nofuse") with
          | Some fused, Some nofuse ->
              let ratio = nofuse.value /. fused.value in
              ( ratio >= 0.90,
                Printf.sprintf "%s: fused %.2fx vs unfused at 1 domain" wl ratio )
          | _ -> (false, Printf.sprintf "%s: missing fused/nofuse pair" wl))
        (workloads at1)

(* Every native kernel is bitwise-equal to, and at least as fast as,
   its OCaml reference baseline. *)
let kernels rs : row list =
  let cands =
    List.filter
      (fun r ->
        String.ends_with ~suffix:"/candidate" r.layer
        && r.metric = "speedup_vs_baseline")
      rs
  in
  if cands = [] then [ (false, "no candidate records") ]
  else
    List.map
      (fun r ->
        let gflops =
          match find rs ~workload:r.workload ~layer:r.layer "gflops" with
          | Some g -> g.value
          | None -> nan
        in
        ( r.value >= 1.0 && r.bitwise,
          Printf.sprintf "%s %s: %.2f GFLOP/s, %.2fx baseline, bitwise %s"
            r.layer r.workload gflops r.value (verdict r.bitwise) ))
      cands

(* Batched service equals solo service bit for bit and the open-loop
   p99 stays finite under overload on every workload; the bounded
   queue sheds somewhere, so backpressure really engaged. *)
let serve rs : row list =
  let value wl metric = Option.map (fun r -> r.value) (find rs ~workload:wl metric) in
  match workloads rs with
  | [] -> [ (false, "no workload records") ]
  | wls ->
      let shed = ref 0. in
      let rows =
        List.map
          (fun wl ->
            let bad = value wl "bitwise_mismatches"
            and p99 = value wl "latency_p99_ms"
            and sh = Option.value (value wl "shed") ~default:0. in
            shed := !shed +. sh;
            ( bad = Some 0. && Option.fold ~none:false ~some:Float.is_finite p99,
              Printf.sprintf "%s: %s mismatches vs solo, open-loop p99 %s ms, shed %.0f"
                wl
                (Option.fold ~none:"no" ~some:(Printf.sprintf "%.0f") bad)
                (Option.fold ~none:"no" ~some:(Printf.sprintf "%.2f") p99)
                sh ))
          wls
      in
      rows @ [ (!shed > 0., Printf.sprintf "open loop shed %.0f arrivals in total" !shed) ]

(* Every workload's curve covers 1, 2, 4 and 8 devices, and every
   sharded run is bitwise-equal to the 1-device compiled engine. *)
let dist rs : row list =
  match workloads rs with
  | [] -> [ (false, "no dist records") ]
  | wls ->
      List.map
        (fun wl ->
          let mine = List.filter (fun r -> r.workload = wl) rs in
          let curve =
            List.filter (fun r -> r.metric = "speedup_vs_1dev") mine
            |> List.sort (fun a b -> compare a.domains b.domains)
          in
          let devices = List.map (fun r -> r.domains) curve in
          let complete = List.for_all (fun n -> List.mem n devices) [ 1; 2; 4; 8 ] in
          let bitwise = List.for_all (fun r -> r.bitwise) mine in
          ( complete && bitwise,
            Printf.sprintf "%s: %s%s, bitwise %s" wl
              (String.concat ", "
                 (List.map (fun r -> Printf.sprintf "%dd %.2fx" r.domains r.value) curve))
              (if complete then "" else " (device counts missing)")
              (verdict bitwise) ))
        wls
