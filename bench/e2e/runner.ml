(* Rounds, child processes and results.

   Every round of every workload runs in a fresh child process, one at
   a time, and rounds interleave across workloads (w1r1, w2r1, ...,
   w1r2, ...): a shared host drifts between fast and slow modes, and
   back-to-back blocks would turn that drift into false regressions.
   The traced round of each workload comes last. *)

open Common

type workload = {
  name : string;
  domains : int;  (** the domain pool's size *)
  threads : int;  (** the most domains any of its rounds runs *)
  sensitivity : float;  (** see [Probe.t] *)
  run : ctx -> result;
}

(* Sensitivities were fitted on 600 rounds of each workload: a
   workload's log time per op against the probe's log time.  Serving
   slows about 1.2 times as fast as the probe; the others within 0.2 of
   1, where a fitted value did not make held-out runs steadier. *)
let workloads =
  [
    { name = "compile_corpus"; domains = 1; threads = 1; sensitivity = 1.; run = W_compile.run };
    {
      name = "execute_suite";
      domains = W_execute.domains;
      threads = W_execute.domains;
      sensitivity = 1.;
      run = W_execute.run;
    };
    (* the traced round's open-loop producer is the second domain *)
    { name = "serve_rnn_closed"; domains = 1; threads = 2; sensitivity = 1.2; run = W_serve.run };
    {
      name = "shard_2dev";
      domains = W_shard.devices;
      threads = W_shard.devices;
      sensitivity = 1.;
      run = W_shard.run;
    };
  ]

(* Round files, results and traces: under dune's build directory, which
   version control already ignores. *)
let out_dir = Filename.concat "_build" "bench_e2e"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* The benchmark must not inherit a plan cache, a tuning database,
   shadow recording or a domain count from the caller's environment. *)
let scrubbed_vars = [ "FT_PLAN_CACHE"; "FT_TUNE_DB"; "FT_SHADOW"; "FT_NUM_DOMAINS" ]

let failed_result msg =
  let none = { setup_s = nan; throughput = nan; samples = [||] } in
  {
    scaled = none;
    raw = none;
    keys = [||];
    ops = 1;
    failed = 1;
    errors = [ msg ];
    counts = [];
    layers = [];
    rss_mb = nan;
    probe_ms = nan;
    probe_rejected_pct = nan;
  }

(* ------------------------------ child ------------------------------- *)

let child (w : workload) ~seed ~budget_s ~traced ~programs ~tiny ~cache ~result_file ~chrome =
  (* a hung round must not hang the benchmark *)
  ignore (Unix.alarm (int_of_float (budget_s *. 10.) + 120));
  Domain_pool.set_num_domains (Some w.domains);
  let trace = if traced then Some (Spans.create ()) else None in
  let probe = Probe.create ~sensitivity:w.sensitivity ~other_core:(w.domains > 1) in
  let r =
    try w.run { seed; budget_s; programs; trace; tiny; probe; cache }
    with e -> failed_result (w.name ^ ": " ^ Printexc.to_string e)
  in
  Probe.close probe;
  let r =
    if Probe.kept probe > 0 then r
    else
      let why = w.name ^ ": every probe slice was discarded" in
      { r with failed = r.failed + 1; errors = why :: r.errors }
  in
  (match (trace, chrome) with
  | Some tr, Some path -> Spans.write_chrome tr ~max_ops:500 path
  | _ -> ());
  Out_channel.with_open_bin result_file (fun oc -> Marshal.to_channel oc (r : result) [])

(* ------------------------------ parent ------------------------------ *)

let spawned = ref 0

let spawn (w : workload) ~seed ~budget_s ~traced ~programs ~tiny ~cache ~chrome =
  incr spawned;
  let file = Filename.concat out_dir (Printf.sprintf "round-%d-%d.bin" (Unix.getpid ()) !spawned) in
  let args =
    [
      Sys.executable_name; "round"; "--workload"; w.name; "--seed"; string_of_int seed;
      "--seconds"; Printf.sprintf "%.17g" budget_s; "--programs"; programs; "--cache"; cache;
      "--result"; file;
    ]
    @ (if traced then [ "--traced" ] else [])
    @ (if tiny then [ "--tiny" ] else [])
    @ match chrome with Some c -> [ "--chrome"; c ] | None -> []
  in
  let env =
    Unix.environment () |> Array.to_list
    |> List.filter (fun kv ->
           not (List.exists (fun v -> String.starts_with ~prefix:(v ^ "=") kv) scrubbed_vars))
    |> Array.of_list
  in
  let pid =
    Unix.create_process_env Sys.executable_name (Array.of_list args) env Unix.stdin
      Unix.stderr Unix.stderr
  in
  let rec wait () =
    try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let r =
    match wait () with
    | Unix.WEXITED 0 -> (
        try In_channel.with_open_bin file (fun ic -> Some (Marshal.from_channel ic : result))
        with _ -> None)
    | _ -> None
  in
  (try Sys.remove file with Sys_error _ -> ());
  match r with
  | Some r -> r
  | None -> failed_result (w.name ^ ": the round's process ended abnormally")

type summary = {
  w : workload;
  untraced : result list;  (** in round order *)
  traced : result option;
}

let trace_path w ~seed = Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" w.name seed)

let measure ws ~seed ~seconds ~rounds ~trace ~programs ~tiny =
  let cache = Filename.concat out_dir (Printf.sprintf "cache-%d" (Unix.getpid ())) in
  mkdir_p cache;
  let budget_s = seconds /. float_of_int rounds in
  let spawn = spawn ~seed ~budget_s ~programs ~tiny ~cache in
  let by_round =
    List.init rounds (fun _ -> List.map (fun w -> spawn w ~traced:false ~chrome:None) ws)
  in
  let summaries =
    List.mapi
      (fun i w ->
        {
          w;
          untraced = List.map (fun rs -> List.nth rs i) by_round;
          traced =
            (if trace then Some (spawn w ~traced:true ~chrome:(Some (trace_path w ~seed)))
             else None);
        })
      ws
  in
  Array.iter (fun f -> Sys.remove (Filename.concat cache f)) (Sys.readdir cache);
  Sys.rmdir cache;
  summaries

let all_rounds s = s.untraced @ Option.to_list s.traced

(* Counts must repeat exactly in every round: a count that moves is a
   failed determinism check. *)
let count_errors s =
  match all_rounds s with
  | [] -> []
  | first :: rest ->
      List.concat_map
        (fun r ->
          if r.counts = [] || r.counts = first.counts then []
          else [ s.w.name ^ ": deterministic counts differ between rounds" ])
        rest

let attempted s = List.fold_left (fun a r -> a + r.ops) 0 (all_rounds s)

let failed s =
  List.fold_left (fun a r -> a + r.failed) 0 (all_rounds s) + List.length (count_errors s)

let errors s = List.concat_map (fun r -> r.errors) (all_rounds s) @ count_errors s

type e2e = {
  name : string;
  value : float;  (** at the probe's reference speed *)
  raw : float;  (** as measured on the wall clock *)
  rounds : float array;  (** per-round values, for the spread *)
  statistic : string;
}

(* Nearest-rank percentile [p] of every sample of [rounds], pooled. *)
let pooled p (times : result -> times) rounds =
  Metrics.percentile_of (List.concat_map (fun r -> Array.to_list (times r).samples) rounds) p

(* Nearest-rank percentile [p], over the workload's distinct ops, of
   each op's median sample in [rounds]: how long the slowest ops take
   at their usual speed.  A pooled p99 is set instead by how often the
   host interrupts an op, which changes between host periods. *)
let per_op p (times : result -> times) rounds =
  let by_op = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let t = times r in
      Array.iteri
        (fun i k ->
          Hashtbl.replace by_op k
            (t.samples.(i) :: Option.value (Hashtbl.find_opt by_op k) ~default:[]))
        r.keys)
    rounds;
  Metrics.percentile_of
    (Hashtbl.fold (fun _ xs acc -> Stats.median (Array.of_list xs) :: acc) by_op [])
    p

(* End-to-end metrics, from the untraced rounds' scaled times (memory
   is not scaled).  A metric's per-round values, from which its spread
   is taken, are its statistic applied to each round alone. *)
let end_to_end s =
  let metric name statistic =
    let value times rounds =
      match statistic with
      | `Median f -> Stats.median (Array.of_list (List.map (fun r -> f (times r) r) rounds))
      | `Pooled p -> pooled p times rounds
      | `Per_op p -> per_op p times rounds
    in
    let scaled (r : result) = r.scaled and raw (r : result) = r.raw in
    {
      name;
      value = value scaled s.untraced;
      raw = value raw s.untraced;
      rounds = Array.of_list (List.map (fun r -> value scaled [ r ]) s.untraced);
      statistic =
        (match statistic with
        | `Median _ -> "median of rounds"
        | `Pooled p -> Printf.sprintf "nearest-rank p%g of pooled samples" p
        | `Per_op p -> Printf.sprintf "nearest-rank p%g over distinct ops of their median" p);
    }
  in
  [
    metric "ops_per_s" (`Median (fun t _ -> t.throughput));
    metric "latency_p50_ms" (`Pooled 50.);
    metric "latency_p99_ms" (`Per_op 99.);
    metric "setup_s" (`Median (fun t _ -> t.setup_s));
    metric "peak_rss_mb" (`Median (fun _ r -> r.rss_mb));
  ]

(* Per-layer metrics: the deterministic counts, the traced round's
   layer metrics, and the host-speed probe. *)
let per_layer s =
  let counts = match s.untraced with r :: _ -> r.counts | [] -> [] in
  let median f = Stats.median (Array.of_list (List.map f s.untraced)) in
  counts
  @ (match s.traced with Some t -> t.layers | None -> [])
  @ [
      ("bench.host_probe_ms", median (fun r -> r.probe_ms));
      ("bench.probe_rejected_pct", median (fun r -> r.probe_rejected_pct));
    ]

let samples s = List.fold_left (fun a (r : result) -> a + Array.length r.scaled.samples) 0 s.untraced

let unit_of spec name = match Spec.find spec name with Some m -> m.Spec.unit_ | None -> "?"

let is_count s name =
  match s.untraced with r :: _ -> List.mem_assoc name r.counts | [] -> false

(* ------------------------------ records ----------------------------- *)

let commit () =
  let read path = String.trim (In_channel.with_open_bin path In_channel.input_all) in
  try
    let head = read ".git/HEAD" in
    if String.starts_with ~prefix:"ref: " head then
      read (Filename.concat ".git" (String.sub head 5 (String.length head - 5)))
    else head
  with Sys_error _ -> "unknown"

let hw_cores () = Stdlib.Domain.recommended_domain_count ()

let layer_of name =
  match String.rindex_opt name '.' with Some i -> String.sub name 0 i | None -> name

let records (spec : Spec.t) ~seed ~commit summaries =
  let open Jsonw in
  let interleaved = List.length summaries > 1 in
  List.concat_map
    (fun s ->
      let rounds = List.length s.untraced in
      let env =
        Obj
          [
            ("hw_cores", Int (hw_cores ()));
            ("domains", Int s.w.threads);
            ("oversubscribed", Bool (s.w.threads > hw_cores ()));
            ("ocaml", String Sys.ocaml_version);
            ("commit", String commit);
            ("seed", Int seed);
          ]
      in
      let record ?raw ~layer ~metric ~value ~source ~method_ ~round_values () =
        Obj
          ([
            ("experiment", String "e2e");
            ("workload", String s.w.name);
            ("layer", String layer);
            ("metric", String metric);
            ("unit", String (unit_of spec metric));
            ("value", Float value);
          ]
          @ (match raw with Some r -> [ ("raw", Float r) ] | None -> [])
          @ [
            ("source", String source);
            ("method", Obj method_);
            ("rounds", List (List.map (fun v -> Float v) round_values));
            ("environment", env);
            ("bitwise", String (if failed s = 0 then "pass" else "fail"));
          ])
      in
      let method_ ~repeat ~interleaved stat =
        [
          ("repeat", Int repeat);
          ("warmup", Int 1);
          ("interleaved", Bool interleaved);
          ("statistic", String stat);
        ]
      in
      List.map
        (fun m ->
          record ~raw:m.raw ~layer:"end_to_end" ~metric:m.name ~value:m.value ~source:"measured"
            ~method_:(method_ ~repeat:rounds ~interleaved m.statistic)
            ~round_values:(Array.to_list m.rounds) ())
        (end_to_end s)
      @ List.map
          (fun (name, v) ->
            let count = is_count s name in
            record ~layer:(layer_of name) ~metric:name ~value:v
              ~source:(if name = "dist.sim_time_ms" then "simulated" else "measured")
              ~method_:
                (method_ ~repeat:1 ~interleaved:false (if count then "count" else "traced round"))
              ~round_values:[] ())
          (per_layer s))
    summaries

let results_json spec ~seed ~seconds summaries =
  let open Jsonw in
  let commit = commit () in
  Obj
    [
      ("benchmark", String "bench/e2e");
      ("seed", Int seed);
      ("seconds", Float seconds);
      ( "workloads",
        List
          (List.map
             (fun s ->
               Obj
                 [
                   ("name", String s.w.name);
                   ("attempted", Int (attempted s));
                   ("failed", Int (failed s));
                   ("samples", Int (samples s));
                   ("errors", List (List.map (fun e -> String e) (errors s)));
                 ])
             summaries) );
      ("records", List (records spec ~seed ~commit summaries));
    ]

(* ------------------------------ output ------------------------------ *)

(* The shortest rendering that reads back as the same float. *)
let number f =
  if not (Float.is_finite f) then "null"
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    go 15

let print_table (spec : Spec.t) summaries =
  List.iter
    (fun s ->
      Printf.printf "== %s: %d ops attempted, %d failed, %d samples\n" s.w.name (attempted s)
        (failed s)
        (samples s);
      List.iter (fun e -> Printf.printf "   failure: %s\n" e) (errors s);
      List.iter
        (fun m ->
          Printf.printf "   %-36s %14.6g %-8s round spread %5.1f%%  (raw %.6g)\n" m.name m.value
            (unit_of spec m.name) (100. *. Stats.spread m.rounds) m.raw)
        (end_to_end s);
      List.iter
        (fun (name, v) -> Printf.printf "   %-36s %14.6g %s\n" name v (unit_of spec name))
        (per_layer s))
    summaries

(* The last line: every declared metric of one kind with its value (0
   for a layer the workload does not run). *)
let metrics_json (spec : Spec.t) ~trace s =
  let values =
    if trace then per_layer s else List.map (fun m -> (m.name, m.value)) (end_to_end s)
  in
  let declared = if trace then spec.Spec.per_layer else spec.Spec.end_to_end in
  "{"
  ^ String.concat ", "
      (List.map
         (fun (m : Spec.metric) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.Spec.name
             (number (Option.value (List.assoc_opt m.Spec.name values) ~default:0.))
             m.Spec.unit_)
         declared)
  ^ "}"

let last_line spec ~trace summaries =
  let attempted = List.fold_left (fun a s -> a + attempted s) 0 summaries in
  let failed = List.fold_left (fun a s -> a + failed s) 0 summaries in
  let metrics =
    match summaries with
    | [ s ] -> metrics_json spec ~trace s
    | _ ->
        "{"
        ^ String.concat ", "
            (List.map (fun s -> Printf.sprintf "\"%s\": %s" s.w.name (metrics_json spec ~trace s)) summaries)
        ^ "}"
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    (failed = 0) attempted failed metrics
