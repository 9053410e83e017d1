(* Observability layer: Jsonw writer/validator, Trace renderers
   (golden output on synthetic sinks — fixed timestamps, no wall
   clock), Profile attribution, and the Pipeline entry point. *)

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)

let close ?(eps = 1e-9) what a b =
  if Float.abs (a -. b) > eps *. Float.max 1.0 (Float.abs b) then
    Alcotest.failf "%s: %.12g <> %.12g" what a b

(* ------------------------------ Jsonw ------------------------------ *)

let jsonw_tests =
  [
    Alcotest.test_case "writer renders stable scalar forms" `Quick (fun () ->
        checks "obj"
          {|{"a":1,"b":2.5,"c":"x\"y","d":[true,false,null],"e":3}|}
          (Jsonw.to_string
             (Jsonw.Obj
                [ ("a", Jsonw.Int 1);
                  ("b", Jsonw.Float 2.5);
                  ("c", Jsonw.String "x\"y");
                  ("d", Jsonw.List [ Jsonw.Bool true; Jsonw.Bool false;
                                     Jsonw.Null ]);
                  ("e", Jsonw.Float 3.0) ])));
    Alcotest.test_case "integral floats have no exponent or dot" `Quick
      (fun () ->
        checks "12" "12" (Jsonw.float_string 12.0);
        checks "neg" "-3" (Jsonw.float_string (-3.0));
        checks "frac" "0.125" (Jsonw.float_string 0.125));
    Alcotest.test_case "non-finite floats render as null" `Quick (fun () ->
        checks "nan" "null" (Jsonw.float_string Float.nan);
        checks "inf" "null" (Jsonw.float_string Float.infinity));
    Alcotest.test_case "escapes control characters" `Quick (fun () ->
        checks "esc" {|"a\n\t\\b"|}
          (Jsonw.to_string (Jsonw.String "a\n\t\\b")));
    Alcotest.test_case "validate accepts everything the writer emits" `Quick
      (fun () ->
        let v =
          Jsonw.Obj
            [ ("xs", Jsonw.List [ Jsonw.Float 1.5; Jsonw.Int (-2);
                                  Jsonw.Null ]);
              ("s", Jsonw.String "u\x1fv");
              ("nested", Jsonw.Obj [ ("t", Jsonw.Bool true) ]) ]
        in
        match Jsonw.validate (Jsonw.to_string v) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "roundtrip rejected: %s" e);
    Alcotest.test_case "validate rejects malformed documents" `Quick
      (fun () ->
        List.iter
          (fun s ->
            match Jsonw.validate s with
            | Ok () -> Alcotest.failf "accepted %S" s
            | Error _ -> ())
          [ "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "[1] x";
            "{\"a\" 1}"; "01" ]);
  ]

(* ------------------------------ Trace ------------------------------ *)

(* Golden sink: hand-placed timestamps, so renderer output is exact. *)
let golden_sink () =
  let s = Trace.make () in
  Trace.add_span s "build" ~ts_us:10.0 ~dur_us:200.0;
  Trace.add_span ~cat:"pass" ~args:[ ("blocks", Trace.Int 4) ] s
    "coarsen.merge" ~ts_us:220.0 ~dur_us:80.0;
  Trace.add_span ~track:"gpu" ~cat:"kernel" s "rnn.wave0" ~ts_us:0.0
    ~dur_us:125.5;
  Trace.add_counter ~track:"gpu" s "dram_gb" ~ts_us:125.5 ~value:1.25;
  s

let trace_tests =
  [
    Alcotest.test_case "to_json golden" `Quick (fun () ->
        checks "json"
          ("{\"events\":["
          ^ "{\"type\":\"span\",\"track\":\"compiler\",\"cat\":\"\","
          ^ "\"name\":\"build\",\"ts_us\":10,\"dur_us\":200},"
          ^ "{\"type\":\"span\",\"track\":\"compiler\",\"cat\":\"pass\","
          ^ "\"name\":\"coarsen.merge\",\"ts_us\":220,\"dur_us\":80,"
          ^ "\"args\":{\"blocks\":4}},"
          ^ "{\"type\":\"span\",\"track\":\"gpu\",\"cat\":\"kernel\","
          ^ "\"name\":\"rnn.wave0\",\"ts_us\":0,\"dur_us\":125.5},"
          ^ "{\"type\":\"counter\",\"track\":\"gpu\",\"name\":\"dram_gb\","
          ^ "\"ts_us\":125.5,\"value\":1.25}]}")
          (Trace.to_json (golden_sink ())));
    Alcotest.test_case "to_chrome golden" `Quick (fun () ->
        checks "chrome"
          ("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
          ^ "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
          ^ "\"args\":{\"name\":\"compiler\"}},"
          ^ "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\","
          ^ "\"args\":{\"name\":\"gpu\"}},"
          ^ "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"build\","
          ^ "\"cat\":\"default\",\"ts\":10,\"dur\":200},"
          ^ "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"coarsen.merge\","
          ^ "\"cat\":\"pass\",\"ts\":220,\"dur\":80,\"args\":{\"blocks\":4}},"
          ^ "{\"ph\":\"X\",\"pid\":1,\"tid\":2,\"name\":\"rnn.wave0\","
          ^ "\"cat\":\"kernel\",\"ts\":0,\"dur\":125.5},"
          ^ "{\"ph\":\"C\",\"pid\":1,\"tid\":2,\"name\":\"dram_gb\","
          ^ "\"ts\":125.5,\"args\":{\"value\":1.25}}]}")
          (Trace.to_chrome (golden_sink ())));
    Alcotest.test_case "renderers emit valid JSON" `Quick (fun () ->
        List.iter
          (fun s ->
            match Jsonw.validate s with
            | Ok () -> ()
            | Error e -> Alcotest.failf "invalid: %s" e)
          [ Trace.to_json (golden_sink ());
            Trace.to_chrome (golden_sink ()) ]);
    Alcotest.test_case "no sink installed means no collection" `Quick
      (fun () ->
        checkb "inactive" false (Trace.active ());
        (* timed is a passthrough *)
        checki "result" 42 (Trace.timed "nothing" (fun () -> 42)));
    Alcotest.test_case "timed records spans only while installed" `Quick
      (fun () ->
        let s = Trace.make () in
        let v = Trace.with_sink s (fun () -> Trace.timed "p" (fun () -> 7)) in
        checki "value" 7 v;
        checkb "uninstalled again" false (Trace.active ());
        match Trace.events s with
        | [ Trace.Span { name = "p"; track = "compiler"; cat = "pass";
                         dur_us; _ } ] ->
            checkb "non-negative duration" true (dur_us >= 0.0)
        | evs -> Alcotest.failf "expected one span, got %d" (List.length evs));
    Alcotest.test_case "timed records the span on exceptions too" `Quick
      (fun () ->
        let s = Trace.make () in
        (try
           Trace.with_sink s (fun () ->
               Trace.timed "boom" (fun () -> failwith "x"))
         with Failure _ -> ());
        checki "one span" 1 (List.length (Trace.events s)));
    Alcotest.test_case "gpu cursor appends consecutive runs" `Quick
      (fun () ->
        let s = Trace.make () in
        Trace.advance_gpu s 100.0;
        Trace.advance_gpu s 50.0;
        close "cursor" (Trace.gpu_cursor s) 150.0);
  ]

(* ----------------------------- Profile ----------------------------- *)

let sample ?(peak = 19500.0) ?(bound = "dram") name ~time_us ~flops ~dram =
  {
    Profile.s_name = name;
    s_time_us = time_us;
    s_flops = flops;
    s_dram_bytes = dram;
    s_l2_bytes = 2.0 *. dram;
    s_l1_bytes = 4.0 *. dram;
    s_tasks = 108;
    s_peak_gflops = peak;
    s_bound = bound;
  }

let profile_tests =
  [
    Alcotest.test_case "block_of_kernel strips wave suffixes only" `Quick
      (fun () ->
        checks "wave" "rnn" (Profile.block_of_kernel "rnn.wave17");
        checks "wave0" "a.b" (Profile.block_of_kernel "a.b.wave0");
        checks "not wave" "a.wavey" (Profile.block_of_kernel "a.wavey");
        checks "no digits" "a.wave" (Profile.block_of_kernel "a.wave");
        checks "plain" "gemm" (Profile.block_of_kernel "gemm"));
    Alcotest.test_case "wavefront steps fold into one block row" `Quick
      (fun () ->
        let p =
          Profile.make ~plan:"P" ~device:"dev" ~peak_gflops:19500.0
            ~peak_dram_gbs:1555.0
            [ sample "rnn.wave0" ~time_us:10.0 ~flops:1e6 ~dram:1e5;
              sample "rnn.wave1" ~time_us:30.0 ~flops:3e6 ~dram:3e5;
              sample "gemm" ~time_us:20.0 ~flops:2e6 ~dram:2e5 ]
        in
        checki "kernels" 3 p.Profile.p_kernels;
        checki "blocks" 2 (List.length p.Profile.p_by_block);
        checki "kernel rows" 3 (List.length p.Profile.p_by_kernel);
        match p.Profile.p_by_block with
        | [ rnn; gemm ] ->
            checks "first-appearance order" "rnn" rnn.Profile.r_name;
            checki "launches folded" 2 rnn.Profile.r_launches;
            close "time" rnn.Profile.r_time_ms 0.04;
            checks "bound of most expensive instance" "dram"
              rnn.Profile.r_bound;
            checks "gemm" "gemm" gemm.Profile.r_name
        | _ -> Alcotest.fail "expected two block rows");
    Alcotest.test_case "row quantities sum to the aggregate" `Quick
      (fun () ->
        let samples =
          [ sample "a.wave0" ~time_us:11.0 ~flops:1e6 ~dram:1e5;
            sample "a.wave1" ~time_us:13.0 ~flops:2e6 ~dram:4e5;
            sample "b" ~time_us:17.0 ~flops:3e6 ~dram:5e5;
            sample "b" ~time_us:19.0 ~flops:4e6 ~dram:6e5 ]
        in
        let p =
          Profile.make ~plan:"P" ~device:"dev" ~peak_gflops:19500.0
            ~peak_dram_gbs:1555.0 samples
        in
        let sum f rows = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
        List.iter
          (fun rows ->
            close "time" (sum (fun r -> r.Profile.r_time_ms) rows)
              p.Profile.p_time_ms;
            close "flops" (sum (fun r -> r.Profile.r_flops) rows)
              p.Profile.p_flops;
            close "dram" (sum (fun r -> r.Profile.r_dram_gb) rows)
              p.Profile.p_dram_gb;
            close "l2" (sum (fun r -> r.Profile.r_l2_gb) rows)
              p.Profile.p_l2_gb;
            close "l1" (sum (fun r -> r.Profile.r_l1_gb) rows)
              p.Profile.p_l1_gb)
          [ p.Profile.p_by_kernel; p.Profile.p_by_block ]);
    Alcotest.test_case "utilization percentages" `Quick (fun () ->
        (* 1e9 flops in 1e6 us = 1 GFLOP/s against a 10 GFLOP/s peak *)
        let p =
          Profile.make ~plan:"P" ~device:"dev" ~peak_gflops:10.0
            ~peak_dram_gbs:100.0
            [ sample ~peak:10.0 "k" ~time_us:1e6 ~flops:1e9 ~dram:50e9 ]
        in
        match p.Profile.p_by_kernel with
        | [ r ] ->
            close "compute%" r.Profile.r_compute_pct 10.0;
            close "dram%" r.Profile.r_dram_pct 50.0
        | _ -> Alcotest.fail "one row expected");
    Alcotest.test_case "profile JSON is valid and stable" `Quick (fun () ->
        let p =
          Profile.make ~plan:"P" ~device:"dev" ~peak_gflops:10.0
            ~peak_dram_gbs:100.0
            [ sample ~peak:10.0 ~bound:"l2" "k" ~time_us:1000.0 ~flops:5e6
                ~dram:1e6 ]
        in
        (match Jsonw.validate (Profile.to_json p) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "invalid: %s" e);
        checks "golden"
          ("{\"plan\":\"P\",\"device\":\"dev\",\"peak_gflops\":10,"
          ^ "\"peak_dram_gbs\":100,\"time_ms\":1,\"dram_gb\":0.001,"
          ^ "\"l2_gb\":0.002,\"l1_gb\":0.004,\"total_flops\":5000000,"
          ^ "\"kernels\":1,\"by_block\":[{\"name\":\"k\",\"launches\":1,"
          ^ "\"time_ms\":1,\"flops\":5000000,\"dram_gb\":0.001,"
          ^ "\"l2_gb\":0.002,\"l1_gb\":0.004,\"compute_pct\":50,"
          ^ "\"dram_pct\":1,\"bound\":\"l2\"}],\"by_kernel\":[{\"name\":"
          ^ "\"k\",\"launches\":1,\"time_ms\":1,\"flops\":5000000,"
          ^ "\"dram_gb\":0.001,\"l2_gb\":0.002,\"l1_gb\":0.004,"
          ^ "\"compute_pct\":50,\"dram_pct\":1,\"bound\":\"l2\"}]}")
          (Profile.to_json p));
  ]

(* --------------------------- end to end ---------------------------- *)

let lstm_graph () = Build.build (Stacked_lstm.program Stacked_lstm.default)

let pipeline_tests =
  [
    Alcotest.test_case "stage names roundtrip" `Quick (fun () ->
        List.iter
          (fun st ->
            match Pipeline.stage_of_name (Pipeline.stage_name st) with
            | Some st' -> checkb "same" true (st = st')
            | None -> Alcotest.failf "no roundtrip for %s"
                        (Pipeline.stage_name st))
          Pipeline.all_stages;
        checkb "unknown" true (Pipeline.stage_of_name "emit" = None));
    Alcotest.test_case "compile ~verify:true runs every Verify stage" `Quick
      (fun () ->
        let t =
          Pipeline.compile ~verify:true
            (Stacked_rnn.program Stacked_rnn.default)
        in
        checki "stages" 4 (List.length t.Pipeline.p_stages);
        List.iter
          (fun sr ->
            match sr.Pipeline.sr_diagnostics with
            | Some ds ->
                checkb
                  (Pipeline.stage_name sr.Pipeline.sr_stage ^ " clean")
                  true (ds = [])
            | None ->
                Alcotest.failf "stage %s not verified"
                  (Pipeline.stage_name sr.Pipeline.sr_stage))
          t.Pipeline.p_stages;
        checkb "emit verified" true
          (t.Pipeline.p_emit_diagnostics = Some []));
    Alcotest.test_case "compile ~verify:false runs no Verify stage" `Quick
      (fun () ->
        let t =
          Pipeline.compile ~verify:false
            (Stacked_rnn.program Stacked_rnn.default)
        in
        List.iter
          (fun sr -> checkb "skipped" true (sr.Pipeline.sr_diagnostics = None))
          t.Pipeline.p_stages;
        checkb "emit skipped" true (t.Pipeline.p_emit_diagnostics = None));
    Alcotest.test_case "plan equals the compile result's plan" `Quick
      (fun () ->
        let p = Stacked_lstm.program Stacked_lstm.default in
        checkb "same plan" true
          (Pipeline.plan p = (Pipeline.compile p).Pipeline.p_plan));
    Alcotest.test_case "verify_stages covers the production stages" `Quick
      (fun () ->
        checkb "names" true
          (List.map fst
             (Pipeline.verify_stages (Stacked_rnn.program Stacked_rnn.default))
          = [ "build"; "coarsen.group"; "coarsen.merge"; "reorder" ]));
    Alcotest.test_case "compile records trace spans for every stage" `Quick
      (fun () ->
        let sink = Trace.make () in
        ignore
          (Pipeline.compile ~trace:sink
             (Stacked_rnn.program Stacked_rnn.default));
        let names =
          List.filter_map
            (function
              | Trace.Span { name; track = "compiler"; _ } -> Some name
              | _ -> None)
            (Trace.events sink)
        in
        List.iter
          (fun expected ->
            checkb (expected ^ " traced") true (List.mem expected names))
          [ "build"; "coarsen.group"; "coarsen.merge"; "reorder"; "emit" ]);
    Alcotest.test_case "stage-selection prefixes reach the right graph"
      `Quick (fun () ->
        let p = Stacked_rnn.program Stacked_rnn.default in
        let at st =
          Pipeline.stage_graph
            (Pipeline.compile ~verify:false
               ~stages:(Pipeline.stages_until st) p)
            st
        in
        List.iter
          (fun st ->
            match at st with
            | Some _ -> ()
            | None ->
                Alcotest.failf "no graph for %s" (Pipeline.stage_name st))
          Pipeline.all_stages);
    Alcotest.test_case "per-kernel run metrics sum to the aggregate" `Quick
      (fun () ->
        let r = Executor.simulate (Pipeline.plan_of_graph (lstm_graph ())) in
        let sum =
          List.fold_left
            (fun acc k -> Engine.add acc k.Exec.kr_metrics)
            {
              Engine.time_ms = 0.0;
              dram_gb = 0.0;
              l2_gb = 0.0;
              l1_gb = 0.0;
              kernels = 0;
              total_flops = 0.0;
            }
            r.Exec.r_kernels
        in
        let m = r.Exec.r_metrics in
        checki "kernels" m.Engine.kernels sum.Engine.kernels;
        close ~eps:1e-6 "time" sum.Engine.time_ms m.Engine.time_ms;
        close ~eps:1e-6 "dram" sum.Engine.dram_gb m.Engine.dram_gb;
        close ~eps:1e-6 "l2" sum.Engine.l2_gb m.Engine.l2_gb;
        close ~eps:1e-6 "l1" sum.Engine.l1_gb m.Engine.l1_gb;
        close ~eps:1e-6 "flops" sum.Engine.total_flops m.Engine.total_flops);
    Alcotest.test_case "kernel starts tile the simulated stream" `Quick
      (fun () ->
        let r = Executor.simulate (Pipeline.plan_of_graph (lstm_graph ())) in
        ignore
          (List.fold_left
             (fun cursor k ->
               close ~eps:1e-6 "start" k.Exec.kr_start_us cursor;
               cursor +. k.Exec.kr_time_us)
             0.0 r.Exec.r_kernels));
    Alcotest.test_case "traced run mirrors the timeline as gpu spans" `Quick
      (fun () ->
        let sink = Trace.make () in
        let plan = Pipeline.plan_of_graph (lstm_graph ()) in
        let r1 = Executor.simulate ~trace:sink plan in
        let r2 = Executor.simulate ~trace:sink plan in
        let gpu_spans =
          List.filter_map
            (function
              | Trace.Span { track = "gpu"; ts_us; dur_us; _ } ->
                  Some (ts_us, dur_us)
              | _ -> None)
            (Trace.events sink)
        in
        checki "one span per launch"
          (List.length r1.Exec.r_kernels + List.length r2.Exec.r_kernels)
          (List.length gpu_spans);
        (* second run appended after the first, not overlapped *)
        let t1 = r1.Exec.r_metrics.Engine.time_ms *. 1e3 in
        let second_start = List.nth gpu_spans (List.length r1.Exec.r_kernels) in
        close ~eps:1e-6 "appended" (fst second_start) t1);
    Alcotest.test_case "Executor.profile matches Executor.simulate totals"
      `Quick
      (fun () ->
        let plan = Pipeline.plan_of_graph (lstm_graph ()) in
        let m = Executor.metrics plan in
        let p = Executor.profile plan in
        checki "kernels" m.Engine.kernels p.Profile.p_kernels;
        close ~eps:1e-6 "time" p.Profile.p_time_ms m.Engine.time_ms;
        close ~eps:1e-6 "dram" p.Profile.p_dram_gb m.Engine.dram_gb;
        close ~eps:1e-6 "flops" p.Profile.p_flops m.Engine.total_flops;
        checkb "wavefront kernels folded into blocks" true
          (List.length p.Profile.p_by_block
          < List.length p.Profile.p_by_kernel));
  ]

let suites =
  [
    ("observe.jsonw", jsonw_tests);
    ("observe.trace", trace_tests);
    ("observe.profile", profile_tests);
    ("observe.pipeline", pipeline_tests);
  ]
