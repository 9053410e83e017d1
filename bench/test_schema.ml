(* The BENCH record writer emits bench/e2e's field set, and every gate
   holds at its floor: exactly at the limit passes, just past it fails. *)

let rec_ ?(layer = "l") ?(domains = 1) ?(bitwise = true) ?seed ~workload
    metric value =
  {
    Schema.experiment = "x";
    workload;
    layer;
    metric;
    unit_ = "u";
    value;
    source = Schema.Measured;
    repeat = 5;
    warmup = 1;
    interleaved = true;
    statistic = "median";
    domains;
    seed;
    bitwise;
  }

let passes rows = List.for_all fst rows
let check_pass what rows = Alcotest.(check bool) what true (passes rows)
let check_fail what rows = Alcotest.(check bool) what false (passes rows)

let keys = function
  | Jsonw.Obj kvs -> List.map fst kvs
  | _ -> Alcotest.fail "not an object"

let field k = function
  | Jsonw.Obj kvs -> List.assoc k kvs
  | _ -> Alcotest.fail "not an object"

let writer_tests =
  let samples =
    [
      rec_ ~workload:"w" ~seed:7 "time_ms" 1.5;
      rec_ ~workload:"w \"quoted\"" ~bitwise:false "speedup" nan;
      { (rec_ ~workload:"w" ~domains:64 "count" 3.) with Schema.source = Schema.Simulated };
    ]
  in
  let strs = Alcotest.(check (list string)) in
  [
    Alcotest.test_case "every record has exactly bench/e2e's fields" `Quick
      (fun () ->
        List.iter
          (fun r ->
            let j = Schema.to_json r in
            strs "record"
              [ "experiment"; "workload"; "layer"; "metric"; "unit"; "value";
                "source"; "method"; "environment"; "bitwise" ]
              (keys j);
            strs "method" [ "repeat"; "warmup"; "interleaved"; "statistic" ]
              (keys (field "method" j));
            strs "environment"
              [ "hw_cores"; "domains"; "oversubscribed"; "ocaml"; "seed" ]
              (keys (field "environment" j));
            Alcotest.(check bool) "source" true
              (List.mem (field "source" j)
                 [ Jsonw.String "measured"; Jsonw.String "simulated" ]);
            Alcotest.(check bool) "bitwise" true
              (field "bitwise" j
              = Jsonw.String (if r.Schema.bitwise then "pass" else "fail"));
            match Jsonw.validate (Jsonw.to_string j) with
            | Ok () -> ()
            | Error e -> Alcotest.failf "invalid JSON: %s" e)
          samples);
    Alcotest.test_case "the document has bench/e2e's top level" `Quick
      (fun () ->
        let doc = Schema.document samples in
        strs "top level" [ "benchmark"; "seed"; "records" ] (keys doc);
        Alcotest.(check bool) "mixed seeds give null" true
          (field "seed" doc = Jsonw.Null);
        Alcotest.(check bool) "one seed is kept" true
          (field "seed" (Schema.document [ List.hd samples ]) = Jsonw.Int 7);
        match Jsonw.validate (Jsonw.to_string doc) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "invalid JSON: %s" e);
  ]

(* One vm workload: the two one-domain engines' speedups over the
   interpreter and their times (fused 1.0 ms). *)
let vm_rows ?(bitwise = true) ?(domains = 1) ~compiled ~nofuse ~nofuse_ms () =
  let r layer = rec_ ~workload:"w" ~layer ~domains ~bitwise in
  [
    r "wavefront/compiled" "speedup_vs_interp" compiled;
    r "wavefront/compiled" "time_ms" 1.0;
    r "wavefront/compiled-nofuse" "speedup_vs_interp" nofuse;
    r "wavefront/compiled-nofuse" "time_ms" nofuse_ms;
  ]

let vm_tests =
  let at_floor = vm_rows ~compiled:1.0 ~nofuse:1.0 ~nofuse_ms:0.90 () in
  [
    Alcotest.test_case "vm: 1.0x interp and 0.90 fused/unfused pass" `Quick
      (fun () -> check_pass "at floor" (Schema.vm at_floor));
    Alcotest.test_case "vm: just below 1.0x interp fails" `Quick (fun () ->
        check_fail "compiled"
          (Schema.vm (vm_rows ~compiled:0.999 ~nofuse:1.0 ~nofuse_ms:0.9 ()));
        check_fail "nofuse"
          (Schema.vm (vm_rows ~compiled:1.0 ~nofuse:0.999 ~nofuse_ms:0.9 ()));
        check_fail "nan"
          (Schema.vm (vm_rows ~compiled:nan ~nofuse:1.0 ~nofuse_ms:0.9 ())));
    Alcotest.test_case "vm: fusion just below 0.90 fails" `Quick (fun () ->
        check_fail "fusion"
          (Schema.vm (vm_rows ~compiled:1.0 ~nofuse:1.0 ~nofuse_ms:0.8999 ())));
    Alcotest.test_case "vm: a bitwise fail row fails" `Quick (fun () ->
        check_fail "bitwise"
          (Schema.vm
             (vm_rows ~bitwise:false ~compiled:2.0 ~nofuse:2.0 ~nofuse_ms:1.0 ())));
    Alcotest.test_case "vm: missing pair or wavefront@1 rows fail" `Quick
      (fun () ->
        check_fail "no nofuse"
          (Schema.vm
             (List.filter
                (fun r -> r.Schema.layer = "wavefront/compiled")
                at_floor));
        check_fail "no wavefront@1"
          (Schema.vm
             (vm_rows ~domains:2 ~compiled:2.0 ~nofuse:2.0 ~nofuse_ms:1.0 ()));
        check_fail "empty" (Schema.vm []));
  ]

let kernel_rows ?(bitwise = true) speedup =
  [
    rec_ ~workload:"s" ~layer:"k/baseline" ~bitwise "speedup_vs_baseline" 1.0;
    rec_ ~workload:"s" ~layer:"k/candidate" ~bitwise "speedup_vs_baseline"
      speedup;
  ]

let kernel_tests =
  [
    Alcotest.test_case "kernels: 1.0x baseline passes, 0.999x fails" `Quick
      (fun () ->
        check_pass "at floor" (Schema.kernels (kernel_rows 1.0));
        check_fail "below" (Schema.kernels (kernel_rows 0.999)));
    Alcotest.test_case "kernels: a bitwise fail row fails" `Quick (fun () ->
        check_fail "bitwise" (Schema.kernels (kernel_rows ~bitwise:false 2.0)));
    Alcotest.test_case "kernels: no candidate rows fail" `Quick (fun () ->
        check_fail "baseline only"
          (Schema.kernels [ List.hd (kernel_rows 1.0) ]);
        check_fail "empty" (Schema.kernels []));
  ]

let serve_rows ?(workload = "w") ~bad ~p99 ~shed () =
  [
    rec_ ~workload ~bitwise:(bad = 0.) "bitwise_mismatches" bad;
    rec_ ~workload "latency_p99_ms" p99;
    rec_ ~workload "shed" shed;
  ]

let serve_tests =
  [
    Alcotest.test_case "serve: 0 mismatches, finite p99, 1 shed pass" `Quick
      (fun () ->
        check_pass "at floor" (Schema.serve (serve_rows ~bad:0. ~p99:5. ~shed:1. ())));
    Alcotest.test_case "serve: 1 mismatch fails" `Quick (fun () ->
        check_fail "mismatch" (Schema.serve (serve_rows ~bad:1. ~p99:5. ~shed:1. ())));
    Alcotest.test_case "serve: non-finite p99 fails" `Quick (fun () ->
        check_fail "nan" (Schema.serve (serve_rows ~bad:0. ~p99:nan ~shed:1. ()));
        check_fail "inf"
          (Schema.serve (serve_rows ~bad:0. ~p99:infinity ~shed:1. ())));
    Alcotest.test_case "serve: no shed anywhere fails" `Quick (fun () ->
        check_fail "no shed"
          (Schema.serve
             (serve_rows ~bad:0. ~p99:5. ~shed:0. ()
             @ serve_rows ~workload:"v" ~bad:0. ~p99:5. ~shed:0. ()));
        check_pass "one workload sheds"
          (Schema.serve
             (serve_rows ~bad:0. ~p99:5. ~shed:0. ()
             @ serve_rows ~workload:"v" ~bad:0. ~p99:5. ~shed:1. ())));
    Alcotest.test_case "serve: missing rows fail" `Quick (fun () ->
        check_fail "no p99"
          (Schema.serve [ rec_ ~workload:"w" "bitwise_mismatches" 0.; rec_ ~workload:"w" "shed" 1. ]);
        check_fail "empty" (Schema.serve []));
  ]

let dist_rows ?(bitwise = fun _ -> true) devices =
  List.concat_map
    (fun n ->
      [
        rec_ ~workload:"w" ~domains:n ~bitwise:(bitwise n) "speedup_vs_1dev" 0.5;
        rec_ ~workload:"w" ~domains:n ~bitwise:(bitwise n) "wall_ms" 1.0;
      ])
    devices

let dist_tests =
  [
    Alcotest.test_case "dist: devices {1,2,4,8} pass, {1,2,4} fail" `Quick
      (fun () ->
        check_pass "exact" (Schema.dist (dist_rows [ 1; 2; 4; 8 ]));
        check_pass "superset" (Schema.dist (dist_rows [ 1; 2; 4; 8; 16 ]));
        check_fail "no 8" (Schema.dist (dist_rows [ 1; 2; 4 ]));
        check_fail "no 1" (Schema.dist (dist_rows [ 2; 4; 8 ])));
    Alcotest.test_case "dist: a bitwise fail row fails" `Quick (fun () ->
        check_fail "4 devices differ"
          (Schema.dist (dist_rows ~bitwise:(fun n -> n <> 4) [ 1; 2; 4; 8 ])));
    Alcotest.test_case "dist: no records fail" `Quick (fun () ->
        check_fail "empty" (Schema.dist []));
  ]

let () =
  Alcotest.run "bench-schema"
    [
      ("writer", writer_tests);
      ("gate-vm", vm_tests);
      ("gate-kernels", kernel_tests);
      ("gate-serve", serve_tests);
      ("gate-dist", dist_tests);
    ]
