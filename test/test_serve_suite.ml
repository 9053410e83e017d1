(* The serving layer: slot-map/bucket mechanics, the broker's bounded
   MPSC queue, per-tenant session isolation, seeded load generation —
   and the correctness keystone: batched continuous-batching service
   must be bitwise identical to serving every request alone, across
   randomized join/leave schedules and domain counts. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let toy_state = Fractal.Leaf (Tensor.zeros (Shape.of_array [| 1; 2 |]))

let toy_request ?(arrival = 0) id =
  Request.make ~id ~arrival ~state0:toy_state
    ~tokens:[| Fractal.Leaf (Tensor.ones (Shape.of_array [| 1; 2 |])) |]
    ()

(* ------------------------------ batch ----------------------------- *)

let batch_tests =
  [
    Alcotest.test_case "bucket ladder: powers of two up to max" `Quick
      (fun () ->
        let b = Batch.create ~max_batch:8 in
        Alcotest.(check (array int)) "8" [| 1; 2; 4; 8 |] (Batch.buckets b);
        let b6 = Batch.create ~max_batch:6 in
        Alcotest.(check (array int)) "6" [| 1; 2; 4; 6 |] (Batch.buckets b6);
        let b1 = Batch.create ~max_batch:1 in
        Alcotest.(check (array int)) "1" [| 1 |] (Batch.buckets b1));
    Alcotest.test_case "join fills lowest free slot; width follows span"
      `Quick (fun () ->
        let b = Batch.create ~max_batch:4 in
        checki "width empty" 0 (Batch.width b);
        let r0 = toy_request 0 and r1 = toy_request 1 and r2 = toy_request 2 in
        Alcotest.(check (option int)) "slot 0" (Some 0) (Batch.join b r0);
        Alcotest.(check (option int)) "slot 1" (Some 1) (Batch.join b r1);
        Alcotest.(check (option int)) "slot 2" (Some 2) (Batch.join b r2);
        checki "width 3 -> bucket 4" 4 (Batch.width b);
        (* evict the middle: span stays, occupancy drops, next join
           reuses the hole *)
        ignore (Batch.evict b 1);
        checki "occupancy" 2 (Batch.occupancy b);
        checki "span" 3 (Batch.span b);
        Alcotest.(check (option int)) "hole reused" (Some 1)
          (Batch.join b (toy_request 3)));
    Alcotest.test_case "join rejects when full; compact closes holes"
      `Quick (fun () ->
        let b = Batch.create ~max_batch:2 in
        ignore (Batch.join b (toy_request 0));
        ignore (Batch.join b (toy_request 1));
        Alcotest.(check (option int)) "full" None (Batch.join b (toy_request 2));
        ignore (Batch.evict b 0);
        Batch.compact b;
        checki "span after compact" 1 (Batch.span b);
        checki "width after compact" 1 (Batch.width b));
  ]

(* ------------------------------ broker ---------------------------- *)

let broker_tests =
  [
    Alcotest.test_case "FIFO with virtual-arrival gating" `Quick (fun () ->
        let br = Broker.create ~capacity:8 in
        List.iter
          (fun (id, at) -> ignore (Broker.try_submit br (toy_request ~arrival:at id)))
          [ (0, 0); (1, 2); (2, 0); (3, 5) ];
        (* strict FIFO prefix: admission stops at the first
           not-yet-arrived request, preserving submission fairness *)
        let ready = Broker.pop_ready br ~tick:0 ~max:8 in
        Alcotest.(check (list int)) "tick 0" [ 0 ]
          (List.map (fun r -> r.Request.rq_id) ready);
        let later = Broker.pop_ready br ~tick:2 ~max:8 in
        Alcotest.(check (list int)) "tick 2" [ 1; 2 ]
          (List.map (fun r -> r.Request.rq_id) later);
        checki "one left" 1 (Broker.pending br));
    Alcotest.test_case "bounded: try_submit sheds when full" `Quick
      (fun () ->
        let br = Broker.create ~capacity:2 in
        let accepted =
          List.filter (fun id -> Broker.try_submit br (toy_request id)) [ 0; 1; 2; 3; 4 ]
        in
        Alcotest.(check (list int)) "first two" [ 0; 1 ] accepted;
        checki "rejected marked" 3
          (List.length
             (List.filter (fun id -> id >= 2) [ 2; 3; 4 ]));
        Broker.close br;
        checkb "closed not drained" false (Broker.drained br);
        ignore (Broker.pop_ready br ~tick:0 ~max:8);
        checkb "drained after pop" true (Broker.drained br));
    Alcotest.test_case "MPSC: concurrent producers, every id exactly once"
      `Quick (fun () ->
        let per = 25 and producers = 4 in
        let br = Broker.create ~capacity:(per * producers) in
        let ds =
          Array.init producers (fun p ->
              Stdlib.Domain.spawn (fun () ->
                  for i = 0 to per - 1 do
                    ignore (Broker.submit br (toy_request ((p * per) + i)))
                  done))
        in
        Array.iter Stdlib.Domain.join ds;
        checki "all queued" (per * producers) (Broker.pending br);
        let rs = Broker.pop_ready br ~tick:0 ~max:(per * producers) in
        let ids = List.sort compare (List.map (fun r -> r.Request.rq_id) rs) in
        Alcotest.(check (list int)) "exactly once"
          (List.init (per * producers) Fun.id)
          ids);
  ]

(* ----------------------------- loadgen ---------------------------- *)

let loadgen_tests =
  [
    Alcotest.test_case "plans are a pure function of the seed" `Quick
      (fun () ->
        let p1 = Loadgen.plan ~seed:11 ~n:20 ~rate:0.7 ~len_lo:2 ~len_hi:9
        and p2 = Loadgen.plan ~seed:11 ~n:20 ~rate:0.7 ~len_lo:2 ~len_hi:9
        and p3 = Loadgen.plan ~seed:12 ~n:20 ~rate:0.7 ~len_lo:2 ~len_hi:9 in
        checkb "same seed same plan" true (p1 = p2);
        checkb "different seed different plan" true (p1 <> p3);
        Array.iter
          (fun it ->
            checkb "lengths in range" true
              (it.Loadgen.ld_len >= 2 && it.Loadgen.ld_len <= 9);
            checkb "arrivals non-negative" true (it.Loadgen.ld_arrival >= 0))
          p1;
        (* arrival ticks are non-decreasing: an arrival process *)
        let sorted = Array.to_list (Array.map (fun i -> i.Loadgen.ld_arrival) p1) in
        checkb "monotone" true (sorted = List.sort compare sorted));
    Alcotest.test_case "request contents independent of plan order" `Quick
      (fun () ->
        let sv = Servable.selective_scan ~seq_len:6 ~hidden:4 in
        let pl = Loadgen.plan ~seed:5 ~n:6 ~rate:1.0 ~len_lo:2 ~len_hi:6 in
        let a = Loadgen.requests sv ~seed:99 pl
        and b = Loadgen.requests sv ~seed:99 pl in
        Array.iter2
          (fun (x : Request.t) (y : Request.t) ->
            checkb "tokens replay bitwise" true
              (Array.for_all2 Fractal.equal_exact x.Request.rq_tokens
                 y.Request.rq_tokens))
          a b);
  ]

(* ----------------------------- metrics ---------------------------- *)

let metrics_tests =
  [
    Alcotest.test_case "nearest-rank percentiles over completions" `Quick
      (fun () ->
        let m = Metrics.create () in
        Metrics.start m;
        (* synthesize 100 completions at 1..100 ms *)
        for i = 1 to 100 do
          let r = toy_request i in
          r.Request.rq_submit_s <- 0.;
          r.Request.rq_done_s <- float_of_int i /. 1e3;
          r.Request.rq_status <- Request.Done;
          Metrics.on_complete m r
        done;
        Metrics.stop m;
        Alcotest.(check (float 1e-6)) "p50" 50. (Metrics.percentile m 50.);
        Alcotest.(check (float 1e-6)) "p95" 95. (Metrics.percentile m 95.);
        Alcotest.(check (float 1e-6)) "p99" 99. (Metrics.percentile m 99.);
        checki "completed" 100 (Metrics.completed m));
    Alcotest.test_case "percentile edge cases: empty, single, exact ranks"
      `Quick (fun () ->
        (* no completions: nan, not an exception or a zero *)
        checkb "empty list is nan" true
          (Float.is_nan (Metrics.percentile_of [] 50.));
        checkb "empty metrics is nan" true
          (Float.is_nan (Metrics.percentile (Metrics.create ()) 99.));
        (* a single sample answers every percentile *)
        List.iter
          (fun p ->
            Alcotest.(check (float 0.)) (Printf.sprintf "single p%g" p) 7.5
              (Metrics.percentile_of [ 7.5 ] p))
          [ 0.; 50.; 95.; 99.; 100. ];
        (* nearest rank, unsorted input: ceil(p/100 * n) is exact at
           the boundaries — with n = 4, p50 -> rank 2, p95/p99/p100 ->
           rank 4, p25 -> rank 1, and p0 clamps to the minimum *)
        let s = [ 40.; 10.; 30.; 20. ] in
        Alcotest.(check (float 0.)) "p0 clamps to min" 10.
          (Metrics.percentile_of s 0.);
        Alcotest.(check (float 0.)) "p25 is rank 1" 10.
          (Metrics.percentile_of s 25.);
        Alcotest.(check (float 0.)) "p50 is rank 2" 20.
          (Metrics.percentile_of s 50.);
        Alcotest.(check (float 0.)) "p75 is rank 3" 30.
          (Metrics.percentile_of s 75.);
        Alcotest.(check (float 0.)) "p95 is rank 4" 40.
          (Metrics.percentile_of s 95.);
        Alcotest.(check (float 0.)) "p100 is the max" 40.
          (Metrics.percentile_of s 100.);
        (* just past a boundary the rank must step up: p50+eps of 100
           samples is the 51st *)
        let hundred = List.init 100 (fun i -> float_of_int (i + 1)) in
        Alcotest.(check (float 0.)) "p50.1 of 1..100" 51.
          (Metrics.percentile_of hundred 50.1));
  ]

(* ----------------------------- session ---------------------------- *)

let session_tests =
  [
    Alcotest.test_case "per-tenant prepared isolation; per-width memoizing"
      `Quick (fun () ->
        let sv = Servable.selective_scan ~seq_len:4 ~hidden:4 in
        let sa = Session.create ~tenant:"a" sv in
        let sb = Session.create ~tenant:"b" sv in
        let pa = Session.prepared sa ~width:2 in
        let pa' = Session.prepared sa ~width:2 in
        let pb = Session.prepared sb ~width:2 in
        checkb "same tenant+width memoized" true (pa == pa');
        checkb "tenants isolated" true (pa != pb);
        checkb "widths tracked" true
          (List.mem 2 (Session.widths_prepared sa));
        checkb "engine known" true (Session.engine sa ~width:2 <> ""));
    Alcotest.test_case "a session keeps width_limit widths, evicting the \
                        least recently used" `Quick (fun () ->
        let sv = Servable.selective_scan ~seq_len:4 ~hidden:4 in
        let s = Session.create ~tenant:"limit" sv in
        let limit = Session.width_limit in
        for w = 1 to limit do
          ignore (Session.prepared s ~width:w)
        done;
        ignore (Session.prepared s ~width:1);
        ignore (Session.prepared s ~width:(limit + 1));
        let widths = Session.widths_prepared s in
        checkb "the touched width stays" true (List.mem 1 widths);
        checkb "the least recently used goes" false (List.mem 2 widths);
        checkb "the newest is in" true (List.mem (limit + 1) widths);
        let st = Session.cache_stats s in
        checki "hits" 1 st.Bounded_cache.hits;
        checki "misses" (limit + 1) st.Bounded_cache.misses;
        checki "evictions" 1 st.Bounded_cache.evictions;
        checki "entries" limit st.Bounded_cache.entries);
  ]

(* ----------------- the correctness keystone ----------------------- *)

(* Batched continuous batching must reproduce solo service bit for bit:
   every response and every final carried state, across randomized
   join/leave schedules (seeded Poisson arrivals, uneven lengths) and
   across executor domain counts.  This is the property that makes the
   serving layer trustworthy, so it runs on every builtin workload. *)
let differential_tests =
  List.concat_map
    (fun name ->
      let sv = Option.get (Servable.builtin name) in
      List.map
        (fun (domains, seed, compact) ->
          Alcotest.test_case
            (Printf.sprintf "%s: batched == solo (domains %d, schedule %d%s)"
               name domains seed
               (if compact then ", compacting" else ""))
            `Quick
            (fun () ->
              let opts =
                { Run_opts.default with Run_opts.domains = Some domains }
              in
              let pl =
                Loadgen.plan ~seed ~n:10 ~rate:0.6
                  ~len_lo:(Stdlib.max 1 (sv.Servable.sv_seq_len / 2))
                  ~len_hi:sv.Servable.sv_seq_len
              in
              let rs = Loadgen.requests sv ~seed pl in
              let b =
                Serve.run_requests ~opts ~max_batch:4 ~compact sv rs
              in
              let rs_solo = Loadgen.requests sv ~seed pl in
              let s = Serve.solo ~opts sv rs_solo in
              checki "everything served" 10
                (List.length b.Serve.oc_completed);
              checki "bitwise mismatches" 0
                (Serve.mismatches b.Serve.oc_completed s.Serve.oc_completed)))
        [ (1, 42, true); (2, 43, false); (4, 44, true) ])
    Servable.builtin_names

(* ----------------------- serving behaviour ------------------------ *)

let serving_tests =
  [
    Alcotest.test_case "empty request set completes without hanging" `Quick
      (fun () ->
        let sv = Servable.selective_scan ~seq_len:4 ~hidden:4 in
        let o = Serve.run_requests sv [||] in
        checki "nothing served" 0 (List.length o.Serve.oc_completed));
    Alcotest.test_case "open loop under overload sheds but completes rest"
      `Quick (fun () ->
        let sv = Servable.selective_scan ~seq_len:8 ~hidden:4 in
        let pl = Loadgen.plan ~seed:7 ~n:24 ~rate:8.0 ~len_lo:4 ~len_hi:8 in
        let rs = Loadgen.requests sv ~seed:7 pl in
        let o =
          Serve.run_open_loop ~max_batch:2 ~queue:2 ~tick_ms:0.05 sv rs
        in
        checki "every request accounted for" 24
          (List.length o.Serve.oc_completed + o.Serve.oc_shed);
        List.iter
          (fun r -> checkb "completed finished" true (Request.finished r))
          o.Serve.oc_completed);
    Alcotest.test_case "late arrivals join mid-flight (continuous batching)"
      `Quick (fun () ->
        let sv = Servable.selective_scan ~seq_len:8 ~hidden:4 in
        (* one long request up front, a burst arriving at tick 3: the
           burst must join while the first is still running *)
        let mk id arrival len =
          let _, tokens =
            sv.Servable.sv_new_request (Rng.create (100 + id)) ~len
          in
          Request.make ~id ~arrival ~state0:(fst sv.Servable.sv_pad) ~tokens ()
        in
        let rs = [| mk 0 0 8; mk 1 3 4; mk 2 3 4 |] in
        let o = Serve.run_requests ~max_batch:4 sv rs in
        checki "all done" 3 (List.length o.Serve.oc_completed);
        let r0 = List.find (fun r -> r.Request.rq_id = 0) o.Serve.oc_completed
        and r1 = List.find (fun r -> r.Request.rq_id = 1) o.Serve.oc_completed in
        checkb "burst joined before the long request finished" true
          (r1.Request.rq_join_tick < r0.Request.rq_done_tick));
  ]

(* -------------- shared pool under concurrent clients -------------- *)

(* The scheduler's executor runs share the global domain pool with any
   other session activity, so the pool must serialize whole loops from
   concurrent submitter domains without deadlock or cross-talk. *)
let pool_concurrency_tests =
  [
    Alcotest.test_case "parallel_for from concurrent submitter domains"
      `Quick (fun () ->
        let pool = Domain_pool.create ~domains:3 in
        Fun.protect
          ~finally:(fun () -> Domain_pool.shutdown pool)
          (fun () ->
            let clients = 4 and n = 2000 in
            let out = Array.make (clients * n) 0 in
            let ds =
              Array.init clients (fun c ->
                  Stdlib.Domain.spawn (fun () ->
                      Domain_pool.parallel_for pool ~lo:0 ~hi:n (fun i ->
                          out.((c * n) + i) <- (c * n) + i + 1)))
            in
            Array.iter Stdlib.Domain.join ds;
            checkb "every index written exactly its value" true
              (Array.for_all2 ( = ) out
                 (Array.init (clients * n) (fun i -> i + 1)))));
    Alcotest.test_case "map_reduce deterministic under concurrent clients"
      `Quick (fun () ->
        let pool = Domain_pool.create ~domains:3 in
        Fun.protect
          ~finally:(fun () -> Domain_pool.shutdown pool)
          (fun () ->
            let n = 5000 in
            let expect = n * (n - 1) / 2 in
            let ds =
              Array.init 4 (fun _ ->
                  Stdlib.Domain.spawn (fun () ->
                      Array.init 5 (fun _ ->
                          Domain_pool.map_reduce pool ~lo:0 ~hi:n
                            ~map:Fun.id ~combine:( + ) ~init:0)))
            in
            Array.iter
              (fun d ->
                Array.iter
                  (fun got -> checki "sum" expect got)
                  (Stdlib.Domain.join d))
              ds));
  ]

let suites =
  [
    ("serve-batch", batch_tests);
    ("serve-broker", broker_tests);
    ("serve-loadgen", loadgen_tests);
    ("serve-metrics", metrics_tests);
    ("serve-session", session_tests);
    ("serve-differential", differential_tests);
    ("serve-behaviour", serving_tests);
    ("serve-pool", pool_concurrency_tests);
  ]
