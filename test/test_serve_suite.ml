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

(* A selective-scan servable at the given dimensions, derived from its
   source like any served program. *)
let selective_scan ~seq_len ~hidden =
  Printf.sprintf
    {|program selective_scan
input ass: [2][%d]f32[1,%d]
input bss: [2][%d]f32[1,%d]
return zip(ass, bss).map { |gs, us|
  zip(gs, us).scanl(zeros[1,%d]) { |h, a, b| a * h + b } }|}
    seq_len hidden seq_len hidden hidden
  |> Parse.program |> Servable.of_program |> Result.get_ok

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
        let sv = selective_scan ~seq_len:6 ~hidden:4 in
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
        let sv = selective_scan ~seq_len:4 ~hidden:4 in
        let sa = Session.create ~tenant:"a" sv in
        let sb = Session.create ~tenant:"b" sv in
        let pa = Session.prepared sa ~width:2 in
        let pa' = Session.prepared sa ~width:2 in
        let pb = Session.prepared sb ~width:2 in
        checkb "same tenant+width memoized" true (pa == pa');
        checkb "tenants isolated" true (pa != pb);
        checkb "widths tracked" true
          (List.mem 2 (Session.widths_prepared sa)));
    Alcotest.test_case "two sessions of one tenant get distinct executables"
      `Quick (fun () ->
        (* a prepared executable is stateful: sharing one across
           sessions would let their ticks overwrite each other *)
        let sv = selective_scan ~seq_len:4 ~hidden:4 in
        let s1 = Session.create ~tenant:"same" sv in
        let s2 = Session.create ~tenant:"same" sv in
        checkb "distinct" true
          (Session.prepared s1 ~width:2 != Session.prepared s2 ~width:2));
    Alcotest.test_case "a stored tuned record reaches neither the plan \
                        cache nor the session" `Quick (fun () ->
        (* serving runs Build.build's graph with the session's options:
           no tuned-config lookup and no plan warm-up *)
        let sv = selective_scan ~seq_len:4 ~hidden:4 in
        let key = Pipeline.program_key (sv.Servable.sv_step 2) in
        let saved = Sys.getenv_opt Tune_db.Db.env_var in
        Unix.putenv Tune_db.Db.env_var "";
        Fun.protect
          ~finally:(fun () ->
            Unix.putenv Tune_db.Db.env_var (Option.value saved ~default:"");
            Tune_db.Db.clear ())
          (fun () ->
            Tune_db.store
              {
                Tune_db.tr_key = key;
                tr_device = Tune_db.device_digest Device.a100;
                tr_tile =
                  { Tile.default_config with Tile.cfg_elem_chunk = 4096 };
                tr_cost = 0.0;
                tr_strategy = "pinned";
                tr_budget = 0;
                tr_seed = 0;
              };
            Pipeline.Cache.clear ();
            let before = Tune_db.Db.stats () in
            ignore
              (Session.prepared (Session.create ~tenant:"tuned" sv) ~width:2);
            let after = Tune_db.Db.stats () in
            let c = Pipeline.Cache.stats () in
            checki "no plan compiled or looked up" 0
              (c.Pipeline.Cache.hits + c.Pipeline.Cache.misses
              + c.Pipeline.Cache.disk_hits);
            checki "no tuning-database lookup"
              (before.Tune_db.Db.hits + before.Tune_db.Db.misses)
              (after.Tune_db.Db.hits + after.Tune_db.Db.misses)));
    Alcotest.test_case "a session keeps width_limit widths, evicting the \
                        least recently used" `Quick (fun () ->
        let sv = selective_scan ~seq_len:4 ~hidden:4 in
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

(* --------------- served response = the interpreter ---------------- *)

(* Programs the row rule refuses, so they serve per slot: a cell
   mixing rows, a per-request leaf wider than one row, and RNNs whose
   state is a [32,1] column, one level (S1) and stacked (S2). *)
let per_slot_sources =
  [
    ( "a cell mixing rows",
      {|program mix
input xss: [2][5]f32[1,1]
return xss.map { |xs| xs.scanl(zeros[1,1]) { |s, x| s @T x + x } }|} );
    ( "a per-request leaf wider than one row",
      {|program wide
input xss: [2][5]f32[2,4]
return xss.map { |xs| xs.scanl(zeros[2,4]) { |s, x| s + x } }|} );
    ( "a [32,1]-state RNN",
      {|program rnn_col
input xss: [4][8]f32[32,1]
input w: f32[32,32]
return xss.map { |xs| xs.scanl(zeros[32,1]) { |h, x| tanh(w @ h + x) } }|} );
    ( "a stacked [32,1]-state RNN",
      {|program stacked_rnn_col
input xss: [4][6]f32[32,1]
input ws: [3]f32[32,32]
return xss.map { |xs|
  ws.scanl(xs) { |sbar, w| sbar.scanl(zeros[32,1]) { |s, x| tanh(w @ x + s) } } }|} );
  ]

let example f = Parse.program_file ("../examples/programs/" ^ f ^ ".ft")

(* [attention_block.ft] under another name: nothing recognizes a
   program by its name. *)
let attention_renamed () = { (example "attention_block") with Expr.name = "attn_renamed" }

(* Every served response must be bitwise the reference interpreter's
   output on the source program, declared at the request's length with
   the request's tokens in batch slot 0 — batched and solo, at every
   domain count.  Programs covered: the example files that derive,
   every builtin, and the per-slot programs above. *)
let oracle_tests =
  let sources =
    List.map
      (fun f -> (f ^ ".ft", fun () -> example f))
      [ "stacked_rnn"; "selective_scan"; "attention_block" ]
    @ [ ("attention_block.ft renamed", attention_renamed) ]
    @ List.map
        (fun n -> ("builtin " ^ n, fun () -> Option.get (Servable.builtin_program n)))
        Servable.builtin_names
    @ List.map (fun (what, src) -> (what, fun () -> Parse.program src)) per_slot_sources
  in
  List.concat_map
    (fun (label, source) ->
      List.map
        (fun domains ->
          Alcotest.test_case
            (Printf.sprintf "%s: served = Interp (domains %d)" label domains)
            `Quick (fun () ->
              let p = source () in
              let sv = Result.get_ok (Servable.of_program p) in
              let opts = { Run_opts.default with Run_opts.domains = Some domains } in
              let pl =
                Loadgen.plan ~seed:domains ~n:6 ~rate:0.8
                  ~len_lo:(Stdlib.max 1 (sv.Servable.sv_seq_len / 2))
                  ~len_hi:sv.Servable.sv_seq_len
              in
              let b = Serve.run_requests ~opts ~max_batch:4 sv (Loadgen.requests sv ~seed:5 pl) in
              let s = Serve.solo ~opts sv (Loadgen.requests sv ~seed:5 pl) in
              checki "everything served" 6 (List.length b.Serve.oc_completed);
              checki "batched vs solo" 0
                (Serve.mismatches b.Serve.oc_completed s.Serve.oc_completed);
              checki "batched vs Interp" 0 (Serve.reference_mismatches p b.Serve.oc_completed);
              checki "solo vs Interp" 0 (Serve.reference_mismatches p s.Serve.oc_completed)))
        [ 1; 2; 4 ])
    sources

(* ----------------------- the derivation rule ---------------------- *)

let digest v =
  let b = Buffer.create 4096 in
  List.iter
    (fun t ->
      let buf = Tensor.buffer t in
      for i = 0 to Bigarray.Array1.dim buf - 1 do
        Buffer.add_int64_le b (Int64.bits_of_float buf.{i})
      done)
    (Fractal.leaves v);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The benchmark's served stacked RNN (depth 3, seq 64, hidden 32). *)
let serve_rnn =
  Parse.program
    {|program stacked_rnn
input xss: [8][64]f32[1,32]
input ws:  [3]f32[32,32]
return xss.map { |xs|
  ws.scanl(xs) { |sbar, w|
    sbar.scanl(zeros[1,32]) { |s, x|
      x @ w + s } } }|}

(* The reference the derived attention step is pinned to: one online
   softmax accumulation per slot, written by hand with named inputs. *)
let attention_step width =
  let over s = Expr.List_ty (width, Expr.Tensor_ty (Shape.of_array s)) in
  {
    Expr.name = Printf.sprintf "attention_block.step%d" width;
    inputs =
      [
        ("qs", over [| 16; 32 |]); ("ms", over [| 16; 1 |]); ("ss", over [| 16; 1 |]);
        ("os", over [| 16; 32 |]); ("ks", over [| 16; 32 |]); ("vs", over [| 16; 32 |]);
      ];
    body =
      Parse.expr
        {|zip(qs, ms, ss, os, ks, vs).map { |q, m, s, o, k, v|
            let t1 = q @T k in
            let m2 = max(m, rowmax(t1)) in
            let p = exp(t1 - m2) in
            let a = exp(m - m2) in
            (m2, a * s + rowsum(p), a * o + p @ v) }|};
  }

let rejects what src fragment =
  Alcotest.test_case ("rejects " ^ what) `Quick (fun () ->
      match Servable.of_program (Parse.program src) with
      | Ok _ -> Alcotest.failf "%s: derived a step program" what
      | Error m ->
          checkb (Printf.sprintf "%S names %S" m fragment) true
            (Str.string_match (Str.regexp (".*" ^ Str.quote fragment)) m 0))

let derive_tests =
  [
    Alcotest.test_case "serve_stacked_rnn: the step is the hand-written \
                        stacked RNN step at widths 1, 2, 4, 8" `Quick
      (fun () ->
        let sv = Result.get_ok (Servable.of_program serve_rnn) in
        List.iter
          (fun w ->
            let rows = Shape.of_array [| w; 32 |] in
            let expected =
              Expr.
                {
                  name = Printf.sprintf "stacked_rnn.step%d" w;
                  inputs =
                    [
                      ("tok0", Tensor_ty rows);
                      ("st0", List_ty (3, Tensor_ty rows));
                      ("ws", List_ty (3, Tensor_ty (Shape.of_array [| 32; 32 |])));
                    ];
                  body =
                    scanl_e ~init:(Var "tok0")
                      ~params:[ "below"; "w"; "s0" ]
                      ~body:(Add @@@ [ Matmul @@@ [ Var "below"; Var "w" ]; Var "s0" ])
                      (Zip [ Var "ws"; Var "st0" ]);
                }
            in
            checkb (Printf.sprintf "width %d" w) true (sv.Servable.sv_step w = expected))
          [ 1; 2; 4; 8 ]);
    Alcotest.test_case "serve_stacked_rnn: weights and tokens pinned to \
                        the hand-written servable's bytes" `Quick (fun () ->
        let sv = Result.get_ok (Servable.of_program serve_rnn) in
        Alcotest.(check string) "ws" "7a123c685c217b6d72a29d94bbd643fa"
          (digest (List.assoc "ws" sv.Servable.sv_shared));
        let pl = Loadgen.plan ~seed:7 ~n:1 ~rate:1e9 ~len_lo:64 ~len_hi:64 in
        let r = (Loadgen.requests sv ~seed:7 pl).(0) in
        Alcotest.(check string) "first request's tokens"
          "f57ac516e965dd2a9feb53b03bcbd50c"
          (digest (Fractal.Node r.Request.rq_tokens)));
    Alcotest.test_case "an LSTM in Listing 2 form: tuple state and tokens \
                        split into one input per component" `Quick (fun () ->
        let p = Option.get (Servable.builtin_program "stacked_lstm") in
        let step = (Result.get_ok (Servable.of_program p)).Servable.sv_step 4 in
        Alcotest.(check (list string)) "step inputs"
          [ "tok0"; "tok1"; "st0"; "st1"; "wss"; "uss"; "bss" ]
          (List.map fst step.Expr.inputs));
    rejects "a body with no fold (ffn_block)"
      {|program ffn_block
input xs: [4]f32[8,16]
input w: f32[16,16]
return xs.map { |x| x @ w }|}
      "not a seeded left scan or fold";
    Alcotest.test_case "attention_block: the derived per-slot step computes \
                        the hand-written step bit for bit at widths 1, 2, 4, 8"
      `Quick (fun () ->
        List.iter
          (fun (label, p) ->
            let sv = Result.get_ok (Servable.of_program p) in
            List.iter
              (fun w ->
                let step = sv.Servable.sv_step w in
                let blk = Shape.of_array [| 16; 32 |] and col = Shape.of_array [| 16; 1 |] in
                let over s = Expr.List_ty (w, Expr.Tensor_ty s) in
                Alcotest.(check (list string))
                  (Printf.sprintf "%s width %d: inputs" label w)
                  [ "st0"; "st1"; "st2"; "tok0"; "tok1"; "tok2" ]
                  (List.map fst step.Expr.inputs);
                checkb "per-slot input types" true
                  (List.map snd step.Expr.inputs
                  = [ over col; over col; over blk; over blk; over blk; over blk ]);
                let rng = Rng.create w in
                let slots s = Fractal.tabulate w (fun _ -> Fractal.Leaf (Tensor.rand rng s)) in
                let m = slots col and l = slots col and o = slots blk in
                let k = slots blk and v = slots blk and q = slots blk in
                let derived =
                  Executor.run (Build.build step)
                    [ ("st0", m); ("st1", l); ("st2", o); ("tok0", k); ("tok1", v); ("tok2", q) ]
                in
                let hand =
                  Executor.run (Build.build (attention_step w))
                    [ ("qs", q); ("ms", m); ("ss", l); ("os", o); ("ks", k); ("vs", v) ]
                in
                checki "three outputs" 3 (List.length derived);
                List.iter2
                  (fun (_, a) (_, b) -> checkb "bitwise" true (Fractal.equal_exact a b))
                  derived hand)
              [ 1; 2; 4; 8 ])
          [
            ("attention_block", example "attention_block");
            ("attn_renamed", attention_renamed ());
          ]);
    Alcotest.test_case "a seeded reduce is a left fold and a FINISH is the \
                        response" `Quick (fun () ->
        let p =
          Parse.program
            {|program fin
input xss: [3][5]f32[1,4]
input b: f32[1,4]
return xss.map { |xs|
  let h = xs.reduce(zeros[1,4]) { |s, x| tanh(s * x + x) } in h * b + h }|}
        in
        let sv = Result.get_ok (Servable.of_program p) in
        let st = Fractal.Leaf (Tensor.rand (Rng.create 1) (Shape.of_array [| 1; 4 |])) in
        let b = Fractal.as_leaf (List.assoc "b" sv.Servable.sv_shared) in
        let h = Fractal.as_leaf st in
        checkb "sv_finish evaluates FINISH over the state" true
          (Fractal.equal_exact (sv.Servable.sv_finish st)
             (Fractal.Leaf (Interp.eval_prim Add [ Interp.eval_prim Mul [ h; b ]; h ]))));
    rejects "a FINISH after a scan"
      {|program fin_scan
input xss: [2][5]f32[1,4]
return xss.map { |xs| let hs = xs.scanl(zeros[1,4]) { |s, x| s + x } in hs }|}
      "only a one-level fold takes a FINISH";
    rejects "a FINISH reading the request"
      {|program fin_req
input xss: [2][5]f32[1,4]
return xss.map { |xs| let h = xs.foldl(zeros[1,4]) { |s, x| s + x } in h + xs[0] }|}
      "FINISH reads xs";
    rejects "a sequence through an access operator"
      {|program strided
input xss: [2][6]f32[1,4]
return xss.map { |xs| xs.stride(0, 2).scanl(zeros[1,4]) { |s, x| s + x } }|}
      "it must zip map parameters and inputs";
    Alcotest.test_case "of_program never raises on an ill-typed program" `Quick
      (fun () ->
        let p =
          Parse.program
            {|program p
input xss: [2][3]f32[1,4]
return xss.map { |xs| xs.scanl(zeros[1,4]) { |s, x| s @ y } }|}
        in
        checkb "an Error" true (Result.is_error (Servable.of_program p)));
    Alcotest.test_case "conform's serve oracle: generated programs serve \
                        batched = solo = Interp" `Quick (fun () ->
        let r = Conform.run ~oracles:[ "serve" ] ~seed:7 ~budget:120 () in
        let s = List.find (fun s -> s.Conform.os_oracle = "serve") r.Conform.rp_oracle_stats in
        checkb "some generated programs derive" true (s.Conform.os_pass > 0);
        checki "failures" 0 s.Conform.os_fail;
        checkb "passed" true (Conform.passed r));
  ]

(* ----------------------- serving behaviour ------------------------ *)

let serving_tests =
  [
    Alcotest.test_case "empty request set completes without hanging" `Quick
      (fun () ->
        let sv = selective_scan ~seq_len:4 ~hidden:4 in
        let o = Serve.run_requests sv [||] in
        checki "nothing served" 0 (List.length o.Serve.oc_completed));
    Alcotest.test_case "open loop under overload sheds but completes rest"
      `Quick (fun () ->
        let sv = selective_scan ~seq_len:8 ~hidden:4 in
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
        let sv = selective_scan ~seq_len:8 ~hidden:4 in
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

(* ------------------ tick buffers and borrowed outputs ------------- *)

let copy = Fractal.map_leaves Tensor.copy

(* Minor words [f] allocates, less [Gc.minor_words]'s own boxed float. *)
let minor_words f =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  let c = Gc.minor_words () in
  f ();
  let d = Gc.minor_words () in
  d -. c -. (b -. a)

(* Every program a step derives from: the builtins, the examples, the
   corpus, and conform's generated programs (the serve oracle's draw:
   seed 11, 300 programs). *)
let derivable_programs () =
  let files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".ft")
    |> List.map (fun f -> (f, Parse.program_file (Filename.concat dir f)))
  in
  let rng = Rng.create 11 in
  List.map (fun n -> (n, Option.get (Servable.builtin_program n))) Servable.builtin_names
  @ files "../examples/programs" @ files "corpus"
  @ List.init 300 (fun i -> (Printf.sprintf "generated %d" i, Gen.program (Gen.generate rng)))
  |> List.filter_map (fun (label, p) ->
         match Servable.of_program p with Ok sv -> Some (label, sv) | Error _ -> None)

(* A widened servable hands out the same env list at a width on every
   tick, its buffers refilled in place; per slot builds it afresh. *)
let widened sv =
  let rows = Array.make 2 sv.Servable.sv_pad in
  sv.Servable.sv_env ~width:2 rows == sv.Servable.sv_env ~width:2 rows

(* A per-slot cell whose GEMM right operand is the request's own state. *)
let per_request_rhs =
  {|program per_request_rhs
input xss: [3][6]f32[2,2]
return xss.map { |xs| xs.scanl(zeros[2,2]) { |s, x| tanh(x @ s + x) } }|}

let buffer_tests =
  List.concat_map
    (fun (name, domains) ->
      [
        Alcotest.test_case
          (Printf.sprintf "%s: a widened mux + demux at a steady width \
                           allocates 0 minor words (domains %d)" name domains)
          `Quick (fun () ->
            let sv = Option.get (Servable.builtin name) in
            let opts = { Run_opts.default with Run_opts.domains = Some domains } in
            let width = 4 in
            checkb "widened" true (widened sv);
            let pr = Session.prepared (Session.create ~tenant:"alloc" ~opts sv) ~width in
            let rows = Array.make width sv.Servable.sv_pad in
            let outs = Executor.execute pr (sv.Servable.sv_env ~width rows) in
            let tick () =
              ignore (sv.Servable.sv_env ~width rows);
              ignore (sv.Servable.sv_demux ~width outs)
            in
            tick ();
            tick ();
            Alcotest.(check (float 0.)) "minor words per tick" 0. (minor_words tick));
      ])
    [ ("stacked_rnn", 1); ("stacked_rnn", 2); ("stacked_lstm", 1); ("stacked_lstm", 2) ]
  @ [
      Alcotest.test_case "a servable keeps width_limit widths of buffers, \
                          evicting the least recently used" `Quick (fun () ->
          let sv = Option.get (Servable.builtin "stacked_rnn") in
          let env width = sv.Servable.sv_env ~width (Array.make width sv.Servable.sv_pad) in
          let limit = Servable.width_limit in
          let first = Array.init limit (fun w -> env (w + 1)) in
          checkb "a width answers with its own buffers" true (env limit == first.(limit - 1));
          checkb "the first width is still buffered" true (env 1 == first.(0));
          ignore (env (limit + 1));
          checkb "the touched width stays" true (env 1 == first.(0));
          checkb "a later width stays" true (env 3 == first.(2));
          checkb "the least recently used got fresh buffers" true (env 2 != first.(1));
          let outs = Executor.execute
              (Session.prepared (Session.create ~tenant:"limit" sv) ~width:2) (env 2) in
          checki "a fresh width demuxes every slot" 2
            (Array.length (sv.Servable.sv_demux ~width:2 outs)));
      Alcotest.test_case "completed and stopped requests keep their state and \
                          response after the servable serves again" `Quick
        (fun () ->
          List.iter
            (fun name ->
              let sv = Option.get (Servable.builtin name) in
              let plan seed =
                Loadgen.plan ~seed ~n:6 ~rate:0.8
                  ~len_lo:(Stdlib.max 1 (sv.Servable.sv_seq_len / 2))
                  ~len_hi:sv.Servable.sv_seq_len
              in
              let first = Serve.run_requests ~max_batch:4 sv (Loadgen.requests sv ~seed:3 (plan 3)) in
              let snapshot (r : Request.t) =
                (copy r.Request.rq_state, Option.map copy r.Request.rq_response)
              in
              let kept = List.map snapshot first.Serve.oc_completed in
              (* a run stopped by [max_ticks] leaves requests mid-flight *)
              let stopped = Loadgen.requests sv ~seed:5 (plan 5) in
              let broker = Broker.create ~capacity:6 in
              Loadgen.submit_all broker stopped;
              Scheduler.run
                (Scheduler.create ~max_ticks:2 ~session:(Session.create sv) ~broker ~max_batch:4
                   ~metrics:(Metrics.create ()) ());
              let running = List.filter (fun r -> r.Request.rq_pos > 0) (Array.to_list stopped) in
              checkb "some request was stopped mid-flight" true (running <> []);
              let kept_running = List.map snapshot running in
              ignore (Serve.run_requests ~max_batch:4 sv (Loadgen.requests sv ~seed:4 (plan 4)));
              List.iter2
                (fun r (st, resp) ->
                  checkb (name ^ ": state") true (Fractal.equal_exact r.Request.rq_state st);
                  checkb (name ^ ": response") true
                    (match (r.Request.rq_response, resp) with
                    | Some a, Some b -> Fractal.equal_exact a b
                    | _ -> false))
                first.Serve.oc_completed kept;
              List.iter2
                (fun r (st, _) ->
                  checkb (name ^ ": stopped state") true (Fractal.equal_exact r.Request.rq_state st))
                running kept_running)
            Servable.builtin_names);
      Alcotest.test_case "a per-request GEMM right operand serves per slot: \
                          batched = solo = Interp over >= 3 ticks" `Quick (fun () ->
          let p = Parse.program per_request_rhs in
          let sv = Result.get_ok (Servable.of_program p) in
          checkb "served per slot" false (widened sv);
          List.iter
            (fun domains ->
              let opts = { Run_opts.default with Run_opts.domains = Some domains } in
              let pl = Loadgen.plan ~seed:domains ~n:5 ~rate:0.8 ~len_lo:3 ~len_hi:6 in
              let b = Serve.run_requests ~opts ~max_batch:4 sv (Loadgen.requests sv ~seed:9 pl) in
              let s = Serve.solo ~opts sv (Loadgen.requests sv ~seed:9 pl) in
              checkb "at least 3 ticks" true (Metrics.ticks b.Serve.oc_metrics >= 3);
              checki "everything served" 5 (List.length b.Serve.oc_completed);
              checki "batched vs solo" 0 (Serve.mismatches b.Serve.oc_completed s.Serve.oc_completed);
              checki "batched vs Interp" 0 (Serve.reference_mismatches p b.Serve.oc_completed);
              checki "solo vs Interp" 0 (Serve.reference_mismatches p s.Serve.oc_completed))
            [ 1; 2 ]);
      Alcotest.test_case "every derived step prepares at widths 1, 2 and 4 \
                          (builtins, examples, corpus, generated)" `Quick (fun () ->
          let servables = derivable_programs () in
          let widened = List.filter (fun (_, sv) -> widened sv) servables in
          checkb "some widened servables" true (List.length widened >= 10);
          List.iter
            (fun (label, sv) ->
              let session = Session.create ~tenant:"sweep" sv in
              List.iter
                (fun width ->
                  match Session.prepared session ~width with
                  | _ -> ()
                  | exception Invalid_argument m -> Alcotest.failf "%s: %s" label m)
                [ 1; 2; 4 ])
            servables);
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
    Alcotest.test_case "map_array deterministic under concurrent clients"
      `Quick (fun () ->
        let pool = Domain_pool.create ~domains:3 in
        Fun.protect
          ~finally:(fun () -> Domain_pool.shutdown pool)
          (fun () ->
            let xs = Array.init 5000 Fun.id in
            let expect = Array.map (fun x -> (2 * x) + 1) xs in
            let ds =
              Array.init 4 (fun _ ->
                  Stdlib.Domain.spawn (fun () ->
                      Array.init 5 (fun _ ->
                          Domain_pool.map_array pool (fun x -> (2 * x) + 1) xs)))
            in
            Array.iter
              (fun d ->
                Array.iter
                  (fun got -> checkb "every element its value" true (got = expect))
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
    ("serve-oracle", oracle_tests);
    ("serve-derive", derive_tests);
    ("serve-behaviour", serving_tests);
    ("serve-buffers", buffer_tests);
    ("serve-pool", pool_concurrency_tests);
  ]
