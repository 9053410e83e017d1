(* The multicore runtime: Domain_pool's loops (correctness,
   determinism, chunking edge cases, exception propagation) and its
   registry, Progress's counters, Bounded_cache's two modes, and the caches at their limits:
   the compiled-plan cache (hit/miss accounting, option-sensitive keys,
   the FT_PLAN_CACHE disk roundtrip) and the prepared-executable
   cache. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let with_pool domains f =
  let pool = Domain_pool.create ~domains in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) (fun () -> f pool)

(* Process CPU time, every domain included. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU the process burns over 50 ms of sleep right after one loop on
   [pool]: a waiting domain may spin for ~10 us, then must block. *)
let idle_cpu_ms pool =
  let a = Array.make 64 0 in
  Domain_pool.parallel_for pool ~lo:0 ~hi:64 (fun i -> a.(i) <- i);
  let c0 = cpu_s () in
  Unix.sleepf 0.05;
  (cpu_s () -. c0) *. 1e3

exception Boom of int

let runtime_tests =
  [
    Alcotest.test_case "parallel_for fills every index exactly once" `Quick
      (fun () ->
        List.iter
          (fun domains ->
            with_pool domains (fun pool ->
                List.iter
                  (fun n ->
                    List.iter
                      (fun chunk ->
                        let a = Array.make (Stdlib.max 1 n) 0 in
                        Domain_pool.parallel_for ?chunk pool ~lo:0 ~hi:n
                          (fun i -> a.(i) <- a.(i) + 1);
                        checki "sum" n (Array.fold_left ( + ) 0 a))
                      [ None; Some 1; Some 3; Some 10_000 ])
                  [ 0; 1; 3; 7; 1000 ]))
          [ 1; 4 ]);
    Alcotest.test_case "range smaller than the pool" `Quick (fun () ->
        with_pool 8 (fun pool ->
            let a = Array.make 3 0 in
            Domain_pool.parallel_for pool ~lo:0 ~hi:3 (fun i -> a.(i) <- i + 1);
            Alcotest.(check (array int)) "values" [| 1; 2; 3 |] a));
    Alcotest.test_case "empty and inverted ranges are no-ops" `Quick (fun () ->
        with_pool 4 (fun pool ->
            Domain_pool.parallel_for pool ~lo:0 ~hi:0 (fun _ -> assert false);
            Domain_pool.parallel_for pool ~lo:5 ~hi:2 (fun _ -> assert false)));
    Alcotest.test_case "exceptions in workers reach the caller" `Quick
      (fun () ->
        with_pool 4 (fun pool ->
            checkb "raised" true
              (match
                 Domain_pool.parallel_for pool ~lo:0 ~hi:100 (fun i ->
                     if i = 57 then failwith "boom")
               with
              | () -> false
              | exception Failure m -> m = "boom");
            (* the pool survives a failed loop *)
            let a = Array.make 10 0 in
            Domain_pool.parallel_for pool ~lo:0 ~hi:10 (fun i -> a.(i) <- 1);
            checki "sum" 10 (Array.fold_left ( + ) 0 a)));
    Alcotest.test_case "map_array of an empty array calls nothing" `Quick
      (fun () ->
        with_pool 4 (fun pool ->
            checki "length" 0
              (Array.length
                 (Domain_pool.map_array pool (fun _ -> assert false) [||]))));
    Alcotest.test_case "parallel_chunks hands each domain its own worker \
                        index and whole chunks" `Quick (fun () ->
        List.iter
          (fun domains ->
            with_pool domains (fun pool ->
                (* per-worker partial counts, indexed by the worker the
                   body receives: race-free only if no two domains
                   share an index *)
                let n = 4000 in
                let partial = Array.make domains 0 in
                let seen = Array.make n (-1) in
                let calls = Atomic.make 0 and empty = Atomic.make 0 in
                (* Alcotest is not domain-safe: bodies only count *)
                Domain_pool.parallel_chunks ~chunk:7 pool ~lo:0 ~hi:n
                  (fun w clo chi ->
                    Atomic.incr calls;
                    if clo >= chi then Atomic.incr empty;
                    for i = clo to chi - 1 do
                      partial.(w) <- partial.(w) + 1;
                      seen.(i) <- w
                    done);
                checki "no empty chunk" 0 (Atomic.get empty);
                checki "partials cover the range" n
                  (Array.fold_left ( + ) 0 partial);
                checkb "worker indices in [0, size)" true
                  (Array.for_all (fun w -> w >= 0 && w < domains) seen);
                if domains = 1 then begin
                  checkb "a pool of one is worker 0" true
                    (Array.for_all (( = ) 0) seen);
                  checki "a pool of one makes one call" 1 (Atomic.get calls)
                end
                else checki "one call per chunk" ((n + 6) / 7) (Atomic.get calls)))
          [ 1; 4 ]);
    Alcotest.test_case "map_array preserves order" `Quick (fun () ->
        with_pool 4 (fun pool ->
            let xs = Array.init 100 string_of_int in
            let ys = Domain_pool.map_array pool int_of_string xs in
            Alcotest.(check (array int)) "order" (Array.init 100 Fun.id) ys));
    Alcotest.test_case "nested loops run inline instead of deadlocking"
      `Quick (fun () ->
        with_pool 4 (fun pool ->
            let a = Array.make 64 0 in
            Domain_pool.parallel_for pool ~lo:0 ~hi:8 (fun i ->
                Domain_pool.parallel_for pool ~lo:0 ~hi:8 (fun j ->
                    a.((i * 8) + j) <- 1));
            checki "all" 64 (Array.fold_left ( + ) 0 a)));
    Alcotest.test_case "an idle pool stops spinning" `Quick (fun () ->
        with_pool 2 (fun pool ->
            let ms = idle_cpu_ms pool in
            checkb (Printf.sprintf "%.1f ms of CPU over 50 ms idle" ms) true
              (ms < 10.)));
    Alcotest.test_case "a pool larger than the host never spins" `Quick
      (fun () ->
        with_pool (Stdlib.Domain.recommended_domain_count () + 1) (fun pool ->
            let ms = idle_cpu_ms pool in
            checkb (Printf.sprintf "%.1f ms of CPU over 50 ms idle" ms) true
              (ms < 10.)));
    Alcotest.test_case "two submitters, 10^5 tiny loops: every index once, \
                        first exception re-raised" `Quick (fun () ->
        (* the calling domain and one spawned submitter share a pool of
           two: at most three domains in all *)
        with_pool 2 (fun pool ->
            let loops = 50_000 and n = 4 in
            let submit () =
              let a = Array.make n 0 and raised = ref 0 in
              for l = 1 to loops do
                if l mod 1000 = 0 then
                  match
                    Domain_pool.parallel_for pool ~lo:0 ~hi:n (fun i ->
                        if i >= 2 then raise (Boom l))
                  with
                  | () -> ()
                  | exception Boom l' when l' = l -> incr raised
                else
                  Domain_pool.parallel_for pool ~lo:0 ~hi:n (fun i ->
                      a.(i) <- a.(i) + 1)
              done;
              (a, !raised)
            in
            let other = Stdlib.Domain.spawn submit in
            let mine = submit () in
            List.iter
              (fun (a, raised) ->
                checkb "every index once per loop" true
                  (Array.for_all (( = ) (loops - (loops / 1000))) a);
                checki "every failing loop raised" (loops / 1000) raised)
              [ mine; Stdlib.Domain.join other ]));
    Alcotest.test_case "shutdown of a spinning pool joins promptly" `Quick
      (fun () ->
        for _ = 1 to 20 do
          let pool = Domain_pool.create ~domains:2 in
          let a = Array.make 8 0 in
          Domain_pool.parallel_for pool ~lo:0 ~hi:8 (fun i -> a.(i) <- 1);
          (* the worker is still spinning on the next generation *)
          let t0 = Unix.gettimeofday () in
          Domain_pool.shutdown pool;
          let s = Unix.gettimeofday () -. t0 in
          checkb (Printf.sprintf "joined in %.3f s" s) true (s < 0.5);
          Domain_pool.parallel_for pool ~lo:0 ~hi:8 (fun i -> a.(i) <- 2);
          checki "runs inline after shutdown" 16 (Array.fold_left ( + ) 0 a)
        done);
    Alcotest.test_case "Progress: two domains hand a counter back and forth, \
                        spinning or blocking" `Quick (fun () ->
        (* [at_least p c v]: counter [c] has reached [v] *)
        let at_least (p, v) c = Progress.get p c >= v in
        List.iter
          (fun spins ->
            let p = Progress.create 2 in
            let rounds = 2000 in
            (* each side publishes round [i] once the other has *)
            let side me other () =
              for i = 0 to rounds - 1 do
                if me = 1 || i > 0 then
                  Progress.await p ~spins at_least (p, i - 1 + me) other;
                Progress.publish p me i
              done
            in
            let d = Stdlib.Domain.spawn (side 1 0) in
            side 0 1 ();
            Stdlib.Domain.join d;
            checki "first counter" (rounds - 1) (Progress.get p 0);
            checki "second counter" (rounds - 1) (Progress.get p 1);
            Progress.reset p;
            checki "reset" (-1) (Progress.get p 0))
          [ 0; 1000 ]);
    Alcotest.test_case "FT_NUM_DOMAINS and set_num_domains drive the global \
                        pool" `Quick (fun () ->
        Unix.putenv "FT_NUM_DOMAINS" "3";
        checki "env" 3 (Domain_pool.default_num_domains ());
        Unix.putenv "FT_NUM_DOMAINS" "not-a-number";
        checkb "fallback" true (Domain_pool.default_num_domains () >= 1);
        Unix.putenv "FT_NUM_DOMAINS" "";
        Domain_pool.set_num_domains (Some 2);
        checki "override" 2 (Domain_pool.num_domains ());
        checki "resized" 2 (Domain_pool.size (Domain_pool.get ()));
        Domain_pool.set_num_domains (Some 1);
        checki "shrunk" 1 (Domain_pool.size (Domain_pool.get ()));
        Domain_pool.set_num_domains None);
    Alcotest.test_case "Domain_pool.reset: teardown, then a concurrent \
                        submit burst re-initialises cleanly" `Quick (fun () ->
        (* The serving teardown pattern: the registry's pools are shut
           down, then several submitter domains hit the executor at
           once.  The pool must be rebuilt lazily exactly once and the
           concurrent whole-loop submissions serialize on the pool's
           internal mutex — every result bitwise-identical. *)
        let cfg =
          { Stacked_rnn.batch = 2; depth = 2; seq_len = 4; hidden = 8 }
        in
        let g = Build.build (Stacked_rnn.program cfg) in
        let binds =
          Stacked_rnn.bindings (Stacked_rnn.gen_inputs (Rng.create 5) cfg)
        in
        let opts =
          { Run_opts.default with Run_opts.domains = Some 2 }
        in
        let baseline = Executor.run ~opts g binds in
        Domain_pool.reset ();
        (* one prepared per submitter — a shared prepared must not be
           executed concurrently — all re-binding the re-created pool *)
        let prs = Array.init 4 (fun _ -> Executor.prepare ~opts g) in
        let workers =
          Array.map
            (fun pr ->
              Stdlib.Domain.spawn (fun () ->
                  (* a copy of each run: the next run overwrites the
                     prepared value's output cells *)
                  List.init 5 (fun _ ->
                      List.map
                        (fun (n, v) -> (n, Fractal.map_leaves Tensor.copy v))
                        (Executor.execute pr binds))))
            prs
        in
        let bitwise outs =
          List.for_all2
            (fun (n1, v1) (n2, v2) -> n1 = n2 && Fractal.equal_exact v1 v2)
            baseline outs
        in
        Array.iteri
          (fun w d ->
            List.iteri
              (fun i outs ->
                checkb
                  (Printf.sprintf "worker %d run %d bitwise" w i)
                  true (bitwise outs))
              (Stdlib.Domain.join d))
          workers;
        Domain_pool.reset ());
    Alcotest.test_case "the registry: a resize never shuts down a pool"
      `Quick (fun () ->
        Domain_pool.set_num_domains (Some 2);
        let two = Domain_pool.get () in
        Domain_pool.set_num_domains (Some 1);
        checki "resized" 1 (Domain_pool.size (Domain_pool.get ()));
        Domain_pool.set_num_domains (Some 2);
        checkb "back to the first pool" true (Domain_pool.get () == two);
        checkb "the sharded runner shares it" true
          (Dist.pool 2 == Domain_pool.get ());
        checkb "so does an explicit size" true (Domain_pool.sized 2 == two);
        Domain_pool.set_num_domains None);
    Alcotest.test_case "a prepared built before a resize runs bitwise = \
                        Interp" `Quick (fun () ->
        let cfg =
          { Stacked_rnn.batch = 2; depth = 2; seq_len = 4; hidden = 8 }
        in
        let p = Stacked_rnn.program cfg in
        let binds =
          Stacked_rnn.bindings (Stacked_rnn.gen_inputs (Rng.create 5) cfg)
        in
        Domain_pool.set_num_domains (Some 2);
        let two = Domain_pool.get () in
        let pr = Executor.prepare (Build.build p) in
        Domain_pool.set_num_domains (Some 1);
        ignore (Domain_pool.get ());
        let got = Executor.execute pr binds in
        Domain_pool.set_num_domains None;
        checkb "bitwise = Interp" true
          (match Oracles.value p got with
          | Some v -> Fractal.equal_exact v (Interp.run_program p binds)
          | None -> false);
        checkb "its pool is still registered" true
          (Domain_pool.sized 2 == two));
  ]

(* ---------------------------- bounded cache ------------------------- *)

let check_stats what (s : Bounded_cache.stats) ~hits ~misses ~evictions
    ~entries =
  checki (what ^ ": hits") hits s.Bounded_cache.hits;
  checki (what ^ ": misses") misses s.Bounded_cache.misses;
  checki (what ^ ": evictions") evictions s.Bounded_cache.evictions;
  checki (what ^ ": entries") entries s.Bounded_cache.entries

let bounded_cache_tests =
  [
    Alcotest.test_case "shared mode: one past the limit evicts the least \
                        recently used" `Quick (fun () ->
        let c = Bounded_cache.create ~limit:4 in
        List.iter (fun k -> Bounded_cache.put c k (k * 10)) [ 0; 1; 2; 3 ];
        Alcotest.(check (option int)) "hit" (Some 0) (Bounded_cache.find c 0);
        Alcotest.(check (option int)) "miss" None (Bounded_cache.find c 9);
        (* 1 is now the least recently used; peeking does not touch it *)
        Alcotest.(check (option int)) "peek" (Some 10) (Bounded_cache.peek c 1);
        Bounded_cache.put c 4 40;
        Alcotest.(check (option int)) "evicted" None (Bounded_cache.peek c 1);
        Alcotest.(check (list int)) "survivors" [ 0; 2; 3; 4 ]
          (List.sort compare (Bounded_cache.keys c));
        (* replacing a live key never evicts *)
        Bounded_cache.put c 4 41;
        check_stats "after put" (Bounded_cache.stats c) ~hits:1 ~misses:1
          ~evictions:1 ~entries:4;
        let made = ref 0 in
        let make v () = incr made; v in
        checki "find_or_add hit" 41 (Bounded_cache.find_or_add c 4 (make 0));
        checki "find_or_add miss" 50 (Bounded_cache.find_or_add c 5 (make 50));
        checki "made once" 1 !made;
        check_stats "after find_or_add" (Bounded_cache.stats c) ~hits:2
          ~misses:2 ~evictions:2 ~entries:4;
        Bounded_cache.clear c;
        check_stats "cleared" (Bounded_cache.stats c) ~hits:0 ~misses:0
          ~evictions:0 ~entries:0);
    Alcotest.test_case "exclusive mode: a checked-out entry survives \
                        eviction" `Quick (fun () ->
        let c = Bounded_cache.create ~limit:3 in
        List.iter (fun k -> Bounded_cache.put c k (ref k)) [ 0; 1; 2 ];
        let out = Option.get (Bounded_cache.take c 0) in
        checkb "not handed out twice" true (Bounded_cache.take c 0 = None);
        (* three new keys push both idle entries out *)
        List.iter (fun k -> Bounded_cache.put c k (ref k)) [ 3; 4; 5 ];
        checkb "idle entries evicted" true
          (Bounded_cache.peek c 1 = None && Bounded_cache.peek c 2 = None);
        Bounded_cache.put c 0 out;
        checkb "checked back in, the same entry" true
          (match Bounded_cache.peek c 0 with Some v -> v == out | None -> false);
        checkb "take_where finds it by value" true
          (match Bounded_cache.take_where c (fun _ v -> v == out) with
          | Some v -> v == out
          | None -> false);
        check_stats "exclusive" (Bounded_cache.stats c) ~hits:2 ~misses:1
          ~evictions:3 ~entries:2;
        checkb "a take_where miss" true
          (Bounded_cache.take_where c (fun k _ -> k = 99) = None);
        check_stats "is uncounted" (Bounded_cache.stats c) ~hits:2 ~misses:1
          ~evictions:3 ~entries:2);
  ]

let runtime_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:100
         ~name:"parallel_for chunking covers arbitrary (lo, hi, chunk)"
         QCheck2.Gen.(
           triple (int_range (-5) 50) (int_range 0 60) (int_range 1 70))
         (fun (lo, len, chunk) ->
           let hi = lo + len in
           with_pool 4 (fun pool ->
               let a = Array.make (Stdlib.max 1 len) 0 in
               Domain_pool.parallel_for ~chunk pool ~lo ~hi (fun i ->
                   let k = i - lo in
                   a.(k) <- a.(k) + 1);
               Array.fold_left ( + ) 0 a = len)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:50 ~name:"map_array equals Array.map"
         QCheck2.Gen.(array_size (int_range 0 300) (int_range (-1000) 1000))
         (fun xs ->
           let f x = (x * x) - (3 * x) in
           with_pool 4 (fun pool -> Domain_pool.map_array pool f xs)
           = Array.map f xs));
  ]

(* ------------------------------ plan cache ------------------------- *)

let prog () = Stacked_rnn.program Stacked_rnn.default

let mkdtemp () =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftplan-test-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir d 0o700;
  d

let rm_rf d =
  Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
  Unix.rmdir d

let with_disk_cache f =
  let d = mkdtemp () in
  Unix.putenv "FT_PLAN_CACHE" d;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "FT_PLAN_CACHE" "";
      rm_rf d)
    (fun () -> f d)

let ft_source =
  "program cachetest\n\
   input xs: [3]f32[1,4]\n\
   return xs.map { |x| x + x }\n"

let with_ft_file src f =
  let path = Filename.temp_file "cachetest" ".ft" in
  let oc = open_out path in
  output_string oc src;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let plan_cache_tests =
  [
    Alcotest.test_case "plan_cached: miss compiles, hit reuses" `Quick
      (fun () ->
        Pipeline.Cache.clear ();
        let p = prog () in
        let direct = Pipeline.plan p in
        let a = Pipeline.plan_cached p in
        let b = Pipeline.plan_cached p in
        let s = Pipeline.Cache.stats () in
        checki "misses" 1 s.Pipeline.Cache.misses;
        checki "hits" 1 s.Pipeline.Cache.hits;
        checkb "same plan object" true (a == b);
        checki "same kernels" (Plan.total_kernels direct) (Plan.total_kernels a));
    Alcotest.test_case "keys are option-sensitive" `Quick (fun () ->
        let p = prog () in
        checkb "programs" true
          (Pipeline.program_key p
          <> Pipeline.program_key (Stacked_rnn.program Stacked_rnn.paper));
        checkb "source text" true
          (Pipeline.source_key "a" <> Pipeline.source_key "b");
        checkb "deterministic" true
          (Pipeline.program_key p = Pipeline.program_key (prog ())));
    Alcotest.test_case "plan_file roundtrips through FT_PLAN_CACHE" `Quick
      (fun () ->
        with_disk_cache (fun dir ->
            with_ft_file ft_source (fun path ->
                Pipeline.Cache.clear ();
                let a = Pipeline.plan_file path in
                let s1 = Pipeline.Cache.stats () in
                checki "miss first" 1 s1.Pipeline.Cache.misses;
                checki "one entry on disk" 1 (Array.length (Sys.readdir dir));
                (* drop memory: the next call must load from disk *)
                Pipeline.Cache.clear ();
                let b = Pipeline.plan_file path in
                let s2 = Pipeline.Cache.stats () in
                checki "disk hit" 1 s2.Pipeline.Cache.disk_hits;
                checki "no recompile" 0 s2.Pipeline.Cache.misses;
                checki "same kernels" (Plan.total_kernels a)
                  (Plan.total_kernels b);
                (* now in memory again *)
                ignore (Pipeline.plan_file path);
                checki "memory hit" 1 (Pipeline.Cache.stats ()).Pipeline.Cache.hits)));
    Alcotest.test_case "corrupt disk entries recompile instead of failing"
      `Quick (fun () ->
        with_disk_cache (fun dir ->
            with_ft_file ft_source (fun path ->
                Pipeline.Cache.clear ();
                ignore (Pipeline.plan_file path);
                (* clobber the entry *)
                Array.iter
                  (fun f ->
                    let oc = open_out (Filename.concat dir f) in
                    output_string oc "not a marshalled plan";
                    close_out oc)
                  (Sys.readdir dir);
                Pipeline.Cache.clear ();
                ignore (Pipeline.plan_file path);
                let s = Pipeline.Cache.stats () in
                checki "recompiled" 1 s.Pipeline.Cache.misses;
                checki "no disk hit" 0 s.Pipeline.Cache.disk_hits)));
    Alcotest.test_case "truncated / version-skewed entries recompile" `Quick
      (fun () ->
        (* the corruption shapes the garbage-bytes test above misses: a
           file cut off inside the Marshal blob, and a valid blob whose
           version stamp is from another build.  Both must read as a
           miss — recompile, no crash — and the recompile must heal the
           disk entry. *)
        with_disk_cache (fun dir ->
            with_ft_file ft_source (fun path ->
                let entry () =
                  match Sys.readdir dir with
                  | [| f |] -> Filename.concat dir f
                  | fs ->
                      Alcotest.failf "expected one cache entry, found %d"
                        (Array.length fs)
                in
                let clobber bytes =
                  let oc = open_out_bin (entry ()) in
                  output_string oc bytes;
                  close_out oc;
                  Pipeline.Cache.clear ()
                in
                let expect_recompile what =
                  ignore (Pipeline.plan_file path);
                  let s = Pipeline.Cache.stats () in
                  checki (what ^ ": recompiled") 1 s.Pipeline.Cache.misses;
                  checki (what ^ ": no disk hit") 0
                    s.Pipeline.Cache.disk_hits
                in
                Pipeline.Cache.clear ();
                ignore (Pipeline.plan_file path);
                let whole =
                  let ic = open_in_bin (entry ()) in
                  let s = really_input_string ic (in_channel_length ic) in
                  close_in ic;
                  s
                in
                clobber (String.sub whole 0 5);
                expect_recompile "truncated";
                clobber (Marshal.to_string (999, "junk") []);
                expect_recompile "version skew";
                (* the recompile rewrote the entry: next cold read hits *)
                Pipeline.Cache.clear ();
                ignore (Pipeline.plan_file path);
                checki "healed entry hits" 1
                  (Pipeline.Cache.stats ()).Pipeline.Cache.disk_hits)));
    Alcotest.test_case "plan_file skips the parse on a memory hit" `Quick
      (fun () ->
        (* no disk cache here; contents-keyed, so a second file with the
           same source hits without ever being parsed *)
        Unix.putenv "FT_PLAN_CACHE" "";
        with_ft_file ft_source (fun p1 ->
            with_ft_file ft_source (fun p2 ->
                Pipeline.Cache.clear ();
                ignore (Pipeline.plan_file p1);
                ignore (Pipeline.plan_file p2);
                let s = Pipeline.Cache.stats () in
                checki "one compile" 1 s.Pipeline.Cache.misses;
                checki "one hit" 1 s.Pipeline.Cache.hits)));
    Alcotest.test_case "the plan cache keeps Cache.limit plans, evicting \
                        the least recently used" `Quick (fun () ->
        Unix.putenv "FT_PLAN_CACHE" "";
        Pipeline.Cache.clear ();
        let plan = Pipeline.plan (prog ()) in
        let limit = Pipeline.Cache.limit in
        let key i = Printf.sprintf "limit-%d" i in
        let get i = Pipeline.Cache.find_or_compile (key i) (fun () -> plan) in
        for i = 0 to limit - 1 do
          ignore (get i)
        done;
        ignore (get 0);
        ignore (get limit);
        checkb "the touched plan stays" true (Pipeline.Cache.mem (key 0));
        checkb "the least recently used goes" false
          (Pipeline.Cache.mem (key 1));
        checkb "the newest is in" true (Pipeline.Cache.mem (key limit));
        let s = Pipeline.Cache.stats () in
        checki "hits" 1 s.Pipeline.Cache.hits;
        checki "misses" (limit + 1) s.Pipeline.Cache.misses;
        checki "evictions" 1 s.Pipeline.Cache.evictions;
        Pipeline.Cache.clear ());
    Alcotest.test_case "a failed disk write compiles, counts a miss and \
                        leaves no temp file" `Quick (fun () ->
        with_disk_cache (fun dir ->
            with_ft_file ft_source (fun path ->
                (* a directory where the entry goes: the rename fails *)
                let src = In_channel.with_open_bin path In_channel.input_all in
                let entry =
                  Option.get (Pipeline.Cache.path (Pipeline.source_key src))
                in
                Unix.mkdir entry 0o700;
                Fun.protect
                  ~finally:(fun () -> Unix.rmdir entry)
                  (fun () ->
                    Pipeline.Cache.clear ();
                    let plan = Pipeline.plan_file path in
                    checki "compiled"
                      (Plan.total_kernels (Pipeline.plan (Parse.program src)))
                      (Plan.total_kernels plan);
                    let s = Pipeline.Cache.stats () in
                    checki "one miss" 1 s.Pipeline.Cache.misses;
                    checki "no disk hit" 0 s.Pipeline.Cache.disk_hits;
                    checkb "nothing but the directory is left" true
                      (Sys.readdir dir = [| Filename.basename entry |])))));
  ]

let suites =
  [
    ("runtime", runtime_tests @ runtime_props);
    ("bounded-cache", bounded_cache_tests);
    ("plan-cache", plan_cache_tests);
  ]
