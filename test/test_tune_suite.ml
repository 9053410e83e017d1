(* The auto-tuner: knob-space validity, cost-model monotonicity,
   search determinism and the tuning database.  The QCheck properties
   are the contract the tuner's reproducibility rests on — a sampled
   point must satisfy its own constraints, the analytical model must
   not reward shrinking a problem, and a fixed (seed, budget, strategy)
   must pick the identical configuration every time. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* The demo program with a per-cell GEMM fat enough that tile choices
   move the analytical cost (the recurrent examples' per-cell matmuls
   are vector-sized, where the default rightly wins). *)
let ffn_src =
  "program ffn_block\n\
   input xs: [4]f32[256,512]\n\
   input w: f32[512,512]\n\
   return xs.map { |x| x @ w }\n"

let ffn_program = lazy (Parse.program ffn_src)

let ffn_space =
  lazy
    (let p = Lazy.force ffn_program in
     ignore (Typecheck.check_program p);
     Knobs.of_plan (Pipeline.plan p))

let ffn_oracle () =
  let p = Lazy.force ffn_program in
  Cost_oracle.analytical (fun c ->
      Pipeline.plan ~verify:false ~collapse_reuse:c.Knobs.c_collapse
        ~tile:c.Knobs.c_tile p)

(* ---------------------------------------------------------------- *)
(* Tile arithmetic: partial edge tiles must be charged, not dropped. *)

let edge_tiles () =
  checki "ceil_div exact" 2 (Tile.ceil_div 128 64);
  checki "ceil_div partial" 3 (Tile.ceil_div 129 64);
  checki "ceil_div tiny" 1 (Tile.ceil_div 1 64);
  (* 65x65 under 64x64 tiles: 2x2 task grid, not 1x1 *)
  checki "edge tasks" 4 (Tile.gemm_tasks ~tile_m:64 ~tile_n:64 ~m:65 ~n:65 ());
  (* n=1 clamps the tile to the dim: one block along n *)
  checki "clamped tasks" 2
    (Tile.gemm_tasks ~tile_m:64 ~tile_n:64 ~m:65 ~n:1 ());
  (* an extra row of edge tiles costs strictly more staged traffic *)
  let b m = Tile.gemm_l1_bytes ~tile_m:64 ~tile_n:64 ~m ~n:256 ~k:256 () in
  checkb "edge l1 bytes grow" true (b 65 > b 64);
  let t = { Tile.t_m = 64; t_n = 64; t_k = 32 } in
  checkb "tile tasks ceil" true (Tile.gemm_tile_tasks t ~m:65 ~n:65 = 4);
  checkb "tile l1 bytes grow" true
    (Tile.gemm_tile_l1_bytes t ~m:65 ~n:256 ~k:256
    > Tile.gemm_tile_l1_bytes t ~m:64 ~n:256 ~k:256)

let smem_validity () =
  let fits = { Tile.t_m = 16; t_n = 16; t_k = 16 } in
  checkb "small tile valid" true (Tile.valid_tiles fits);
  (* 4 * (256*256 + 256*256 + 256*256) = 768 KiB >> 192 KiB *)
  let huge = { Tile.t_m = 256; t_n = 256; t_k = 256 } in
  checkb "huge tile invalid" false (Tile.valid_tiles huge);
  (* ...but clamped to a tiny problem it fits *)
  checkb "clamped huge valid" true
    (Tile.valid_tiles ~m:16 ~n:16 ~k:16 huge);
  checkb "misaligned invalid" false
    (Tile.valid_tiles { Tile.t_m = 48; t_n = 17; t_k = 16 })

(* ---------------------------------------------------------------- *)
(* Knob space: sampled and mutated points satisfy their constraints. *)

let sampled_points_valid =
  QCheck2.Test.make ~count:200 ~name:"sampled points satisfy constraints"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let sp = Lazy.force ffn_space in
      let rng = Rng.create seed in
      let pt = Knobs.sample_point sp rng in
      Knobs.valid_point sp pt
      && Knobs.valid sp (Knobs.decode sp pt)
      && Array.length pt = Array.length (Knobs.axes sp))

let mutated_points_valid =
  QCheck2.Test.make ~count:200 ~name:"mutated points stay valid"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let sp = Lazy.force ffn_space in
      let rng = Rng.create seed in
      let pt = Knobs.sample_point sp rng in
      let pt' = Knobs.mutate sp rng pt in
      Knobs.valid_point sp pt'
      && Knobs.valid_point sp (Knobs.crossover rng pt pt'))

let default_point_is_default () =
  let sp = Lazy.force ffn_space in
  let c = Knobs.decode sp (Knobs.default_point sp) in
  checkb "all-zeros decodes to untuned" true (Tile.is_default c.Knobs.c_tile);
  checkb "collapse on by default" true c.Knobs.c_collapse;
  checks "prints as default" "default" (Knobs.to_string c);
  (* one axis per tile site, then the two global axes the device
     model prices: elementwise chunk and reuse collapsing *)
  let n_sites = List.length sp.Knobs.s_sites in
  checki "one axis per site plus two global axes" (n_sites + 2)
    (Array.length (Knobs.axes sp));
  let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
  checki "cardinality covers the grid"
    (pow (List.length sp.Knobs.s_tiles + 1) n_sites
    * List.length sp.Knobs.s_elem_chunks
    * List.length sp.Knobs.s_collapse)
    (Knobs.cardinality sp)

(* ---------------------------------------------------------------- *)
(* Analytical model: weakly monotone in problem size at fixed tiles. *)

let cost_monotone =
  let gen =
    QCheck2.Gen.(
      let* m = int_range 1 32 in
      let* n = int_range 1 32 in
      let* k = int_range 1 32 in
      let* tiles =
        oneofl
          [
            None;
            Some { Tile.t_m = 16; t_n = 16; t_k = 16 };
            Some { Tile.t_m = 64; t_n = 64; t_k = 32 };
            Some { Tile.t_m = 128; t_n = 128; t_k = 32 };
          ]
      in
      return (16 * m, 16 * n, 16 * k, tiles))
  in
  QCheck2.Test.make ~count:200
    ~name:"gemm cost monotone in m/n/k at fixed tiles" gen
    (fun (m, n, k, tiles) ->
      let c ~m ~n ~k = Cost_oracle.gemm_cost ~tiles ~m ~n ~k () in
      let base = c ~m ~n ~k in
      base <= c ~m:(m + 16) ~n ~k
      && base <= c ~m ~n:(n + 16) ~k
      && base <= c ~m ~n ~k:(k + 16))

(* ---------------------------------------------------------------- *)
(* Search: determinism, budget respect, best never worse than default. *)

let trajectory r =
  List.map
    (fun e -> (e.Search.e_index, Knobs.point_key e.Search.e_point, e.Search.e_cost))
    r.Search.r_evals

let search_deterministic () =
  let sp = Lazy.force ffn_space in
  List.iter
    (fun strat ->
      let run () = Search.run ~seed:7 strat ~budget:12 sp (ffn_oracle ()) in
      let a = run () and b = run () in
      checkb
        (Search.strategy_name strat ^ " trajectory identical")
        true
        (trajectory a = trajectory b);
      checks
        (Search.strategy_name strat ^ " best point identical")
        (Knobs.point_key a.Search.r_best.Search.e_point)
        (Knobs.point_key b.Search.r_best.Search.e_point);
      checkb
        (Search.strategy_name strat ^ " best cost identical")
        true
        (a.Search.r_best.Search.e_cost = b.Search.r_best.Search.e_cost))
    [ Search.Grid; Search.Greedy; Search.Evolve ]

let search_contract () =
  let sp = Lazy.force ffn_space in
  List.iter
    (fun strat ->
      let r = Search.run ~seed:2024 strat ~budget:16 sp (ffn_oracle ()) in
      let n = Search.strategy_name strat in
      checkb (n ^ " respects budget") true (List.length r.Search.r_evals <= 16);
      checkb (n ^ " default is eval 0") true
        (r.Search.r_default.Search.e_index = 0);
      checkb (n ^ " default point is all zeros") true
        (Array.for_all (( = ) 0) r.Search.r_default.Search.e_point);
      checkb
        (n ^ " best <= default")
        true
        (r.Search.r_best.Search.e_cost <= r.Search.r_default.Search.e_cost))
    [ Search.Grid; Search.Greedy; Search.Evolve ];
  (* the FFN space has a real win, so the search must actually find
     something strictly better than untuned *)
  let r = Search.run ~seed:2024 Search.Greedy ~budget:32 sp (ffn_oracle ()) in
  checkb "greedy finds a strict win on ffn" true
    (r.Search.r_best.Search.e_cost < r.Search.r_default.Search.e_cost)

let tuner_deterministic () =
  let p = Lazy.force ffn_program in
  let t () =
    Tuner.tune_program ~seed:11 ~strategy:Search.Evolve ~budget:10 p
  in
  let a = t () and b = t () in
  checks "tuner picks identical config"
    (Knobs.to_string a.Tuner.rp_result.Search.r_best.Search.e_candidate)
    (Knobs.to_string b.Tuner.rp_result.Search.r_best.Search.e_candidate);
  checkb "tuner costs identical" true
    (trajectory a.Tuner.rp_result = trajectory b.Tuner.rp_result)

(* ---------------------------------------------------------------- *)
(* Tuning database: roundtrip, monotone store, corruption = miss.    *)

let with_db_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftune-test-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.putenv Tune_db.env_var dir;
  Tune_db.clear_memory ();
  ignore (Tune_db.clear_disk ());
  Fun.protect
    ~finally:(fun () ->
      ignore (Tune_db.clear_disk ());
      Tune_db.clear_memory ();
      Unix.putenv Tune_db.env_var "";
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let sample_record ~cost =
  {
    Tune_db.tr_key = "deadbeef";
    tr_device = Tune_db.device_digest Device.a100;
    tr_tile =
      {
        Tile.default_config with
        Tile.cfg_tiles = [ ("blk", { Tile.t_m = 64; t_n = 64; t_k = 32 }) ];
      };
    tr_collapse = true;
    tr_cost = cost;
    tr_strategy = "greedy";
    tr_budget = 8;
    tr_seed = 2024;
  }

let db_roundtrip () =
  with_db_dir (fun _dir ->
      let device = Tune_db.device_digest Device.a100 in
      checkb "starts empty" true
        (Tune_db.lookup ~key:"deadbeef" ~device = None);
      Tune_db.store (sample_record ~cost:10.0);
      checki "one disk entry" 1 (List.length (Tune_db.disk_entries ()));
      (* drop memory: the disk copy must answer *)
      Tune_db.clear_memory ();
      (match Tune_db.lookup ~key:"deadbeef" ~device with
      | Some r ->
          checkb "disk roundtrip cost" true (r.Tune_db.tr_cost = 10.0);
          checkb "disk roundtrip tile" true
            (Tile.tiles_for r.Tune_db.tr_tile "blk"
            = Some { Tile.t_m = 64; t_n = 64; t_k = 32 })
      | None -> Alcotest.fail "disk entry not found after clear_memory");
      (* store is monotone: a worse record must not replace a better *)
      Tune_db.store (sample_record ~cost:50.0);
      (match Tune_db.lookup ~key:"deadbeef" ~device with
      | Some r -> checkb "worse record rejected" true (r.Tune_db.tr_cost = 10.0)
      | None -> Alcotest.fail "record vanished");
      Tune_db.store (sample_record ~cost:2.0);
      match Tune_db.lookup ~key:"deadbeef" ~device with
      | Some r -> checkb "better record kept" true (r.Tune_db.tr_cost = 2.0)
      | None -> Alcotest.fail "record vanished")

let db_corruption_is_miss () =
  with_db_dir (fun dir ->
      let device = Tune_db.device_digest Device.a100 in
      Tune_db.store (sample_record ~cost:10.0);
      let path =
        match Tune_db.entry_path ~key:"deadbeef" ~device with
        | Some p -> p
        | None -> Alcotest.fail "no entry path with FT_TUNE_DB set"
      in
      let oc = open_out_bin path in
      output_string oc "not a marshal blob";
      close_out oc;
      Tune_db.clear_memory ();
      checkb "corrupt entry reads as miss" true
        (Tune_db.lookup ~key:"deadbeef" ~device = None);
      (* unrelated garbage in the directory is ignored too *)
      let stray = Filename.concat dir "stray.txt" in
      let oc = open_out stray in
      close_out oc;
      checkb "stray file not listed" true
        (not (List.mem "stray.txt" (Tune_db.disk_entries ())));
      Sys.remove stray)

(* The two corruption shapes the blanket test above does not reach:
   a file cut off mid-blob, and a well-formed Marshal blob whose
   version stamp is from a different build.  Both must read as a
   miss, and a subsequent store must recover the entry. *)
let db_truncated_and_version_skew () =
  with_db_dir (fun _dir ->
      let device = Tune_db.device_digest Device.a100 in
      let entry () =
        match Tune_db.entry_path ~key:"deadbeef" ~device with
        | Some p -> p
        | None -> Alcotest.fail "no entry path with FT_TUNE_DB set"
      in
      let clobber bytes =
        let oc = open_out_bin (entry ()) in
        output_string oc bytes;
        close_out oc;
        Tune_db.clear_memory ()
      in
      (* truncated: keep only the first 4 bytes of a real entry *)
      Tune_db.store (sample_record ~cost:10.0);
      let whole =
        let ic = open_in_bin (entry ()) in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      clobber (String.sub whole 0 (Stdlib.min 4 (String.length whole)));
      checkb "truncated entry reads as miss" true
        (Tune_db.lookup ~key:"deadbeef" ~device = None);
      (* version skew: a valid blob stamped with a bogus version *)
      clobber (Marshal.to_string (999, "junk") []);
      checkb "version-skewed entry reads as miss" true
        (Tune_db.lookup ~key:"deadbeef" ~device = None);
      (* a fresh store overwrites the bad entry and reads back *)
      Tune_db.store (sample_record ~cost:3.0);
      Tune_db.clear_memory ();
      match Tune_db.lookup ~key:"deadbeef" ~device with
      | Some r -> checkb "recovered" true (r.Tune_db.tr_cost = 3.0)
      | None -> Alcotest.fail "store did not recover a corrupt entry")

(* The in-memory table keeps Tune_db.limit records, the least recently
   used going first; memory only, so no disk entry answers a miss. *)
let db_at_limit () =
  Unix.putenv Tune_db.env_var "";
  Tune_db.clear_memory ();
  let device = Tune_db.device_digest Device.a100 in
  let key i = Printf.sprintf "limit-%d" i in
  let store i =
    Tune_db.store { (sample_record ~cost:1.0) with Tune_db.tr_key = key i }
  in
  let found i = Tune_db.lookup ~key:(key i) ~device <> None in
  for i = 0 to Tune_db.limit - 1 do
    store i
  done;
  checkb "hit" true (found 0);
  store Tune_db.limit;
  checkb "the least recently used goes" false (found 1);
  checkb "the touched record stays" true (found 0);
  checkb "the newest is in" true (found Tune_db.limit);
  let s = Tune_db.stats () in
  checki "hits" 3 s.Tune_db.hits;
  checki "misses" 1 s.Tune_db.misses;
  checki "disk hits" 0 s.Tune_db.disk_hits;
  checki "stores" (Tune_db.limit + 1) s.Tune_db.stores;
  checki "evictions" 1 s.Tune_db.evictions;
  Tune_db.clear_memory ()

(* ---------------------------------------------------------------- *)
(* Pipeline plumbing: tile configs key the cache; defaults unchanged. *)

let tile_keys () =
  let p = Lazy.force ffn_program in
  let custom =
    {
      Tile.default_config with
      Tile.cfg_tiles = [ ("ffn_block.region0", { Tile.t_m = 16; t_n = 64; t_k = 16 }) ];
    }
  in
  let k_default = Pipeline.program_key p in
  checks "default tile = implicit key" k_default
    (Pipeline.program_key ~tile:Tile.default_config p);
  checkb "custom tile changes the key" true
    (k_default <> Pipeline.program_key ~tile:custom p);
  (* the default-config plan is bitwise what the untiled path emits *)
  let digest pl = Digest.to_hex (Digest.string (Marshal.to_string pl [])) in
  checks "default tile plan identical" (digest (Pipeline.plan p))
    (digest (Pipeline.plan ~tile:Tile.default_config p));
  (* a tuned tile config actually lowers the analytical cost on ffn *)
  let c_default = Cost_oracle.plan_cost (Pipeline.plan p) in
  let c_tuned = Cost_oracle.plan_cost (Pipeline.plan ~tile:custom p) in
  checkb "tuned plan cheaper on ffn" true (c_tuned < c_default)

let suites =
  [
    ( "tune",
      [
        Alcotest.test_case "edge tiles use ceiling division" `Quick edge_tiles;
        Alcotest.test_case "tile validity: alignment + smem" `Quick
          smem_validity;
        QCheck_alcotest.to_alcotest sampled_points_valid;
        QCheck_alcotest.to_alcotest mutated_points_valid;
        Alcotest.test_case "default point decodes to untuned" `Quick
          default_point_is_default;
        QCheck_alcotest.to_alcotest cost_monotone;
        Alcotest.test_case "search deterministic under fixed seed" `Quick
          search_deterministic;
        Alcotest.test_case "search contract: budget, default, best" `Quick
          search_contract;
        Alcotest.test_case "tuner end-to-end deterministic" `Quick
          tuner_deterministic;
        Alcotest.test_case "db roundtrip + monotone store" `Quick db_roundtrip;
        Alcotest.test_case "db corruption reads as miss" `Quick
          db_corruption_is_miss;
        Alcotest.test_case "db truncation / version skew read as miss" `Quick
          db_truncated_and_version_skew;
        Alcotest.test_case "db keeps Tune_db.limit records, evicting the \
                            least recently used" `Quick db_at_limit;
        Alcotest.test_case "tile configs key the plan cache" `Quick tile_keys;
      ] );
  ]
