(* The tuner's front door: wire a program to a space, an oracle and a
   strategy, run the search, persist the winner. *)

type oracle_kind = Sim | Measure

let oracle_kind_name = function Sim -> "sim" | Measure -> "measure"

let oracle_kind_of_name = function
  | "sim" -> Some Sim
  | "measure" -> Some Measure
  | _ -> None

type report = {
  rp_program : string;
  rp_key : string;
  rp_device : Device.t;
  rp_oracle : oracle_kind;
  rp_space : Knobs.space;
  rp_result : Search.result;
  rp_db_path : string option;  (** where the record persisted, if disk *)
}

(* Random inputs from a program's declared types (the same shapes ftc
   run uses; the seed is fixed so measured costs are comparable across
   candidates). *)
let rec random_value rng (ty : Expr.ty) : Fractal.t =
  match ty with
  | Expr.Tensor_ty s -> Fractal.Leaf (Tensor.scale 0.3 (Tensor.rand rng s))
  | Expr.List_ty (n, inner) ->
      Fractal.tabulate n (fun _ -> random_value rng inner)
  | Expr.Tuple_ty ts ->
      Fractal.Node (Array.of_list (List.map (random_value rng) ts))

(* Measured cost of one candidate, in milliseconds: simulated device
   time of the candidate's plan plus wall-clock of the compiled
   executor running the graph in wavefront order under the candidate's
   chunk knob.  The simulator reacts to the tile/collapse knobs, the
   executor to the chunk knob; their sum makes every axis observable.
   Preparation (lowering, arena layout) happens outside the timed
   region — the knob under test governs the steady state, not the
   one-time compile. *)
let measure_runner ~device ~plan_of ~graph ~env (c : Knobs.candidate) =
  let sim_ms = Executor.time_ms ~device (plan_of c) in
  let tile = c.Knobs.c_tile in
  let pr = Executor.prepare ~opts:(Run_opts.with_tile tile Run_opts.default) graph in
  let t0 = Unix.gettimeofday () in
  ignore (Executor.execute pr env);
  let vm_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  sim_ms +. vm_ms

let tune ?(device = Device.a100) ?(seed = 2024) ?(strategy = Search.Grid)
    ?(budget = 32) ?(oracle = Sim) ~key (p : Expr.program) =
  let base_plan = Pipeline.plan p in
  let space = Knobs.of_plan ~device base_plan in
  let plan_of (c : Knobs.candidate) =
    Pipeline.plan ~verify:false ~collapse_reuse:c.Knobs.c_collapse
      ~tile:c.Knobs.c_tile p
  in
  let orc =
    match oracle with
    | Sim -> Cost_oracle.analytical ~device plan_of
    | Measure ->
        let graph = Build.build p in
        let rng = Rng.create seed in
        let env =
          List.map (fun (x, t) -> (x, random_value rng t)) p.Expr.inputs
        in
        Cost_oracle.measured (measure_runner ~device ~plan_of ~graph ~env)
  in
  let result = Search.run ~seed strategy ~budget space orc in
  let best = result.Search.r_best in
  let dev_digest = Tune_db.device_digest device in
  Tune_db.store
    {
      Tune_db.tr_key = key;
      tr_device = dev_digest;
      tr_tile = best.Search.e_candidate.Knobs.c_tile;
      tr_collapse = best.Search.e_candidate.Knobs.c_collapse;
      tr_cost = best.Search.e_cost;
      tr_oracle = Cost_oracle.name orc;
      tr_strategy = Search.strategy_name strategy;
      tr_budget = budget;
      tr_seed = seed;
    };
  {
    rp_program = p.Expr.name;
    rp_key = key;
    rp_device = device;
    rp_oracle = oracle;
    rp_space = space;
    rp_result = result;
    rp_db_path = Tune_db.entry_path ~key ~device:dev_digest;
  }

let tune_program ?device ?seed ?strategy ?budget ?oracle (p : Expr.program) =
  tune ?device ?seed ?strategy ?budget ?oracle ~key:(Pipeline.program_key p) p

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let tune_file ?device ?seed ?strategy ?budget ?oracle path =
  let src = read_file path in
  let p = Parse.program src in
  ignore (Typecheck.check_program p);
  tune ?device ?seed ?strategy ?budget ?oracle ~key:(Pipeline.source_key src) p

(* ----------------------------- reports ----------------------------- *)

let config_to_jsonv (c : Knobs.candidate) =
  let t = c.Knobs.c_tile in
  Jsonw.Obj
    [
      ( "tiles",
        Jsonw.List
          (List.map
             (fun (blk, (tl : Tile.tiles)) ->
               Jsonw.Obj
                 [
                   ("block", Jsonw.String blk);
                   ("tile_m", Jsonw.Int tl.Tile.t_m);
                   ("tile_n", Jsonw.Int tl.Tile.t_n);
                   ("tile_k", Jsonw.Int tl.Tile.t_k);
                 ])
             t.Tile.cfg_tiles) );
      ("elem_chunk", Jsonw.Int t.Tile.cfg_elem_chunk);
      ("vm_chunk", Jsonw.Int t.Tile.cfg_vm_chunk);
      ("fuse", Jsonw.Bool t.Tile.cfg_fuse);
      ("collapse_reuse", Jsonw.Bool c.Knobs.c_collapse);
      ("pretty", Jsonw.String (Knobs.to_string c));
    ]

let report_to_jsonv (r : report) =
  let res = r.rp_result in
  let default_cost = res.Search.r_default.Search.e_cost in
  let best_cost = res.Search.r_best.Search.e_cost in
  Jsonw.Obj
    [
      ("program", Jsonw.String r.rp_program);
      ("key", Jsonw.String r.rp_key);
      ("device", Jsonw.String r.rp_device.Device.name);
      ("oracle", Jsonw.String (oracle_kind_name r.rp_oracle));
      ("strategy", Jsonw.String (Search.strategy_name res.Search.r_strategy));
      ("seed", Jsonw.Int res.Search.r_seed);
      ("budget", Jsonw.Int res.Search.r_budget);
      ("evaluations", Jsonw.Int (List.length res.Search.r_evals));
      ("space_sites", Jsonw.Int (List.length r.rp_space.Knobs.s_sites));
      ("space_cardinality", Jsonw.Int (Knobs.cardinality r.rp_space));
      ("default_cost", Jsonw.Float default_cost);
      ("best_cost", Jsonw.Float best_cost);
      ( "speedup",
        Jsonw.Float (if best_cost > 0. then default_cost /. best_cost else 1.)
      );
      ("best_config", config_to_jsonv res.Search.r_best.Search.e_candidate);
      ( "trajectory",
        Jsonw.List
          (List.map
             (fun (e : Search.eval) ->
               Jsonw.Obj
                 [
                   ("eval", Jsonw.Int e.Search.e_index);
                   ("cost", Jsonw.Float e.Search.e_cost);
                   ( "config",
                     Jsonw.String (Knobs.to_string e.Search.e_candidate) );
                 ])
             res.Search.r_evals) );
      ( "db_path",
        match r.rp_db_path with
        | Some p -> Jsonw.String p
        | None -> Jsonw.Null );
    ]

let report_to_text (r : report) =
  let b = Buffer.create 512 in
  let res = r.rp_result in
  let default_cost = res.Search.r_default.Search.e_cost in
  let best = res.Search.r_best in
  Printf.bprintf b "program:  %s\n" r.rp_program;
  Printf.bprintf b "key:      %s\n" r.rp_key;
  Printf.bprintf b "device:   %s\n" r.rp_device.Device.name;
  Printf.bprintf b "space:    %d gemm site(s), %d lattice points\n"
    (List.length r.rp_space.Knobs.s_sites)
    (Knobs.cardinality r.rp_space);
  Printf.bprintf b "search:   %s, oracle %s, budget %d, seed %d\n"
    (Search.strategy_name res.Search.r_strategy)
    (oracle_kind_name r.rp_oracle) res.Search.r_budget res.Search.r_seed;
  Printf.bprintf b "evals:    %d (distinct configurations)\n"
    (List.length res.Search.r_evals);
  Printf.bprintf b "default:  %.3f\n" default_cost;
  Printf.bprintf b "best:     %.3f  (%.2fx)  %s\n" best.Search.e_cost
    (if best.Search.e_cost > 0. then default_cost /. best.Search.e_cost
     else 1.)
    (Knobs.to_string best.Search.e_candidate);
  Buffer.add_string b "trajectory:\n";
  List.iter
    (fun (e : Search.eval) ->
      Printf.bprintf b "  %3d  %12.3f  %s\n" e.Search.e_index e.Search.e_cost
        (Knobs.to_string e.Search.e_candidate))
    res.Search.r_evals;
  (match r.rp_db_path with
  | Some p -> Printf.bprintf b "db:       %s\n" p
  | None ->
      Printf.bprintf b "db:       in-memory only (set %s to persist)\n"
        Tune_db.env_var);
  Buffer.contents b
