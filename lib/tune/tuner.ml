(* The tuner's front door: wire a program to a space and the simulator's
   time, run the search, persist the winner. *)

type report = {
  rp_program : string;
  rp_key : string;
  rp_device : Device.t;
  rp_space : Knobs.space;
  rp_result : Search.result;
  rp_db_path : string option;  (** where the record persisted, if disk *)
}

let tune ?(device = Device.a100) ?(budget = 32) ~key (p : Expr.program) =
  let base_plan = Pipeline.plan p in
  let space = Knobs.of_plan ~device base_plan in
  let plan_of tile = Pipeline.plan ~verify:false ~tile p in
  let result =
    Search.run ~budget space (fun c -> Executor.time_us ~device (plan_of c))
  in
  let best = result.Search.r_best in
  let dev_digest = Tune_db.device_digest device in
  Tune_db.store
    {
      Tune_db.tr_key = key;
      tr_device = dev_digest;
      tr_tile = best.Search.e_candidate;
      tr_cost = best.Search.e_cost;
      tr_budget = budget;
    };
  {
    rp_program = p.Expr.name;
    rp_key = key;
    rp_device = device;
    rp_space = space;
    rp_result = result;
    rp_db_path = Tune_db.Db.path (Tune_db.entry_key ~key ~device:dev_digest);
  }

let tune_program ?device ?budget (p : Expr.program) =
  tune ?device ?budget ~key:(Pipeline.program_key p) p

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let tune_file ?device ?budget path =
  let src = read_file path in
  let p = Parse.program src in
  ignore (Typecheck.check_program p);
  tune ?device ?budget ~key:(Pipeline.source_key src) p

(* ----------------------------- reports ----------------------------- *)

(* Every cost is model output; reports say so next to the numbers. *)
let cost_unit r = Printf.sprintf "modelled %s µs" r.rp_device.Device.name

let config_to_jsonv (t : Knobs.candidate) =
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
      ("pretty", Jsonw.String (Knobs.to_string t));
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
      ("cost_unit", Jsonw.String (cost_unit r));
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
  Printf.bprintf b "search:   coordinate descent, budget %d\n"
    res.Search.r_budget;
  Printf.bprintf b "cost:     %s\n" (cost_unit r);
  Printf.bprintf b "evals:    %d (distinct configurations)\n"
    (List.length res.Search.r_evals);
  Printf.bprintf b "default:  %.3f µs\n" default_cost;
  Printf.bprintf b "best:     %.3f µs  (%.2fx)  %s\n" best.Search.e_cost
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
        Tune_db.Db.env_var);
  Buffer.contents b
