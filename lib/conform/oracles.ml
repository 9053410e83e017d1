type outcome =
  | Value of Fractal.t
  | Held
  | Unsupported of string
  | Skipped of string
  | Failed of string

type run = { r_oracle : string; r_outcome : outcome; r_wall_ms : float }

let all_oracles =
  [ "interp"; "compiled-seq"; "shadow"; "tuned"; "cache-rt"; "compiled";
    "compiled2"; "compiled4"; "compiled-nofuse";
    "sharded2"; "sharded4"; "serve" ]

(* ---------------------------------------------------------------- *)
(* Context: private cache/tune directories                           *)
(* ---------------------------------------------------------------- *)

type ctx = {
  cx_oracles : string list;
  cx_cache_dir : string;
  cx_tune_dir : string;
  cx_prev_cache : string option;
  cx_prev_tune : string option;
  mutable cx_closed : bool;
}

let dir_counter = ref 0

let fresh_dir tag =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftconform-%d-%d-%s" (Unix.getpid ()) !dir_counter tag)
  in
  (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let remove_dir d =
  if Sys.file_exists d && Sys.is_directory d then (
    Array.iter (fun f -> try Sys.remove (Filename.concat d f) with _ -> ())
      (Sys.readdir d);
    try Unix.rmdir d with _ -> ())

let create ?(oracles = all_oracles) () =
  List.iter
    (fun o ->
      if not (List.mem o all_oracles) then
        invalid_arg (Printf.sprintf "Oracles.create: unknown oracle %S" o))
    oracles;
  let prev_cache = Sys.getenv_opt Pipeline.Cache.env_var in
  let prev_tune = Sys.getenv_opt Tune_db.Db.env_var in
  let cache_dir = fresh_dir "cache" in
  let tune_dir = fresh_dir "tune" in
  Unix.putenv Pipeline.Cache.env_var cache_dir;
  Unix.putenv Tune_db.Db.env_var tune_dir;
  (* a fresh context must not inherit plans or tunings from earlier
     runs in the same process *)
  Pipeline.Cache.clear ();
  Tune_db.Db.clear ();
  {
    cx_oracles = oracles;
    cx_cache_dir = cache_dir;
    cx_tune_dir = tune_dir;
    cx_prev_cache = prev_cache;
    cx_prev_tune = prev_tune;
    cx_closed = false;
  }

let selected ctx = ctx.cx_oracles

let close ctx =
  if not ctx.cx_closed then (
    ctx.cx_closed <- true;
    remove_dir ctx.cx_cache_dir;
    remove_dir ctx.cx_tune_dir;
    Unix.putenv Pipeline.Cache.env_var
      (Option.value ctx.cx_prev_cache ~default:"");
    Unix.putenv Tune_db.Db.env_var (Option.value ctx.cx_prev_tune ~default:"");
    Pipeline.Cache.clear ();
    Tune_db.Db.clear ())

(* ---------------------------------------------------------------- *)
(* Projection: raw engine output -> interpreter view                 *)
(* ---------------------------------------------------------------- *)

let rec project_expr (e : Expr.t) (v : Fractal.t) =
  match e with
  | Expr.Let (_, _, e2) -> project_expr e2 v
  | Expr.Soac { kind; fn; _ } -> (
      match kind with
      | Expr.Foldl | Expr.Reduce ->
          project_expr fn.Expr.body (Fractal.get v (Fractal.length v - 1))
      | Expr.Foldr ->
          (* a right fold finishes at storage index 0 *)
          project_expr fn.Expr.body (Fractal.get v 0)
      | Expr.Map | Expr.Scanl | Expr.Scanr -> (
          match v with
          | Fractal.Leaf _ -> v
          | Fractal.Node _ ->
              Fractal.tabulate (Fractal.length v) (fun i ->
                  project_expr fn.Expr.body (Fractal.get v i))))
  | _ -> v

let project (p : Expr.program) v = project_expr p.Expr.body v

(* Zip per-component values back into the interpreter's tuples, whose
   components meet at the leaves. *)
let rec zip = function
  | [] -> invalid_arg "Oracles.zip"
  | Fractal.Leaf _ :: _ as comps -> Fractal.Node (Array.of_list comps)
  | Fractal.Node first :: _ as comps ->
      Fractal.Node
        (Array.mapi
           (fun i _ -> zip (List.map (fun c -> Fractal.get c i) comps))
           first)

let value (p : Expr.program) outs =
  let name = p.Expr.name in
  match List.assoc_opt name outs with
  | Some v -> Some (project p v)
  | None -> (
      let rec comps i =
        match List.assoc_opt (Printf.sprintf "%s.%d" name i) outs with
        | Some v -> project p v :: comps (i + 1)
        | None -> []
      in
      match comps 0 with [] -> None | cs -> Some (zip cs))

(* ---------------------------------------------------------------- *)
(* The oracles                                                       *)
(* ---------------------------------------------------------------- *)

(* The compiled engine through the front door, Run_opts defaults
   otherwise. *)
let compiled_oracle ?(order = Vm.Wavefront) ?(domains = 1) ?(fuse = true)
    (p : Expr.program) g inputs =
  let opts = { Run_opts.order; domains = Some domains; fuse } in
  Value (List.assoc p.Expr.name (Executor.run ~opts g inputs))

(* The schedule the engine compiles, checked without values: a
   same-front overlap raises [Shadow.Violation], a contradiction of the
   static analysis fails. *)
let shadow_oracle g =
  match Shadow.check g with
  | _, [] -> Held
  | _, issues ->
      Failed
        ("shadow memory contradicts the static analysis: "
        ^ String.concat "; " issues)

let pinned_tile (p : Expr.program) =
  let block =
    match (Knobs.of_plan (Pipeline.plan p)).Knobs.s_sites with
    | s :: _ -> s.Knobs.g_block
    | [] -> p.Expr.name
  in
  { Tile.cfg_tiles = [ (block, { Tile.t_m = 16; t_n = 16; t_k = 16 }) ] }

let tuned_oracle (p : Expr.program) g inputs =
  (* Store a deliberately non-default, simulator-visible configuration,
     look it back up, compile the tuned plan, and demand that the run
     next to it changes nothing: a tuned config selects a simulated
     plan, never the engine's options. *)
  let key = Pipeline.program_key p in
  let device = Tune_db.device_digest Device.a100 in
  let tile = pinned_tile p in
  Tune_db.store
    {
      Tune_db.tr_key = key;
      tr_device = device;
      tr_tile = tile;
      tr_cost = 0.0;
      tr_budget = 0;
    };
  match Tune_db.lookup ~key ~device with
  | Some r when r.Tune_db.tr_tile = tile ->
      ignore (Pipeline.plan_cached ~tile p);
      compiled_oracle ~domains:2 p g inputs
  | _ -> Failed "stored tuned config did not resolve through Tune_db"

(* Distributed execution over N simulated devices: auto-partitioned
   shards on real domains, pull-based transfers between per-device
   executables — Dist.run's prepare/execute path without its
   verification gate, pricing or cache.  Raw outputs, so Conform's
   bitwise comparison against compiled-seq covers the whole transfer
   machinery. *)
let sharded_oracle ~devices (p : Expr.program) g inputs =
  let pr = Dist_exec.prepare ~plan:(Shard.partition ~devices g) g in
  let outs = Dist_exec.execute ~pool:(Dist.pool devices) pr inputs in
  Value (List.assoc p.Expr.name outs)

let cache_rt_oracle (p : Expr.program) g inputs =
  let key = Pipeline.program_key p in
  let plan1 = Pipeline.plan_cached p in
  Pipeline.Cache.clear ();
  if not (Pipeline.Cache.on_disk key) then
    Failed "plan was not persisted to FT_PLAN_CACHE"
  else
    let plan2 = Pipeline.plan_cached p in
    if plan1 <> plan2 then
      Failed "plan changed across a disk-cache round trip"
    else compiled_oracle ~order:Vm.Sequential p g inputs

(* Serving: when a step program derives from the program, serve its
   batch rows as requests joining on a seeded schedule, batched (up to
   4 wide) and solo, and demand both bitwise equal to each other and to
   the interpreter's response.  Underivable programs are skipped. *)
let serve_oracle (p : Expr.program) inputs =
  match Servable.of_program p with
  | Error m -> Skipped m
  | Ok sv ->
      let rng = Rng.create 2024 and rows = Servable.rows p inputs in
      let arrivals = Array.map (fun _ -> Rng.int rng (Array.length rows + 1)) rows in
      Array.sort compare arrivals;
      let requests () =
        Array.mapi
          (fun id tokens ->
            Request.make ~id ~arrival:arrivals.(id) ~state0:(fst sv.Servable.sv_pad) ~tokens ())
          rows
      in
      let batched = (Serve.run_requests ~max_batch:4 sv (requests ())).Serve.oc_completed in
      let solo = (Serve.solo sv (requests ())).Serve.oc_completed in
      if Serve.mismatches batched solo > 0 then Failed "batched service differs from solo"
      else if Serve.reference_mismatches p batched > 0 then
        Failed "served responses differ from the interpreter"
      else Held

let run_one (p : Expr.program) inputs graph name =
  match name with
  | "interp" -> (
      try Value (Interp.run_program p inputs)
      with e -> Failed (Printexc.to_string e))
  | "serve" -> ( try serve_oracle p inputs with e -> Failed (Printexc.to_string e))
  | _ -> (
      match graph with
      | `Unsupported msg -> Unsupported msg
      | `Invalid msg -> Failed msg
      | `Ok g -> (
          try
            match name with
            | "compiled-seq" -> compiled_oracle ~order:Vm.Sequential p g inputs
            | "shadow" -> shadow_oracle g
            | "tuned" -> tuned_oracle p g inputs
            | "cache-rt" -> cache_rt_oracle p g inputs
            | "compiled" -> compiled_oracle p g inputs
            | "compiled2" -> compiled_oracle ~domains:2 p g inputs
            | "compiled4" -> compiled_oracle ~domains:4 p g inputs
            | "compiled-nofuse" -> compiled_oracle ~fuse:false p g inputs
            | "sharded2" -> sharded_oracle ~devices:2 p g inputs
            | "sharded4" -> sharded_oracle ~devices:4 p g inputs
            | other -> Failed (Printf.sprintf "unknown oracle %S" other)
          with e -> Failed (Printexc.to_string e)))

let run_all ctx (p : Expr.program) inputs =
  let graph =
    match Build.build p with
    | exception Build.Unsupported msg -> `Unsupported msg
    | g -> (
        match Ir.validate g with
        | Ok () -> `Ok g
        | Error es -> `Invalid ("invalid graph: " ^ String.concat "; " es))
  in
  List.map
    (fun name ->
      let t0 = Unix.gettimeofday () in
      let outcome = run_one p inputs graph name in
      let t1 = Unix.gettimeofday () in
      { r_oracle = name; r_outcome = outcome; r_wall_ms = (t1 -. t0) *. 1e3 })
    ctx.cx_oracles
