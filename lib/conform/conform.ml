type verdict = V_pass | V_fail of string | V_unsupported

type oracle_stat = {
  os_oracle : string;
  os_pass : int;
  os_fail : int;
  os_unsupported : int;
}

type failure = {
  fl_program : string;
  fl_seed : int;
  fl_reason : string;
  fl_shrink_steps : int;
  fl_corpus_file : string option;
}

type report = {
  rp_seed : int;
  rp_budget : int;
  rp_programs : int;
  rp_compiled : int;
  rp_oracles : string list;
  rp_oracle_stats : oracle_stat list;
  rp_coverage : (string * int) list;
  rp_metamorphic : Metamorphic.trial list;
  rp_failures : failure list;
  rp_wall_ms : float;
}

(* ---------------------------------------------------------------- *)
(* Fragment membership without a spec                                *)
(* ---------------------------------------------------------------- *)

let rec expr_compiled (e : Expr.t) =
  match e with
  | Expr.Access (Expr.Linear { reverse = true; _ }, _)
  | Expr.Access (Expr.Indirect _, _) ->
      false
  | Expr.Access (_, e') -> expr_compiled e'
  | Expr.Var _ | Expr.Lit _ -> true
  | Expr.Let (_, e1, e2) -> expr_compiled e1 && expr_compiled e2
  | Expr.Prim (_, es) | Expr.Tuple es | Expr.Zip es ->
      List.for_all expr_compiled es
  | Expr.Proj (e', _) -> expr_compiled e'
  | Expr.Index (e', _) -> expr_compiled e'
  | Expr.Soac { fn; init; xs; _ } ->
      expr_compiled fn.Expr.body
      && (match init with None -> true | Some i -> expr_compiled i)
      && expr_compiled xs

let program_compiled_expected (p : Expr.program) = expr_compiled p.Expr.body

(* ---------------------------------------------------------------- *)
(* Checking one program                                              *)
(* ---------------------------------------------------------------- *)

let check ctx ~expect_compiled (p : Expr.program) inputs =
  let runs = Oracles.run_all ctx p inputs in
  let value name =
    List.find_map
      (fun r ->
        match r.Oracles.r_outcome with
        | Oracles.Value v when r.Oracles.r_oracle = name -> Some v
        | _ -> None)
      runs
  in
  let interp_v = value "interp" in
  let seq_raw = value "compiled-seq" in
  List.map
    (fun r ->
      let name = r.Oracles.r_oracle in
      let verdict =
        match r.Oracles.r_outcome with
        | Oracles.Failed m -> V_fail m
        | Oracles.Held -> V_pass
        | Oracles.Skipped _ -> V_unsupported
        | Oracles.Unsupported m ->
            if expect_compiled then V_fail ("fragment regression: " ^ m)
            else V_unsupported
        | Oracles.Value v -> (
            if name = "interp" then V_pass
            else
              (* every engine oracle must match compiled-seq bitwise;
                 compiled-seq itself (and any oracle running without
                 it) must match the interpreter after projection *)
              match (seq_raw, interp_v) with
              | Some sv, _ when name <> "compiled-seq" ->
                  if Fractal.equal_exact v sv then V_pass
                  else V_fail "diverges bitwise from compiled-seq"
              | _, Some iv ->
                  if Fractal.equal_exact (Oracles.project p v) iv then V_pass
                  else V_fail "diverges bitwise from the interpreter"
              | _, None -> V_fail "no reference value (interpreter failed)")
      in
      (name, verdict))
    runs

let first_fail verdicts =
  List.find_map
    (function
      | name, V_fail m -> Some (Printf.sprintf "%s: %s" name m) | _ -> None)
    verdicts

(* ---------------------------------------------------------------- *)
(* The run driver                                                    *)
(* ---------------------------------------------------------------- *)

let with_interp oracles =
  if List.mem "interp" oracles then oracles else "interp" :: oracles

let run ?(oracles = Oracles.all_oracles) ?corpus_dir ?(meta_iters = 3) ~seed
    ~budget () =
  let t0 = Unix.gettimeofday () in
  let oracles = with_interp oracles in
  let ctx = Oracles.create ~oracles () in
  Fun.protect ~finally:(fun () -> Oracles.close ctx) @@ fun () ->
  let rng = Rng.create seed in
  let stats = Hashtbl.create 8 in
  List.iter (fun o -> Hashtbl.replace stats o (0, 0, 0)) oracles;
  let bump o f =
    let p, x, u = try Hashtbl.find stats o with Not_found -> (0, 0, 0) in
    Hashtbl.replace stats o (f (p, x, u))
  in
  let coverage = Hashtbl.create 32 in
  List.iter (fun t -> Hashtbl.replace coverage t 0) Gen.all_tags;
  let failures = ref [] in
  let compiled = ref 0 in
  let check_spec sp =
    check ctx ~expect_compiled:(Gen.compiled_expected sp) (Gen.program sp)
      (Gen.inputs sp)
  in
  for _ = 1 to budget do
    let sp = Gen.generate rng in
    if Gen.compiled_expected sp then incr compiled;
    List.iter
      (fun t ->
        Hashtbl.replace coverage t
          (1 + try Hashtbl.find coverage t with Not_found -> 0))
      (Gen.tags sp);
    let verdicts = check_spec sp in
    List.iter
      (fun (o, v) ->
        bump o (fun (p, x, u) ->
            match v with
            | V_pass -> (p + 1, x, u)
            | V_fail _ -> (p, x + 1, u)
            | V_unsupported -> (p, x, u + 1)))
      verdicts;
    match first_fail verdicts with
    | None -> ()
    | Some reason ->
        let fails sp' = first_fail (check_spec sp') <> None in
        let min_sp, steps = Shrink.minimize ~fails sp in
        let reason =
          Option.value (first_fail (check_spec min_sp)) ~default:reason
        in
        let min_p = Gen.program min_sp in
        let corpus_file =
          Option.map
            (fun dir ->
              Corpus.write ~dir ~seed:min_sp.Gen.sp_input_seed ~reason min_p)
            corpus_dir
        in
        failures :=
          {
            fl_program = Unparse.program min_p;
            fl_seed = min_sp.Gen.sp_input_seed;
            fl_reason = reason;
            fl_shrink_steps = steps;
            fl_corpus_file = corpus_file;
          }
          :: !failures
  done;
  let metamorphic = Metamorphic.run_all (Rng.create (seed + 1)) ~iters:meta_iters in
  let oracle_stats =
    List.map
      (fun o ->
        let p, x, u = try Hashtbl.find stats o with Not_found -> (0, 0, 0) in
        { os_oracle = o; os_pass = p; os_fail = x; os_unsupported = u })
      oracles
  in
  let coverage =
    List.map
      (fun t -> (t, try Hashtbl.find coverage t with Not_found -> 0))
      Gen.all_tags
  in
  {
    rp_seed = seed;
    rp_budget = budget;
    rp_programs = budget;
    rp_compiled = !compiled;
    rp_oracles = oracles;
    rp_oracle_stats = oracle_stats;
    rp_coverage = coverage;
    rp_metamorphic = metamorphic;
    rp_failures = List.rev !failures;
    rp_wall_ms = (Unix.gettimeofday () -. t0) *. 1e3;
  }

(* ---------------------------------------------------------------- *)
(* Corpus replay                                                     *)
(* ---------------------------------------------------------------- *)

let replay ?(oracles = Oracles.all_oracles) paths =
  let oracles = with_interp oracles in
  let ctx = Oracles.create ~oracles () in
  Fun.protect ~finally:(fun () -> Oracles.close ctx) @@ fun () ->
  List.map
    (fun path ->
      let outcome =
        match Corpus.load path with
        | exception e -> Some ("load: " ^ Printexc.to_string e)
        | p, seed ->
            let inputs = Corpus.inputs_for p seed in
            let expect_compiled = program_compiled_expected p in
            first_fail (check ctx ~expect_compiled p inputs)
      in
      (path, outcome))
    paths

let passed rp =
  rp.rp_failures = []
  && List.for_all (fun t -> t.Metamorphic.t_ok) rp.rp_metamorphic

(* ---------------------------------------------------------------- *)
(* Reports                                                           *)
(* ---------------------------------------------------------------- *)

let report_to_text rp =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "conformance: seed=%d budget=%d (%d compiled, %d interpreter-only)\n"
    rp.rp_seed rp.rp_budget rp.rp_compiled (rp.rp_programs - rp.rp_compiled);
  pf "oracles:\n";
  List.iter
    (fun s ->
      pf "  %-16s pass %-4d fail %-4d unsupported %d\n" s.os_oracle s.os_pass
        s.os_fail s.os_unsupported)
    rp.rp_oracle_stats;
  let meta_fail =
    List.length (List.filter (fun t -> not t.Metamorphic.t_ok) rp.rp_metamorphic)
  in
  pf "metamorphic: %d trials, %d failed\n"
    (List.length rp.rp_metamorphic)
    meta_fail;
  List.iter
    (fun t ->
      if not t.Metamorphic.t_ok then
        pf "  FAIL %s: %s\n" t.Metamorphic.t_law t.Metamorphic.t_detail)
    rp.rp_metamorphic;
  pf "coverage:\n";
  List.iter
    (fun (t, n) -> pf "  %-24s %d%s\n" t n (if n = 0 then "  <- hole" else ""))
    rp.rp_coverage;
  (match rp.rp_failures with
  | [] -> pf "result: PASS (%.0f ms)\n" rp.rp_wall_ms
  | fs ->
      pf "result: FAIL, %d divergence(s) (%.0f ms)\n" (List.length fs)
        rp.rp_wall_ms;
      List.iter
        (fun f ->
          pf "--- %s (seed %d, %d shrink steps%s)\n%s" f.fl_reason f.fl_seed
            f.fl_shrink_steps
            (match f.fl_corpus_file with
            | Some c -> ", corpus " ^ c
            | None -> "")
            f.fl_program)
        fs);
  Buffer.contents buf

let report_to_jsonv rp =
  Jsonw.Obj
    [
      ("seed", Jsonw.Int rp.rp_seed);
      ("budget", Jsonw.Int rp.rp_budget);
      ("programs", Jsonw.Int rp.rp_programs);
      ("compiled", Jsonw.Int rp.rp_compiled);
      ("passed", Jsonw.Bool (passed rp));
      ( "oracles",
        Jsonw.List
          (List.map
             (fun s ->
               Jsonw.Obj
                 [
                   ("oracle", Jsonw.String s.os_oracle);
                   ("pass", Jsonw.Int s.os_pass);
                   ("fail", Jsonw.Int s.os_fail);
                   ("unsupported", Jsonw.Int s.os_unsupported);
                 ])
             rp.rp_oracle_stats) );
      ( "coverage",
        Jsonw.Obj (List.map (fun (t, n) -> (t, Jsonw.Int n)) rp.rp_coverage) );
      ( "metamorphic",
        Jsonw.List
          (List.map
             (fun t ->
               Jsonw.Obj
                 [
                   ("law", Jsonw.String t.Metamorphic.t_law);
                   ("ok", Jsonw.Bool t.Metamorphic.t_ok);
                   ("detail", Jsonw.String t.Metamorphic.t_detail);
                 ])
             rp.rp_metamorphic) );
      ( "failures",
        Jsonw.List
          (List.map
             (fun f ->
               Jsonw.Obj
                 [
                   ("reason", Jsonw.String f.fl_reason);
                   ("seed", Jsonw.Int f.fl_seed);
                   ("shrink_steps", Jsonw.Int f.fl_shrink_steps);
                   ( "corpus_file",
                     match f.fl_corpus_file with
                     | Some c -> Jsonw.String c
                     | None -> Jsonw.Null );
                   ("program", Jsonw.String f.fl_program);
                 ])
             rp.rp_failures) );
      ("wall_ms", Jsonw.Float rp.rp_wall_ms);
    ]
