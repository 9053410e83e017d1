(* The conformance harness turned on itself: a small in-process
   differential run, the shrinker's local-minimum contract, and replay
   of the minimized-repro corpus (test/corpus/*.ft — the regression
   programs the harness wrote for the compiler bugs it found). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let corpus_dir = "corpus"

let gen_deterministic () =
  let draw seed =
    let sp = Gen.generate (Rng.create seed) in
    (Unparse.program (Gen.program sp), Gen.inputs sp)
  in
  let p1, i1 = draw 7 and p2, i2 = draw 7 in
  Alcotest.(check string) "same program" p1 p2;
  checkb "same inputs" true
    (List.for_all2
       (fun (n1, v1) (n2, v2) -> n1 = n2 && Fractal.equal_exact v1 v2)
       i1 i2);
  (* distinct seeds explore: at least one of a handful differs *)
  let texts = List.map (fun s -> fst (draw s)) [ 1; 2; 3; 4; 5 ] in
  checkb "seeds explore" true
    (List.exists (fun t -> t <> List.hd texts) texts)

let run_passes () =
  let r = Conform.run ~seed:42 ~budget:20 () in
  checki "all programs checked" 20 r.Conform.rp_programs;
  checkb "compiled fragment reached" true (r.Conform.rp_compiled > 0);
  checkb "interpreter-only fragment reached" true
    (r.Conform.rp_compiled < r.Conform.rp_programs);
  (match
     List.find_opt
       (fun s -> s.Conform.os_oracle = "interp")
       r.Conform.rp_oracle_stats
   with
  | Some s -> checki "interp verdict on every program" 20 (s.Conform.os_pass + s.Conform.os_fail + s.Conform.os_unsupported)
  | None -> Alcotest.fail "no interp oracle stat");
  checkb "metamorphic trials ran" true (r.Conform.rp_metamorphic <> []);
  if not (Conform.passed r) then
    Alcotest.failf "conformance run failed:@.%s" (Conform.report_to_text r)

let shrink_local_minimum () =
  (* the shrinker's contract: the result still fails, and every
     single further simplification either passes or is invalid *)
  let fails sp = Gen.valid sp && sp.Gen.sp_seq >= 2 in
  let sp0 = Gen.generate (Rng.create 11) in
  let sp0 = { sp0 with Gen.sp_seq = Stdlib.max 2 sp0.Gen.sp_seq } in
  if not (fails sp0) then Alcotest.fail "setup: initial spec must fail";
  let m, steps = Shrink.minimize ~fails sp0 in
  checkb "minimized still fails" true (fails m);
  checkb "steps counted" true (steps >= 0);
  checkb "local minimum" true
    (List.for_all
       (fun c -> not (Gen.valid c && fails c))
       (Shrink.candidates m));
  checki "seq shrunk to the predicate's floor" 2 m.Gen.sp_seq

let corpus_replays () =
  let files = Corpus.files corpus_dir in
  checkb "seeded corpus present (>= 4 repros)" true (List.length files >= 4);
  (* every corpus repro is self-contained: parse, re-derive inputs
     from the recorded seed, run all oracles *)
  List.iter
    (fun (path, failure) ->
      match failure with
      | None -> ()
      | Some reason -> Alcotest.failf "corpus regression %s: %s" path reason)
    (Conform.replay files)

let corpus_files_well_formed () =
  List.iter
    (fun path ->
      let p, seed = Corpus.load path in
      checkb (path ^ ": positive seed") true (seed >= 1);
      checkb
        (path ^ ": declared inputs derivable")
        true
        (List.length (Corpus.inputs_for p seed) = List.length p.Expr.inputs))
    (Corpus.files corpus_dir)

let suites =
  [
    ( "conform",
      [
        Alcotest.test_case "generator deterministic in the seed" `Quick
          gen_deterministic;
        Alcotest.test_case "differential run passes (seed 42)" `Quick
          run_passes;
        Alcotest.test_case "shrinker reaches a local minimum" `Quick
          shrink_local_minimum;
        Alcotest.test_case "corpus files well-formed" `Quick
          corpus_files_well_formed;
        Alcotest.test_case "corpus replays conform" `Quick corpus_replays;
      ] );
  ]
