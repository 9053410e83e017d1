(* The [dune runtest] smoke: every workload at tiny size, one untraced
   and one traced round each, through the same child processes and
   result writer as a real run.  It asserts that the host-speed probe's
   kernel allocates nothing, that no op failed, that the
   traced layer spans reconcile with the op totals, that serving's tick
   parts fit in the tick, that the results parse, and that every metric
   name is the one BENCHMARK.json declares.

   Sharding's stages are re-timed after each op and its [dist.execute]
   span is the op's remainder, so its spans cover the op by
   construction; what is checked there instead is that the re-timed
   stages fit inside the op they were taken from. *)

let run (spec : Spec.t) ~programs =
  let summaries =
    Runner.measure Runner.workloads ~seed:1 ~seconds:0.3 ~rounds:1 ~trace:true ~programs
      ~tiny:true
  in
  let problems = ref [] in
  let expect ok fmt = Printf.ksprintf (fun m -> if not ok then problems := m :: !problems) fmt in
  let words = Gc.minor_words () in
  Common.probe_kernel ();
  let words = Gc.minor_words () -. words in
  expect (words = 0.) "the probe kernel allocated %g words" words;
  List.iter
    (fun (s : Runner.summary) ->
      let name = s.Runner.w.Runner.name in
      let layer k = List.assoc_opt k (Runner.per_layer s) in
      expect (Runner.failed s = 0) "%s: %d failed ops: %s" name (Runner.failed s)
        (String.concat "; " (Runner.errors s));
      expect (List.mem name spec.Spec.workloads) "%s: not declared in BENCHMARK.json" name;
      match name with
      | "serve_rnn_closed" -> (
          match (layer "serve.tick.ms", layer "serve.other.ms_per_tick") with
          | Some tick, Some other ->
              expect (tick > 0. && other >= -0.01 *. tick)
                "%s: tick parts exceed the tick (tick %g ms, remainder %g ms)" name tick other
          | _ -> expect false "%s: no tick breakdown" name)
      | "shard_2dev" ->
          expect
            (Option.value (layer "dist.execute.ms") ~default:0. > 0.)
            "%s: partition, verify and simulate, re-timed, take longer than the op" name
      | _ -> (
          match layer "bench.unaccounted_pct" with
          | Some pct ->
              expect (Float.abs pct <= 5.)
                "%s: layer spans miss %.1f%% of the op time (limit 5%%)" name pct
          | None -> expect false "%s: no traced layers" name))
    summaries;
  let json = Jsonw.to_string (Runner.results_json spec ~seed:1 ~seconds:0.3 summaries) in
  expect (Jsonw.validate json = Ok ()) "results: not valid JSON";
  (match Jsonr.parse json with
  | j ->
      List.iter
        (fun r ->
          let m = Jsonr.to_string (Jsonr.field "metric" r) in
          expect (Spec.find spec m <> None) "metric %s is not declared in BENCHMARK.json" m)
        (Jsonr.to_list (Jsonr.field "records" j))
  | exception Jsonr.Error e -> expect false "results do not parse: %s" e);
  List.iter
    (fun trace ->
      match Jsonr.parse (Runner.last_line spec ~trace summaries) with
      | _ -> ()
      | exception Jsonr.Error e -> expect false "last line does not parse: %s" e)
    [ false; true ];
  List.iter
    (fun (m : Spec.metric) ->
      expect
        (List.exists (fun s -> List.mem_assoc m.Spec.name (Runner.per_layer s)) summaries)
        "per-layer metric %s is declared but no workload reports it" m.Spec.name)
    spec.Spec.per_layer;
  match !problems with
  | [] ->
      print_endline "smoke: ok";
      true
  | ps ->
      List.iter (fun p -> prerr_endline ("smoke: " ^ p)) (List.rev ps);
      false
