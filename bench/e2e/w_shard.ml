(* shard_2dev: [Dist.run ~devices:2] cycling the benchmark's small
   [shard_*.ft] graphs (stacked LSTM and RNN, flash attention).  It is
   the only workload that runs lib/dist: partition, legality check,
   execution on one domain per simulated device with explicit
   transfers, and pricing on the interconnect model.  The traced round
   also runs the same graph on the 1-device compiled engine, op for op,
   which is the gap a faster sharded executor has to close. *)

open Common

let devices = 2

type prog = {
  p : Expr.program;
  g : Ir.graph;
  inputs : (string * Fractal.t) list;
  reference : Fractal.t;
}

(* Dist.run's stages, re-timed one by one after each traced op and laid
   out inside its span in the order Dist.run calls them; execute is the
   remainder. *)
let trace_op tr ~op ~root ~start ~op_ms pg (rep : Dist.report) =
  let ms f = snd (timed f) in
  let partition = ms (fun () -> Shard.partition ~devices pg.g) in
  let verify = ms (fun () -> Shard.verify pg.g rep.Dist.rp_plan) in
  let simulate = ms (fun () -> Dist.simulate pg.g rep.Dist.rp_log) in
  let t = ref start in
  List.iter
    (fun (name, d) ->
      Spans.add tr ~op ~id:(Spans.fresh tr) ~parent:root name !t (!t +. (d /. 1e3));
      t := !t +. (d /. 1e3))
    [
      ("shard.partition", partition);
      ("shard.verify", verify);
      ("dist.execute", op_ms -. partition -. verify -. simulate);
      ("dist.simulate", simulate);
    ]

let run ctx =
  let sources = load_programs ctx.programs ~prefix:"shard_" in
  let built, setup =
    repeated_setup ctx (fun _ ->
        ignore (Dist.pool devices);
        List.map
          (fun (text, _) ->
            let p = Parse.program text in
            ignore (Typecheck.check_program p);
            (p, Build.build p))
          sources)
  in
  let progs =
    Array.of_list
      (List.mapi
         (fun i (p, g) ->
           let inputs = Corpus.inputs_for p (ctx.seed + i) in
           { p; g; inputs; reference = Interp.run_program p inputs })
         built)
  in
  let baselines =
    match ctx.trace with
    | None -> [||]
    | Some _ -> Array.map (fun pg -> Executor.prepare ~opts:(opts ~domains:1) pg.g) progs
  in
  (* one untimed pass warms caches and finishes lazy set-up *)
  Array.iter (fun pg -> try ignore (Dist.run ~devices pg.g pg.inputs) with _ -> ()) progs;
  let counts = Counts.create () in
  let lp =
    loop ctx ~n:(Array.length progs) (fun ~tr ~pass ~op k ->
        let pg = progs.(k) in
        let root = ref (-1) and start = ref 0. in
        let dist ~parent =
          root := parent;
          start := now ();
          Dist.run ~devices pg.g pg.inputs
        in
        let rep, ms = op_span tr ~op dist in
        if pass = 0 then
          Counts.add_all counts
            [
              ("dist.transfers", float_of_int rep.Dist.rp_xfers);
              ("dist.transfer_mb", rep.Dist.rp_xfer_gb *. 1e3);
              ("dist.device_transfers", float_of_int rep.Dist.rp_device_xfers);
              ("dist.fallbacks", float_of_int (List.length rep.Dist.rp_log.Dist_exec.lg_fallbacks));
              ("dist.sim_time_ms", rep.Dist.rp_sim.Engine.dm_time_ms);
            ];
        Option.iter
          (fun tr ->
            trace_op tr ~op ~root:!root ~start:!start ~op_ms:ms pg rep;
            let t0 = now () in
            ignore (Executor.execute baselines.(k) pg.inputs);
            Spans.add tr ~track:"baseline" ~op ~id:(Spans.fresh tr) ~parent:(-1)
              "dist.baseline_compiled_1dev" t0 (now ()))
          tr;
        (ms, check pg.p ~reference:pg.reference rep.Dist.rp_outputs))
  in
  let layers =
    traced_layers ctx lp
      [
        "shard.partition"; "shard.verify"; "dist.execute"; "dist.simulate";
        "dist.baseline_compiled_1dev";
      ]
  in
  let vs_1dev =
    match List.assoc_opt "dist.baseline_compiled_1dev.ms" layers with
    | Some b when b > 0. ->
        [ ("dist.vs_compiled_1dev", lp.traced_ms /. float_of_int lp.traced_ops /. b) ]
    | _ -> []
  in
  loop_result ctx ~setup lp ~counts:(Counts.to_list counts) ~layers:(layers @ vs_1dev)
