(* What every workload shares: the round context and result, sample
   buffers, failure tallies, program loading and output checking. *)

let now = Unix.gettimeofday

(* A growable float buffer for latency samples. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* The host-speed probe.  A shared 2-vCPU x86-64 host was measured
   running the same code at speeds up to 2x apart, changing from one
   fifth of a second to the next and staying slow for minutes, and the
   change hits every workload.  So a round takes a short probe slice
   between its ops every [probe_interval_s], and each op's time is
   divided by [(probe / probe_ref_ms) ** sensitivity], [probe] being
   the mean of the kept slices just before and just after the op; the
   raw wall-clock values are kept beside the scaled ones.

   The slice's kernel has two halves of about equal length: a chain of
   dependent float additions over 16 KiB, and string-keyed [Hashtbl]
   lookups in a table built at start-up.  Timed against the workloads'
   own slowdowns, the float chain alone under-corrected every workload
   and the lookups alone over-corrected them; their sum tracked the
   four best of the ten kernels tried (see README.md).

   A slice runs on the round's main domain between two ops, when the
   libraries under test have nothing running.  The kernel allocates
   nothing, so it cannot start a collection, and the heap a workload
   keeps can reach its speed only through the CPU caches.  A
   slice is discarded when the process used more CPU time than the
   slice's wall time (another of its threads ran) or a collection
   happened during it; a round that keeps no slice fails.  A two-domain
   workload also runs on the other core, whose speed can differ, so its
   slices are the mean of the kernel on the main domain and the same
   kernel run at the same moment by a helper process of the
   benchmark's own, which the other core picks up. *)
let probe_ref_ms = 0.35
let probe_interval_s = 0.02
let probe_floats = Array.make 2048 1.0
let probe_keys = Array.init 1000 (fun i -> string_of_int (4 * 7919 * i))

let probe_table =
  let t = Hashtbl.create 4096 in
  for i = 0 to 3999 do
    Hashtbl.replace t (string_of_int (7919 * i)) i
  done;
  t

let probe_sink = Array.make 1 0.

let probe_kernel () =
  let s = ref 0. in
  for _ = 1 to 100 do
    for j = 0 to Array.length probe_floats - 1 do
      s := !s +. (probe_floats.(j) *. 1.0001)
    done
  done;
  let n = ref 0 in
  for _ = 1 to 3 do
    for i = 0 to Array.length probe_keys - 1 do
      n := !n + Hashtbl.find probe_table probe_keys.(i)
    done
  done;
  probe_sink.(0) <- !s +. float_of_int !n

(* The helper process: each byte on stdin runs the kernel once and
   answers with its time in ms; end of input ends it. *)
let probe_helper_main () =
  try
    while true do
      ignore (input_char stdin);
      let t0 = now () in
      probe_kernel ();
      Printf.printf "%.17g\n%!" ((now () -. t0) *. 1e3)
    done
  with End_of_file -> ()

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

module Probe = struct
  type helper = { pid : int; ask : out_channel; answer : in_channel }

  type t = {
    sensitivity : float;
        (** how many times faster, in log terms, the workload's time
            grows than the probe's *)
    helper : helper option;
    at : Samples.t;  (** mid-times of the kept slices, s *)
    ms : Samples.t;  (** their durations *)
    mutable rejected : int;
    mutable last : float;
  }

  (* [~other_core] starts the helper process ([main.exe probe-helper]). *)
  let create ~sensitivity ~other_core =
    let helper =
      if not other_core then None
      else
        let ask_r, ask_w = Unix.pipe ~cloexec:true () in
        let answer_r, answer_w = Unix.pipe ~cloexec:true () in
        let pid =
          Unix.create_process Sys.executable_name
            [| Sys.executable_name; "probe-helper" |]
            ask_r answer_w Unix.stderr
        in
        Unix.close ask_r;
        Unix.close answer_w;
        Some { pid; ask = Unix.out_channel_of_descr ask_w; answer = Unix.in_channel_of_descr answer_r }
    in
    { sensitivity; helper; at = Samples.create (); ms = Samples.create (); rejected = 0; last = neg_infinity }

  let close t =
    Option.iter
      (fun h ->
        close_out h.ask;
        close_in h.answer;
        ignore (Unix.waitpid [] h.pid))
      t.helper

  let slice t =
    Option.iter (fun h -> output_char h.ask 'p'; flush h.ask) t.helper;
    let gc0 = (Gc.quick_stat ()).Gc.minor_collections and cpu0 = cpu_s () in
    let t0 = now () in
    probe_kernel ();
    let t1 = now () in
    let cpu1 = cpu_s () and gc1 = (Gc.quick_stat ()).Gc.minor_collections in
    let ms = (t1 -. t0) *. 1e3 in
    let ms =
      match t.helper with
      | Some h -> (ms +. float_of_string (input_line h.answer)) /. 2.
      | None -> ms
    in
    if gc1 <> gc0 || cpu1 -. cpu0 > (1.05 *. (t1 -. t0)) +. 20e-6 then t.rejected <- t.rejected + 1
    else begin
      Samples.add t.at ((t0 +. t1) /. 2.);
      Samples.add t.ms ms
    end;
    t.last <- now ()

  let maybe t = if now () -. t.last >= probe_interval_s then slice t
  let kept t = t.ms.Samples.n

  (* How much slower than at the reference speed the workload ran at
     time [at]: from the mean of the kept slices on either side of it,
     raised to the workload's sensitivity. *)
  let slowdown t =
    let at = Samples.to_array t.at and ms = Samples.to_array t.ms in
    let n = Array.length at in
    fun time ->
      let rec first lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if at.(mid) < time then first (mid + 1) hi else first lo mid
      in
      let i = first 0 n in
      let ms =
        if n = 0 then nan
        else if i = 0 then ms.(0)
        else if i = n then ms.(n - 1)
        else (ms.(i - 1) +. ms.(i)) /. 2.
      in
      (ms /. probe_ref_ms) ** t.sensitivity

  let median_ms t = Stats.median (Samples.to_array t.ms)
end

type ctx = {
  seed : int;
  budget_s : float;  (** measured time of this round *)
  programs : string;  (** directory of the benchmark's [.ft] inputs *)
  trace : Spans.t option;  (** [Some] in the traced round *)
  tiny : bool;  (** the [dune runtest] smoke: smaller inputs *)
  probe : Probe.t;
  cache : string;  (** this run's directory for [memo] *)
}

(* Inputs and their references are the same in every round of a run, so
   the first round computes them and later rounds read them back from
   the run's cache directory, which the run removes when it ends.
   [name] must name one type of value. *)
let memo ctx name f =
  let path =
    Filename.concat ctx.cache
      (Printf.sprintf "%s-seed%d%s" name ctx.seed (if ctx.tiny then "-tiny" else ""))
  in
  if Sys.file_exists path then In_channel.with_open_bin path Marshal.from_channel
  else begin
    let v = f () in
    let tmp = path ^ ".tmp" in
    Out_channel.with_open_bin tmp (fun oc -> Marshal.to_channel oc v []);
    Sys.rename tmp path;
    v
  end

(** A round's times, either scaled to the probe's reference speed or
    raw, as the wall clock read them. *)
type times = {
  setup_s : float;  (** the system's own set-up calls *)
  throughput : float;  (** ops per second, as the workload defines it *)
  samples : float array;  (** per-op latency, ms *)
}

(** One round of one workload, as a child process reports it. *)
type result = {
  scaled : times;
  raw : times;
  keys : int array;  (** which of the workload's distinct ops each sample is *)
  ops : int;  (** ops attempted *)
  failed : int;
  errors : string list;  (** the first few failure messages *)
  counts : (string * float) list;  (** deterministic counts *)
  layers : (string * float) list;  (** per-layer metrics, traced round *)
  rss_mb : float;  (** the process's peak resident set *)
  probe_ms : float;  (** the median kept probe slice *)
  probe_rejected_pct : float;  (** share of probe slices discarded *)
}

(* Ops attempted and failed, with the first few reasons. *)
type tally = { mutable attempted : int; mutable failures : int; mutable why : string list }

let tally () = { attempted = 0; failures = 0; why = [] }

let record tally = function
  | Ok () -> tally.attempted <- tally.attempted + 1
  | Error msg ->
      tally.attempted <- tally.attempted + 1;
      tally.failures <- tally.failures + 1;
      if List.length tally.why < 5 then tally.why <- msg :: tally.why

(* Run [f] and return its result with its wall time in ms. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, (now () -. t0) *. 1e3)

(* A round sets up [setup_reps] times from scratch, with probe slices
   between, and reports the median: one stall of a young process does
   not decide [setup_s], and a set-up of under a millisecond is
   measured many times.  The count is fixed, not timed, because what a
   set-up leaves behind (serving keeps each tenant's prepared
   programs) shows in the peak memory.  [f i] is set-up number [i]; the
   last one's result is kept, with the (raw, scaled) median in s. *)
let setup_reps = 20

let repeated_setup ctx f =
  let raw = Array.make setup_reps 0. and mid = Array.make setup_reps 0. in
  let last = ref None in
  Probe.slice ctx.probe;
  for i = 0 to setup_reps - 1 do
    let t0 = now () in
    last := Some (f i);
    let t1 = now () in
    raw.(i) <- t1 -. t0;
    mid.(i) <- (t0 +. t1) /. 2.;
    Probe.maybe ctx.probe
  done;
  Probe.slice ctx.probe;
  let slowdown = Probe.slowdown ctx.probe in
  ( Option.get !last,
    (Stats.median raw, Stats.median (Array.mapi (fun i s -> s /. slowdown mid.(i)) raw)) )

let peak_rss_mb () =
  let from_status () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
          | Some _ -> go ()
        in
        go ())
  in
  match from_status () with
  | Some mb -> mb
  | None | (exception _) ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.

(* The benchmark's own [.ft] inputs whose names start with [prefix],
   sorted by name, as (source text, parsed and type-checked program). *)
let load_programs dir ~prefix =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.starts_with ~prefix f && Filename.check_suffix f ".ft")
  |> List.sort compare
  |> List.map (fun f ->
         let path = Filename.concat dir f in
         let text = In_channel.with_open_bin path In_channel.input_all in
         let p = Parse.program text in
         ignore (Typecheck.check_program p);
         (text, p))

(* Rebuild the interpreter's tuple leaves from per-component values. *)
let rec zip_tuples = function
  | Fractal.Leaf _ :: _ as cs -> Fractal.Node (Array.of_list cs)
  | Fractal.Node first :: _ as cs ->
      Fractal.Node
        (Array.mapi (fun i _ -> zip_tuples (List.map (fun c -> Fractal.get c i) cs)) first)
  | [] -> invalid_arg "zip_tuples"

(* The value an engine computed for program [p], in the interpreter's
   view: the output buffer named after the program, projected down from
   the engine's accumulator history.  A tuple-valued program has one
   buffer per component ([name.0], [name.1], ...). *)
let output_value (p : Expr.program) outs =
  let proj v = Oracles.project p v in
  match List.assoc_opt p.Expr.name outs with
  | Some v -> Some (proj v)
  | None -> (
      let rec comps i =
        match List.assoc_opt (Printf.sprintf "%s.%d" p.Expr.name i) outs with
        | Some v -> proj v :: comps (i + 1)
        | None -> []
      in
      match comps 0 with [] -> None | cs -> Some (zip_tuples cs))

(* Bitwise check of an engine's outputs against the reference. *)
let check (p : Expr.program) ~reference outs =
  match output_value p outs with
  | Some v when Fractal.equal_exact v reference -> Ok ()
  | Some _ -> Error (p.Expr.name ^ ": output differs bitwise from the interpreter")
  | None -> Error (p.Expr.name ^ ": no output buffer named after the program")
  | exception e -> Error (p.Expr.name ^ ": " ^ Printexc.to_string e)

let opts ~domains = { Run_opts.default with Run_opts.domains = Some domains }

(* Named sums, kept in first-insertion order. *)
module Counts = struct
  type t = { tbl : (string, float) Hashtbl.t; mutable keys : string list }

  let create () = { tbl = Hashtbl.create 16; keys = [] }

  let add t k v =
    match Hashtbl.find_opt t.tbl k with
    | Some x -> Hashtbl.replace t.tbl k (x +. v)
    | None ->
        t.keys <- k :: t.keys;
        Hashtbl.replace t.tbl k v

  let add_all t kvs = List.iter (fun (k, v) -> add t k v) kvs
  let to_list t = List.rev_map (fun k -> (k, Hashtbl.find t.tbl k)) t.keys
end

(* What the compiled engine did to one prepared program: silent
   downgrades (a VM fallback, or blocks the race guard sequentialized),
   ops fused or swallowed into a GEMM epilogue, and the arena size. *)
let executor_counts pr =
  let fallbacks, fused, arena_floats =
    match Executor.compiled pr with
    | None -> (1, 0, 0)
    | Some c ->
        ( List.length (Compiled.sequential_fallbacks c),
          List.fold_left
            (fun a fs -> a + fs.Compiled.fs_fused_ops + fs.Compiled.fs_swallowed)
            0 (Compiled.fusion_stats c),
          Compiled.arena_floats c )
  in
  [
    ("executor.fallbacks", float_of_int fallbacks);
    ("compiled.fused_ops", float_of_int fused);
    ("compiled.arena_kb", float_of_int (arena_floats * 8) /. 1024.);
  ]

(* One op, inside a root span "op" when tracing: [f ~parent] with the
   id its child spans hang off.  Returns [f]'s value and the op's wall
   time in ms. *)
let op_span tr ~op f =
  match tr with
  | None ->
      let t0 = now () in
      let v = f ~parent:(-1) in
      (v, (now () -. t0) *. 1e3)
  | Some tr ->
      let id = Spans.fresh tr in
      let t0 = now () in
      let v = f ~parent:id in
      let t1 = now () in
      Spans.add tr ~op ~id ~parent:(-1) "op" t0 t1;
      (v, (t1 -. t0) *. 1e3)

(* Back-to-back ops: latency samples with the time each op ran at and
   the index of the op in its pass, the tally, and op time split by
   whether the op was traced. *)
type loop = {
  samples : Samples.t;
  at : Samples.t;  (** each op's mid-time, s *)
  keys : Samples.t;
  tally : tally;
  mutable traced_ms : float;
  mutable traced_ops : int;
  mutable plain_ms : float;
  mutable plain_ops : int;
}

(* Run passes of [n] ops until the round's budget is spent; whole passes
   only, so every round sees the same mix of programs.  [op ~tr ~pass
   ~op k] runs op [k] of a pass, traced into [tr], and returns its time
   in ms and its bitwise verdict.  A probe slice runs before the first
   op and then between ops.  In the traced round, passes alternate
   traced and untraced, so the tracing overhead is measured inside one
   process, free of the noise between processes. *)
let loop ctx ~n op =
  let lp =
    {
      samples = Samples.create ();
      at = Samples.create ();
      keys = Samples.create ();
      tally = tally ();
      traced_ms = 0.;
      traced_ops = 0;
      plain_ms = 0.;
      plain_ops = 0;
    }
  in
  Probe.slice ctx.probe;
  let t0 = now () in
  let pass = ref 0 in
  while !pass < (if ctx.trace = None then 1 else 2) || now () -. t0 < ctx.budget_s do
    let tr = if !pass mod 2 = 0 then ctx.trace else None in
    for k = 0 to n - 1 do
      (match op ~tr ~pass:!pass ~op:lp.tally.attempted k with
      | exception e -> record lp.tally (Error (Printexc.to_string e))
      | ms, verdict ->
          Samples.add lp.samples ms;
          Samples.add lp.at (now () -. (ms /. 2e3));
          Samples.add lp.keys (float_of_int k);
          if tr = None then begin
            lp.plain_ms <- lp.plain_ms +. ms;
            lp.plain_ops <- lp.plain_ops + 1
          end
          else begin
            lp.traced_ms <- lp.traced_ms +. ms;
            lp.traced_ops <- lp.traced_ops + 1
          end;
          record lp.tally verdict);
      Probe.maybe ctx.probe
    done;
    incr pass
  done;
  Probe.slice ctx.probe;
  lp

(* How much slower traced work ran than untraced work, in %. *)
let overhead_pct ~traced ~plain = 100. *. ((traced /. plain) -. 1.)

(* Span self time per op, in ms, for a name ([0.] when absent). *)
let layer_ms layers ~ops name =
  match List.assoc_opt name layers with
  | Some l when ops > 0 -> l.Spans.l_self_ms /. float_of_int ops
  | _ -> 0.

(* Per-traced-op self times of the named layers, the reconciliation
   (the root spans' self time is what no layer span covers) and the
   tracing overhead. *)
let traced_layers ctx lp names =
  match ctx.trace with
  | None -> []
  | Some tr ->
      let ls = Spans.layers tr in
      let ops = lp.traced_ops in
      let unaccounted_pct =
        match List.assoc_opt "op" ls with
        | Some l when l.Spans.l_total_ms > 0. ->
            100. *. l.Spans.l_self_ms /. l.Spans.l_total_ms
        | _ -> 0.
      in
      List.map (fun n -> (n ^ ".ms", layer_ms ls ~ops n)) names
      @ [
          ("bench.unaccounted.ms", layer_ms ls ~ops "op");
          ("bench.unaccounted_pct", unaccounted_pct);
          ( "bench.trace_overhead_pct",
            overhead_pct
              ~traced:(lp.traced_ms /. float_of_int ops)
              ~plain:(lp.plain_ms /. float_of_int lp.plain_ops) );
        ]

(* A round's result.  [setup] is the (raw, scaled) set-up time in s,
   [raw] and [scaled] are each (throughput, per-op samples), and [keys]
   names the distinct op of each sample. *)
let make_result ctx ~setup ~raw ~scaled ~keys ~ops ~failed ~errors ~counts ~layers =
  let times (setup_s, (throughput, samples)) = { setup_s; throughput; samples } in
  let p = ctx.probe in
  let slices = Stdlib.max 1 (p.Probe.rejected + Probe.kept p) in
  {
    scaled = times (snd setup, scaled);
    raw = times (fst setup, raw);
    keys;
    ops;
    failed;
    errors;
    counts;
    layers;
    rss_mb = peak_rss_mb ();
    probe_ms = Probe.median_ms p;
    probe_rejected_pct = 100. *. float_of_int p.Probe.rejected /. float_of_int slices;
  }

(* The result of a round of back-to-back ops: throughput is ops per
   second of op time, the benchmark's own checks and probe slices
   between ops excluded. *)
let loop_result ctx ~setup lp ~counts ~layers =
  let raw = Samples.to_array lp.samples and at = Samples.to_array lp.at in
  let slowdown = Probe.slowdown ctx.probe in
  let scaled = Array.mapi (fun i ms -> ms /. slowdown at.(i)) raw in
  let per_s a = float_of_int (Array.length a) /. (Array.fold_left ( +. ) 0. a /. 1e3) in
  make_result ctx ~setup ~raw:(per_s raw, raw) ~scaled:(per_s scaled, scaled)
    ~keys:(Array.map int_of_float (Samples.to_array lp.keys))
    ~ops:lp.tally.attempted
    ~failed:lp.tally.failures ~errors:lp.tally.why ~counts ~layers
