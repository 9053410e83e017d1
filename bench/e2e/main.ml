(* The end-to-end benchmark.  See README.md.

     main.exe run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
     main.exe check A.json B.json
     main.exe smoke

   [run] measures each workload for S seconds (default 20) in 20 rounds,
   each in a fresh process, plus one traced round when [--trace 1]
   (the default); it writes every record to the results file, prints a
   table, and ends with one JSON line: the end-to-end metrics with
   [--trace 0], the per-layer ones with [--trace 1].  It exits 1 when
   any op failed, after writing its results. *)

let usage () =
  prerr_endline
    "usage: main.exe run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
    \       main.exe check A.json B.json\n\
    \       main.exe smoke";
  exit 2

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("error: " ^ s); exit 2) fmt

(* --key value flags after the subcommand, and the positional rest. *)
let parse_flags args =
  let rec go flags pos = function
    | [] -> (flags, List.rev pos)
    | ("--traced" | "--tiny") as k :: rest -> go ((k, "1") :: flags) pos rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> go ((k, v) :: flags) pos rest
    | [ k ] when String.starts_with ~prefix:"--" k -> die "%s needs a value" k
    | p :: rest -> go flags (p :: pos) rest
  in
  go [] [] args

let flag flags k ~default = Option.value (List.assoc_opt k flags) ~default

let int_flag flags k ~default =
  match int_of_string_opt (flag flags k ~default:(string_of_int default)) with
  | Some n -> n
  | None -> die "%s expects an integer" k

let seconds_flag flags ~default =
  match float_of_string_opt (flag flags "--seconds" ~default:(string_of_float default)) with
  | Some s when s > 0. && s <= 600. -> s
  | _ -> die "--seconds expects a number of seconds in (0, 600]"

let workload_named name =
  match List.find_opt (fun (w : Runner.workload) -> w.Runner.name = name) Runner.workloads with
  | Some w -> w
  | None ->
      die "unknown workload %S (have: %s)" name
        (String.concat ", " (List.map (fun (w : Runner.workload) -> w.Runner.name) Runner.workloads))

let programs_dir flags =
  let dir = flag flags "--programs" ~default:"bench/e2e/programs" in
  if not (Sys.file_exists dir && Sys.is_directory dir) then die "no program directory %s" dir;
  dir

let spec flags =
  let path = flag flags "--benchmark" ~default:"BENCHMARK.json" in
  try Spec.load path with
  | Sys_error m -> die "%s" m
  | Jsonr.Error m -> die "%s: %s" path m

let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let run flags =
  let spec = spec flags in
  let programs = programs_dir flags in
  let ws =
    match List.assoc_opt "--workload" flags with
    | Some n -> [ workload_named n ]
    | None -> Runner.workloads
  in
  let seed = int_flag flags "--seed" ~default:1 in
  let seconds = seconds_flag flags ~default:20. in
  let trace =
    match flag flags "--trace" ~default:"1" with
    | "0" -> false
    | "1" -> true
    | _ -> die "--trace expects 0 or 1"
  in
  let summaries = Runner.measure ws ~seed ~seconds ~rounds:20 ~trace ~programs ~tiny:false in
  let label = match ws with [ w ] -> w.Runner.name | _ -> "all" in
  let out =
    flag flags "--out"
      ~default:(Filename.concat Runner.out_dir (Printf.sprintf "result-%s-seed%d.json" label seed))
  in
  write_file out (Jsonw.to_string (Runner.results_json spec ~seed ~seconds summaries));
  Runner.print_table spec summaries;
  Printf.printf "results: %s\n" out;
  print_endline (Runner.last_line spec ~trace summaries);
  if List.exists (fun s -> Runner.failed s > 0) summaries then exit 1

let round flags =
  let w = workload_named (flag flags "--workload" ~default:"") in
  Runner.child w
    ~seed:(int_flag flags "--seed" ~default:1)
    ~budget_s:(seconds_flag flags ~default:1.)
    ~traced:(List.mem_assoc "--traced" flags)
    ~programs:(programs_dir flags)
    ~tiny:(List.mem_assoc "--tiny" flags)
    ~cache:(flag flags "--cache" ~default:Runner.out_dir)
    ~result_file:(flag flags "--result" ~default:"round.bin")
    ~chrome:(List.assoc_opt "--chrome" flags)

let check flags = function
  | [ a; b ] -> (
      let spec = spec flags in
      match Check.run spec a b with
      | ok -> if not ok then exit 1
      | exception (Sys_error m | Jsonr.Error m) -> die "%s" m)
  | _ -> usage ()

let () =
  match Array.to_list Sys.argv with
  | _ :: cmd :: rest -> (
      let flags, pos = parse_flags rest in
      match (cmd, pos) with
      | "run", [] -> run flags
      | "round", [] -> round flags
      | "probe-helper", [] -> Common.probe_helper_main ()
      | "check", pos -> check flags pos
      | "smoke", [] -> if not (Smoke.run (spec flags) ~programs:(programs_dir flags)) then exit 1
      | _ -> usage ())
  | _ -> usage ()
