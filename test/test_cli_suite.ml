(* Subprocess tests for the ftc driver's exit codes and stream
   discipline: analysis/lint/conform failures exit 1, human-readable
   diagnostics go to stderr, and in --format json mode stdout carries
   exactly one JSON document and nothing else. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let ftc = Filename.concat ".." (Filename.concat "bin" "ftc.exe")
let example name = "../examples/programs/" ^ name ^ ".ft"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run `ftc args` under the environment assignments [env] (shell
   syntax, e.g. ["FT_TUNE_DB=/tmp/x "]), capturing exit code, stdout
   and stderr. *)
let run_ftc ?(env = "") args =
  let out = Filename.temp_file "ftc-cli" ".out" in
  let err = Filename.temp_file "ftc-cli" ".err" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove out with Sys_error _ -> ());
      try Sys.remove err with Sys_error _ -> ())
    (fun () ->
      let cmd =
        Printf.sprintf "%s%s %s > %s 2> %s" env (Filename.quote ftc) args
          (Filename.quote out) (Filename.quote err)
      in
      let code = Sys.command cmd in
      (code, read_file out, read_file err))

let contains s sub =
  match Str.search_forward (Str.regexp_string sub) s 0 with
  | _ -> true
  | exception Not_found -> false

let check_json what s =
  match Jsonw.validate (String.trim s) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: stdout is not one JSON document: %s" what m

(* A program the linter rejects (unused binding is L-level, so use a
   type error: matmul of mismatched shapes) and one the parser rejects
   — committed fixtures under test/fixtures/. *)
let bad_types_ft = "fixtures/cli-bad-types.ft"

(* `ftc CMD ARGS FLAG` with one bad numeric flag: a one-line diagnostic
   naming the flag on stderr, nothing on stdout, exit 1. *)
let rejects cmd args flag name =
  let code, out, err = run_ftc (String.concat " " [ cmd; args; flag ]) in
  checki (flag ^ ": exit code") 1 code;
  checkb (flag ^ ": stdout is silent") true (String.trim out = "");
  let err = String.trim err in
  checkb (flag ^ ": one line naming the flag") true
    (String.starts_with ~prefix:(cmd ^ ": " ^ name) err
    && not (String.contains err '\n'))

let serve_rejects = rejects "serve" (example "selective_scan")

(* A count below 1: "CMD: --FLAG must be at least 1". *)
let count_rejected cmd args name values =
  Alcotest.test_case
    (Printf.sprintf "%s: %s below 1 is a diagnostic, exit 1" cmd name)
    `Quick (fun () ->
      List.iter
        (fun v ->
          rejects cmd args (Printf.sprintf "%s=%d" name v)
            (name ^ " must be at least 1"))
        values)
let bad_syntax_ft = "fixtures/cli-bad-syntax.ft"

(* The doc paragraph of [flag] in `ftc cmd --help=plain`: the option
   line plus its indented description, whitespace-normalized, with the
   per-command default hidden (seed defaults legitimately differ). *)
let ws_re = Str.regexp "[ \t\n]+"
let absent_re = Str.regexp "(absent=[^)]*)"

let help_entry cmd flag =
  let code, out, _ = run_ftc (cmd ^ " --help=plain") in
  if code <> 0 then Alcotest.failf "ftc %s --help exited %d" cmd code;
  let lines = String.split_on_char '\n' out in
  let starts_with_flag l =
    let t = String.trim l in
    String.length t >= String.length flag
    && String.sub t 0 (String.length flag) = flag
  in
  let rec find = function
    | [] -> Alcotest.failf "ftc %s --help has no %s entry" cmd flag
    | l :: rest -> if starts_with_flag l then collect [ String.trim l ] rest
                   else find rest
  and collect acc = function
    | l :: rest when String.trim l <> "" -> collect (String.trim l :: acc) rest
    | _ -> String.concat " " (List.rev acc)
  in
  let entry = find lines in
  let entry = Str.global_replace absent_re "(absent=_)" entry in
  Str.global_replace ws_re " " entry

let cli_tests =
  [
    Alcotest.test_case "--help: shared flags document identically" `Quick
      (fun () ->
        (* Cli_args declares each shared flag once; the help paragraphs
           must therefore be literally identical across subcommands. *)
        let same flag cmds =
          match List.map (fun c -> (c, help_entry c flag)) cmds with
          | [] -> ()
          | (c0, e0) :: rest ->
              List.iter
                (fun (c, e) ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s: %s vs %s" flag c0 c)
                    e0 e)
                rest
        in
        same "--format" [ "lint"; "analyze"; "tune" ];
        same "--seed" [ "run"; "profile"; "conform"; "shard" ];
        same "--domains" [ "run"; "profile" ];
        same "--device" [ "simulate"; "profile"; "tune"; "shard" ];
        same "--json" [ "conform"; "cache"; "shard" ]);
    Alcotest.test_case "--help: no markup printed literally" `Quick
      (fun () ->
        (* an escaped $(b,...) in a doc string reaches the reader as
           those very characters instead of bold text *)
        List.iter
          (fun cmd ->
            let code, out, _ = run_ftc (cmd ^ " --help=plain") in
            checki (cmd ^ " --help exit code") 0 code;
            checkb (cmd ^ " --help has no literal $(b,") false
              (contains out "$(b,"))
          [ "run"; "profile"; "tune"; "cache" ]);
    Alcotest.test_case "analyze --format json: clean stdout, exit 0" `Quick
      (fun () ->
        let code, out, err = run_ftc ("analyze " ^ example "stacked_rnn" ^ " --format json") in
        checki "exit code" 0 code;
        check_json "analyze" out;
        checkb "stderr is silent on success" true (String.trim err = ""));
    Alcotest.test_case "analyze on a syntax error: exit 1, stderr only"
      `Quick (fun () ->
        let code, out, err =
          run_ftc ("analyze " ^ bad_syntax_ft ^ " --format json")
        in
        checki "exit code" 1 code;
        checkb "stdout stays empty" true (String.trim out = "");
        checkb "diagnostic on stderr" true (String.trim err <> ""));
    Alcotest.test_case "analyze on a type error: exit 1, stderr only"
      `Quick (fun () ->
        let code, out, err = run_ftc ("analyze " ^ bad_types_ft) in
        checki "exit code" 1 code;
        checkb "stdout stays empty" true (String.trim out = "");
        checkb "diagnostic on stderr" true (String.trim err <> ""));
    Alcotest.test_case "lint --format json: clean stdout, exit 0" `Quick
      (fun () ->
        let code, out, err =
          run_ftc ("lint " ^ example "stacked_rnn" ^ " --format json")
        in
        checki "exit code" 0 code;
        check_json "lint" out;
        checkb "stderr is silent on success" true (String.trim err = ""));
    Alcotest.test_case "lint failure: exit 1, JSON on stdout, text on stderr"
      `Quick (fun () ->
        let code, out, err =
          run_ftc ("lint " ^ bad_syntax_ft ^ " --format json")
        in
        checki "exit code" 1 code;
        check_json "lint (failing)" out;
        checkb "diagnostics on stderr" true (String.trim err <> ""));
    Alcotest.test_case "lint text mode keeps stdout free of diagnostics"
      `Quick (fun () ->
        let code, out, err = run_ftc ("lint " ^ bad_syntax_ft) in
        checki "exit code" 1 code;
        checkb "stdout stays empty" true (String.trim out = "");
        checkb "diagnostics on stderr" true (String.trim err <> ""));
    Alcotest.test_case "lint JSON carries check_id fields" `Quick (fun () ->
        let _, out, _ = run_ftc ("lint " ^ bad_syntax_ft ^ " --format json") in
        checkb "check_id present" true
          (let re = Str.regexp_string "\"check_id\"" in
           match Str.search_forward re out 0 with
           | _ -> true
           | exception Not_found -> false));
    Alcotest.test_case "conform replay: PASS on stdout, exit 0" `Quick
      (fun () ->
        let code, out, err =
          run_ftc
            "conform --replay corpus/conform-11a05bcc4b.ft --oracles \
             interp,compiled-seq"
        in
        checki "exit code" 0 code;
        checkb "PASS line on stdout" true
          (let re = Str.regexp_string "PASS" in
           match Str.search_forward re out 0 with
           | _ -> true
           | exception Not_found -> false);
        checkb "stderr is silent on success" true (String.trim err = ""));
    Alcotest.test_case "conform replay --json: stdout is one document"
      `Quick (fun () ->
        let code, out, _ =
          run_ftc
            "conform --replay corpus/conform-11a05bcc4b.ft --oracles \
             interp,compiled-seq --json"
        in
        checki "exit code" 0 code;
        check_json "conform replay" out);
    Alcotest.test_case "serve an underivable program: the failed rule \
                        on stderr, exit 1" `Quick (fun () ->
        let code, out, err = run_ftc ("serve " ^ example "ffn_block") in
        checki "exit code" 1 code;
        checkb "stdout is silent" true (String.trim out = "");
        let has s =
          match Str.search_forward (Str.regexp_string s) err 0 with
          | _ -> true
          | exception Not_found -> false
        in
        checkb "names the rule" true (has "not a seeded left scan or fold");
        checkb "no list of workload names" false (has "stacked_lstm"));
    Alcotest.test_case "serve a derived program: matches solo and the \
                        interpreter, exit 0" `Quick (fun () ->
        let code, out, _ = run_ftc ("serve " ^ example "selective_scan" ^ " --requests 6") in
        checki "exit code" 0 code;
        List.iter
          (fun s ->
            checkb s true
              (match Str.search_forward (Str.regexp_string s) out 0 with
              | _ -> true
              | exception Not_found -> false))
          [ "batched bitwise-matches solo"; "responses bitwise-match the reference interpreter" ]);
    Alcotest.test_case "serve has no bench mode: its flags are usage \
                        errors" `Quick (fun () ->
        (* the serving benchmark is bench/main.exe serve *)
        List.iter
          (fun flags ->
            let code, out, _ =
              run_ftc ("serve " ^ example "selective_scan" ^ " " ^ flags)
            in
            checki flags 124 code;
            checkb (flags ^ ": stdout is silent") true (String.trim out = ""))
          [ "--bench"; "--json"; "--repeat 3"; "--queue 4" ]);
    Alcotest.test_case "tune has one deterministic search: --strategy and \
                        --seed are usage errors" `Quick (fun () ->
        List.iter
          (fun flags ->
            let code, out, _ =
              run_ftc ("tune " ^ example "ffn_block" ^ " " ^ flags)
            in
            checki flags 124 code;
            checkb (flags ^ ": stdout is silent") true (String.trim out = ""))
          [ "--strategy grid"; "--strategy x"; "--seed 1" ]);
    Alcotest.test_case "serve: --requests below 0 is a diagnostic, exit 1"
      `Quick (fun () -> serve_rejects "--requests=-1" "--requests");
    Alcotest.test_case "serve: --max-batch below 1 is a diagnostic, exit 1"
      `Quick (fun () ->
        serve_rejects "--max-batch=0" "--max-batch";
        serve_rejects "--max-batch=-1" "--max-batch");
    count_rejected "run" (example "stacked_rnn") "--domains" [ 0; -3 ];
    count_rejected "run" (example "stacked_rnn") "--repeat" [ 0; -2 ];
    count_rejected "profile" (example "stacked_rnn") "--domains" [ -1 ];
    count_rejected "serve" (example "selective_scan") "--domains" [ 0 ];
    count_rejected "conform" "" "--budget" [ 0; -1 ];
    Alcotest.test_case "serve: --rate not positive is a diagnostic, exit 1"
      `Quick (fun () ->
        serve_rejects "--rate=0" "--rate";
        serve_rejects "--rate=-1" "--rate");
    Alcotest.test_case "shard: bitwise-identical at 2 devices, exit 0" `Quick
      (fun () ->
        let code, out, err = run_ftc "shard stacked_rnn --devices 2" in
        checki "exit code" 0 code;
        checkb "bitwise verdict on stdout" true
          (let re = Str.regexp_string "bitwise-identical" in
           match Str.search_forward re out 0 with
           | _ -> true
           | exception Not_found -> false);
        checkb "stderr is silent on success" true (String.trim err = ""));
    Alcotest.test_case "shard --json: stdout is one document" `Quick
      (fun () ->
        let code, out, _ =
          run_ftc "shard b2b_gemm --devices 4 --strategy sequence --json"
        in
        checki "exit code" 0 code;
        check_json "shard" out;
        checkb "bitwise_equal true in document" true
          (let re = Str.regexp_string "\"bitwise_equal\":true" in
           match Str.search_forward re out 0 with
           | _ -> true
           | exception Not_found -> false));
  ]

(* A tuned config selects the simulated plan only: `ftc run` prints it
   as such, and the run's bitwise verdicts are those of an untuned
   run. *)
let tuned_run_unchanged () =
  let dir = Filename.temp_file "ftc-cli-tune" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let prog = example "mlp_chain" in
      let with_db = Printf.sprintf "FT_TUNE_DB=%s " (Filename.quote dir) in
      let code, out, _ =
        run_ftc ~env:with_db ("tune " ^ prog ^ " --budget 16")
      in
      checki "tune exit code" 0 code;
      checkb "tune names the cost unit" true
        (contains out "modelled A100-SXM4-40GB µs (analytical)");
      checkb "tune finds a non-default config" false
        (contains out "(1.00x)  default\n");
      let tuned_code, tuned, _ = run_ftc ~env:with_db ("run " ^ prog) in
      let plain_code, plain, _ = run_ftc ~env:"FT_TUNE_DB= " ("run " ^ prog) in
      checki "tuned run exit code" 0 tuned_code;
      checki "untuned run exit code" 0 plain_code;
      checkb "tuned line labelled as selecting the simulated plan" true
        (contains tuned "tuned config: "
        && contains tuned "(selects the simulated plan only;");
      checkb "untuned run prints no tuned line" false
        (contains plain "tuned config:");
      let verdicts s =
        List.filter
          (fun l -> contains l "bitwise" || contains l "DIFFERS")
          (String.split_on_char '\n' s)
      in
      checki "two verdicts" 2 (List.length (verdicts tuned));
      Alcotest.(check (list string))
        "verdicts unchanged by the tuned config" (verdicts plain)
        (verdicts tuned))

let cli_tests =
  cli_tests
  @ [
      Alcotest.test_case "tune then run: the tuned line selects the \
                          simulated plan, verdicts unchanged" `Quick
        tuned_run_unchanged;
    ]

let suites = [ ("cli", cli_tests) ]
