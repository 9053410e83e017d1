(* Golden-file snapshot tests for the machine-readable reports: the
   lint, profile and tune JSON documents over the example programs.

   The full documents are checked for well-formedness with
   Jsonw.validate; the golden comparison runs on a stable subset —
   every Float is redacted to Null (costs and simulated times depend
   on the device model's constants, which are allowed to evolve) and
   the environment-dependent "db_path" field is dropped — so the
   snapshots pin field names, field order, structure and every
   integer/string field, without freezing the cost model.

   Regenerate after an intentional report change with:
     FT_GOLDEN_UPDATE=1 dune runtest
   and review the diff under test/golden/ like any other code. *)

let example_dir = "../examples/programs"
let golden_dir = "golden"

(* Tests run from _build/default/test; the source tree's copy — the
   one that must be committed — is three levels up. *)
let golden_src_dir = "../../../test/golden"

let update_mode = Sys.getenv_opt "FT_GOLDEN_UPDATE" = Some "1"

let examples =
  [
    "attention_block"; "conv1d"; "ffn_block"; "mlp_chain"; "selective_scan";
    "stacked_rnn";
  ]

let example_path name = Filename.concat example_dir (name ^ ".ft")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* Floats -> Null, drop "db_path": the stable subset. *)
let rec redact (v : Jsonw.t) : Jsonw.t =
  match v with
  | Jsonw.Float _ -> Jsonw.Null
  | Jsonw.List l -> Jsonw.List (List.map redact l)
  | Jsonw.Obj kvs ->
      Jsonw.Obj
        (List.filter_map
           (fun (k, v) ->
             if k = "db_path" then None else Some (k, redact v))
           kvs)
  | (Jsonw.Null | Jsonw.Bool _ | Jsonw.Int _ | Jsonw.String _) as x -> x

let check_valid what json =
  match Jsonw.validate json with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: invalid JSON: %s" what msg

let check_golden name actual =
  let file = name ^ ".json" in
  if update_mode then begin
    if not (Sys.file_exists golden_src_dir) then Unix.mkdir golden_src_dir 0o755;
    write_file (Filename.concat golden_src_dir file) (actual ^ "\n")
  end
  else begin
    let path = Filename.concat golden_dir file in
    if not (Sys.file_exists path) then
      Alcotest.failf
        "missing golden file test/golden/%s — run FT_GOLDEN_UPDATE=1 dune \
         runtest to create it"
        file;
    let expected = String.trim (read_file path) in
    if expected <> actual then
      Alcotest.failf
        "golden mismatch for %s@.expected:@.%s@.actual:@.%s@.(if the change \
         is intentional: FT_GOLDEN_UPDATE=1 dune runtest)"
        file expected actual
  end

(* ------------------------------ lint ------------------------------- *)

let lint_test name =
  Alcotest.test_case ("lint json: " ^ name) `Quick (fun () ->
      let ds = Lint.file (example_path name) in
      let json = Diagnostic.list_to_json ~path:(name ^ ".ft") ds in
      check_valid ("lint " ^ name) json;
      (* lint documents carry no floats and no environment paths: the
         full rendering is already the stable subset *)
      check_golden ("lint-" ^ name) json)

(* ----------------------------- profile ----------------------------- *)

let profile_test name =
  Alcotest.test_case ("profile json: " ^ name) `Quick (fun () ->
      let plan = Pipeline.plan_file (example_path name) in
      let prof = Executor.profile ~device:Device.a100 plan in
      let full = Profile.to_jsonv prof in
      check_valid ("profile " ^ name) (Jsonw.to_string full);
      check_golden ("profile-" ^ name) (Jsonw.to_string (redact full)))

(* ------------------------------ tune ------------------------------- *)

let tune_test name =
  Alcotest.test_case ("tune json: " ^ name) `Quick (fun () ->
      (* keep the search off any ambient database: no disk persistence,
         and the in-memory store is wiped afterwards *)
      let saved = Sys.getenv_opt Tune_db.Db.env_var in
      Unix.putenv Tune_db.Db.env_var "";
      Fun.protect
        ~finally:(fun () ->
          (match saved with
          | Some v -> Unix.putenv Tune_db.Db.env_var v
          | None -> ());
          Tune_db.Db.clear ())
        (fun () ->
          let p = Parse.program_file (example_path name) in
          ignore (Typecheck.check_program p);
          let report = Tuner.tune_program ~budget:6 p in
          let full = Tuner.report_to_jsonv report in
          check_valid ("tune " ^ name) (Jsonw.to_string full);
          check_golden ("tune-" ^ name) (Jsonw.to_string (redact full))))

(* ----------------------------- analyze ----------------------------- *)

let analyze_test name =
  Alcotest.test_case ("analyze json: " ^ name) `Quick (fun () ->
      let r = Analyze.file (example_path name) in
      let full = Analyze.to_jsonv r in
      check_valid ("analyze " ^ name) (Jsonw.to_string full);
      (* analyze documents are all-integer/string by construction, but
         redact anyway so the stable-subset rule stays uniform *)
      check_golden ("analyze-" ^ name) (Jsonw.to_string (redact full)))

let suites =
  [
    ( "golden",
      List.map lint_test examples
      @ List.map profile_test examples
      @ List.map analyze_test examples
      @ List.map tune_test [ "conv1d"; "stacked_rnn" ] );
  ]
