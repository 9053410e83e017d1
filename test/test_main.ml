(* Entry point: every suite from the per-area test modules. *)

let () =
  Alcotest.run "fractaltensor"
    (Test_tensor_suite.suites @ Test_fractal_suite.suites
    @ Test_frontend_suite.suites @ Test_polyhedral_suite.suites @ Test_compiler_suite.suites @ Test_simulator_suite.suites @ Test_extensions_suite.suites @ Test_parser_suite.suites @ Test_vm_suite.suites @ Test_fuzz_suite.suites
    @ Test_analysis_suite.suites @ Test_effects_suite.suites
    @ Test_observe_suite.suites
    @ Test_runtime_suite.suites @ Test_tune_suite.suites
    @ Test_compiled_suite.suites
    @ Test_serve_suite.suites
    @ Test_golden_suite.suites @ Test_conform_suite.suites
    @ Test_dist_suite.suites @ Test_facts_suite.suites
    @ Test_closed_form_suite.suites
    @ Test_cli_suite.suites)
