(* Aggregated test entry point; each module contributes its suites. *)
let () =
  (* As in the daemons: a peer that hung up (a client that gave up on
     its answer, say) must surface as EPIPE on the in-process server's
     write, not kill the runner. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "rip"
    (List.concat
       [
         Test_numerics.suite;
         Test_obs.suite;
         Test_tech.suite;
         Test_net.suite;
         Test_elmore.suite;
         Test_dp.suite;
         Test_refine.suite;
         Test_core.suite;
         Test_engine.suite;
         Test_service.suite;
         Test_router.suite;
         Test_frontend.suite;
         Test_resilience.suite;
         Test_workload.suite;
         Test_tree.suite;
         Test_integration.suite;
       ])
