(* The observer side in online mode: messages arrive out of order (as
   over JMPaX's sockets), the online analyzer buffers each one until
   its thread's earlier messages are in, advances the lattice as soon
   as a level's events are all available, and reaches the verdict of
   in-order delivery. Also demonstrates the Section 3.2 message-passing
   interpretation agreeing with Algorithm A on the same run.

   Run with: dune exec examples/online_observer.exe *)

let () =
  let program = Tml.Programs.xyz in
  let vars = Pastltl.Formula.vars Pastltl.Formula.xyz_spec in
  let relevance = Mvc.Relevance.writes_of_vars vars in
  let r =
    Tml.Vm.run_program ~relevance
      ~sched:(Tml.Sched.of_script Tml.Programs.xyz_observed)
      program
  in
  let messages = r.Tml.Vm.messages in
  Format.printf "emitted:   %a@."
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "  ")
       Trace.Message.pp)
    messages;
  let scrambled = Observer.Channel.shuffle ~seed:11 messages in
  Format.printf "delivered: %a@.@."
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "  ")
       Trace.Message.pp)
    scrambled;
  (* Feed one by one; watch the lattice advance and the store drain. *)
  let online =
    Predict.Online.create ~nthreads:2 ~init:program.Tml.Ast.shared
      ~spec:Pastltl.Formula.xyz_spec ()
  in
  List.iter
    (fun m ->
      Predict.Online.feed online m;
      Format.printf "received %a -> lattice level %d (buffered %d, out of order %d)@."
        Trace.Message.pp m (Predict.Online.level online) (Predict.Online.buffered online)
        (Predict.Online.out_of_order online))
    scrambled;
  Predict.Online.finish online;
  Format.printf "@.%a@.@." Predict.Online.pp_report online;
  (* Section 3.2: the distributed interpretation reproduces Algorithm A
     message for message. *)
  (match
     Dsim.Simulate.compare_with_algorithm ~relevance (Option.get r.Tml.Vm.exec)
   with
  | Ok stats ->
      Format.printf
        "distributed interpretation agrees with Algorithm A: %d protocol messages, \
         %d hidden (one per read)@."
        stats.Dsim.Simulate.packets stats.Dsim.Simulate.hidden
  | Error _ -> print_endline "distributed interpretation DIVERGED (bug)");
  assert (Predict.Online.violated online)
