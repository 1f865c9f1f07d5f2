(* Self-tests of the benchmark: the known-answer checker catches a wrong
   run, and the generators are deterministic in their seed with counts
   that stay within a small band across seeds. *)

open Ledger_lib

(* What the two processes report, rendered in-process by the same
   library calls the CLI uses. *)
let observed (g : Gen.t) =
  let s = Layers.load g in
  let r = Layers.vm_run g s in
  let doc = Jmpax.Wire.Framed.encode s.Layers.header r.Tml.Vm.messages in
  match Jmpax.Stream.run_string ~engines:s.Layers.kinds ~spec:s.Layers.spec doc with
  | Error e -> Alcotest.fail (Jmpax.Wire.Error.to_string e)
  | Ok o -> Answer.of_stream ~produced:(List.length r.Tml.Vm.messages) o

let test_checker () =
  let g = Gen.make Gen.Lockloop ~seed:1 in
  let right = Gen.answer g ~fuel0:false ~checkpoint:None in
  let o = observed g in
  Alcotest.(check (list string)) "the known answer scores clean" [] (Answer.score right o);
  let wrong_line =
    { right with
      Answer.verdicts =
        List.map
          (fun l -> if l = List.hd right.Answer.verdicts then l ^ " (tampered)" else l)
          right.Answer.verdicts }
  in
  Alcotest.(check int) "a wrong expected line is one error" 1
    (List.length (Answer.score wrong_line o));
  Alcotest.(check int) "a wrong exit code is one error" 1
    (List.length (Answer.score { right with Answer.exit_code = 0 } o));
  let lost = { o with Answer.produced = Some (right.Answer.messages - 1) } in
  Alcotest.(check bool) "a message-count mismatch is an error" true (Answer.score right lost <> []);
  let printed =
    Answer.of_processes ~producer_exit:0
      ~producer_stdout:(Printf.sprintf "outcome: completed\n\n%d messages written to -\n" right.Answer.messages)
      ~observer_exit:o.Answer.observer_exit ~observer_stdout:o.Answer.observer_stdout
  in
  Alcotest.(check (list string)) "the producer's count is read from its output" []
    (Answer.score right printed)

let test_same_seed_same_source () =
  List.iter
    (fun w ->
      let a = Gen.make w ~seed:7 and b = Gen.make w ~seed:7 in
      Alcotest.(check string) (Gen.name w ^ ": byte-identical source") a.Gen.source b.Gen.source;
      Alcotest.(check bool)
        (Gen.name w ^ ": another seed, another program")
        true
        ((Gen.make w ~seed:8).Gen.source <> a.Gen.source))
    Gen.all

(* Counts on three seeds stay within [band] of each other, and the VM
   emits exactly the messages the generator claims. *)
let band = 0.03

let within what xs =
  let lo = List.fold_left min max_int xs and hi = List.fold_left max 0 xs in
  if float_of_int (hi - lo) > band *. float_of_int lo then
    Alcotest.failf "%s spreads from %d to %d" what lo hi

let test_counts_in_band w () =
  let counts =
    List.map
      (fun seed ->
        let g = Gen.make w ~seed in
        let s = Layers.load g in
        let r = Layers.vm_run g s in
        Alcotest.(check int) "messages by construction" g.Gen.messages (List.length r.Tml.Vm.messages);
        let cuts =
          if g.Gen.spec = None then 0
          else
            let doc = Jmpax.Wire.Framed.encode s.Layers.header r.Tml.Vm.messages in
            let items, _, _ = Layers.decode doc in
            let _, cuts, _ = Layers.frontier_replay (Layers.computation s items) in
            cuts
        in
        (r.Tml.Vm.steps, cuts))
      [ 1; 2; 3 ]
  in
  within "tml.vm.steps" (List.map fst counts);
  within "observer.frontier.cuts" (List.map snd counts)

let () =
  Alcotest.run "ledger"
    [ ("checker", [ Alcotest.test_case "wrong answers are errors" `Quick test_checker ]);
      ( "generators",
        Alcotest.test_case "same seed, same source" `Quick test_same_seed_same_source
        :: List.map
             (fun w -> Alcotest.test_case (Gen.name w ^ " counts in band") `Slow (test_counts_in_band w))
             Gen.all ) ]
