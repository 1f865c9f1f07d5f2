(* The engine bundle: the streaming race/atomicity engines must agree
   byte-for-byte with the offline passes on any causal reordering of any
   execution, survive kill-and-resume at arbitrary points, and refuse to
   resume under a different engine set. *)

module W = Jmpax.Wire
module E = Jmpax.Wire.Error
module C = Jmpax.Checkpoint
module PE = Predict.Engine

let exec_of_program ~seed program =
  let r = Tml.Vm.run_program ~sched:(Tml.Sched.random ~seed) program in
  Option.get r.Tml.Vm.exec

let offline_verdicts exec =
  ( Predict.Race.verdict_of_report (Predict.Race.detect exec),
    Predict.Atomicity.verdict_of_report (Predict.Atomicity.analyze exec) )

(* Feed the execution's messages, arbitrarily reordered, through the
   bundle: causal delivery must linearize them back into verdicts
   identical to the in-order offline scan. *)
let engine_verdicts ~reorder exec =
  let bundle =
    Predict.Engines.create ~kinds:[ PE.Race; PE.Atomicity ]
      ~nthreads:(Trace.Exec.nthreads exec) ~init:(Trace.Exec.init exec)
      ~spec:None ()
  in
  List.iter (Predict.Engines.feed bundle)
    (reorder (PE.messages_of_exec exec));
  Predict.Engines.finish bundle;
  let lines = Predict.Engines.verdict_lines bundle in
  (List.assoc "race" lines, List.assoc "atomicity" lines)

let reorderings =
  [ ("in-order", fun ms -> ms);
    ("reversed", List.rev);
    ("shuffled(7)", Observer.Channel.shuffle ~seed:7);
    ("shuffled(23)", Observer.Channel.shuffle ~seed:23) ]

let fixture_programs =
  [ ("racy counter", Tml.Programs.racy_counter ~increments:2);
    ("locked counter", Tml.Programs.locked_counter ~increments:2);
    ("dekker sketch", Tml.Programs.dekker_sketch);
    ( "unprotected remote write",
      Tml.Parser.parse_program
        {| shared counter = 0;
           thread a { sync (m) { counter = counter + 1; } }
           thread b { counter = 5; } |} ) ]

let test_engines_equal_offline_fixtures () =
  List.iter
    (fun (pname, program) ->
      List.iter
        (fun seed ->
          let exec = exec_of_program ~seed program in
          let race_off, atom_off = offline_verdicts exec in
          List.iter
            (fun (oname, reorder) ->
              let race_on, atom_on = engine_verdicts ~reorder exec in
              Alcotest.(check string)
                (Printf.sprintf "%s seed=%d %s: race" pname seed oname)
                race_off race_on;
              Alcotest.(check string)
                (Printf.sprintf "%s seed=%d %s: atomicity" pname seed oname)
                atom_off atom_on)
            reorderings)
        [ 0; 1; 2; 3; 4 ])
    fixture_programs

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_engine_verdict_contents () =
  let verdicts program =
    engine_verdicts ~reorder:(fun ms -> ms) (exec_of_program ~seed:0 program)
  in
  let race_racy, _ = verdicts (Tml.Programs.racy_counter ~increments:2) in
  Alcotest.(check bool) "racy counter races" true
    (contains race_racy "RACES PREDICTED");
  let race_ok, atom_ok = verdicts (Tml.Programs.locked_counter ~increments:2) in
  Alcotest.(check bool) "locked counter race-free" true
    (contains race_ok "no data races predicted");
  Alcotest.(check bool) "locked counter serializable" true
    (contains atom_ok "serializable");
  let _, atom_bad = verdicts (List.assoc "unprotected remote write" fixture_programs) in
  Alcotest.(check bool) "unprotected write violates atomicity" true
    (contains atom_bad "VIOLATIONS PREDICTED");
  (* The operational contract: every engine line is greppable under the
     one canonical prefix. *)
  List.iter
    (fun line ->
      Alcotest.(check bool) "canonical predict. prefix" true
        (String.length line > 8 && String.sub line 0 8 = "predict."))
    [ race_racy; race_ok; atom_ok; atom_bad ]

(* {1 Random programs (qcheck): offline == online under reordering} *)

(* Threads of plain assignments and sync blocks over a 3-variable pool
   and two locks; right-hand sides read a shared variable half the
   time, so the race and atomicity cores both get real work. *)
let gen_sync_program =
  QCheck.Gen.(
    let var = oneofl [ "a"; "b"; "c" ] in
    let expr =
      oneof
        [ map (fun n -> `Const n) (int_bound 3);
          map2 (fun v k -> `Read (v, k)) var (int_bound 2) ]
    in
    let assign = pair var expr in
    let item =
      oneof
        [ map (fun a -> `Plain a) assign;
          map2
            (fun l assigns -> `Sync (l, assigns))
            (oneofl [ "m"; "n" ])
            (list_size (int_range 1 2) assign) ]
    in
    let thread = list_size (int_range 1 4) item in
    triple
      (list_size (int_range 2 3) thread)
      (int_bound 1000) (int_bound 1000))

let render_expr = function
  | `Const n -> string_of_int n
  | `Read (v, k) -> Printf.sprintf "%s + %d" v k

let render_program threads =
  let stmt (x, e) = Printf.sprintf "%s = %s;" x (render_expr e) in
  let item = function
    | `Plain a -> stmt a
    | `Sync (l, assigns) ->
        Printf.sprintf "sync (%s) { %s }" l
          (String.concat " " (List.map stmt assigns))
  in
  Printf.sprintf "shared a = 0, b = 0, c = 0;\n%s"
    (String.concat "\n"
       (List.mapi
          (fun i items ->
            Printf.sprintf "thread t%d { %s }" i
              (String.concat " " (List.map item items)))
          threads))

let print_sync_program (threads, sched_seed, reorder_seed) =
  Printf.sprintf "sched=%d reorder=%d\n%s" sched_seed reorder_seed
    (render_program threads)

let arb_sync_program = QCheck.make ~print:print_sync_program gen_sync_program

let qcheck_engines_equal_offline =
  QCheck.Test.make
    ~name:"random sync programs: streaming engines == offline passes"
    ~count:80 arb_sync_program (fun (threads, sched_seed, reorder_seed) ->
      let program = Tml.Parser.parse_program (render_program threads) in
      let exec = exec_of_program ~seed:sched_seed program in
      let race_off, atom_off = offline_verdicts exec in
      let race_on, atom_on =
        engine_verdicts
          ~reorder:(Observer.Channel.shuffle ~seed:reorder_seed)
          exec
      in
      race_off = race_on && atom_off = atom_on)

(* {1 Kill/resume differential, per engine set} *)

let in_temp_file f =
  let path = Filename.temp_file "jmpax" ".ckpt" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ ".tmp") then Sys.remove (path ^ ".tmp"))
    (fun () -> f path)

(* A framed wire document carrying the all-events messages the engines
   consume (reads included), exactly what [jmpax run --engine race]
   records. *)
let engine_stream_doc ~sched_seed program =
  let exec = exec_of_program ~seed:sched_seed program in
  let header =
    { W.nthreads = Trace.Exec.nthreads exec; init = Trace.Exec.init exec }
  in
  W.Framed.encode header (PE.messages_of_exec exec)

let engine_sets =
  [ ("race", [ PE.Race ]);
    ("atomicity", [ PE.Atomicity ]);
    ("race+atomicity", [ PE.Race; PE.Atomicity ]);
    ("lattice+race+atomicity", [ PE.Lattice; PE.Race; PE.Atomicity ]) ]

let test_kill_resume_per_engine () =
  let program = Tml.Programs.racy_counter ~increments:2 in
  let spec = Pastltl.Fparser.parse "always counter <= 1" in
  let doc = engine_stream_doc ~sched_seed:3 program in
  List.iter
    (fun (name, engines) ->
      let expected =
        match Jmpax.Stream.run_string ~chunk_size:13 ~engines ~spec doc with
        | Ok o -> o
        | Error e -> Alcotest.failf "%s: uninterrupted: %s" name (E.to_string e)
      in
      let rng = Random.State.make [| 0x9e7; String.length doc |] in
      let kill_points =
        List.init 8 (fun _ -> Random.State.int rng (String.length doc + 1))
      in
      List.iter
        (fun kill ->
          in_temp_file (fun path ->
              let prefix = String.sub doc 0 kill in
              ignore
                (Jmpax.Stream.run_string ~chunk_size:7 ~checkpoint:(path, 1)
                   ~engines ~spec prefix);
              let resumed =
                if Sys.file_exists path then begin
                  let ck =
                    match C.read path with
                    | Ok ck -> ck
                    | Error e ->
                        Alcotest.failf "%s kill=%d: read: %s" name kill
                          (C.error_to_string e)
                  in
                  (match C.validate ~spec ck with
                  | Ok () -> ()
                  | Error e ->
                      Alcotest.failf "%s kill=%d: validate: %s" name kill
                        (C.error_to_string e));
                  Jmpax.Stream.run_string ~chunk_size:13 ~resume:ck ~engines
                    ~spec doc
                end
                else Jmpax.Stream.run_string ~chunk_size:13 ~engines ~spec doc
              in
              match resumed with
              | Error e ->
                  Alcotest.failf "%s kill=%d: resume: %s" name kill
                    (E.to_string e)
              | Ok o ->
                  (* The whole summary — engine verdict lines included —
                     must be byte-identical to never having stopped. *)
                  Alcotest.(check string)
                    (Printf.sprintf "%s kill=%d: summary" name kill)
                    (Jmpax.Report.stream_summary expected)
                    (Jmpax.Report.stream_summary o);
                  Alcotest.(check bool)
                    (Printf.sprintf "%s kill=%d: verdict lines" name kill)
                    true
                    (expected.Jmpax.Stream.s_engines = o.Jmpax.Stream.s_engines)))
        kill_points)
    engine_sets

let test_resume_engine_set_mismatch () =
  let program = Tml.Programs.racy_counter ~increments:2 in
  let spec = Pastltl.Formula.True in
  let doc = engine_stream_doc ~sched_seed:1 program in
  in_temp_file (fun path ->
      (match
         Jmpax.Stream.run_string ~checkpoint:(path, 1) ~engines:[ PE.Race ]
           ~spec doc
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "race-only run: %s" (E.to_string e));
      Alcotest.(check bool) "checkpoint written" true (Sys.file_exists path);
      let ck =
        match C.read path with
        | Ok ck -> ck
        | Error e -> Alcotest.failf "read: %s" (C.error_to_string e)
      in
      let expect_refused label engines =
        match Jmpax.Stream.run_string ~resume:ck ~engines ~spec doc with
        | Error (E.Checkpoint _) -> ()
        | Error e ->
            Alcotest.failf "%s: wrong error: %s" label (E.to_string e)
        | Ok _ -> Alcotest.failf "%s: resume under wrong engine set" label
      in
      expect_refused "lattice" [ PE.Lattice ];
      expect_refused "race+atomicity" [ PE.Race; PE.Atomicity ];
      (* The matching set still resumes. *)
      match Jmpax.Stream.run_string ~resume:ck ~engines:[ PE.Race ] ~spec doc with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "matching set: %s" (E.to_string e))

(* An evicted stream's checkpoint holds one delivery front for both
   linear engines.  The racy counter's first message, moved to the end
   of the stream, holds every later message of its thread back; the
   third one breaches the causal budget, and the evict checkpoint must
   resume, with no budget, to the whole run's verdict lines. *)
let test_evict_checkpoint_resumes () =
  let exec =
    exec_of_program ~seed:3 (Tml.Programs.racy_counter ~increments:3)
  in
  let header =
    { W.nthreads = Trace.Exec.nthreads exec; init = Trace.Exec.init exec }
  in
  let doc =
    match PE.messages_of_exec exec with
    | first :: rest -> W.Framed.encode header (rest @ [ first ])
    | [] -> Alcotest.fail "no messages"
  in
  let engines = [ PE.Race; PE.Atomicity ] and spec = Pastltl.Formula.True in
  in_temp_file (fun path ->
      (match
         Jmpax.Stream.run_string ~checkpoint:(path, 1) ~engines ~spec
           ~budget:(Jmpax.Budget.limits ~max_causal_buffered:2 ())
           ~on_overload:Jmpax.Budget.Evict doc
       with
      | exception Jmpax.Budget.Exceeded (Jmpax.Budget.Causal_buffered _) -> ()
      | exception Jmpax.Budget.Exceeded b ->
          Alcotest.failf "wrong breach: %s" (Jmpax.Budget.breach_message b)
      | Ok _ -> Alcotest.fail "the causal budget was not enforced"
      | Error e -> Alcotest.failf "evicted run: %s" (E.to_string e));
      let ck =
        match C.read path with
        | Ok ck -> ck
        | Error e -> Alcotest.failf "read: %s" (C.error_to_string e)
      in
      match Jmpax.Stream.run_string ~resume:ck ~engines ~spec doc with
      | Error e -> Alcotest.failf "resume: %s" (E.to_string e)
      | Ok o ->
          Alcotest.(check (list (pair string string)))
            "the whole run's verdict lines"
            [ ("race", "predict.race: RACES PREDICTED on {counter} (12 accesses)");
              ("atomicity", "predict.atomicity: all 0 sync blocks serializable") ]
            o.Jmpax.Stream.s_engines)

(* {1 Front-end parity: check == stream, engine line for engine line} *)

let test_pipeline_stream_parity () =
  let program = Tml.Programs.racy_counter ~increments:2 in
  let spec = Pastltl.Formula.True in
  let config =
    Jmpax.Config.default () |> Jmpax.Config.with_engine_names "race,atomicity"
  in
  let output = Jmpax.Pipeline.check ~config ~spec program in
  Alcotest.(check int) "two engine lines" 2
    (List.length output.Jmpax.Pipeline.engines);
  let exec = Option.get output.Jmpax.Pipeline.run.Tml.Vm.exec in
  let header =
    { W.nthreads = Trace.Exec.nthreads exec; init = Trace.Exec.init exec }
  in
  let doc = W.Framed.encode header (PE.messages_of_exec exec) in
  match
    Jmpax.Stream.run_string ~engines:[ PE.Race; PE.Atomicity ] ~spec doc
  with
  | Error e -> Alcotest.failf "stream: %s" (E.to_string e)
  | Ok o ->
      List.iter2
        (fun (en, el) (sn, sl) ->
          Alcotest.(check string) "engine name" en sn;
          Alcotest.(check string) (en ^ " verdict line") el sl)
        output.Jmpax.Pipeline.engines o.Jmpax.Stream.s_engines;
      Alcotest.(check bool) "violated agrees" o.Jmpax.Stream.s_violated
        output.Jmpax.Pipeline.engines_violated

(* {1 Engine selection} *)

let test_kind_parsing () =
  (match PE.kinds_of_string "race,atomicity,race" with
  | Ok ks ->
      Alcotest.(check string) "deduplicated, order kept" "race,atomicity"
        (PE.kinds_to_string ks)
  | Error e -> Alcotest.failf "parse: %s" e);
  (match PE.kinds_of_string " lattice , race " with
  | Ok ks ->
      Alcotest.(check string) "trimmed" "lattice,race" (PE.kinds_to_string ks)
  | Error e -> Alcotest.failf "parse: %s" e);
  (match PE.kinds_of_string "turbo" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown engine accepted");
  match PE.kinds_of_string "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty selection accepted"

let () =
  Alcotest.run "engines"
    [ ( "differential",
        [ Alcotest.test_case "fixtures: engines == offline" `Quick
            test_engines_equal_offline_fixtures;
          QCheck_alcotest.to_alcotest qcheck_engines_equal_offline;
          Alcotest.test_case "verdict contents" `Quick
            test_engine_verdict_contents ] );
      ( "kill/resume",
        [ Alcotest.test_case "parity per engine set" `Quick
            test_kill_resume_per_engine;
          Alcotest.test_case "engine-set mismatch refused" `Quick
            test_resume_engine_set_mismatch;
          Alcotest.test_case "evict checkpoint resumes" `Quick
            test_evict_checkpoint_resumes ] );
      ( "parity",
        [ Alcotest.test_case "check == stream verdict lines" `Quick
            test_pipeline_stream_parity ] );
      ( "registry",
        [ Alcotest.test_case "kind parsing" `Quick test_kind_parsing ] ) ]
