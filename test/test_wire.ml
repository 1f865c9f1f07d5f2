(* The streaming trace path: decoder hardening, framed wire v2, the
   incremental reader, recovery policies and backpressure.

   The round-trip and adversarial properties here are the in-suite
   counterpart of the CI fuzz smoke ([fuzz_wire.exe]): every malformed
   input must surface as a typed [Wire.Error.t], never an exception. *)

module W = Jmpax.Wire
module E = Jmpax.Wire.Error

let error : E.t Alcotest.testable = Alcotest.testable E.pp ( = )

let msg ?(eid = 0) tid var value clock =
  Trace.Message.make ~eid ~tid ~var ~value ~mvc:(Vclock.of_list clock)

let same_payload (a : Trace.Message.t) (b : Trace.Message.t) =
  a.tid = b.tid && a.var = b.var && a.value = b.value && Vclock.equal a.mvc b.mvc

let check_payloads what expected got =
  Alcotest.(check int) (what ^ ": count") (List.length expected) (List.length got);
  List.iteri
    (fun i (a, b) ->
      if not (same_payload a b) then
        Alcotest.failf "%s: message %d differs: %s vs %s" what i
          (W.encode_message a) (W.encode_message b))
    (List.combine expected got)

(* {1 decode_var (the "%4_" regression)} *)

let test_decode_var_rejects_mangled () =
  let reject s expected =
    match W.decode_var s with
    | Error e -> Alcotest.check error (Printf.sprintf "reject %S" s) expected e
    | Ok v -> Alcotest.failf "accepted %S as %S" s v
  in
  (* The historical bug: [int_of_string_opt "0x4_"] is [Some 4], so the
     mangled escape silently decoded as '\x04'. *)
  reject "%4_" (E.Bad_escape "%4_");
  reject "%_4" (E.Bad_escape "%_4");
  reject "%G1" (E.Bad_escape "%G1");
  reject "%1G" (E.Bad_escape "%1G");
  reject "%-1" (E.Bad_escape "%-1");
  reject "%+4" (E.Bad_escape "%+4");
  reject "% 41" (E.Bad_escape "% 41");
  reject "a%zzb" (E.Bad_escape "a%zzb");
  reject "%4" (E.Truncated_escape "%4");
  reject "%" (E.Truncated_escape "%");
  reject "abc%2" (E.Truncated_escape "abc%2")

let test_decode_var_accepts_valid () =
  let accept s expected =
    match W.decode_var s with
    | Ok v -> Alcotest.(check string) (Printf.sprintf "decode %S" s) expected v
    | Error e -> Alcotest.failf "rejected %S: %s" s (E.to_string e)
  in
  accept "plain" "plain";
  accept "a%20b" "a b";
  accept "%2A" "*";
  accept "%2a" "*";
  accept "%0Anext" "\nnext";
  accept "%25" "%";
  accept "%00" "\x00"

let test_var_roundtrip =
  QCheck.Test.make ~name:"encode_var/decode_var round-trip" ~count:500
    QCheck.(string_gen_of_size (Gen.int_range 0 20) Gen.char)
    (fun v ->
      match W.decode_var (W.encode_var v) with
      | Ok v' -> v' = v
      | Error e -> QCheck.Test.fail_reportf "rejected own encoding: %s" (E.to_string e))

(* {1 v1 header hardening} *)

let v1_doc lines = String.concat "\n" ("jmpax-trace 1" :: lines)

let expect_v1_error name doc expected =
  match W.decode doc with
  | Error e -> Alcotest.check error name expected e
  | Ok _ -> Alcotest.failf "%s: accepted %S" name doc

let test_v1_duplicate_threads () =
  expect_v1_error "duplicate threads"
    (v1_doc [ "threads 2"; "threads 2"; "msg 0 x 1 (1,0)" ])
    (E.Duplicate_threads "threads 2");
  (* A second threads line changing the width must not rebind
     validation either. *)
  expect_v1_error "duplicate threads, different count"
    (v1_doc [ "threads 2"; "threads 3" ])
    (E.Duplicate_threads "threads 3")

let test_v1_misplaced_threads () =
  expect_v1_error "threads after a message"
    (v1_doc [ "threads 2"; "msg 0 x 1 (1,0)"; "threads 2" ])
    (E.Misplaced_threads "threads 2")

let test_v1_tid_out_of_range () =
  expect_v1_error "tid >= nthreads"
    (v1_doc [ "threads 2"; "msg 2 x 1 (1,0)" ])
    (E.Tid_out_of_range { tid = 2; nthreads = 2 });
  expect_v1_error "negative tid"
    (v1_doc [ "threads 2"; "msg -1 x 1 (1,0)" ])
    (E.Tid_out_of_range { tid = -1; nthreads = 2 })

let test_v1_clock_width_mismatch () =
  expect_v1_error "clock wider than header"
    (v1_doc [ "threads 2"; "msg 0 x 1 (1,0,0)" ])
    (E.Clock_width_mismatch { width = 3; expected = 2 });
  expect_v1_error "clock narrower than header"
    (v1_doc [ "threads 3"; "msg 0 x 1 (1,0)" ])
    (E.Clock_width_mismatch { width = 2; expected = 3 })

let test_v1_inconsistent_own_component () =
  expect_v1_error "own component zero"
    (v1_doc [ "threads 2"; "msg 0 x 1 (0,0)" ])
    (E.Inconsistent_message "msg 0 x 1 (0,0)")

let test_v1_body_before_threads () =
  expect_v1_error "msg before threads"
    (v1_doc [ "msg 0 x 1 (1)" ])
    E.Missing_threads;
  expect_v1_error "init before threads" (v1_doc [ "init x 0" ]) E.Missing_threads

(* {1 Round-trip laws} *)

(* Random traces: structurally valid headers and messages (tid in range,
   clock width = nthreads, own component >= 1); causal consistency is
   irrelevant at the wire layer. *)
let gen_trace =
  QCheck.Gen.(
    let var =
      let weird = [ "x"; "y"; "a b"; "p%q"; "n\nl"; "t\tt"; "%"; "caf\xc3\xa9" ] in
      oneof [ oneofl weird; string_size ~gen:char (int_range 1 6) ]
    in
    int_range 1 4 >>= fun nthreads ->
    list_size (int_range 0 3) (pair var (int_range (-5) 5)) >>= fun init ->
    list_size (int_range 0 25)
      (int_range 0 (nthreads - 1) >>= fun tid ->
       var >>= fun v ->
       int_range (-100) 100 >>= fun value ->
       array_size (return nthreads) (int_range 0 6) >>= fun clock ->
       clock.(tid) <- max 1 clock.(tid);
       return (tid, v, value, Array.to_list clock))
    >>= fun msgs ->
    return ({ W.nthreads; init }, List.map (fun (t, v, x, c) -> msg t v x c) msgs))

let print_trace (h, ms) =
  W.encode h ms |> String.escaped

let arb_trace = QCheck.make ~print:print_trace gen_trace

let roundtrip_ok name decode doc h ms =
  match decode doc with
  | Error e -> QCheck.Test.fail_reportf "%s: %s" name (E.to_string e)
  | Ok (h', ms') ->
      h'.W.nthreads = h.W.nthreads && h'.W.init = h.W.init
      && List.length ms = List.length ms'
      && List.for_all2 same_payload ms ms'
      (* eids must record arrival order *)
      && List.for_all2 (fun i (m : Trace.Message.t) -> m.eid = i)
           (List.init (List.length ms') Fun.id)
           ms'

let test_roundtrip_v1 =
  QCheck.Test.make ~name:"decode (encode h ms) = Ok (h, ms)" ~count:300 arb_trace
    (fun (h, ms) -> roundtrip_ok "v1" W.decode (W.encode h ms) h ms)

let test_roundtrip_framed =
  QCheck.Test.make ~name:"decode_framed (Framed.encode h ms) = Ok (h, ms)"
    ~count:300 arb_trace (fun (h, ms) ->
      roundtrip_ok "framed" W.decode_framed (W.Framed.encode h ms) h ms)

let test_decode_any_sniffs =
  QCheck.Test.make ~name:"decode_any sniffs both formats" ~count:100 arb_trace
    (fun (h, ms) ->
      roundtrip_ok "any/v1" W.decode_any (W.encode h ms) h ms
      && roundtrip_ok "any/v2" W.decode_any (W.Framed.encode h ms) h ms)

(* The incremental reader must be insensitive to chunk boundaries. *)
let reader_drain_items doc ~chunks =
  let r = W.Reader.create () in
  let items = ref [] and skips = ref 0 in
  let rec drain () =
    match W.Reader.next r with
    | W.Reader.Item i ->
        items := i :: !items;
        drain ()
    | W.Reader.Skip _ ->
        incr skips;
        drain ()
    | W.Reader.Await -> ()
    | W.Reader.Eof -> ()
  in
  let rec feed pos = function
    | [] ->
        W.Reader.close r;
        drain ()
    | n :: rest ->
        let n = min n (String.length doc - pos) in
        W.Reader.feed r (String.sub doc pos n);
        drain ();
        feed (pos + n) rest
  in
  let rec plan pos = function
    | [] -> if pos < String.length doc then [ String.length doc - pos ] else []
    | n :: rest ->
        if pos >= String.length doc then []
        else n :: plan (pos + min n (String.length doc - pos)) rest
  in
  feed 0 (plan 0 chunks);
  (List.rev !items, !skips)

let gen_chunks = QCheck.Gen.(list_size (int_range 1 200) (int_range 1 13))

let arb_trace_chunked =
  QCheck.make
    ~print:(fun ((h, ms), _) -> print_trace (h, ms))
    QCheck.Gen.(pair gen_trace gen_chunks)

let test_reader_chunk_insensitive =
  QCheck.Test.make ~name:"Reader is chunk-boundary insensitive" ~count:300
    arb_trace_chunked (fun ((h, ms), chunks) ->
      let doc = W.Framed.encode h ms in
      let items, skips = reader_drain_items doc ~chunks in
      if skips <> 0 then QCheck.Test.fail_reportf "clean stream produced %d skips" skips;
      let headers =
        List.filter_map (function W.Reader.Header h -> Some h | _ -> None) items
      in
      let msgs =
        List.filter_map (function W.Reader.Msg m -> Some m | _ -> None) items
      in
      let ends =
        List.filter_map (function W.Reader.End_of_thread t -> Some t | _ -> None) items
      in
      headers = [ h ]
      && List.length msgs = List.length ms
      && List.for_all2 same_payload ms msgs
      && List.sort compare ends = List.init h.W.nthreads Fun.id)

(* {1 Adversarial corpus} *)

(* Typed errors, never exceptions: mutate valid streams and drain both
   the strict decoder and the skipping reader. *)
let mutate rng doc =
  let pick n = Random.State.int rng n in
  let b = Bytes.of_string doc in
  let n = Bytes.length b in
  match pick 6 with
  | 0 when n > 0 ->
      (* flip one byte *)
      let i = pick n in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + pick 255)));
      Bytes.to_string b
  | 1 when n > 0 -> String.sub doc 0 (pick n) (* truncate *)
  | 2 ->
      (* insert garbage *)
      let i = pick (n + 1) in
      let len = 1 + pick 8 in
      let junk = String.init len (fun _ -> Char.chr (pick 256)) in
      String.sub doc 0 i ^ junk ^ String.sub doc i (n - i)
  | 3 when n > 1 ->
      (* delete a span *)
      let i = pick n in
      let len = 1 + pick (min 16 (n - i)) in
      String.sub doc 0 i ^ String.sub doc (i + len) (n - i - len)
  | 4 when n > 0 ->
      (* duplicate a span *)
      let i = pick n in
      let len = 1 + pick (min 32 (n - i)) in
      String.sub doc 0 (i + len) ^ String.sub doc i (n - i)
  | _ -> String.init (1 + pick 64) (fun _ -> Char.chr (pick 256))

let no_exceptions_on doc ~chunks =
  (match W.decode_framed doc with Ok _ | Error _ -> ());
  (match W.decode_any doc with Ok _ | Error _ -> ());
  let _items, _skips = reader_drain_items doc ~chunks in
  ()

let test_adversarial_corpus () =
  let rng = Random.State.make [| 0xC0FFEE |] in
  let h, ms =
    ( { W.nthreads = 2; init = [ ("x", 0); ("odd var", 1) ] },
      [ msg 0 "x" 1 [ 1; 0 ]; msg 1 "odd var" 2 [ 0; 1 ]; msg 0 "x" 3 [ 2; 0 ] ] )
  in
  let base = W.Framed.encode h ms in
  for _ = 1 to 1_000 do
    let doc = mutate rng base in
    let chunks = List.init (1 + Random.State.int rng 8) (fun _ -> 1 + Random.State.int rng 9) in
    match no_exceptions_on doc ~chunks with
    | () -> ()
    | exception e ->
        Alcotest.failf "decoder raised %s on %S" (Printexc.to_string e) doc
  done

let test_framed_skip_counts () =
  let h = { W.nthreads = 1; init = [] } in
  let ms = [ msg 0 "x" 1 [ 1 ]; msg 0 "x" 2 [ 2 ] ] in
  let doc = W.Framed.encode h ms in
  (* Splice noise between two frames: the reader must skip it, count the
     resync, and still deliver every frame. *)
  let split = String.length W.Framed.preamble + String.length (W.Framed.encode_header h) in
  let noisy = String.sub doc 0 split ^ "NOISE" ^ String.sub doc split (String.length doc - split) in
  let r = W.Reader.create () in
  W.Reader.feed r noisy;
  W.Reader.close r;
  let rec drain acc =
    match W.Reader.next r with
    | W.Reader.Item i -> drain (`Item i :: acc)
    | W.Reader.Skip { error; bytes } -> drain (`Skip (error, bytes) :: acc)
    | W.Reader.Await -> drain acc
    | W.Reader.Eof -> List.rev acc
  in
  let events = drain [] in
  let skips = List.filter_map (function `Skip s -> Some s | _ -> None) events in
  (match skips with
  | [ (E.Lost_sync 5, "NOISE") ] -> ()
  | _ -> Alcotest.failf "expected one Lost_sync 5 skip, got %d skips" (List.length skips));
  let msgs = List.filter_map (function `Item (W.Reader.Msg m) -> Some m | _ -> None) events in
  check_payloads "frames after resync" ms msgs;
  let s = W.Reader.stats r in
  Alcotest.(check int) "resyncs" 1 s.W.Reader.resyncs;
  Alcotest.(check int) "skipped bytes" 5 s.W.Reader.skipped_bytes

(* {1 Stream driver: parity with the offline pipeline} *)

let paper_examples =
  [ ("landing (Fig. 1/5)", Tml.Programs.landing_bounded, Tml.Programs.landing_observed,
     Pastltl.Formula.landing_spec);
    ("xyz (Fig. 6)", Tml.Programs.xyz, Tml.Programs.xyz_observed,
     Pastltl.Formula.xyz_spec) ]

(* The recorded trace of one monitored run, exactly as [jmpax run -o]
   writes it. *)
let recorded_trace program script spec =
  let config =
    Jmpax.Config.default () |> Jmpax.Config.with_sched (Tml.Sched.of_script script)
  in
  let out = Jmpax.Pipeline.check ~config ~spec program in
  let relevant = out.Jmpax.Pipeline.relevant_vars in
  let header =
    { W.nthreads = List.length program.Tml.Ast.threads;
      init = List.filter (fun (x, _) -> List.mem x relevant) program.Tml.Ast.shared }
  in
  (out, header, out.Jmpax.Pipeline.run.Tml.Vm.messages)

let test_stream_matches_check () =
  List.iter
    (fun (name, program, script, spec) ->
      let out, header, messages = recorded_trace program script spec in
      let doc = W.Framed.encode header messages in
      List.iter
        (fun chunk_size ->
          match Jmpax.Stream.run_string ~chunk_size ~spec doc with
          | Error e -> Alcotest.failf "%s: stream failed: %s" name (E.to_string e)
          | Ok o ->
              (* The acceptance bar: the verdict line is byte-identical. *)
              Alcotest.(check string)
                (Printf.sprintf "%s (chunk %d): verdict line" name chunk_size)
                (Jmpax.Pipeline.verdict_line (Jmpax.Pipeline.predicted_violation out))
                (Jmpax.Pipeline.verdict_line o.Jmpax.Stream.s_violated);
              Alcotest.(check int)
                (Printf.sprintf "%s: messages" name)
                (List.length messages)
                o.Jmpax.Stream.s_stats.Jmpax.Stream.messages;
              Alcotest.(check bool)
                (Printf.sprintf "%s: complete" name)
                true
                (o.Jmpax.Stream.s_stats.Jmpax.Stream.incomplete = None))
        [ 1; 7; 64 * 1024 ])
    paper_examples

let test_stream_over_fifo () =
  (* The real transport: a named pipe with a writer in another domain,
     read through the same code path as [jmpax stream FIFO]. *)
  let name, program, script, spec = List.nth paper_examples 0 in
  let out, header, messages = recorded_trace program script spec in
  let doc = W.Framed.encode header messages in
  let dir = Filename.temp_file "jmpax" ".fifo.d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "trace.fifo" in
  Unix.mkfifo path 0o600;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Unix.rmdir dir)
    (fun () ->
      let writer =
        Domain.spawn (fun () ->
            (* Opening the write end blocks until the reader arrives. *)
            let oc = open_out_bin path in
            output_string oc doc;
            close_out oc)
      in
      let ic = open_in_bin path in
      let result =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            Jmpax.Stream.run ~spec ~read:(fun buf pos len -> input ic buf pos len) ())
      in
      Domain.join writer;
      match result with
      | Error e -> Alcotest.failf "%s over FIFO: %s" name (E.to_string e)
      | Ok o ->
          Alcotest.(check string) "FIFO verdict line"
            (Jmpax.Pipeline.verdict_line (Jmpax.Pipeline.predicted_violation out))
            (Jmpax.Pipeline.verdict_line o.Jmpax.Stream.s_violated))

(* {1 Recovery policies} *)

(* A landing trace with the payload of one message frame corrupted in a
   way that survives framing (the frame is well-delimited but its tid is
   out of range). *)
let corrupted_landing () =
  let _, header, messages = List.nth paper_examples 0 |> fun (_, p, s, f) -> recorded_trace p s f in
  (* The victim must have a successor in its own thread, otherwise the
     loss is unobservable (nothing ever waits on the gap). *)
  let victim =
    let rec pick = function
      | (m : Trace.Message.t) :: rest
        when List.exists (fun (m' : Trace.Message.t) -> m'.tid = m.tid) rest ->
          m
      | _ :: rest -> pick rest
      | [] -> Alcotest.fail "no thread emits two messages"
    in
    pick messages
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf W.Framed.preamble;
  Buffer.add_string buf (W.Framed.encode_header header);
  List.iter
    (fun (m : Trace.Message.t) ->
      if m == victim then
        (* Same length, invalid tid: "msg 9 ...". *)
        let line = W.encode_message m in
        let mangled = "msg 9" ^ String.sub line 5 (String.length line - 5) in
        Buffer.add_string buf (W.Framed.frame W.Framed.kind_message mangled)
      else Buffer.add_string buf (W.Framed.encode_message m))
    messages;
  for tid = 0 to header.W.nthreads - 1 do
    Buffer.add_string buf (W.Framed.encode_end tid)
  done;
  (Buffer.contents buf, victim, List.length messages)

let landing_spec = Pastltl.Formula.landing_spec

let test_recovery_fail () =
  let doc, _, _ = corrupted_landing () in
  match Jmpax.Stream.run_string ~spec:landing_spec doc with
  | Error (E.Tid_out_of_range _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "fail policy accepted a corrupt frame"

let test_recovery_skip () =
  let doc, victim, _total = corrupted_landing () in
  match Jmpax.Stream.run_string ~recovery:Jmpax.Config.Skip ~spec:landing_spec doc with
  | Error e -> Alcotest.failf "skip policy failed: %s" (E.to_string e)
  | Ok o ->
      let s = o.Jmpax.Stream.s_stats in
      Alcotest.(check int) "one frame skipped" 1 s.Jmpax.Stream.skipped_frames;
      (* The lost message leaves a gap: the verdict covers the prefix and
         the report says which message never arrived. *)
      Alcotest.(check bool) "gap reported" true
        (s.Jmpax.Stream.incomplete
        = Some (victim.Trace.Message.tid, Trace.Message.seq victim))

let test_recovery_quarantine () =
  let doc, _, _ = corrupted_landing () in
  let bin = Buffer.create 64 in
  match
    Jmpax.Stream.run_string ~recovery:Jmpax.Config.Quarantine
      ~quarantine:(Buffer.add_string bin) ~spec:landing_spec doc
  with
  | Error e -> Alcotest.failf "quarantine policy failed: %s" (E.to_string e)
  | Ok o ->
      let s = o.Jmpax.Stream.s_stats in
      Alcotest.(check int) "quarantined bytes" (Buffer.length bin)
        s.Jmpax.Stream.quarantined_bytes;
      Alcotest.(check bool) "quarantine preserves the mangled payload" true
        (Buffer.length bin > 0
        &&
        let q = Buffer.contents bin in
        let rec find i =
          i + 5 <= String.length q && (String.sub q i 5 = "msg 9" || find (i + 1))
        in
        find 0)

let test_recovery_skip_noise_keeps_verdict () =
  (* Raw garbage between frames (not a lost frame): every message still
     arrives, so the verdict must match the clean run exactly. *)
  let _, program, script, spec = List.nth paper_examples 0 in
  let out, header, messages = recorded_trace program script spec in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf W.Framed.preamble;
  Buffer.add_string buf (W.Framed.encode_header header);
  List.iteri
    (fun i m ->
      if i = 1 then Buffer.add_string buf "\x01garbage between frames\x02";
      Buffer.add_string buf (W.Framed.encode_message m))
    messages;
  for tid = 0 to header.W.nthreads - 1 do
    Buffer.add_string buf (W.Framed.encode_end tid)
  done;
  match
    Jmpax.Stream.run_string ~recovery:Jmpax.Config.Skip ~spec (Buffer.contents buf)
  with
  | Error e -> Alcotest.failf "noise: %s" (E.to_string e)
  | Ok o ->
      let s = o.Jmpax.Stream.s_stats in
      Alcotest.(check bool) "resynced" true (s.Jmpax.Stream.resyncs >= 1);
      Alcotest.(check bool) "nothing lost" true (s.Jmpax.Stream.incomplete = None);
      Alcotest.(check string) "verdict unchanged"
        (Jmpax.Pipeline.verdict_line (Jmpax.Pipeline.predicted_violation out))
        (Jmpax.Pipeline.verdict_line o.Jmpax.Stream.s_violated)

(* {1 Backpressure} *)

(* A single-thread stream delivered in reverse order: every message but
   the last is out of order. *)
let reversed_singlethread n =
  let header = { W.nthreads = 1; init = [ ("x", 0) ] } in
  let ms = List.init n (fun i -> msg 0 "x" (i + 1) [ i + 1 ]) in
  (header, List.rev ms)

let test_online_backpressure () =
  let header, rev_ms = reversed_singlethread 4 in
  let o =
    Predict.Online.create ~max_buffered:2 ~nthreads:header.W.nthreads
      ~init:header.W.init ~spec:Pastltl.Formula.True ()
  in
  match List.iter (Predict.Online.feed o) rev_ms with
  | () -> Alcotest.fail "bound of 2 absorbed 3 out-of-order messages"
  | exception Predict.Online.Backpressure { buffered; limit } ->
      Alcotest.(check int) "limit" 2 limit;
      Alcotest.(check int) "buffered at the bound" 2 buffered

(* [check] feeds what the channel delivers to the online analyzer under
   the same bound: a channel that reorders more than [max_buffered]
   messages at once is refused. *)
let test_ingest_backpressure () =
  let config max_buffered =
    Jmpax.Config.default ()
    |> Jmpax.Config.with_channel (Jmpax.Config.Shuffled 3)
    |> Jmpax.Config.with_max_buffered max_buffered
  in
  let check max_buffered =
    Jmpax.Pipeline.check ~config:(config max_buffered) ~spec:(Pastltl.Fparser.parse "v0 >= 0")
      (Tml.Programs.independent ~threads:1 ~writes:8)
  in
  (match check (Some 2) with
  | _ -> Alcotest.fail "bound of 2 absorbed a shuffled 8-message thread"
  | exception Predict.Online.Backpressure { buffered; limit } ->
      Alcotest.(check int) "limit" 2 limit;
      Alcotest.(check int) "buffered at the bound" 2 buffered);
  Alcotest.(check bool) "a generous bound passes" false
    (Jmpax.Pipeline.predicted_violation (check (Some 8)))

let test_stream_backpressure_enforced () =
  let header, rev_ms = reversed_singlethread 6 in
  let doc = W.Framed.encode header rev_ms in
  (match Jmpax.Stream.run_string ~max_buffered:2 ~spec:Pastltl.Formula.True doc with
  | Error (E.Backpressure { limit = 2; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "backpressure bound not enforced");
  (* A generous bound passes, and reports the true peak. *)
  match Jmpax.Stream.run_string ~max_buffered:16 ~spec:Pastltl.Formula.True doc with
  | Error e -> Alcotest.failf "bound 16: %s" (E.to_string e)
  | Ok o ->
      Alcotest.(check int) "peak out-of-order" 5
        o.Jmpax.Stream.s_stats.Jmpax.Stream.peak_buffered

let with_metrics f =
  Telemetry.Metrics.reset ();
  (* Both tiers, as [--metrics] would: the GC test below asserts the
     deep [online.gc_removed] counter. *)
  Telemetry.Metrics.enable_deep ();
  Fun.protect ~finally:Telemetry.Metrics.disable f

let test_stream_max_buffered_gauge () =
  let header, rev_ms = reversed_singlethread 4 in
  let doc = W.Framed.encode header rev_ms in
  with_metrics (fun () ->
      (match Jmpax.Stream.run_string ~max_buffered:8 ~spec:Pastltl.Formula.True doc with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "stream: %s" (E.to_string e));
      let dump = Telemetry.Metrics.to_text () in
      let has needle =
        let n = String.length needle and h = String.length dump in
        let rec at i = i + n <= h && (String.sub dump i n = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) "gauge in dump" true (has "stream.max_buffered = 8");
      Alcotest.(check bool) "peak in dump" true (has "stream.peak_buffered = 3"))

(* {1 Online GC (the quadratic re-scan fix)} *)

let test_online_gc_collects_store () =
  let _, program, script, spec = List.nth paper_examples 1 in
  let config =
    Jmpax.Config.default () |> Jmpax.Config.with_sched (Tml.Sched.of_script script)
  in
  let out = Jmpax.Pipeline.check ~config ~spec program in
  let messages = out.Jmpax.Pipeline.run.Tml.Vm.messages in
  let relevant = out.Jmpax.Pipeline.relevant_vars in
  let init =
    List.filter (fun (x, _) -> List.mem x relevant) program.Tml.Ast.shared
  in
  with_metrics (fun () ->
      let o =
        Predict.Online.create
          ~nthreads:(List.length program.Tml.Ast.threads)
          ~init ~spec ()
      in
      Predict.Online.feed_all o messages;
      Predict.Online.finish o;
      (* Every consumed message is collected exactly once: the gc counter
         equals the message count (no re-scans, no leftovers). *)
      Alcotest.(check int) "store fully collected" 0 (Predict.Online.buffered o);
      Alcotest.(check int) "each message removed exactly once"
        (List.length messages)
        (Telemetry.Metrics.value (Telemetry.Metrics.counter "online.gc_removed")))

(* {1 Wire v3: delta-encoded binary clocks} *)

let test_roundtrip_v3 =
  QCheck.Test.make ~name:"decode_framed (Framed3.encode h ms) = Ok (h, ms)"
    ~count:300 arb_trace (fun (h, ms) ->
      roundtrip_ok "v3" W.decode_framed (W.Framed3.encode h ms) h ms
      && roundtrip_ok "any/v3" W.decode_any (W.Framed3.encode h ms) h ms)

(* v2 and v3 are two encodings of the same stream: decoding either must
   yield payload-identical messages in the same order. *)
let test_v2_v3_parity =
  QCheck.Test.make ~name:"v3 decodes to exactly what v2 decodes to" ~count:300
    arb_trace (fun (h, ms) ->
      match
        (W.decode_framed (W.Framed.encode h ms), W.decode_framed (W.Framed3.encode h ms))
      with
      | Ok (h2, ms2), Ok (h3, ms3) ->
          h2 = h3
          && List.length ms2 = List.length ms3
          && List.for_all2 same_payload ms2 ms3
          && List.for_all2
               (fun (a : Trace.Message.t) (b : Trace.Message.t) -> a.eid = b.eid)
               ms2 ms3
      | Error e, _ | _, Error e ->
          QCheck.Test.fail_reportf "parity: %s" (E.to_string e))

let test_reader_chunk_insensitive_v3 =
  QCheck.Test.make ~name:"Reader is chunk-boundary insensitive (v3)" ~count:300
    arb_trace_chunked (fun ((h, ms), chunks) ->
      let doc = W.Framed3.encode h ms in
      let items, skips = reader_drain_items doc ~chunks in
      if skips <> 0 then
        QCheck.Test.fail_reportf "clean v3 stream produced %d skips" skips;
      let headers =
        List.filter_map (function W.Reader.Header h -> Some h | _ -> None) items
      in
      let msgs =
        List.filter_map (function W.Reader.Msg m -> Some m | _ -> None) items
      in
      let ends =
        List.filter_map (function W.Reader.End_of_thread t -> Some t | _ -> None) items
      in
      headers = [ h ]
      && List.length msgs = List.length ms
      && List.for_all2 same_payload ms msgs
      && List.sort compare ends = List.init h.W.nthreads Fun.id)

let test_v3_deterministic () =
  let h = { W.nthreads = 2; init = [ ("x", 0) ] } in
  let ms = [ msg 0 "x" 1 [ 1; 0 ]; msg 1 "x" 2 [ 1; 1 ]; msg 0 "x" 3 [ 2; 1 ] ] in
  (* Determinism is what keeps replay-from-zero reconnects sound: the
     redialled writer's bytes must match what the reader already saw. *)
  Alcotest.(check string) "same input, same bytes" (W.Framed3.encode h ms)
    (W.Framed3.encode h ms)

(* A hand-assembled v3 stream: preamble, header, then [frames]. *)
let v3_doc h frames =
  W.Framed3.preamble ^ W.Framed3.encode_header h ^ String.concat "" frames

let drain_all doc =
  let r = W.Reader.create () in
  W.Reader.feed r doc;
  W.Reader.close r;
  let rec go acc =
    match W.Reader.next r with
    | W.Reader.Item i -> go (`Item i :: acc)
    | W.Reader.Skip { error; bytes } -> go (`Skip (error, bytes) :: acc)
    | W.Reader.Await -> go acc
    | W.Reader.Eof -> List.rev acc
  in
  go []

let skip_errors events =
  List.filter_map (function `Skip (e, _) -> Some e | _ -> None) events

let delivered_msgs events =
  List.filter_map (function `Item (W.Reader.Msg m) -> Some m | _ -> None) events

let test_v3_truncated_varint () =
  let h = { W.nthreads = 1; init = [] } in
  (* flags byte says "full clock", then a varint that never ends. *)
  let doc =
    v3_doc h [ W.Framed.frame W.Framed3.kind_message "\x01\xff" ]
  in
  let events = drain_all doc in
  (match skip_errors events with
  | [ E.Bad_varint _ ] -> ()
  | es ->
      Alcotest.failf "expected one Bad_varint skip, got [%s]"
        (String.concat "; " (List.map E.to_string es)));
  Alcotest.(check int) "nothing delivered" 0 (List.length (delivered_msgs events))

let test_v3_stale_baseline_after_skip () =
  (* Skipped bytes may have hidden a message, so every delta baseline is
     poisoned: the next delta frame must error, and only a full clock
     (here: the writer's [reset]) re-anchors the thread. *)
  let h = { W.nthreads = 1; init = [ ("x", 0) ] } in
  let m1 = msg ~eid:0 0 "x" 1 [ 1 ] in
  let m2 = msg ~eid:1 0 "x" 2 [ 2 ] in
  let m3 = msg ~eid:2 0 "x" 3 [ 3 ] in
  let enc = W.Framed3.encoder h in
  let f1 = W.Framed3.encode_message enc m1 in
  let f2 = W.Framed3.encode_message enc m2 in
  W.Framed3.reset enc;
  let f3 = W.Framed3.encode_message enc m3 in
  let doc = v3_doc h [ f1; "NOISE"; f2; f3; W.Framed3.encode_end 0 ] in
  let events = drain_all doc in
  (match skip_errors events with
  | [ E.Lost_sync 5; E.Stale_delta_baseline { tid = 0 } ] -> ()
  | es ->
      Alcotest.failf "expected Lost_sync then Stale_delta_baseline, got [%s]"
        (String.concat "; " (List.map E.to_string es)));
  (* m2 is lost with the baseline; the full-clock m3 still lands with
     the right absolute clock. *)
  check_payloads "survivors" [ m1; m3 ] (delivered_msgs events)

let test_v3_mixed_versions_hard_error () =
  let h = { W.nthreads = 1; init = [] } in
  let m = msg 0 "x" 1 [ 1 ] in
  (* A v2 message frame inside a v3 stream... *)
  let doc3 = v3_doc h [ W.Framed.encode_message m ] in
  (match W.decode_framed doc3 with
  | Error (E.Version_mismatch { stream = 3; frame = 2 }) -> ()
  | Error e -> Alcotest.failf "v2-in-v3: wrong error: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "v2-in-v3 frame decoded");
  (* ... and a v3 message frame inside a v2 stream. *)
  let enc = W.Framed3.encoder h in
  let doc2 =
    W.Framed.preamble ^ W.Framed.encode_header h
    ^ W.Framed3.encode_message enc m
  in
  (match W.decode_framed doc2 with
  | Error (E.Version_mismatch { stream = 2; frame = 3 }) -> ()
  | Error e -> Alcotest.failf "v3-in-v2: wrong error: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "v3-in-v2 frame decoded");
  (* The skipping reader surfaces the same typed error, not a decode. *)
  let events = drain_all doc3 in
  match skip_errors events with
  | [ E.Version_mismatch { stream = 3; frame = 2 } ] -> ()
  | es ->
      Alcotest.failf "reader: expected Version_mismatch, got [%s]"
        (String.concat "; " (List.map E.to_string es))

(* Found by the fuzzer: a forged v3 header claiming a huge thread count
   must be a typed error, not a quadratic allocation. *)
let test_v3_thread_limit () =
  let forged =
    W.Framed3.preamble ^ W.Framed.frame W.Framed3.kind_header "threads 999999999"
  in
  (match skip_errors (drain_all forged) with
  | [ E.Bad_thread_count _ ] -> ()
  | es ->
      Alcotest.failf "expected Bad_thread_count, got [%s]"
        (String.concat "; " (List.map E.to_string es)));
  (* At the limit it still works end to end. *)
  let h = { W.nthreads = W.Framed3.max_threads; init = [] } in
  let m = msg 0 "x" 1 (1 :: List.init (W.Framed3.max_threads - 1) (fun _ -> 0)) in
  (match W.decode_framed (W.Framed3.encode h [ m ]) with
  | Ok (h', [ m' ]) ->
      Alcotest.(check int) "width survives" h.W.nthreads h'.W.nthreads;
      Alcotest.(check bool) "payload survives" true (same_payload m m')
  | Ok _ -> Alcotest.fail "wrong message count"
  | Error e -> Alcotest.failf "limit-width stream rejected: %s" (E.to_string e));
  (* One past it, the encoder refuses outright. *)
  let over = { W.nthreads = W.Framed3.max_threads + 1; init = [] } in
  match W.Framed3.encoder over with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encoder accepted a clock wider than the v3 limit"

let test_v3_unknown_var_id () =
  let h = { W.nthreads = 1; init = [] } in
  (* full clock, tid 0, var id 7 (never defined), value 0, clock [1] *)
  let payload = "\x01\x00\x07\x00\x01" in
  let doc = v3_doc h [ W.Framed.frame W.Framed3.kind_message payload ] in
  let events = drain_all doc in
  match skip_errors events with
  | [ E.Unknown_var_id { id = 7; defined = 0 } ] -> ()
  | es ->
      Alcotest.failf "expected Unknown_var_id, got [%s]"
        (String.concat "; " (List.map E.to_string es))

(* The E20 workload shape in miniature: wide clocks, sparse updates —
   the case the delta encoding exists for. *)
let test_v3_wide_clocks_are_smaller () =
  let nthreads = 64 in
  let h = { W.nthreads; init = [ ("x", 0) ] } in
  (* Per the paper's Algorithm A, a thread's clock changes only in its
     own entry between its consecutive messages, plus the entries it
     learns when reading a peer's write: sparse deltas, wide clocks. *)
  let clocks = Array.init nthreads (fun _ -> Array.make nthreads 0) in
  let ms =
    List.init 512 (fun i ->
        let tid = i * 7 mod nthreads in
        let c = clocks.(tid) in
        c.(tid) <- c.(tid) + 1;
        if i mod 8 = 0 then begin
          let peer = (tid + (i mod 13) + 1) mod nthreads in
          c.(peer) <- max c.(peer) clocks.(peer).(peer)
        end;
        msg ~eid:i tid "x" i (Array.to_list c))
  in
  let v2 = W.Framed.encode h ms and v3 = W.Framed3.encode h ms in
  if String.length v3 * 3 > String.length v2 then
    Alcotest.failf "v3 not 3x smaller on wide sparse clocks: %d vs %d bytes"
      (String.length v3) (String.length v2);
  roundtrip_ok "wide" W.decode_framed v3 h ms |> ignore

(* {1 Frame-size symmetry (the Frame_too_large asymmetry fix)} *)

let test_frame_boundary () =
  let limit = W.Framed.default_max_frame in
  let at = String.make limit 'a' and over = String.make (limit + 1) 'a' in
  (* Exactly at the reader's limit: both sides accept. *)
  (match W.Framed.frame_result 'M' at with
  | Ok f ->
      (* sentinel + kind + u32 length + trailing newline *)
      let overhead = String.length W.Framed.sentinel + 6 in
      Alcotest.(check int) "framed length" (limit + overhead) (String.length f)
  | Error e -> Alcotest.failf "frame at the limit rejected: %s" (E.to_string e));
  (* One byte over: the encoder fails with the same typed error the
     reader would report, instead of emitting an undecodable frame. *)
  (match W.Framed.frame_result 'M' over with
  | Error (E.Frame_too_large { length; limit = l }) ->
      Alcotest.(check int) "length" (limit + 1) length;
      Alcotest.(check int) "limit" limit l
  | Error e -> Alcotest.failf "wrong error: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "frame over the limit accepted");
  (match W.Framed.frame 'M' over with
  | exception W.Frame_overflow { kind = 'M'; length; limit = l } ->
      Alcotest.(check int) "exn length" (limit + 1) length;
      Alcotest.(check int) "exn limit" limit l
  | _ -> Alcotest.fail "frame over the limit did not raise");
  (* The high-level encoders inherit the check: a message whose encoding
     cannot fit any legal frame raises instead of corrupting the stream. *)
  let h = { W.nthreads = 1; init = [] } in
  let giant = msg 0 (String.make (limit + 1) 'v') 1 [ 1 ] in
  (match W.Framed.encode h [ giant ] with
  | exception W.Frame_overflow _ -> ()
  | _ -> Alcotest.fail "v2 encode accepted an overflowing message");
  match W.Framed3.encode h [ giant ] with
  | exception W.Frame_overflow _ -> ()
  | _ -> Alcotest.fail "v3 encode accepted an overflowing message"

(* A message frame at exactly the limit must round-trip through the
   reader: the boundary is inclusive on both sides. *)
let test_frame_boundary_roundtrip () =
  let limit = W.Framed.default_max_frame in
  let pad = String.length (W.encode_message (msg 0 "" 1 [ 1 ])) in
  let m = msg 0 (String.make (limit - pad) 'v') 1 [ 1 ] in
  Alcotest.(check int) "payload is exactly the limit" limit
    (String.length (W.encode_message m));
  let h = { W.nthreads = 1; init = [] } in
  match W.decode_framed (W.Framed.encode h [ m ]) with
  | Ok (_, [ m' ]) ->
      Alcotest.(check bool) "payload survives" true (same_payload m m')
  | Ok (_, ms) -> Alcotest.failf "expected 1 message, got %d" (List.length ms)
  | Error e -> Alcotest.failf "limit-sized frame rejected: %s" (E.to_string e)

let test_adversarial_corpus_v3 () =
  let rng = Random.State.make [| 0xBEEF3 |] in
  let h, ms =
    ( { W.nthreads = 2; init = [ ("x", 0); ("odd var", 1) ] },
      [ msg 0 "x" 1 [ 1; 0 ]; msg 1 "odd var" 2 [ 0; 1 ]; msg 0 "x" 3 [ 2; 0 ] ] )
  in
  let base = W.Framed3.encode h ms in
  for _ = 1 to 1_000 do
    let doc = mutate rng base in
    let chunks = List.init (1 + Random.State.int rng 8) (fun _ -> 1 + Random.State.int rng 9) in
    match no_exceptions_on doc ~chunks with
    | () -> ()
    | exception e ->
        Alcotest.failf "v3 decoder raised %s on %S" (Printexc.to_string e) doc
  done

(* v3 through the full stream driver: verdict parity with the offline
   pipeline, the acceptance bar of the format change. *)
let test_stream_matches_check_v3 () =
  List.iter
    (fun (name, program, script, spec) ->
      let out, header, messages = recorded_trace program script spec in
      let doc = W.Framed3.encode header messages in
      List.iter
        (fun chunk_size ->
          match Jmpax.Stream.run_string ~chunk_size ~spec doc with
          | Error e -> Alcotest.failf "%s (v3): stream failed: %s" name (E.to_string e)
          | Ok o ->
              Alcotest.(check string)
                (Printf.sprintf "%s (v3, chunk %d): verdict line" name chunk_size)
                (Jmpax.Pipeline.verdict_line (Jmpax.Pipeline.predicted_violation out))
                (Jmpax.Pipeline.verdict_line o.Jmpax.Stream.s_violated);
              Alcotest.(check int)
                (Printf.sprintf "%s (v3): messages" name)
                (List.length messages)
                o.Jmpax.Stream.s_stats.Jmpax.Stream.messages)
        [ 1; 7; 64 * 1024 ])
    paper_examples

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ test_var_roundtrip;
      test_roundtrip_v1;
      test_roundtrip_framed;
      test_decode_any_sniffs;
      test_reader_chunk_insensitive;
      test_roundtrip_v3;
      test_v2_v3_parity;
      test_reader_chunk_insensitive_v3 ]

let () =
  Alcotest.run "wire"
    [ ( "decode_var",
        [ Alcotest.test_case "rejects mangled escapes" `Quick
            test_decode_var_rejects_mangled;
          Alcotest.test_case "accepts valid escapes" `Quick test_decode_var_accepts_valid ] );
      ( "v1 hardening",
        [ Alcotest.test_case "duplicate threads" `Quick test_v1_duplicate_threads;
          Alcotest.test_case "misplaced threads" `Quick test_v1_misplaced_threads;
          Alcotest.test_case "tid out of range" `Quick test_v1_tid_out_of_range;
          Alcotest.test_case "clock width" `Quick test_v1_clock_width_mismatch;
          Alcotest.test_case "own component" `Quick test_v1_inconsistent_own_component;
          Alcotest.test_case "body before threads" `Quick test_v1_body_before_threads ] );
      ("laws", qcheck_tests);
      ( "adversarial",
        [ Alcotest.test_case "mutations never raise" `Quick test_adversarial_corpus;
          Alcotest.test_case "v3 mutations never raise" `Quick
            test_adversarial_corpus_v3;
          Alcotest.test_case "resync counts" `Quick test_framed_skip_counts ] );
      ( "wire v3",
        [ Alcotest.test_case "deterministic encoding" `Quick test_v3_deterministic;
          Alcotest.test_case "truncated varint" `Quick test_v3_truncated_varint;
          Alcotest.test_case "stale baseline after skip" `Quick
            test_v3_stale_baseline_after_skip;
          Alcotest.test_case "mixed v2/v3 hard-errors" `Quick
            test_v3_mixed_versions_hard_error;
          Alcotest.test_case "unknown var id" `Quick test_v3_unknown_var_id;
          Alcotest.test_case "thread-count ceiling" `Quick test_v3_thread_limit;
          Alcotest.test_case "wide sparse clocks shrink 3x" `Quick
            test_v3_wide_clocks_are_smaller ] );
      ( "frame bounds",
        [ Alcotest.test_case "encoder rejects what the reader would" `Quick
            test_frame_boundary;
          Alcotest.test_case "limit-sized frame round-trips" `Quick
            test_frame_boundary_roundtrip ] );
      ( "stream",
        [ Alcotest.test_case "verdicts match check" `Quick test_stream_matches_check;
          Alcotest.test_case "verdicts match check (v3)" `Quick
            test_stream_matches_check_v3;
          Alcotest.test_case "over a FIFO" `Quick test_stream_over_fifo ] );
      ( "recovery",
        [ Alcotest.test_case "fail" `Quick test_recovery_fail;
          Alcotest.test_case "skip" `Quick test_recovery_skip;
          Alcotest.test_case "quarantine" `Quick test_recovery_quarantine;
          Alcotest.test_case "skip keeps verdict on noise" `Quick
            test_recovery_skip_noise_keeps_verdict ] );
      ( "backpressure",
        [ Alcotest.test_case "online raises at the bound" `Quick test_online_backpressure;
          Alcotest.test_case "ingest rejects at the bound" `Quick test_ingest_backpressure;
          Alcotest.test_case "stream enforces --max-buffered" `Quick
            test_stream_backpressure_enforced;
          Alcotest.test_case "gauge visible in metrics" `Quick
            test_stream_max_buffered_gauge ] );
      ( "gc",
        [ Alcotest.test_case "store collected once, fully" `Quick
            test_online_gc_collects_store ] ) ]
