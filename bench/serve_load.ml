(* Load generator and experiment E19 harness for the multi-tenant
   observer daemon.

     serve_load connect ADDR [--sessions N] [--events M] [--spec S]
         [--trace FILE] [--prefix P]
       N concurrent writer sessions against an already-running
       [jmpax serve] daemon at ADDR (unix:PATH or tcp:PORT).  Each
       session performs the hello handshake, replays its framed wire-v2
       stream from byte 0, and prints the verdict line the daemon wrote
       back, one `<id>: <verdict>` line per session (sorted by id) —
       the CI load-smoke diffs these against `jmpax check`.

     serve_load e19 [--json FILE] [--events M]
       Experiment E19: fork a daemon child, sweep 1 / 8 / 64 concurrent
       sessions of M events each, record aggregate throughput next to
       the single-session in-process stream baseline, SIGTERM the
       daemon and require a clean drain.

   Writers are plain blocking sockets on one thread per session — the
   parallelism under test is the daemon's, which multiplexes them all
   in a single select loop. *)

let events_default = 2000

(* {1 Synthetic trace}

   One thread, one variable: the lattice is a chain, so analyzer cost is
   linear and the bench measures the serving path, not the frontier. *)

let spec_text = "x == 1"
let spec = Pastltl.Fparser.parse spec_text

let synth_header = { Jmpax.Wire.nthreads = 1; init = [ ("x", 1) ] }

let synth_messages events =
  List.init events (fun i ->
      Trace.Message.make ~eid:i ~tid:0 ~var:"x" ~value:1
        ~mvc:(Vclock.of_array [| i + 1 |]))

let synth_trace events = Jmpax.Wire.Framed.encode synth_header (synth_messages events)

(* The verdict every session must come back with, computed through the
   same single-session stream path the daemon's outputs are measured
   against. *)
let expected_verdict payload =
  match Jmpax.Stream.run_string ~spec payload with
  | Ok o -> Jmpax.Pipeline.verdict_line o.Jmpax.Stream.s_violated
  | Error e -> failwith ("baseline stream failed: " ^ Jmpax.Wire.Error.to_string e)

(* {1 One writer session} *)

type addr = Unix_sock of string | Tcp_port of int

let parse_addr s =
  let prefixed prefix s =
    String.length s > String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  if prefixed "unix:" s then Unix_sock (String.sub s 5 (String.length s - 5))
  else if prefixed "tcp:" s then
    match int_of_string_opt (String.sub s 4 (String.length s - 4)) with
    | Some p -> Tcp_port p
    | None -> failwith ("bad tcp port in " ^ s)
  else failwith ("address must be unix:PATH or tcp:PORT, got " ^ s)

let connect addr =
  match addr with
  | Unix_sock path ->
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect sock (Unix.ADDR_UNIX path);
      sock
  | Tcp_port port ->
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect sock
        (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
      sock

let write_all sock s =
  let data = Bytes.of_string s in
  let len = Bytes.length data in
  let pos = ref 0 in
  while !pos < len do
    pos := !pos + Unix.write sock data !pos (len - !pos)
  done

let read_line_blocking sock =
  let buf = Buffer.create 64 in
  let byte = Bytes.create 1 in
  let rec go () =
    match Unix.read sock byte 0 1 with
    | 0 -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
    | _ ->
        if Bytes.get byte 0 = '\n' then Some (Buffer.contents buf)
        else begin
          Buffer.add_char buf (Bytes.get byte 0);
          go ()
        end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* The full writer protocol: hello, ack, replay from byte 0, verdict. *)
let run_session ~addr ~sid ~fp ~payload =
  let sock = connect addr in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      write_all sock (Printf.sprintf "jmpax-serve 1 %s %s\n" sid fp);
      match read_line_blocking sock with
      | None -> Error "connection closed before ack"
      | Some ack when String.length ack >= 6 && String.sub ack 0 6 = "reject"
        ->
          Error ack
      | Some _ack ->
          (* Replay from byte 0 unconditionally; the daemon discards the
             prefix it already holds. *)
          write_all sock payload;
          (match read_line_blocking sock with
          | Some verdict -> Ok verdict
          | None -> Error "connection closed before the verdict line"))

let run_sessions ~addr ~prefix ~sessions ~fp ~payload =
  let results = Array.make sessions (Error "not run") in
  let threads =
    List.init sessions (fun i ->
        Thread.create
          (fun i ->
            let sid = Printf.sprintf "%s%d" prefix i in
            results.(i) <-
              (try run_session ~addr ~sid ~fp ~payload
               with e -> Error (Printexc.to_string e)))
          i)
  in
  List.iter Thread.join threads;
  results

(* {1 connect mode} *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let connect_mode argv =
  let addr = ref "" and sessions = ref 8 and events = ref events_default in
  let prefix = ref "w" and trace = ref None and spec_arg = ref None in
  let rec parse = function
    | [] -> ()
    | "--sessions" :: n :: rest ->
        sessions := int_of_string n;
        parse rest
    | "--events" :: n :: rest ->
        events := int_of_string n;
        parse rest
    | "--prefix" :: p :: rest ->
        prefix := p;
        parse rest
    | "--trace" :: path :: rest ->
        trace := Some path;
        parse rest
    | "--spec" :: s :: rest ->
        spec_arg := Some s;
        parse rest
    | a :: rest when !addr = "" ->
        addr := a;
        parse rest
    | a :: _ -> failwith ("unexpected argument " ^ a)
  in
  parse argv;
  if !addr = "" then failwith "connect mode needs an ADDRESS (unix:PATH or tcp:PORT)";
  let addr = parse_addr !addr in
  let payload =
    match !trace with
    | Some path -> read_file path
    | None -> synth_trace !events
  in
  let fp =
    Jmpax.Checkpoint.fingerprint
      (match !spec_arg with
      | Some s -> Pastltl.Fparser.parse s
      | None -> spec)
  in
  let results =
    run_sessions ~addr ~prefix:!prefix ~sessions:!sessions ~fp ~payload
  in
  let failed = ref 0 in
  Array.iteri
    (fun i r ->
      match r with
      | Ok verdict -> Printf.printf "%s%d: %s\n" !prefix i verdict
      | Error msg ->
          incr failed;
          Printf.printf "%s%d: ERROR %s\n" !prefix i msg)
    results;
  if !failed > 0 then exit 1

(* {1 hold mode}

   One writer session that stops mid-stream and keeps the connection
   open: hello, ack, then the payload minus its tail, then block until
   the daemon closes the socket.  The CI smoke uses it to leave a
   Streaming session behind at SIGTERM so the drain's checkpoint pass
   has a session to checkpoint ([event=checkpoint] in the log). *)
let hold_mode argv =
  let addr = ref "" and sid = ref "held" and trace = ref None in
  let spec_arg = ref None and events = ref events_default and cut = ref None in
  let rec parse = function
    | [] -> ()
    | "--sid" :: s :: rest ->
        sid := s;
        parse rest
    | "--trace" :: path :: rest ->
        trace := Some path;
        parse rest
    | "--spec" :: s :: rest ->
        spec_arg := Some s;
        parse rest
    | "--events" :: n :: rest ->
        events := int_of_string n;
        parse rest
    | "--cut" :: n :: rest ->
        cut := Some (int_of_string n);
        parse rest
    | a :: rest when !addr = "" ->
        addr := a;
        parse rest
    | a :: _ -> failwith ("unexpected argument " ^ a)
  in
  parse argv;
  if !addr = "" then failwith "hold mode needs an ADDRESS (unix:PATH or tcp:PORT)";
  let addr = parse_addr !addr in
  let payload =
    match !trace with Some path -> read_file path | None -> synth_trace !events
  in
  (* Default cut: everything but the final 8 bytes — past the header
     frame (so the session has an online analyzer to checkpoint) yet
     mid-frame, so the reader parks at Await instead of finishing. *)
  let cut =
    match !cut with
    | Some n -> min n (String.length payload)
    | None -> max 0 (String.length payload - 8)
  in
  let fp =
    Jmpax.Checkpoint.fingerprint
      (match !spec_arg with Some s -> Pastltl.Fparser.parse s | None -> spec)
  in
  let sock = connect addr in
  write_all sock (Printf.sprintf "jmpax-serve 1 %s %s\n" !sid fp);
  (match read_line_blocking sock with
  | None -> failwith "connection closed before ack"
  | Some ack when String.length ack >= 6 && String.sub ack 0 6 = "reject" ->
      failwith ack
  | Some _ack -> ());
  write_all sock (String.sub payload 0 cut);
  Printf.printf "holding %s: %d of %d bytes sent\n%!" !sid cut
    (String.length payload);
  (* Block until the daemon closes the connection (drain) or we are
     killed; either way the session stayed live on the daemon side. *)
  let buf = Bytes.create 256 in
  let rec wait () =
    match Unix.read sock buf 0 (Bytes.length buf) with
    | 0 -> ()
    | _ -> wait ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ()

(* {1 E19 mode} *)

let json_records : (string * float) list ref = ref []
let record metric value = json_records := (metric, value) :: !json_records

let write_json ?(experiment = "E19") path =
  let records = List.rev !json_records in
  let oc = open_out path in
  output_string oc "[";
  List.iteri
    (fun i (m, v) ->
      Printf.fprintf oc "%s\n  {\"experiment\": %S, \"metric\": %S, \"value\": %.6g}"
        (if i = 0 then "" else ",")
        experiment m v)
    records;
  output_string oc "\n]\n";
  close_out oc;
  Printf.printf "\n%d result records written to %s\n" (List.length records) path

(* [telemetry] turns the full observability stack on in the daemon
   child: live metrics registry plus info-level structured logs — the
   exact configuration E21 bills against the all-off baseline. *)
let spawn_daemon ?control ?(telemetry = false)
    ?(budget = Jmpax.Budget.unlimited) ?(on_overload = Jmpax.Budget.Fail)
    ?memory_budget ~sock_path () =
  (* The child inherits stdio buffers; flush so it doesn't replay the
     parent's pending output on exit. *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 -> (
      if telemetry then begin
        Telemetry.Metrics.enable ();
        Telemetry.Log.set_level Telemetry.Log.Info
      end
      else Telemetry.Log.set_level Telemetry.Log.Error;
      let session =
        { Serve.Session.spec;
          spec_fp = Jmpax.Checkpoint.fingerprint spec;
          engines = Predict.Engine.default_kinds;
          max_buffered = None;
          recovery = Jmpax.Config.Fail;
          checkpoint_dir = None;
          checkpoint_every = 1;
          budget;
          on_overload;
          now = Unix.gettimeofday }
      in
      let config =
        { Serve.Loop.address = Serve.Loop.Unix_path sock_path;
          control;
          session;
          max_sessions = 128;
          idle_timeout = 0.0;
          read_budget = Serve.Loop.default_read_budget;
          health_max_lag = 0;
          health_max_buffered = 0;
          memory_budget }
      in
      match Serve.Loop.create config with
      | Error msg ->
          prerr_endline ("serve_load: daemon: " ^ msg);
          Stdlib.exit 2
      | Ok t ->
          Sys.set_signal Sys.sigterm
            (Sys.Signal_handle (fun _ -> Serve.Loop.request_drain t));
          Stdlib.exit (Serve.Loop.run t))
  | pid ->
      (* Wait for the socket to be bound. *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      while
        (not (Sys.file_exists sock_path)) && Unix.gettimeofday () < deadline
      do
        ignore (Unix.select [] [] [] 0.02)
      done;
      if not (Sys.file_exists sock_path) then failwith "daemon never bound its socket";
      pid

let e19 argv =
  let json = ref None and events = ref events_default in
  let rec parse = function
    | [] -> ()
    | "--json" :: path :: rest ->
        json := Some path;
        parse rest
    | "--events" :: n :: rest ->
        events := int_of_string n;
        parse rest
    | a :: _ -> failwith ("unexpected argument " ^ a)
  in
  parse argv;
  let payload = synth_trace !events in
  let expected = expected_verdict payload in
  Printf.printf "E19: multi-tenant daemon throughput (%d events/session)\n" !events;
  Printf.printf "  %d-byte stream per session; expected verdict: %s\n\n"
    (String.length payload) expected;

  (* Single-session in-process baseline: the PR 4 stream path with no
     sockets, the yardstick the daemon must stay within 2x of. *)
  let baseline_eps =
    let t0 = Unix.gettimeofday () in
    let reps = 3 in
    for _ = 1 to reps do
      match Jmpax.Stream.run_string ~spec payload with
      | Ok _ -> ()
      | Error e -> failwith (Jmpax.Wire.Error.to_string e)
    done;
    float_of_int (reps * !events) /. (Unix.gettimeofday () -. t0)
  in
  Printf.printf "  baseline (in-process stream): %.0f events/s\n" baseline_eps;
  record "baseline_stream_eps" baseline_eps;
  record "events_per_session" (float_of_int !events);

  let dir = Filename.temp_file "jmpax_e19" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock_path = Filename.concat dir "serve.sock" in
  let pid = spawn_daemon ~sock_path () in
  let addr = Unix_sock sock_path in
  let fp = Jmpax.Checkpoint.fingerprint spec in
  (* One unmeasured session first: the freshly forked daemon pays its
     heap growth and analyzer warm-up on the first stream it serves,
     which would otherwise be billed entirely to the 1-session arm. *)
  (match run_session ~addr ~sid:"e19.warmup" ~fp ~payload with
  | Ok v when v = expected -> ()
  | Ok v -> failwith ("warmup: wrong verdict: " ^ v)
  | Error e -> failwith ("warmup session failed: " ^ e));
  let aggregate_1 = ref 0.0 in
  let aggregate_64 = ref 0.0 in
  List.iteri
    (fun arm sessions ->
      let t0 = Unix.gettimeofday () in
      let results =
        run_sessions ~addr
          ~prefix:(Printf.sprintf "e19.a%d.n%d." arm sessions)
          ~sessions ~fp ~payload
      in
      let dt = Unix.gettimeofday () -. t0 in
      Array.iter
        (function
          | Ok v when v = expected -> ()
          | Ok v -> failwith ("wrong verdict: " ^ v)
          | Error e -> failwith ("session failed: " ^ e))
        results;
      let eps = float_of_int (sessions * !events) /. dt in
      if sessions = 1 then aggregate_1 := max !aggregate_1 eps;
      if sessions = 64 then aggregate_64 := eps;
      Printf.printf "  %3d sessions: %.0f events/s aggregate (%.3f s, all verdicts ok)\n"
        sessions eps dt;
      if sessions <> 1 then
        record (Printf.sprintf "sessions%d_aggregate_eps" sessions) eps)
    (* The 1-session arm is a handful of milliseconds, so scheduling
       noise swamps a single run: best of three is the steady-state
       number. *)
    [ 1; 1; 1; 8; 64 ];
  record "sessions1_aggregate_eps" !aggregate_1;

  (* Graceful drain: SIGTERM, expect the documented clean exit 0. *)
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  let exit_code = match status with Unix.WEXITED c -> c | _ -> 255 in
  Printf.printf "  SIGTERM drain: daemon exit %d\n" exit_code;
  record "drain_exit_code" (float_of_int exit_code);
  let ratio1 = !aggregate_1 /. baseline_eps in
  Printf.printf "  1-session daemon vs in-process stream: %.2fx\n" ratio1;
  record "sessions1_vs_stream_ratio" ratio1;
  let ratio = !aggregate_64 /. baseline_eps in
  Printf.printf "  64-session aggregate vs single-session stream: %.2fx\n" ratio;
  record "aggregate64_vs_stream_ratio" ratio;
  (try Sys.remove sock_path with Sys_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  (match !json with Some path -> write_json path | None -> ());
  if exit_code <> 0 then exit 1;
  (* The acceptance bar: >= 64 concurrent sessions within 2x of the
     single-session stream path. *)
  if ratio < 0.5 then begin
    Printf.printf "FAIL: aggregate throughput below half the stream baseline\n";
    exit 1
  end;
  (* Single-tenant overhead bar: one daemon session must stay within
     0.6x of the in-process stream path. *)
  if ratio1 < 0.6 then begin
    Printf.printf "FAIL: 1-session daemon throughput below 0.6x the stream baseline\n";
    exit 1
  end

(* {1 E21 mode} *)

(* One request line against the daemon's control socket, reply read to
   EOF — the same wire exchange `echo metrics | nc -U` performs. *)
let query_control path request =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_UNIX path);
      write_all sock (request ^ "\n");
      (try Unix.shutdown sock Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
      let buf = Bytes.create 8192 in
      let out = Buffer.create 1024 in
      let rec drain () =
        match Unix.read sock buf 0 (Bytes.length buf) with
        | 0 -> Buffer.contents out
        | n ->
            Buffer.add_subbytes out buf 0 n;
            drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      in
      drain ())

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* Experiment E21: the observability tax.  Two daemon children serve
   the identical session load — one with metrics + info logging off,
   one with the full stack on — and the on-arm must stay within 1.10x
   of the off-arm's best-of-N aggregate throughput.  The on-arm is also
   scraped mid-run to prove the exposition carries the tentpole
   families. *)
let e21 argv =
  let json = ref None and events = ref events_default in
  let sessions = ref 8 and reps = ref 3 in
  let rec parse = function
    | [] -> ()
    | "--json" :: path :: rest ->
        json := Some path;
        parse rest
    | "--events" :: n :: rest ->
        events := int_of_string n;
        parse rest
    | "--sessions" :: n :: rest ->
        sessions := int_of_string n;
        parse rest
    | "--reps" :: n :: rest ->
        reps := int_of_string n;
        parse rest
    | a :: _ -> failwith ("unexpected argument " ^ a)
  in
  parse argv;
  let payload = synth_trace !events in
  let expected = expected_verdict payload in
  let fp = Jmpax.Checkpoint.fingerprint spec in
  Printf.printf
    "E21: telemetry overhead (%d sessions x %d events, best of %d)\n\n"
    !sessions !events !reps;
  let measure_arm ~name ~telemetry =
    let dir = Filename.temp_file "jmpax_e21" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    let sock_path = Filename.concat dir "serve.sock" in
    let ctl_path = sock_path ^ ".ctl" in
    let pid = spawn_daemon ~control:ctl_path ~telemetry ~sock_path () in
    let addr = Unix_sock sock_path in
    let finish () =
      Unix.kill pid Sys.sigterm;
      let _, status = Unix.waitpid [] pid in
      (try Sys.remove sock_path with Sys_error _ -> ());
      (try Sys.remove ctl_path with Sys_error _ -> ());
      (try Unix.rmdir dir with Unix.Unix_error _ -> ());
      match status with Unix.WEXITED c -> c | _ -> 255
    in
    (* Warm-up stream: heap growth and analyzer warm-up are paid before
       the clock starts, same as E19. *)
    (match run_session ~addr ~sid:(name ^ ".warmup") ~fp ~payload with
    | Ok v when v = expected -> ()
    | Ok v -> failwith ("warmup: wrong verdict: " ^ v)
    | Error e -> failwith ("warmup session failed: " ^ e));
    let best = ref 0.0 in
    for rep = 1 to !reps do
      let t0 = Unix.gettimeofday () in
      let results =
        run_sessions ~addr
          ~prefix:(Printf.sprintf "e21.%s.r%d." name rep)
          ~sessions:!sessions ~fp ~payload
      in
      let dt = Unix.gettimeofday () -. t0 in
      Array.iter
        (function
          | Ok v when v = expected -> ()
          | Ok v -> failwith ("wrong verdict: " ^ v)
          | Error e -> failwith ("session failed: " ^ e))
        results;
      best := max !best (float_of_int (!sessions * !events) /. dt)
    done;
    (* Mid-run scrape of the on-arm: the exposition must be present and
       carry the latency histogram and rolling-rate families while
       sessions are still registered. *)
    if telemetry then begin
      let expo = query_control ctl_path "metrics" in
      List.iter
        (fun needle ->
          if not (contains ~needle expo) then
            failwith ("metrics exposition is missing " ^ needle))
        [ "jmpax_serve_verdict_latency_seconds_bucket";
          "jmpax_serve_events_per_second";
          "jmpax_serve_events_total" ];
      let health = query_control ctl_path "health" in
      if not (contains ~needle:"ok" health) then
        failwith ("unexpected health reply: " ^ health)
    end;
    let code = finish () in
    if code <> 0 then failwith (Printf.sprintf "%s arm: drain exit %d" name code);
    Printf.printf "  %-4s arm: %.0f events/s aggregate\n%!" name !best;
    !best
  in
  let off_eps = measure_arm ~name:"off" ~telemetry:false in
  let on_eps = measure_arm ~name:"on" ~telemetry:true in
  let overhead = off_eps /. on_eps in
  Printf.printf "  metrics+log overhead: %.3fx (gate <= 1.10x)\n" overhead;
  record "events_per_session" (float_of_int !events);
  record "sessions" (float_of_int !sessions);
  record "telemetry_off_eps" off_eps;
  record "telemetry_on_eps" on_eps;
  record "overhead_ratio" overhead;
  (match !json with
  | Some path -> write_json ~experiment:"E21" path
  | None -> ());
  if overhead > 1.10 then begin
    Printf.printf "FAIL: telemetry overhead above the 1.10x gate\n";
    exit 1
  end

(* {1 E23 mode} *)

(* The adversarial payload: [nthreads] fully concurrent threads (every
   message carries only its own vector-clock component), so the
   frontier holds C(level+nthreads-1, nthreads-1) cuts per level and an
   unbudgeted lattice sweep is exponential-in-practice.  Mirrors the
   exploding fixture of test_serve. *)
let exploding_trace ~nthreads ~per_thread =
  let header = { Jmpax.Wire.nthreads; init = [ ("x", 1) ] } in
  let ms = ref [] in
  for i = per_thread - 1 downto 0 do
    for t = nthreads - 1 downto 0 do
      let mvc = Array.make nthreads 0 in
      mvc.(t) <- i + 1;
      ms :=
        Trace.Message.make ~eid:((i * nthreads) + t) ~tid:t ~var:"x" ~value:1
          ~mvc:(Vclock.of_array mvc)
        :: !ms
    done
  done;
  Jmpax.Wire.Framed.encode header !ms

(* The exploding writer: a degraded session prints its linear-engine
   lines before the marked verdict, so read until the [predictive] one. *)
let run_exploding_session ~addr ~sid ~fp ~payload =
  let sock = connect addr in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      write_all sock (Printf.sprintf "jmpax-serve 1 %s %s\n" sid fp);
      match read_line_blocking sock with
      | None -> Error "connection closed before ack"
      | Some ack when String.length ack >= 6 && String.sub ack 0 6 = "reject"
        ->
          Error ack
      | Some _ack ->
          write_all sock payload;
          let rec verdict () =
            match read_line_blocking sock with
            | Some line when contains ~needle:"predictive verdict" line ->
                Ok line
            | Some _ -> verdict ()
            | None -> Error "connection closed before the verdict line"
          in
          verdict ())

(* The daemon child's high-water RSS, from the kernel's own accounting;
   monotonic, so one read just before SIGTERM covers the whole run. *)
let vm_hwm_bytes pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> kb * 1024)
            else scan ()
        | exception End_of_file -> failwith "no VmHWM in /proc status"
      in
      scan ())

(* Experiment E23: overload protection.  A baseline arm (8 well-behaved
   tenants, no budgets) against an attack arm (the same 8 plus an
   exploding tenant, frontier budget + degrade).  Gates: every normal
   verdict identical across arms, the exploding tenant comes back with
   the marked degraded verdict, the attack arm's normal throughput
   stays within 0.8x of baseline, the daemon's peak RSS stays under the
   bench's RSS budget, and both drains exit 0. *)
let e23 argv =
  let json = ref None and events = ref events_default in
  let sessions = ref 8 and per_thread = ref 100 in
  let rss_budget = ref (512 * 1024 * 1024) in
  let rec parse = function
    | [] -> ()
    | "--json" :: path :: rest ->
        json := Some path;
        parse rest
    | "--events" :: n :: rest ->
        events := int_of_string n;
        parse rest
    | "--sessions" :: n :: rest ->
        sessions := int_of_string n;
        parse rest
    | "--per-thread" :: n :: rest ->
        per_thread := int_of_string n;
        parse rest
    | "--rss-budget" :: n :: rest ->
        rss_budget := int_of_string n;
        parse rest
    | a :: _ -> failwith ("unexpected argument " ^ a)
  in
  parse argv;
  let payload = synth_trace !events in
  let expected = expected_verdict payload in
  let exploding = exploding_trace ~nthreads:6 ~per_thread:!per_thread in
  let fp = Jmpax.Checkpoint.fingerprint spec in
  Printf.printf
    "E23: overload protection (%d normal sessions x %d events + exploding \
     tenant, %d-byte attack stream)\n\n"
    !sessions !events (String.length exploding);
  let measure_arm ~name ~attack =
    let dir = Filename.temp_file "jmpax_e23" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    let sock_path = Filename.concat dir "serve.sock" in
    let budget =
      if attack then Jmpax.Budget.limits ~max_frontier_cuts:256 ()
      else Jmpax.Budget.unlimited
    in
    let pid =
      spawn_daemon ~budget ~on_overload:Jmpax.Budget.Degrade ~sock_path ()
    in
    let addr = Unix_sock sock_path in
    (match run_session ~addr ~sid:(name ^ ".warmup") ~fp ~payload with
    | Ok v when v = expected -> ()
    | Ok v -> failwith ("warmup: wrong verdict: " ^ v)
    | Error e -> failwith ("warmup session failed: " ^ e));
    (* The attack rides alongside the measured sessions. *)
    let hog_result = ref (Error "not run") in
    let hog =
      if attack then
        Some
          (Thread.create
             (fun () ->
               hog_result :=
                 try
                   run_exploding_session ~addr ~sid:(name ^ ".hog") ~fp
                     ~payload:exploding
                 with e -> Error (Printexc.to_string e))
             ())
      else None
    in
    let t0 = Unix.gettimeofday () in
    let results =
      run_sessions ~addr
        ~prefix:(name ^ ".w")
        ~sessions:!sessions ~fp ~payload
    in
    let dt = Unix.gettimeofday () -. t0 in
    Array.iter
      (function
        | Ok v when v = expected -> ()
        | Ok v -> failwith (name ^ ": wrong verdict: " ^ v)
        | Error e -> failwith (name ^ ": session failed: " ^ e))
      results;
    Option.iter Thread.join hog;
    if attack then begin
      match !hog_result with
      | Ok v
        when contains
               ~needle:"degraded(from=lattice,reason=frontier_budget" v ->
          Printf.printf "  exploding tenant: %s\n" v
      | Ok v -> failwith ("exploding tenant: unmarked verdict: " ^ v)
      | Error e -> failwith ("exploding tenant: " ^ e)
    end;
    let rss = vm_hwm_bytes pid in
    Unix.kill pid Sys.sigterm;
    let _, status = Unix.waitpid [] pid in
    let code = match status with Unix.WEXITED c -> c | _ -> 255 in
    (try Sys.remove sock_path with Sys_error _ -> ());
    (try Unix.rmdir dir with Unix.Unix_error _ -> ());
    if code <> 0 then failwith (Printf.sprintf "%s arm: drain exit %d" name code);
    let eps = float_of_int (!sessions * !events) /. dt in
    Printf.printf "  %-8s arm: %.0f events/s aggregate, peak RSS %.1f MiB\n%!"
      name eps
      (float_of_int rss /. 1048576.0);
    (eps, rss)
  in
  let baseline_eps, baseline_rss = measure_arm ~name:"baseline" ~attack:false in
  let attack_eps, attack_rss = measure_arm ~name:"attack" ~attack:true in
  let ratio = attack_eps /. baseline_eps in
  Printf.printf
    "  normal throughput under attack: %.2fx of baseline (gate >= 0.8x)\n"
    ratio;
  record "events_per_session" (float_of_int !events);
  record "sessions" (float_of_int !sessions);
  record "baseline_eps" baseline_eps;
  record "attack_eps" attack_eps;
  record "throughput_ratio" ratio;
  record "baseline_peak_rss_bytes" (float_of_int baseline_rss);
  record "attack_peak_rss_bytes" (float_of_int attack_rss);
  record "rss_budget_bytes" (float_of_int !rss_budget);
  (match !json with
  | Some path -> write_json ~experiment:"E23" path
  | None -> ());
  if attack_rss > !rss_budget then begin
    Printf.printf "FAIL: attack-arm peak RSS above the budget\n";
    exit 1
  end;
  if ratio < 0.8 then begin
    Printf.printf "FAIL: normal throughput under attack below the 0.8x gate\n";
    exit 1
  end

(* {1 chaos-soak mode}

   The CI robustness gate.  Phase 1 drives the budgeted stream path
   through {!Jmpax.Transport.Faulty} — seeded short reads plus periodic
   EINTR / EAGAIN injection over the exploding trace — and requires a
   marked degraded verdict from every seed.  Phase 2 soaks the daemon:
   several rounds of an exploding tenant riding alongside well-behaved
   sessions, every normal verdict checked, then a SIGTERM that must
   drain cleanly with no verdict lost. *)
let soak argv =
  let rounds = ref 3 and seed = ref 1234 and sessions = ref 4 in
  let events = ref 500 in
  let rec parse = function
    | [] -> ()
    | "--rounds" :: n :: rest ->
        rounds := int_of_string n;
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_of_string n;
        parse rest
    | "--sessions" :: n :: rest ->
        sessions := int_of_string n;
        parse rest
    | "--events" :: n :: rest ->
        events := int_of_string n;
        parse rest
    | a :: _ -> failwith ("unexpected argument " ^ a)
  in
  parse argv;
  let exploding = exploding_trace ~nthreads:6 ~per_thread:40 in
  let budget = Jmpax.Budget.limits ~max_frontier_cuts:64 () in
  Printf.printf "chaos soak: %d faulty-stream seeds, %d daemon rounds\n\n"
    !rounds !rounds;
  for r = 1 to !rounds do
    let plan =
      { Jmpax.Transport.Faulty.seed = !seed + r;
        short_reads = true;
        eintr_every = 7;
        stall_every = 11;
        reset_at = -1;
        truncate_at = -1 }
    in
    let pos = ref 0 in
    let raw buf off len =
      let n = min len (String.length exploding - !pos) in
      Bytes.blit_string exploding !pos buf off n;
      pos := !pos + n;
      n
    in
    let transport =
      Jmpax.Transport.of_read (Jmpax.Transport.Faulty.wrap plan raw)
    in
    match
      Jmpax.Stream.run ~spec ~budget ~on_overload:Jmpax.Budget.Degrade
        ~read:(Jmpax.Transport.read transport) ()
    with
    | Ok o -> (
        match o.Jmpax.Stream.s_degraded with
        | Some d ->
            Printf.printf "  seed %d: degraded at event %d, verdict kept\n"
              (!seed + r) d.Predict.Engines.d_at_event
        | None -> failwith "soak: faulty stream never hit its budget")
    | Error e ->
        failwith ("soak: faulty stream failed: " ^ Jmpax.Wire.Error.to_string e)
  done;
  let payload = synth_trace !events in
  let expected = expected_verdict payload in
  let fp = Jmpax.Checkpoint.fingerprint spec in
  let dir = Filename.temp_file "jmpax_soak" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock_path = Filename.concat dir "serve.sock" in
  let pid =
    spawn_daemon ~budget ~on_overload:Jmpax.Budget.Degrade ~sock_path ()
  in
  let addr = Unix_sock sock_path in
  for round = 1 to !rounds do
    let hog_result = ref (Error "not run") in
    let hog =
      Thread.create
        (fun () ->
          hog_result :=
            try
              run_exploding_session ~addr
                ~sid:(Printf.sprintf "soak.r%d.hog" round)
                ~fp ~payload:exploding
            with e -> Error (Printexc.to_string e))
        ()
    in
    let results =
      run_sessions ~addr
        ~prefix:(Printf.sprintf "soak.r%d.w" round)
        ~sessions:!sessions ~fp ~payload
    in
    Array.iter
      (function
        | Ok v when v = expected -> ()
        | Ok v -> failwith ("soak: wrong verdict: " ^ v)
        | Error e -> failwith ("soak: verdict lost: " ^ e))
      results;
    Thread.join hog;
    (match !hog_result with
    | Ok v when contains ~needle:"degraded(" v -> ()
    | Ok v -> failwith ("soak: exploding tenant unmarked: " ^ v)
    | Error e -> failwith ("soak: exploding tenant: " ^ e));
    Printf.printf "  round %d: %d verdicts + marked hog verdict, none lost\n%!"
      round !sessions
  done;
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  let code = match status with Unix.WEXITED c -> c | _ -> 255 in
  (try Sys.remove sock_path with Sys_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  if code <> 0 then failwith (Printf.sprintf "soak: drain exit %d" code);
  Printf.printf "  SIGTERM drain: clean exit 0\n"

let () =
  match Array.to_list Sys.argv with
  | _ :: "connect" :: rest -> connect_mode rest
  | _ :: "hold" :: rest -> hold_mode rest
  | _ :: "e19" :: rest -> e19 rest
  | _ :: "e21" :: rest -> e21 rest
  | _ :: "e23" :: rest -> e23 rest
  | _ :: "soak" :: rest -> soak rest
  | _ ->
      prerr_endline
        "usage: serve_load connect ADDR [--sessions N] [--events M] [--spec S]\n\
        \                          [--trace FILE] [--prefix P]\n\
        \       serve_load hold ADDR [--sid S] [--trace FILE] [--spec S]\n\
        \                          [--events M] [--cut BYTES]\n\
        \       serve_load e19 [--json FILE] [--events M]\n\
        \       serve_load e21 [--json FILE] [--events M] [--sessions N] [--reps R]\n\
        \       serve_load e23 [--json FILE] [--events M] [--sessions N]\n\
        \                          [--per-thread N] [--rss-budget BYTES]\n\
        \       serve_load soak [--rounds R] [--seed S] [--sessions N] [--events M]";
      exit 2
