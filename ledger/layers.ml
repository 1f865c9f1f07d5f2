(* The traced in-process run: the producer | observer pipeline of one
   generated program, split by layer.

   Spans are taken here, around calls into each layer's public entry
   points; nothing inside the library is instrumented.  Where one layer's
   call contains another's ([Vm.run_image] drives the Emitter and
   Algorithm A; [Engines.feed] drives causal delivery, the engines, the
   frontier and the monitor), the inner layer is timed by replaying the
   recorded execution or the decoded messages through its own entry
   point, and the outer layer's self time is its span minus the inner
   spans.

   One repetition runs the pipeline untraced first (parse, VM, encode,
   then [Stream.run_string] on the encoded document) and then traced,
   layer by layer; [trace.overhead] is the ratio of the two wall times. *)

open Trace
module Engine = Predict.Engine
module Engines = Predict.Engines
module Monitor = Pastltl.Monitor

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let ratio a b = if b = 0. then 0. else a /. b
let per a n = if n = 0 then 0. else a /. float_of_int n

(* {1 What [jmpax run] and [jmpax stream] would be given} *)

type setup = {
  program : Tml.Ast.program;
  image : Tml.Bytecode.image;
  spec : Pastltl.Formula.t;
  relevance : Mvc.Relevance.t;
  header : Jmpax.Wire.header;
  kinds : Engine.kind list;
}

(* Mirrors the CLI: the race and atomicity engines need every event;
   the lattice engine needs the writes of the spec's variables. *)
let load (g : Gen.t) =
  let program = Tml.Parser.parse_program g.Gen.source in
  let image = Tml.Instrument.instrument_program program in
  let spec =
    match g.Gen.spec with Some s -> Pastltl.Fparser.parse s | None -> Pastltl.Formula.True
  in
  let kinds =
    match g.Gen.engines with
    | None -> Engine.default_kinds
    | Some e -> ( match Engine.kinds_of_string e with Ok k -> k | Error m -> failwith m)
  in
  let relevance, relevant_vars =
    match g.Gen.spec with
    | Some _ ->
        let vars = Pastltl.Formula.vars spec in
        (Mvc.Relevance.writes_of_vars vars, vars)
    | None -> (Mvc.Relevance.all_events, List.map fst program.Tml.Ast.shared)
  in
  let header =
    { Jmpax.Wire.nthreads = List.length program.Tml.Ast.threads;
      init = List.filter (fun (x, _) -> List.mem x relevant_vars) program.Tml.Ast.shared }
  in
  { program; image; spec; relevance; header; kinds }

let vm_run (g : Gen.t) s =
  Tml.Vm.run_image ~fuel:g.Gen.fuel ~relevance:s.relevance
    ~sched:(Tml.Sched.random ~seed:g.Gen.seed) s.image

(* {1 Observer-side replays} *)

module R = Jmpax.Wire.Reader

(* The reader's position after an item: what a checkpoint taken there
   records. *)
type position = {
  consumed : int;
  next_eid : int;
  stats : Jmpax.Wire.Reader.stats;
  ended : bool array;
}

let chunk = 64 * 1024

(* [Stream.run]'s decode loop: 64 KiB chunks through [Wire.Reader].  The
   items are the decoded messages and end-of-thread frames, in order. *)
let decode ?(positions = false) doc =
  let r = R.create () in
  let buf = Bytes.create chunk in
  let off = ref 0 in
  let items = ref [] and pos = ref [] in
  let note () =
    if positions then
      pos :=
        { consumed = R.consumed r;
          next_eid = R.next_eid r;
          stats = R.stats r;
          ended = R.ended_threads r }
        :: !pos
  in
  let rec loop () =
    match R.next r with
    | R.Await ->
        let n = min chunk (String.length doc - !off) in
        if n = 0 then R.close r
        else begin
          Bytes.blit_string doc !off buf 0 n;
          off := !off + n;
          R.feed_bytes r buf 0 n
        end;
        loop ()
    | R.Item (R.Header _) -> loop ()
    | R.Item item ->
        items := item :: !items;
        note ();
        loop ()
    | R.Skip _ -> loop ()
    | R.Eof -> ()
  in
  loop ();
  (Array.of_list (List.rev !items), Array.of_list (List.rev !pos), R.stats r)

let bundle s ~kinds =
  Engines.create ~kinds ~nthreads:s.header.Jmpax.Wire.nthreads ~init:s.header.Jmpax.Wire.init
    ~spec:(Some s.spec) ()

let feed_item b = function
  | R.Msg m -> Engines.feed b m
  | R.End_of_thread tid -> Engines.end_of_thread b tid
  | R.Header _ -> ()

(* Feed every item to a fresh bundle of [kinds], as [Stream.run] does. *)
let feed_bundle s ~kinds items =
  let b = bundle s ~kinds in
  Array.iter (feed_item b) items;
  Engines.finish b

let causal_replay s items =
  let c = Predict.Causal.create ~nthreads:s.header.Jmpax.Wire.nthreads () in
  Array.iter
    (function
      | R.Msg m -> ignore (Predict.Causal.feed c m)
      | R.End_of_thread tid -> Predict.Causal.end_of_thread c tid
      | R.Header _ -> ())
    items;
  Predict.Causal.finish c;
  Predict.Causal.peak_buffered c

(* The decoded messages as a computation: [Computation.enabled] lists a
   cut's enabled events exactly as [Predict.Online] does. *)
let computation s items =
  Observer.Computation.of_messages_exn ~nthreads:s.header.Jmpax.Wire.nthreads
    ~init:s.header.Jmpax.Wire.init
    (Array.to_list items |> List.filter_map (function R.Msg m -> Some m | _ -> None))

module Unit_frontier = Observer.Frontier.Make (struct
  type t = unit

  let merge () () = ()
end)

(* The frontier engine alone: the level-by-level sweep with no payload. *)
let frontier_replay comp =
  let pool = Observer.Frontier.Pool.create ~jobs:1 in
  let width = Observer.Computation.nthreads comp in
  let rec go f levels cuts peak =
    let next =
      Unit_frontier.expand pool
        ~moves:(fun ~shard:_ cut -> Observer.Computation.enabled comp cut)
        ~transition:(fun ~shard:_ () ~tid:_ _ -> ())
        f
    in
    let size = Unit_frontier.size next in
    if size = 0 then (levels, cuts, peak)
    else go next (levels + 1) (cuts + size) (max peak size)
  in
  go (Unit_frontier.singleton ~width (Array.make width 0) ()) 0 1 1

module Mset = Set.Make (struct
  type t = Monitor.state

  let compare = Monitor.compare_state
end)

module State_frontier = Observer.Frontier.Make (struct
  type t = Pastltl.State.t * Mset.t

  let merge (s, a) (_, b) = (s, Mset.union a b)
end)

(* Every [(monitor state, global state)] step the lattice takes, in the
   order [Predict.Online] takes them; replayed through [Monitor.step]
   alone to time the monitor. *)
let monitor_steps s comp =
  let monitor = Monitor.compile s.spec in
  let pool = Observer.Frontier.Pool.create ~jobs:1 in
  let width = Observer.Computation.nthreads comp in
  let init = Observer.Computation.init_state comp in
  let pairs = ref [] in
  let rec go f =
    let next =
      State_frontier.expand pool
        ~moves:(fun ~shard:_ cut -> Observer.Computation.enabled comp cut)
        ~transition:(fun ~shard:_ (state, msets) ~tid:_ m ->
          let state' = Observer.Computation.apply state m in
          ( state',
            Mset.fold
              (fun ms acc ->
                pairs := (ms, state') :: !pairs;
                Mset.add (Monitor.step monitor ms state') acc)
              msets Mset.empty ))
        f
    in
    if State_frontier.size next > 0 then go next
  in
  go
    (State_frontier.singleton ~width (Array.make width 0)
       (init, Mset.singleton (Monitor.init monitor init)));
  (monitor, Array.of_list (List.rev !pairs))

let time_monitor (monitor, pairs) =
  snd (timed (fun () -> Array.iter (fun (ms, st) -> ignore (Monitor.step monitor ms st)) pairs))

(* {1 One repetition} *)

let checkpoint_of s b (p : position) ~ends =
  { Jmpax.Checkpoint.ck_header = s.header;
    ck_spec_fp = Jmpax.Checkpoint.fingerprint s.spec;
    ck_position = p.consumed;
    ck_next_eid = p.next_eid;
    ck_reader_stats = p.stats;
    ck_reader_ended = p.ended;
    ck_v3 = None;
    ck_ends = ends;
    ck_quarantined = 0;
    ck_peak_buffered = 0;
    ck_engines = Engines.snapshots b;
    ck_online = Option.map Predict.Online.snapshot (Engines.online b);
    ck_degraded = Engines.degraded b }

(* The traced engines pass: [Stream.run]'s feed loop over the decoded
   items, checkpointing at its cadence with each write timed on its own.
   The bundle's resident words are sampled at 16 points of the stream;
   the sampling time is taken out of the pass. *)
let engines_pass s (g : Gen.t) ~dir items positions =
  let b = bundle s ~kinds:s.kinds in
  let peak_mem = ref 0 and peak_online = ref 0 and sampling = ref 0. in
  let ck_time = ref 0. and ck_writes = ref 0 and ck_bytes = ref 0 in
  let last_ticks = ref (Engines.ticks b) and ends = ref 0 in
  let path = Filename.concat dir "layers.ckpt" in
  let stride = max 1 (Array.length items / 16) in
  let sample () =
    let words, dt = timed (fun () -> Obj.reachable_words (Obj.repr b)) in
    sampling := !sampling +. dt;
    peak_mem := max !peak_mem words
  in
  let after i =
    if i mod stride = 0 then sample ();
    (match Engines.online b with
    | Some o -> peak_online := max !peak_online (Predict.Online.buffered o)
    | None -> ());
    match g.Gen.checkpoint_every with
    | Some every when Engines.ticks b - !last_ticks >= every ->
        let (), dt =
          timed (fun () ->
              let ck = checkpoint_of s b positions.(i) ~ends:!ends in
              match Jmpax.Checkpoint.write path ck with
              | Ok () -> ()
              | Error e -> failwith (Jmpax.Checkpoint.error_to_string e))
        in
        ck_time := !ck_time +. dt;
        incr ck_writes;
        ck_bytes := max !ck_bytes (Unix.stat path).Unix.st_size;
        last_ticks := Engines.ticks b
    | _ -> ()
  in
  let (), total =
    timed (fun () ->
        Array.iteri
          (fun i item ->
            feed_item b item;
            (match item with R.End_of_thread _ -> incr ends | _ -> ());
            after i)
          items;
        sample ();
        Engines.finish b)
  in
  (total -. !sampling, !ck_time, !ck_writes, !ck_bytes, !peak_mem, !peak_online)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Returns the per-layer metrics of one repetition, and whether the
   in-process verdict matched the known answer. *)
let repetition (g : Gen.t) ~dir =
  Gc.full_major ();
  (* Untraced: what the two processes do, back to back in one. *)
  let ck_untraced = Filename.concat dir "inproc.ckpt" in
  let t0 = now () in
  let s = load g in
  let r = vm_run g s in
  let doc = Jmpax.Wire.Framed.encode s.header r.Tml.Vm.messages in
  let t1 = now () in
  let outcome =
    Jmpax.Stream.run_string ~engines:s.kinds ~spec:s.spec
      ?checkpoint:(Option.map (fun every -> (ck_untraced, every)) g.Gen.checkpoint_every)
      doc
  in
  let t2 = now () in
  let untraced = t2 -. t0 and stream_wall = t2 -. t1 in
  let correct =
    match outcome with
    | Error _ -> false
    | Ok o ->
        let expected = Gen.answer g ~fuel0:false ~checkpoint:(Some ck_untraced) in
        Answer.score expected (Answer.of_stream ~produced:(List.length r.Tml.Vm.messages) o) = []
  in
  let positions =
    if g.Gen.checkpoint_every = None then [||]
    else
      let _, p, _ = decode ~positions:true doc in
      p
  in
  Gc.full_major ();
  (* Traced: the same work, one layer per span.  [traced] is the wall
     time of the whole pass, glue and sampling included. *)
  let traced0 = now () in
  let s, t_load = timed (fun () -> load g) in
  let minor0 = Gc.minor_words () in
  let r, t_vm = timed (fun () -> vm_run g s) in
  let vm_words = Gc.minor_words () -. minor0 in
  let messages = r.Tml.Vm.messages in
  let nmsg = List.length messages in
  let doc, t_encode = timed (fun () -> Jmpax.Wire.Framed.encode s.header messages) in
  let (items, _, rstats), t_decode = timed (fun () -> decode doc) in
  let t_engines, t_ck, ck_writes, ck_bytes, peak_mem, peak_online =
    engines_pass s g ~dir items positions
  in
  let traced = now () -. traced0 in
  (* Inner layers, replayed through their own entry points. *)
  let exec = Option.get r.Tml.Vm.exec in
  let events = Exec.events exec in
  let nevents = Array.length events in
  let updates0 = Clock.Stats.entry_updates () in
  let minor1 = Gc.minor_words () in
  let (), t_alg =
    timed (fun () ->
        let algo = Mvc.Algorithm.create ~nthreads:(Exec.nthreads exec) ~relevance:s.relevance in
        Array.iter (fun (e : Event.t) -> ignore (Mvc.Algorithm.process algo e.tid e.kind)) events)
  in
  let alg_words = Gc.minor_words () -. minor1 in
  let updates = Clock.Stats.entry_updates () - updates0 in
  let retained = Obj.reachable_words (Obj.repr (exec, messages)) in
  let linear = List.filter (fun k -> k <> Engine.Lattice) s.kinds in
  let t_causal, causal_peak =
    if linear = [] then (0., 0)
    else
      let peak, t = timed (fun () -> causal_replay s items) in
      (t, peak)
  in
  let engine_self kind =
    if List.mem kind s.kinds then
      snd (timed (fun () -> feed_bundle s ~kinds:[ kind ] items)) -. t_causal
    else 0.
  in
  let t_race = engine_self Engine.Race and t_atomicity = engine_self Engine.Atomicity in
  let t_causal_total = t_causal *. float_of_int (List.length linear) in
  let lattice = List.mem Engine.Lattice s.kinds in
  let comp = computation s items in
  let (levels, cuts, peak_cuts), t_frontier =
    if lattice then timed (fun () -> frontier_replay comp) else ((0, 0, 0), 0.)
  in
  let steps, t_monitor =
    if lattice then
      let ((_, pairs) as m) = monitor_steps s comp in
      (Array.length pairs, time_monitor m)
    else (0, 0.)
  in
  let t_lattice = if lattice then t_engines -. t_ck -. t_frontier -. t_monitor else 0. in
  let vm_self = t_vm -. t_alg in
  let observer_layers =
    t_decode +. t_causal_total +. t_race +. t_atomicity +. t_lattice +. t_frontier +. t_monitor
    +. t_ck
  in
  let self_sum = t_load +. vm_self +. t_alg +. t_encode +. observer_layers in
  let metrics =
    [ ("tml.load_s", t_load);
      ("tml.vm.steps", float_of_int r.Tml.Vm.steps);
      ("tml.vm.self_s", vm_self);
      ("tml.vm.minor_words_per_step", per (vm_words -. alg_words) r.Tml.Vm.steps);
      ("mvc.algorithm_a.events", float_of_int nevents);
      ("mvc.algorithm_a.self_s", t_alg);
      ("mvc.algorithm_a.minor_words_per_event", per alg_words nevents);
      ("mvc.emitter.retained_words_per_message", per (float_of_int retained) nmsg);
      ("clock.entry_updates_per_event", per (float_of_int updates) nevents);
      ("wire.encode.self_s", t_encode);
      ("wire.bytes_per_message", per (float_of_int (String.length doc)) nmsg);
      ("wire.decode.self_s", t_decode);
      ("wire.decode.frames", float_of_int rstats.Jmpax.Wire.Reader.frames);
      ("wire.decode.skipped_frames", float_of_int rstats.Jmpax.Wire.Reader.skipped_frames);
      ("predict.causal.self_s", t_causal_total);
      ("predict.causal.peak_buffered", float_of_int causal_peak);
      ("predict.race.self_s", t_race);
      ("predict.atomicity.self_s", t_atomicity);
      ("predict.engines.peak_mem_words", float_of_int peak_mem);
      ("predict.lattice.self_s", t_lattice);
      ("predict.online.peak_buffered", float_of_int peak_online);
      ("observer.frontier.self_s", t_frontier);
      ("observer.frontier.levels", float_of_int levels);
      ("observer.frontier.cuts", float_of_int cuts);
      ("observer.frontier.peak_cuts", float_of_int peak_cuts);
      ("pastltl.monitor.self_s", t_monitor);
      ("pastltl.monitor.steps", float_of_int steps);
      ("pastltl.monitor.steps_per_cut", per (float_of_int steps) cuts);
      ("checkpoint.writes", float_of_int ck_writes);
      ("checkpoint.bytes_max", float_of_int ck_bytes);
      ("checkpoint.self_s", t_ck);
      ("stream.unaccounted_s", stream_wall -. observer_layers);
      ("trace.coverage", ratio self_sum untraced);
      ("trace.overhead", ratio traced untraced) ]
  in
  (metrics, correct)

(* Repeat until [seconds] have passed (at least once); every metric is
   the median over repetitions. *)
let run (g : Gen.t) ~dir ~seconds =
  let start = now () in
  let rec go acc =
    let rep = repetition g ~dir in
    let acc = rep :: acc in
    if now () -. start >= seconds then acc else go acc
  in
  let reps = go [] in
  let names = List.map fst (fst (List.hd reps)) in
  let metrics =
    List.map (fun n -> (n, median (List.map (fun (m, _) -> List.assoc n m) reps))) names
  in
  let attempted = List.length reps in
  let failed = List.length (List.filter (fun (_, ok) -> not ok) reps) in
  (metrics, attempted, failed)
