(* Seeded generators of the benchmark's TML programs.

   Every workload is a family of programs whose verdict is known by
   construction: the generator's choices (per-thread iteration jitter,
   statement order, initial values) never change which variables race,
   whether a sync block is serializable or whether the specification
   holds, so the expected verdict lines are computed here from the shape
   alone and never taken from the analysis under test. *)

type workload = Lockloop | Lattice | Wide | Checkpointed

let all = [ Lockloop; Lattice; Wide; Checkpointed ]

let name = function
  | Lockloop -> "lockloop"
  | Lattice -> "lattice"
  | Wide -> "wide"
  | Checkpointed -> "checkpointed"

let of_name s = List.find_opt (fun w -> name w = s) all

(* {1 Shapes}

   Sizes are chosen so one producer | observer pipeline takes about half
   a second on one core, which gives a run some fifty pipelines to take a
   median over; the jitter keeps counts within about 1% across seeds.
   [checkpointed] is larger, so that checkpoint writes stay most of the
   observer's time. *)

let lockloop_threads = 4
let lockloop_iterations = 3000
let lattice_iterations = 100
let lattice_writes = 8
let wide_groups = 8
let wide_group_size = 8
let wide_iterations = 20
let checkpointed_iterations = 2000
let checkpointed_writes = 2
let checkpoint_every = 100

(* Both lattice-shaped workloads check this specification.  [a], [b] and
   [c] only count up from non-negative initial values, so [a >= 0] and
   [c >= 0] always hold and [b < 0] never does: the interval is open at
   every state and no run of the lattice violates it. *)
let lattice_spec = "a >= 0 ==> [c >= 0, b < 0)"

type t = {
  workload : workload;
  seed : int;
  source : string;  (** the TML program, the only input the tools see *)
  nthreads : int;
  engines : string option;  (** [--engine] value; [None] = lattice default *)
  spec : string option;
  checkpoint_every : int option;
  fuel : int;  (** comfortably above the program's observable steps *)
  messages : int;  (** messages [jmpax run] emits, by construction *)
  verdicts : string list;  (** the observer's verdict lines, in order *)
  exit_code : int;
}

(* [n] iterations, jittered upwards by at most 1%. *)
let jittered st n = n + Random.State.int st (max 1 (n / 100))

let race_line ~vars ~accesses =
  match vars with
  | [] -> Printf.sprintf "predict.race: no data races predicted (%d accesses)" accesses
  | vars ->
      Printf.sprintf "predict.race: RACES PREDICTED on {%s} (%d accesses)"
        (String.concat ", " vars) accesses

let atomicity_line ~blocks =
  Printf.sprintf "predict.atomicity: all %d sync blocks serializable" blocks

let lattice_line = "predictive verdict (JMPaX): no violation in any run"

let sum = List.fold_left ( + ) 0

(* 4 threads loop [sync (m) { counter = counter + 1; } x = x + 1;].
   Every event is a message (the race and atomicity engines need reads):
   acquire, read/write counter, release, read/write x — 6 per iteration,
   4 of them data accesses.  [counter] is always under [m]; [x] never is,
   and each thread's first (or last) [x] access has no lock edge into
   (or out of) it, so [x] races under every schedule. *)
let lockloop st =
  let b = Buffer.create 1024 in
  Printf.bprintf b "shared counter = %d, x = %d;\n" (Random.State.int st 100)
    (Random.State.int st 100);
  let iters =
    List.init lockloop_threads (fun t ->
        let n = jittered st lockloop_iterations in
        let sync = "sync (m) { counter = counter + 1; }" and bump = "x = x + 1;" in
        let first, second =
          if Random.State.bool st then (sync, bump) else (bump, sync)
        in
        Printf.bprintf b
          "thread t%d {\n  local i = 0;\n  while (i < %d) {\n    %s\n    %s\n    i = i + 1;\n  }\n}\n"
          t n first second;
        n)
  in
  let total = sum iters in
  ( Buffer.contents b,
    lockloop_threads,
    6 * total,
    [ race_line ~vars:[ "x" ] ~accesses:(4 * total); atomicity_line ~blocks:total ] )

(* 3 threads each write their own variable [writes] times between lock
   handoffs.  Only writes of [a], [b], [c] are relevant to the spec, so
   the messages are exactly those writes. *)
let lattice_shape st ~iterations ~writes =
  let b = Buffer.create 1024 in
  Printf.bprintf b "shared a = %d, b = %d, c = %d, h = 0;\n" (Random.State.int st 10)
    (Random.State.int st 10) (Random.State.int st 10);
  let iters =
    List.map
      (fun v ->
        let n = jittered st iterations in
        let sync = "sync (m) { h = h + 1; }" in
        let run =
          String.concat " " (List.init writes (fun _ -> Printf.sprintf "%s = %s + 1;" v v))
        in
        let first, second = if Random.State.bool st then (sync, run) else (run, sync) in
        Printf.bprintf b
          "thread t%s {\n  local i = 0;\n  while (i < %d) {\n    %s\n    %s\n    i = i + 1;\n  }\n}\n"
          v n first second;
        n)
      [ "a"; "b"; "c" ]
  in
  (Buffer.contents b, 3, writes * sum iters, [ lattice_line ])

(* 64 threads in 8 lock groups: thread of group g loops
   [sync (m_g) { g_g = g_g + 1; }] plus an unsynchronized read of the
   next group's [g_(g+1)].  Groups share no lock, so there is no
   happens-before edge between groups and every [g_k] races with the
   reads of group k-1.  5 messages per iteration, 3 of them data
   accesses; each block touches one variable under its own lock and is
   serializable. *)
let wide st =
  let b = Buffer.create 8192 in
  Printf.bprintf b "shared %s;\n"
    (String.concat ", "
       (List.init wide_groups (fun g -> Printf.sprintf "g%d = %d" g (Random.State.int st 10))));
  let nthreads = wide_groups * wide_group_size in
  let iters =
    List.init nthreads (fun t ->
        let g = t / wide_group_size in
        let n = jittered st wide_iterations in
        let sync = Printf.sprintf "sync (m%d) { g%d = g%d + 1; }" g g g in
        let peek = Printf.sprintf "v = g%d;" ((g + 1) mod wide_groups) in
        let first, second = if Random.State.bool st then (sync, peek) else (peek, sync) in
        Printf.bprintf b
          "thread t%d {\n  local i = 0;\n  local v = 0;\n  while (i < %d) {\n    %s\n    %s\n    i = i + 1;\n  }\n}\n"
          t n first second;
        n)
  in
  let total = sum iters in
  ( Buffer.contents b,
    nthreads,
    5 * total,
    [ race_line ~vars:(List.init wide_groups (Printf.sprintf "g%d"))
        ~accesses:(3 * total);
      atomicity_line ~blocks:total ] )

let make workload ~seed =
  (* The workload index keeps the four families' random streams apart. *)
  let tag = match workload with Lockloop -> 1 | Lattice -> 2 | Wide -> 3 | Checkpointed -> 4 in
  let st = Random.State.make [| seed; tag |] in
  let source, nthreads, messages, verdicts =
    match workload with
    | Lockloop -> lockloop st
    | Lattice -> lattice_shape st ~iterations:lattice_iterations ~writes:lattice_writes
    | Wide -> wide st
    | Checkpointed ->
        lattice_shape st ~iterations:checkpointed_iterations ~writes:checkpointed_writes
  in
  let engines, spec, exit_code =
    match workload with
    | Lockloop | Wide -> (Some "race,atomicity", None, 1)
    | Lattice | Checkpointed -> (None, Some lattice_spec, 0)
  in
  { workload;
    seed;
    source;
    nthreads;
    engines;
    spec;
    checkpoint_every = (if workload = Checkpointed then Some checkpoint_every else None);
    (* Fewer than 10 observable steps per message in every shape. *)
    fuel = (10 * messages) + 1000;
    messages;
    verdicts;
    exit_code }

(* {1 Command lines}

   Everything not listed here is a CLI default: wire format, clock
   backend, [--jobs]. *)

let selection t =
  (match t.engines with Some e -> [ "--engine"; e ] | None -> [])
  @ match t.spec with Some s -> [ "--spec"; s ] | None -> []

let run_args t ~fuel0 =
  [ "--seed"; string_of_int t.seed; "--fuel"; (if fuel0 then "0" else string_of_int t.fuel) ]
  @ selection t

let stream_args t ~checkpoint =
  selection t
  @
  match (t.checkpoint_every, checkpoint) with
  | Some every, Some path -> [ "--checkpoint"; path; "--checkpoint-every"; string_of_int every ]
  | _ -> []

(* The known answer of a run.  Under [--fuel 0] the VM takes no step:
   no message, every engine reports an empty verdict and the observer
   exits 0. *)
let answer t ~fuel0 ~checkpoint =
  if fuel0 then
    { Answer.verdicts =
        (match t.engines with
        | Some _ -> [ race_line ~vars:[] ~accesses:0; atomicity_line ~blocks:0 ]
        | None -> [ lattice_line ]);
      exit_code = 0;
      messages = 0;
      checkpoint = None }
  else
    { Answer.verdicts = t.verdicts;
      exit_code = t.exit_code;
      messages = t.messages;
      checkpoint = (if t.checkpoint_every <> None then checkpoint else None) }
