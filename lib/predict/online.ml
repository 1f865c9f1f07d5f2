open Trace
module M = Telemetry.Metrics

let m_level_cuts = M.series "online.level_cuts"
let m_retired = M.counter "online.retired_cuts"
let m_monitor_steps = M.counter "online.monitor_steps"
let m_violations = M.counter "online.violations"
let m_gc_removed = M.counter "online.gc_removed"
let m_max_buffered = M.gauge "online.max_buffered"
let m_peak_buffered = M.gauge "online.peak_buffered"
let m_peak_stored = M.gauge "online.peak_stored"

exception Backpressure of { buffered : int; limit : int }

module Imap = Map.Make (Int)

module Mset = Set.Make (struct
  type t = Pastltl.Monitor.state

  let compare = Pastltl.Monitor.compare_state
end)

type entry = { state : Pastltl.State.t; msets : Mset.t }

type violation = {
  cut : int array;
  level : int;
  state : Pastltl.State.t;
  monitor_state : Pastltl.Monitor.state;
}

let max_violations = 1000

(* The cut determines the global state, so two entries meeting at one
   cut carry equal states by construction; only the monitor-state sets
   need unioning. *)
module F = Observer.Frontier.Make (struct
  type t = entry

  let merge a b = { a with msets = Mset.union a.msets b.msets }
end)

type gc_stats = {
  retired_cuts : int;
  peak_frontier_cuts : int;
  peak_frontier_entries : int;
  monitor_steps : int;
}

type t = {
  nthreads : int;
  monitor : Pastltl.Monitor.compiled;
  spec : Pastltl.Formula.t;
  max_buffered : int option;  (* bound on out-of-order buffered messages *)
  (* Message store, per thread [i]: the window [gc_floor.(i)+1 ..
     prefix.(i)] lives in the power-of-two ring [window.(i)] at index
     [seq land (length - 1)], every other slot holding [absent]; the
     messages received past the prefix wait in [ahead.(i)], by index,
     so a far-out-of-order (or corrupt) index costs one map node rather
     than a ring as long as the gap. *)
  window : Message.t array array;
  ahead : Message.t Imap.t array;
  prefix : int array;  (* per thread: largest k with 1..k all received *)
  beyond : int array;  (* per thread: received messages with index > prefix *)
  gc_floor : int array;  (* per thread: messages 1..gc_floor already collected *)
  ended : bool array;
  (* Totals over all threads, kept so that accounting is O(1). *)
  mutable stored : int;  (* every window plus every [ahead] map *)
  mutable out_of_order : int;  (* sum of [beyond] *)
  mutable ring_words : int;  (* sum of the ring lengths *)
  (* Frontier: cuts of the current level, on the shared engine, and its
     per-thread maximum component. *)
  mutable frontier : F.frontier;
  mutable reach : int array;
  mutable level : int;
  mutable done_ : bool;  (* the frontier can never advance again *)
  mutable rev_violations : violation list;
  mutable n_violations : int;  (* length of [rev_violations] *)
  mutable retired_cuts : int;
  mutable peak_frontier_cuts : int;
  mutable peak_frontier_entries : int;
  mutable monitor_steps : int;
}

(* Filler for the ring slots outside a thread's window. *)
let absent = Message.make ~eid:(-1) ~tid:0 ~var:"" ~value:0 ~mvc:(Vclock.of_array [| 1 |])

let min_window = 8

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

(* Thread [i]'s message [k], for [gc_floor.(i) < k <= prefix.(i)]. *)
let window_get t i k =
  let w = t.window.(i) in
  w.(k land (Array.length w - 1))

(* Append message [prefix.(i) + 1] to thread [i]'s window, doubling the
   ring when the window already fills it. *)
let window_push t i (m : Message.t) =
  let k = t.prefix.(i) + 1 in
  let w = t.window.(i) in
  let len = Array.length w in
  let w =
    if k - t.gc_floor.(i) <= len then w
    else begin
      let w' = Array.make (2 * len) absent in
      for j = t.gc_floor.(i) + 1 to k - 1 do
        w'.(j land ((2 * len) - 1)) <- w.(j land (len - 1))
      done;
      t.window.(i) <- w';
      t.ring_words <- t.ring_words + len;
      w'
    end
  in
  w.(k land (Array.length w - 1)) <- m;
  t.prefix.(i) <- k

let record_level_stats t =
  let cuts = F.size t.frontier in
  t.peak_frontier_cuts <- max t.peak_frontier_cuts cuts;
  let entries = F.fold (fun acc _ e -> acc + Mset.cardinal e.msets) 0 t.frontier in
  t.peak_frontier_entries <- max t.peak_frontier_entries entries

(* Keeps the first [max_violations] pairs in level order: enough for
   the verdict and the report, and a bound on what a checkpoint
   carries however often the stream violates the spec. *)
let record_violations t =
  if t.n_violations < max_violations then
    F.iter
      (fun cut entry ->
        Mset.iter
          (fun m ->
            if t.n_violations < max_violations && not (Pastltl.Monitor.verdict t.monitor m)
            then begin
              if M.enabled () then M.incr m_violations;
              t.n_violations <- t.n_violations + 1;
              t.rev_violations <-
                { cut = Array.copy cut; level = t.level; state = entry.state; monitor_state = m }
                :: t.rev_violations
            end)
          entry.msets)
      t.frontier

let create ?max_buffered ~nthreads ~init ~spec () =
  if nthreads <= 0 then invalid_arg "Online.create: nthreads must be positive";
  (match max_buffered with
  | Some k when k < 0 -> invalid_arg "Online.create: max_buffered must be >= 0"
  | Some k -> if M.enabled () then M.set m_max_buffered k
  | None -> ());
  let monitor = Pastltl.Monitor.compile spec in
  let init_state = Pastltl.State.of_list init in
  let m0 = Pastltl.Monitor.init monitor init_state in
  let frontier =
    F.singleton ~width:nthreads (Array.make nthreads 0)
      { state = init_state; msets = Mset.singleton m0 }
  in
  let t =
    { nthreads;
      monitor;
      spec;
      max_buffered;
      window = Array.init nthreads (fun _ -> Array.make min_window absent);
      ahead = Array.make nthreads Imap.empty;
      prefix = Array.make nthreads 0;
      beyond = Array.make nthreads 0;
      gc_floor = Array.make nthreads 0;
      ended = Array.make nthreads false;
      stored = 0;
      out_of_order = 0;
      ring_words = nthreads * min_window;
      frontier;
      reach = F.max_components frontier;
      level = 0;
      done_ = false;
      rev_violations = [];
      n_violations = 0;
      retired_cuts = 0;
      peak_frontier_cuts = 0;
      peak_frontier_entries = 0;
      monitor_steps = 1 }
  in
  record_level_stats t;
  record_violations t;
  t

(* A frontier cut can move on thread i only by that thread's event
   [cut.(i) + 1], and no cut of the level has [cut.(i)] above
   [reach.(i)].  So once every thread has delivered event
   [reach.(i) + 1], or has ended with nothing past its prefix, every
   move of every cut is in hand and the expansion to the next level is
   exact.  Some event is always enabled while any thread has events
   left, so an empty expansion really is the end of the lattice. *)
let can_advance t =
  (not t.done_)
  &&
  let ok = ref true and i = ref 0 in
  while !ok && !i < t.nthreads do
    let j = !i in
    ok := t.prefix.(j) > t.reach.(j) || (t.ended.(j) && t.beyond.(j) = 0);
    incr i
  done;
  !ok

let pool = Observer.Frontier.Pool.create ~jobs:1

let rec advance_one_level_body t =
  let steps = ref 0 in
  let next =
    F.expand pool
      ~moves:(fun ~shard:_ cut ->
        let out = ref [] in
        for i = t.nthreads - 1 downto 0 do
          let k = cut.(i) + 1 in
          if k <= t.prefix.(i) then begin
            let m = window_get t i k in
            (* Enabled iff every other component of the event's clock is
               inside the cut. *)
            let enabled = ref true in
            for j = 0 to t.nthreads - 1 do
              if j <> i && Vclock.get m.Message.mvc j > cut.(j) then enabled := false
            done;
            if !enabled then out := (i, m) :: !out
          end
        done;
        !out)
      ~transition:(fun ~shard:_ entry ~tid:_ m ->
        let state' = Observer.Computation.apply entry.state m in
        let stepped =
          Mset.fold
            (fun ms acc ->
              incr steps;
              Mset.add (Pastltl.Monitor.step t.monitor ms state') acc)
            entry.msets Mset.empty
        in
        { state = state'; msets = stepped })
      t.frontier
  in
  t.monitor_steps <- t.monitor_steps + !steps;
  if M.deep_enabled () then M.add m_monitor_steps !steps;
  if F.size next = 0 then t.done_ <- true
  else begin
    t.retired_cuts <- t.retired_cuts + F.size t.frontier;
    if M.deep_enabled () then begin
      M.add m_retired (F.size t.frontier);
      M.push m_level_cuts (F.size next)
    end;
    t.frontier <- next;
    t.reach <- F.max_components next;
    t.level <- t.level + 1;
    record_level_stats t;
    record_violations t;
    gc_store t
  end

(* A message (i, k) can never be consumed again once every frontier cut
   already contains it; successors of the frontier only grow. Dropping
   such messages is the paper's "garbage-collected while the analysis
   process continues". *)
and gc_store t =
  (* The frontier's minimum components only grow level over level, so
     [gc_floor] records what previous sweeps already collected and each
     message is dropped exactly once over the whole run. *)
  let floor = F.min_components t.frontier in
  for i = 0 to t.nthreads - 1 do
    if floor.(i) > t.gc_floor.(i) then begin
      let w = t.window.(i) in
      for k = t.gc_floor.(i) + 1 to floor.(i) do
        w.(k land (Array.length w - 1)) <- absent
      done;
      if M.deep_enabled () then M.add m_gc_removed (floor.(i) - t.gc_floor.(i));
      t.stored <- t.stored - (floor.(i) - t.gc_floor.(i));
      t.gc_floor.(i) <- floor.(i)
    end
  done

let advance_one_level t =
  if Telemetry.Span.enabled () then
    Telemetry.Span.with_ ~name:"online.level" (fun () -> advance_one_level_body t)
  else advance_one_level_body t

let pump t =
  while can_advance t do
    advance_one_level t
  done

let buffered t = t.stored

let feed t (m : Message.t) =
  let i = m.tid in
  if i < 0 || i >= t.nthreads then invalid_arg "Online.feed: thread id out of range";
  let seq = Message.seq m in
  if seq <= t.prefix.(i) || Imap.mem seq t.ahead.(i) then
    invalid_arg "Online.feed: duplicate message";
  if t.ended.(i) then invalid_arg "Online.feed: thread already ended";
  (match t.max_buffered with
  | Some limit when seq > t.prefix.(i) + 1 ->
      let buffered = t.out_of_order in
      if buffered >= limit then raise (Backpressure { buffered; limit })
  | _ -> ());
  t.stored <- t.stored + 1;
  if seq = t.prefix.(i) + 1 then begin
    window_push t i m;
    (* Extend the contiguous prefix as far as buffered messages allow. *)
    let rec pull () =
      match Imap.min_binding_opt t.ahead.(i) with
      | Some (k, m') when k = t.prefix.(i) + 1 ->
          t.ahead.(i) <- Imap.remove k t.ahead.(i);
          t.beyond.(i) <- t.beyond.(i) - 1;
          t.out_of_order <- t.out_of_order - 1;
          window_push t i m';
          pull ()
      | _ -> ()
    in
    pull ()
  end
  else begin
    t.ahead.(i) <- Imap.add seq m t.ahead.(i);
    t.beyond.(i) <- t.beyond.(i) + 1;
    t.out_of_order <- t.out_of_order + 1
  end;
  pump t;
  if M.deep_enabled () then begin
    M.set_max m_peak_buffered t.out_of_order;
    M.set_max m_peak_stored t.stored
  end

let feed_all t ms = List.iter (feed t) ms

let end_of_thread t tid =
  if tid < 0 || tid >= t.nthreads then invalid_arg "Online.end_of_thread: bad thread id";
  t.ended.(tid) <- true;
  pump t

let finish t =
  for i = 0 to t.nthreads - 1 do
    if t.beyond.(i) > 0 then
      invalid_arg
        (Printf.sprintf "Online.finish: thread %d is missing message %d" i (t.prefix.(i) + 1));
    t.ended.(i) <- true
  done;
  pump t

(* {1 Checkpoint support}

   A snapshot captures, in plain serializable values, everything the
   analyzer needs to continue a run: the current frontier level (cuts,
   global states, monitor-state sets), the message store with its
   prefix/out-of-order/gc bookkeeping, the violations found so far and
   the gc statistics.  Monitor states travel as bit strings
   ({!Pastltl.Monitor.state_to_string}) so a snapshot is independent of
   the compiled monitor's in-memory form, and {!restore} re-derives the
   monitor from the specification — a snapshot taken under one spec can
   never silently restore under another. *)

type snapshot = {
  snap_nthreads : int;
  snap_level : int;
  snap_done : bool;
  snap_prefix : int array;
  snap_beyond : int array;
  snap_gc_floor : int array;
  snap_ended : bool array;
  snap_store : Message.t list;
  snap_frontier : (int array * (Types.var * Types.value) list * string list) list;
  snap_violations : (int array * int * (Types.var * Types.value) list * string) list;
  snap_retired_cuts : int;
  snap_peak_frontier_cuts : int;
  snap_peak_frontier_entries : int;
  snap_monitor_steps : int;
}

(* Thread [i]'s messages past its prefix, ascending. *)
let ahead_messages t i = List.map snd (Imap.bindings t.ahead.(i))

(* Every stored message, ascending [(tid, seq)]: each window and each
   out-of-order map is already in order, so no sort is needed. *)
let stored_messages t =
  List.concat_map
    (fun i ->
      List.init (t.prefix.(i) - t.gc_floor.(i)) (fun j ->
          window_get t i (t.gc_floor.(i) + 1 + j))
      @ ahead_messages t i)
    (List.init t.nthreads Fun.id)

let snapshot t =
  let store = stored_messages t in
  let frontier =
    F.fold
      (fun acc cut e ->
        ( Array.copy cut,
          Pastltl.State.to_list e.state,
          List.map Pastltl.Monitor.state_to_string (Mset.elements e.msets) )
        :: acc)
      [] t.frontier
    |> List.rev
  in
  let violations =
    List.rev_map
      (fun v ->
        ( Array.copy v.cut,
          v.level,
          Pastltl.State.to_list v.state,
          Pastltl.Monitor.state_to_string v.monitor_state ))
      t.rev_violations
  in
  { snap_nthreads = t.nthreads;
    snap_level = t.level;
    snap_done = t.done_;
    snap_prefix = Array.copy t.prefix;
    snap_beyond = Array.copy t.beyond;
    snap_gc_floor = Array.copy t.gc_floor;
    snap_ended = Array.copy t.ended;
    snap_store = store;
    snap_frontier = frontier;
    snap_violations = violations;
    snap_retired_cuts = t.retired_cuts;
    snap_peak_frontier_cuts = t.peak_frontier_cuts;
    snap_peak_frontier_entries = t.peak_frontier_entries;
    snap_monitor_steps = t.monitor_steps }

let restore ?max_buffered ~spec s =
  let n = s.snap_nthreads in
  if n <= 0 then invalid_arg "Online.restore: nthreads must be positive";
  let check_width what a =
    if Array.length a <> n then
      invalid_arg (Printf.sprintf "Online.restore: %s has width %d, expected %d" what
                     (Array.length a) n)
  in
  check_width "prefix" s.snap_prefix;
  check_width "beyond" s.snap_beyond;
  check_width "gc_floor" s.snap_gc_floor;
  if Array.length s.snap_ended <> n then invalid_arg "Online.restore: bad ended width";
  if s.snap_frontier = [] then invalid_arg "Online.restore: empty frontier";
  let monitor = Pastltl.Monitor.compile spec in
  let mstate bits =
    match Pastltl.Monitor.state_of_string monitor bits with
    | Some m -> m
    | None ->
        invalid_arg
          "Online.restore: monitor state does not fit the specification \
           (snapshot taken under a different spec?)"
  in
  let entries =
    List.map
      (fun (cut, bindings, msets) ->
        check_width "frontier cut" cut;
        if msets = [] then invalid_arg "Online.restore: cut with no monitor states";
        ( cut,
          { state = Pastltl.State.of_list bindings;
            msets = Mset.of_list (List.map mstate msets) } ))
      s.snap_frontier
  in
  let prefix = s.snap_prefix and gc_floor = s.snap_gc_floor in
  let window =
    Array.init n (fun i ->
        if gc_floor.(i) < 0 || gc_floor.(i) > prefix.(i) then
          invalid_arg "Online.restore: gc floor outside the delivered prefix";
        Array.make (pow2_at_least (prefix.(i) - gc_floor.(i)) min_window) absent)
  in
  let ahead = Array.make n Imap.empty in
  List.iter
    (fun (m : Message.t) ->
      let i = m.tid in
      if i < 0 || i >= n then invalid_arg "Online.restore: stored tid out of range";
      let k = Message.seq m in
      if k <= gc_floor.(i) then invalid_arg "Online.restore: stored message below the gc floor";
      if k <= prefix.(i) then begin
        let w = window.(i) in
        w.(k land (Array.length w - 1)) <- m
      end
      else ahead.(i) <- Imap.add k m ahead.(i))
    s.snap_store;
  for i = 0 to n - 1 do
    for k = gc_floor.(i) + 1 to prefix.(i) do
      let w = window.(i) in
      if w.(k land (Array.length w - 1)) == absent then
        invalid_arg (Printf.sprintf "Online.restore: thread %d's message %d is not stored" i k)
    done;
    if Imap.cardinal ahead.(i) <> s.snap_beyond.(i) then
      invalid_arg "Online.restore: out-of-order count disagrees with the store";
    if Imap.mem (prefix.(i) + 1) ahead.(i) then
      invalid_arg "Online.restore: a stored message extends the delivered prefix"
  done;
  let frontier = F.of_list ~width:n entries in
  let sum f = Array.fold_left ( + ) 0 (Array.init n f) in
  let out_of_order = sum (fun i -> s.snap_beyond.(i)) in
  { nthreads = n;
    monitor;
    spec;
    max_buffered;
    window;
    ahead;
    prefix = Array.copy prefix;
    beyond = Array.copy s.snap_beyond;
    gc_floor = Array.copy gc_floor;
    ended = Array.copy s.snap_ended;
    stored = sum (fun i -> prefix.(i) - gc_floor.(i)) + out_of_order;
    out_of_order;
    ring_words = sum (fun i -> Array.length window.(i));
    frontier;
    reach = F.max_components frontier;
    level = s.snap_level;
    done_ = s.snap_done;
    rev_violations =
      List.rev_map
        (fun (cut, level, bindings, bits) ->
          { cut; level; state = Pastltl.State.of_list bindings; monitor_state = mstate bits })
        s.snap_violations;
    n_violations = List.length s.snap_violations;
    retired_cuts = s.snap_retired_cuts;
    peak_frontier_cuts = s.snap_peak_frontier_cuts;
    peak_frontier_entries = s.snap_peak_frontier_entries;
    monitor_steps = s.snap_monitor_steps }

let violated t = t.rev_violations <> []
let violations t = List.rev t.rev_violations
let level t = t.level
let frontier_cuts t = F.size t.frontier

(* The ring slots, plus ~15 words per stored message: the message
   record and its clock (or, out of order, a map node).  The frontier
   term is the dominant one under a wide workload, and [F.mem_words] is
   O(1) arithmetic, so this is cheap enough to evaluate after every
   feed. *)
let mem_words t =
  F.mem_words t.frontier + t.ring_words + (15 * t.stored) + (5 * t.nthreads)

let handoff t =
  let pending = List.concat_map (ahead_messages t) (List.init t.nthreads Fun.id) in
  (Array.copy t.prefix, Array.copy t.ended, pending)

let out_of_order t = t.out_of_order

let missing t =
  let rec go i =
    if i >= t.nthreads then None
    else if t.beyond.(i) > 0 then Some (i, t.prefix.(i) + 1)
    else go (i + 1)
  in
  go 0

let gc_stats t =
  { retired_cuts = t.retired_cuts;
    peak_frontier_cuts = t.peak_frontier_cuts;
    peak_frontier_entries = t.peak_frontier_entries;
    monitor_steps = t.monitor_steps }

let of_computation ~spec comp =
  let t =
    create ~nthreads:(Observer.Computation.nthreads comp)
      ~init:(Pastltl.State.to_list (Observer.Computation.init_state comp))
      ~spec ()
  in
  feed_all t (Observer.Computation.messages comp);
  finish t;
  t

let pp_report ppf t =
  Format.fprintf ppf "@[<v>spec: %a@,%s@,levels=%d max_cuts=%d max_entries=%d \
                      monitor_steps=%d cuts_visited=%d@]"
    Pastltl.Formula.pp t.spec
    (if t.n_violations = 0 then "no violation predicted"
     else Printf.sprintf "%d violating (cut, monitor-state) pairs predicted" t.n_violations)
    (t.level + 1) t.peak_frontier_cuts t.peak_frontier_entries t.monitor_steps
    (t.retired_cuts + F.size t.frontier)
