(** Level-by-level predictive safety analysis (paper, Section 4): the
    observer of the paper's title, and the only lattice analysis in the
    tree — offline analysis is this one fed a complete message list.

    Checks a past-time LTL specification against {e every}
    multithreaded run of a computation {e in parallel}, by walking the
    computation lattice one level at a time.  Each frontier cut carries
    the global state it denotes together with the {e set} of monitor
    states produced by the different paths reaching it.  A violation is
    a reachable cut where some path's monitor evaluates the
    specification to false.

    Messages [⟨e, i, V⟩] arrive one at a time, in any order; the analyzer
    buffers them, and as soon as every event that can occur in the next
    lattice level is in hand, it advances its frontier by one level and
    {e garbage-collects} the previous one (paper, Section 4: "one can
    buffer them at the observer's side and then build the lattice on a
    level-by-level basis ... as the events become available", "parts of
    the lattice which become non-relevant ... can be garbage-collected
    while the analysis process continues").

    A cut of the current level can move on thread [i] only by that
    thread's next event, so the moves of the whole level involve, from
    each thread, at most event [max_i + 1], where [max_i] is the largest
    [i]-component of any frontier cut.  The frontier therefore advances
    one level once every thread has either delivered its events
    [1..max_i + 1] or ended with nothing beyond its delivered prefix:
    it waits for exactly the events its frontier needs, however far
    ahead of the frontier the threads run.  Thread completion is
    announced with {!end_of_thread} (the instrumented program knows when
    a thread halts); without it the analyzer still makes all progress
    that is safe.

    The message store holds, per thread, the window from the garbage
    collection floor (the frontier's minimum component) to the
    delivered prefix, plus the out-of-order messages past it — so it is
    bounded by the frontier's span plus the out-of-order count, not by
    the stream's length, and so is a {!snapshot}.

    Verdicts agree with {!Counterexample.check}, which enumerates every
    run explicitly, under in-order, reversed and shuffled delivery — a
    property the test suite checks. *)

open Trace

type t

type violation = {
  cut : int array;
  level : int;
  state : Pastltl.State.t;  (** the global state falsifying the spec *)
  monitor_state : Pastltl.Monitor.state;
}

val max_violations : int
(** [1000]: the analyzer keeps the first [max_violations] violating
    (cut, monitor-state) pairs, in level order, and drops the rest.
    {!violated} is unaffected, and a checkpoint stays small however
    often the stream violates the specification. *)

exception Backpressure of { buffered : int; limit : int }
(** Raised by {!feed} when accepting an out-of-order message would
    exceed the [max_buffered] bound. *)

val create :
  ?max_buffered:int ->
  nthreads:int ->
  init:(Types.var * Types.value) list ->
  spec:Pastltl.Formula.t ->
  unit ->
  t
(** The frontier starts as the bottom cut (level 0), already checked
    against the specification.

    The frontier runs on the {!Observer.Frontier} engine, one
    sequential pass per level.

    [max_buffered] bounds the messages buffered {e out of order} (past
    their thread's contiguous prefix): one more makes {!feed} raise
    {!Backpressure}, keeping the observer's memory bounded under a
    reordering channel.  The bound and the observed peak surface as the
    [online.max_buffered] / [online.peak_buffered] telemetry gauges.
    The peak of everything stored (the {!buffered} count after each
    {!feed}, in order or not) is the [online.peak_stored] gauge. *)

val feed : t -> Message.t -> unit
(** Accept one message (any order) and advance as far as possible.
    @raise Invalid_argument on duplicates or thread ids out of range.
    @raise Backpressure when the out-of-order buffer bound is full. *)

val feed_all : t -> Message.t list -> unit

val end_of_thread : t -> Types.tid -> unit
(** Declare that the thread will emit no further messages. *)

val finish : t -> unit
(** Declare end-of-stream for every thread.
    @raise Invalid_argument if buffered messages are still missing a
    predecessor (a lost message). *)

val of_computation : spec:Pastltl.Formula.t -> Observer.Computation.t -> t
(** The finished analyzer of a whole computation: its messages fed in
    order, then {!finish}. *)

val violated : t -> bool
val violations : t -> violation list
(** Violations found so far, in level order; at most {!max_violations}. *)

val level : t -> int
(** The frontier's current lattice level. *)

val frontier_cuts : t -> int

val mem_words : t -> int
(** Approximate resident size of the analyzer's live state in words —
    the frontier arena plus the message store.  O(1) arithmetic over
    maintained counters, cheap enough to check after every feed; the
    resource-budget layer compares it against [--memory-budget]. *)

val handoff : t -> int array * bool array * Trace.Message.t list
(** The clean causal boundary at the current quiescent point, for
    degrading onto the linear-time engines: per-thread contiguous
    delivered prefix, per-thread ended flags, and the buffered
    out-of-order messages still beyond the prefix (ascending
    [(tid, seq)]).  Must be taken between {!feed} calls, like
    {!snapshot}.  Engines seeded from this cut observe only the suffix
    of the stream — the caller stamps the verdict with an explicit
    [degraded] marker to say so. *)

val buffered : t -> int
(** Messages received and not yet garbage-collected: each thread's
    window from the frontier's minimum component to its delivered
    prefix, plus the out-of-order messages. *)

val out_of_order : t -> int
(** Buffered messages still missing a predecessor — the quantity bounded
    by [max_buffered]. *)

val missing : t -> (Types.tid * int) option
(** The first thread with a delivery gap and the index it is waiting
    for; [None] when every buffered message is contiguous. *)

type gc_stats = {
  retired_cuts : int;  (** cuts discarded after their level was passed *)
  peak_frontier_cuts : int;
  peak_frontier_entries : int;  (** (cut, monitor state) pairs *)
  monitor_steps : int;
}

val gc_stats : t -> gc_stats

val pp_report : Format.formatter -> t -> unit
(** The report of a finished analyzer: the specification, the number of
    violating pairs kept, and the sweep's statistics as
    [levels=] ({!level} + 1) [max_cuts=] [max_entries=] (the peaks of
    {!gc_stats}) [monitor_steps=] [cuts_visited=] (retired cuts plus the
    final frontier). *)

(** {1 Checkpointing}

    Thanks to the level-by-level garbage collection, the analyzer's live
    state at any quiescent point (between {!feed} calls) is small:
    the current frontier, the message store, and a few
    counters.  {!snapshot} captures exactly that as plain serializable
    values; {!restore} rebuilds an analyzer that continues the run with
    verdicts, violations and {!gc_stats} identical to never having
    stopped — the property the crash-kill-resume differential suite
    checks. *)

type snapshot = {
  snap_nthreads : int;
  snap_level : int;
  snap_done : bool;
  snap_prefix : int array;  (** per-thread delivered contiguous prefix *)
  snap_beyond : int array;  (** per-thread out-of-order buffered count *)
  snap_gc_floor : int array;
  snap_ended : bool array;
  snap_store : Message.t list;
      (** the stored messages ({!buffered}), ascending [(tid, seq)] *)
  snap_frontier : (int array * (Types.var * Types.value) list * string list) list;
      (** current level: cut, global-state bindings, monitor states as
          {!Pastltl.Monitor.state_to_string} bit strings *)
  snap_violations : (int array * int * (Types.var * Types.value) list * string) list;
      (** violations found so far, oldest first *)
  snap_retired_cuts : int;
  snap_peak_frontier_cuts : int;
  snap_peak_frontier_entries : int;
  snap_monitor_steps : int;
}

val snapshot : t -> snapshot
(** Must be taken at a quiescent point — not from within a [feed]. *)

val restore :
  ?max_buffered:int ->
  spec:Pastltl.Formula.t ->
  snapshot ->
  t
(** The monitor is recompiled from [spec]; [max_buffered] is supplied
    fresh, so a run can resume under a different bound than it was
    checkpointed under.
    @raise Invalid_argument when the snapshot is internally inconsistent
    or its monitor states do not fit [spec] (wrong specification). *)
