(** A bundle of prediction engines driven by one message stream.

    The front ends ([jmpax check/run/stream] and the serve sessions)
    select engines with [--engine lattice,race,atomicity]; this module
    feeds each observed message to the selected engines, dispatching on
    the closed {!Engine.kind} variant, and aggregates their progress,
    verdicts and checkpoint state.

    The lattice engine ({!Online}) reads the stream directly; [online t]
    exposes it to the stream/serve checkpoint and telemetry paths.  The
    linear-time race and atomicity engines share one {e delivery front}:
    one {!Causal} buffer releases each message in causal order (the
    paper's observer, Section 4), one {!Syncclock} set turns it into the
    sync-only happens-before (Section 3.1), and each delivered data
    access is handed with its clock to {!Race.observe} and
    {!Atomicity.observe}.  The front exists while either engine is live,
    whatever the number of engines reading it. *)

open Trace

type t

(** Why and where a bundle shed its lattice engine. *)
type degraded = {
  d_from : string;  (** the engine that was shed (always ["lattice"]) *)
  d_reason : string;  (** e.g. ["frontier_budget"] *)
  d_at_event : int;  (** events fed when the swap happened *)
  d_violated : bool;
      (** the shed engine had already predicted a violation — never lost
          to the swap *)
}

val create :
  ?max_buffered:int ->
  kinds:Engine.kind list ->
  nthreads:int ->
  init:(Types.var * Types.value) list ->
  spec:Pastltl.Formula.t option ->
  unit ->
  t
(** [max_buffered] bounds both the lattice engine's store and the
    delivery front ({!Online.Backpressure}).
    @raise Invalid_argument when [kinds] is empty, or when the lattice
    engine is selected without a specification. *)

val feed : t -> Message.t -> unit
(** Feed one message to the lattice engine, then through the delivery
    front once.
    @raise Invalid_argument on duplicates — the lattice engine and the
    front agree on duplicate detection, so the first one's verdict
    stands for all.
    @raise Online.Backpressure past the out-of-order bound; backpressure
    is fatal to the bundle. *)

val end_of_thread : t -> Types.tid -> unit
val finish : t -> unit
val violated : t -> bool

val online : t -> Online.t option
(** The lattice engine, when selected (and not degraded away). *)

val degraded : t -> degraded option
(** [Some _] once {!degrade} ran (or the bundle was restored from a
    degraded checkpoint): the bundle's verdict must carry the
    [degraded(...)] marker so it is never mistaken for full lattice
    coverage. *)

val degrade : t -> reason:string -> unit
(** Swap the lattice engine out for the linear-time race and atomicity
    engines at the current clean causal boundary (between feeds), drop
    the lattice state and record {!degraded}.  Without a live delivery
    front, the lattice's delivered/pending split ({!Online.handoff})
    seeds a new one; with one, the fresh engines attach to it at its
    current cut, so they also see the messages still waiting for
    causal delivery.  Engines the bundle already ran keep their state;
    fresh ones cover only the stream suffix.  A violation the lattice
    had already predicted is preserved in [d_violated].
    @raise Invalid_argument when no lattice engine is live. *)

(** {1 Resource accounting}

    O(1) over maintained counters; the resource-budget layer evaluates
    these after every feed. *)

val frontier_cuts : t -> int
(** Cuts in the lattice engine's current frontier level; [0] without a
    (live) lattice engine. *)

val causal_buffered : t -> int
(** Messages waiting in the delivery front; [0] without one.  The
    [--max-causal-buffered] budget is enforced only on this count, by
    the front ends' budget check after every feed. *)

val mem_words : t -> int
(** Approximate resident words of all live engine state (frontier arena,
    message store, the one delivery front). *)

val ticks : t -> int
(** Checkpoint-cadence clock: the lattice level when the lattice engine
    runs, otherwise the message count. *)

val out_of_order : t -> int
(** Worst case of the lattice engine and the delivery front. *)

val missing : t -> (Types.tid * int) option

val verdict_lines : t -> (string * string) list
(** Canonical [(engine, verdict)] lines of the non-lattice engines, in
    selection order (the lattice verdict keeps its historical
    [Pipeline.verdict_line] rendering). *)

val snapshots : t -> (string * string list) list
(** Checkpointable [(name, opaque lines)] blocks: the delivery front as
    [delivery] (version [delivery 1]: sync clocks, causal buffer,
    out-of-order count), then one block per linear-time engine
    ([race 2], [atomicity 2]).  Empty without a front; {!Online.snapshot}
    carries the lattice state. *)

val restore :
  ?max_buffered:int ->
  ?degraded:degraded ->
  kinds:Engine.kind list ->
  nthreads:int ->
  spec:Pastltl.Formula.t option ->
  online_snapshot:Online.snapshot option ->
  blocks:(string * string list) list ->
  events:int ->
  unit ->
  t
(** Rebuild a bundle from checkpoint state.  With [degraded] the
    checkpoint was taken after a lattice→linear swap: no lattice state
    is expected even when [Lattice] is selected, the race and atomicity
    blocks are restored instead, and the degraded status is preserved —
    kill/resume never upgrades a degraded verdict back to a full one.
    Blocks written before the front was shared ([race 1],
    [atomicity 1], each with its own copy of the front) still restore:
    the front comes from the first of them.
    @raise Invalid_argument when the selected engines and the
    checkpointed state disagree (missing or unselected engine blocks,
    lattice state without the lattice engine or vice versa, degraded
    with lattice state), or on a malformed block. *)
