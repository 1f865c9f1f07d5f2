(** Causal-order delivery buffer for the linear-time engines.

    The streaming race and atomicity engines reconstruct the sync-only
    happens-before ({!Syncclock}) from the message stream itself, which
    is only deterministic when messages are processed in {e some}
    linearization of the causal order their clocks carry.  {!Engines}
    holds one such buffer for every engine that reads it.  This buffer
    accepts messages in any arrival order and releases them causally:
    message [m] of thread [t] with own index [s = m.mvc(t)] is delivered
    once messages [1..s-1] of [t] and the first [m.mvc(j)] messages of
    every other thread [j] have been delivered — the classic
    vector-clock delivery condition, here over Algorithm A clocks with
    the all-events relevance (every access relevant, so indices are
    contiguous).

    Duplicate and out-of-range messages raise [Invalid_argument] with
    the same semantics as {!Online.feed}, and the out-of-order bound
    raises {!Online.Backpressure}, so the streaming front ends treat all
    engines uniformly.  The softer [--max-causal-buffered] budget is not
    enforced here: the front ends read {!buffered} after every feed and
    route a breach through the overload policy ([Jmpax.Budget]). *)

open Trace

type t

val create : ?max_buffered:int -> nthreads:int -> unit -> t
(** [max_buffered] is the hard backpressure bound ({!Online.Backpressure}). *)

val feed : t -> Message.t -> Message.t list
(** Buffer one message and return every message that became deliverable,
    in causal order (oldest first).
    @raise Invalid_argument on duplicates, out-of-range thread ids, or
    messages arriving after their thread ended.
    @raise Online.Backpressure when the buffer exceeds [max_buffered]. *)

val end_of_thread : t -> Types.tid -> unit
val buffered : t -> int
val peak_buffered : t -> int

val missing : t -> (Types.tid * int) option
(** The first thread whose next message is absent and blocks delivery;
    [None] when nothing is buffered. *)

val finish : t -> unit
(** Declare end-of-stream.
    @raise Invalid_argument when buffered messages can never be
    delivered (a lost message). *)

(** {1 Checkpointing} *)

type snapshot = {
  snap_delivered : int array;
  snap_ended : bool array;
  snap_pending : Message.t list;  (** ascending [(tid, seq)] *)
  snap_peak_buffered : int;
  snap_delivered_total : int;
}

val snapshot : t -> snapshot
val restore : ?max_buffered:int -> snapshot -> t
(** @raise Invalid_argument on an inconsistent snapshot. *)
