(** Algorithm A over a dynamically changing thread population (paper,
    Section 2, following Sen–Roşu–Agha [28]).

    Clocks are sparse ({!Dvclock}); threads need no up-front
    registration. Two extra event kinds extend the causality:

    - {b spawn}: the child's first event causally follows everything the
      parent did before the spawn — the child starts with (a copy of)
      the parent's clock;
    - {b join}: the parent's next event causally follows everything the
      joined child did — the parent's clock absorbs the child's.

    Everything else is Fig. 2 verbatim, with sparse joins. *)

open Trace

type t

val create : relevance:Relevance.t -> t
(** No threads yet; any nonnegative id may appear. *)

val spawn : t -> parent:Types.tid -> child:Types.tid -> unit
(** @raise Invalid_argument on a negative thread id, or if the child is
    already in {!threads_seen}: it has produced an event (relevant or
    not), spawned or been spawned, or taken part in a join.  The root
    threads of a system need no spawn — using a fresh id implicitly
    creates a thread with an empty clock. *)

val join : t -> parent:Types.tid -> child:Types.tid -> unit
(** @raise Invalid_argument on a negative thread id. *)

val process : t -> Types.tid -> Event.kind -> Dvclock.t option
(** Steps 1–4 of Algorithm A; returns the emitting thread's clock for
    relevant events. *)

val thread_clock : t -> Types.tid -> Dvclock.t
val access_clock : t -> Types.var -> Dvclock.t
val write_clock : t -> Types.var -> Dvclock.t

val threads_seen : t -> Types.tid list
(** Every id that has produced an event (relevant or not), spawned or
    been spawned, or taken part in a join, ascending. *)

val relevant_count : t -> Types.tid -> int
