(** Synchronization-only vector clocks, shared by the predictive race
    and atomicity analyses.

    Every event advances its thread's own component (so accesses are
    distinct points in the causal order), but cross-thread edges come
    only from the dummy synchronization variables of Section 3.1 — data
    accesses contribute no edges, otherwise the conflicting pair under
    test would order itself. *)

open Trace

type t

val create : nthreads:int -> t

val observe : t -> Event.t -> Vclock.t option
(** Advances the clocks for one event. Returns [Some vc] — the thread's
    clock at that point — for {e data} accesses (the points the analyses
    compare), [None] for internal events and synchronization traffic. *)

val observe_access : t -> Types.tid -> var:Types.var -> is_read:bool -> Vclock.t option
(** {!observe} for the message-driven engines: one delivered access,
    already split into its thread, {e demangled} variable (see
    {!Trace.Types.as_read}) and direction.  Sync-variable traffic
    advances the clocks and returns [None]; data accesses return the
    thread's clock.  Feeding accesses in {e any} linearization
    consistent with the full (all-events) message causality yields the
    same per-access clocks as {!observe} over the original execution:
    writes of one sync variable are totally ordered by their
    absorb-and-update cycle, so every causal linearization replays them
    in the same order. *)

(** {1 Checkpointing} *)

type snapshot = {
  snap_vi : Vclock.t array;
  snap_va : (Types.var * Vclock.t) list;  (** sorted by variable *)
  snap_vw : (Types.var * Vclock.t) list;
}

val snapshot : t -> snapshot
val restore : snapshot -> t
(** @raise Invalid_argument on an empty clock array. *)
