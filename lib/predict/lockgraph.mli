(** Potential-deadlock prediction by lock-order graph (Goodlock style).

    From a recorded execution, adds an edge [l → l'] whenever some thread
    acquires [l'] while holding [l]; a cycle among different threads'
    edges means some schedule can interleave the acquisitions into a
    deadlock, even if the observed run completed. This complements
    {!Online}: the paper's lattice predicts state-property violations,
    the lock graph predicts blocking cycles that produce no state at
    all. *)

open Trace

type edge = { held : string; acquired : string; tid : Types.tid; eid : int }

type report = {
  locks : string list;  (** all locks seen, sorted *)
  edges : edge list;
  cycles : string list list;
      (** each cycle as its lock list (smallest-first rotation), only
          cycles involving at least two distinct threads *)
}

val analyze : Exec.t -> report
(** @raise Invalid_argument on a malformed lock event stream (release of
    a lock not held), which the VM never produces. *)

val deadlock_free : report -> bool
val pp_report : Format.formatter -> report -> unit
