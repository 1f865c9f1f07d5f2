(** Counterexample extraction by explicit run enumeration over the
    materialized lattice — the presentation the paper gives in its
    Examples 1 and 2 ("the user will be given enough information — the
    entire counterexample execution — to understand the error").

    Exponential in general; intended for the small computations of the
    worked examples and as the ground truth the tests check {!Online}
    against (which is frontier-bounded but reports no full runs). *)

open Trace

type counterexample = {
  run : Message.t list;  (** the violating multithreaded run *)
  states : Pastltl.State.t list;  (** induced states, initial first *)
  violation_index : int;  (** first state index falsifying the spec *)
  level : int;
  (** lattice level of the violating state — equal to [violation_index],
      since a run advances exactly one level per message *)
}

type report = {
  spec : Pastltl.Formula.t;
  total_runs : int;  (** runs actually enumerated (within [max_runs]) *)
  run_count : int;
  (** path count by the lattice DP ({!Observer.Lattice.run_count_info});
      saturates at [max_int] instead of silently overflowing *)
  run_count_saturated : bool;
  (** [true] when [run_count] hit the ceiling and is a lower bound *)
  first_violation_level : int option;
  (** smallest lattice level at which any enumerated run violates the
      spec; [None] when no run does *)
  violating : counterexample list;
}

val check :
  ?max_runs:int -> spec:Pastltl.Formula.t -> Observer.Computation.t -> report
(** Builds the lattice, enumerates every run, and checks each run's state
    sequence with the direct semantics ({!Pastltl.Semantics}).
    @raise Observer.Lattice.Too_large past the budgets. *)

val violated : report -> bool

val pp_counterexample :
  vars:Types.var list -> Format.formatter -> counterexample -> unit

val pp_report : Format.formatter -> report -> unit
