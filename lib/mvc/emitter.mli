(** Instrumentation runtime: couples Algorithm A with the event log.

    The TML virtual machine calls {!on_internal}, {!on_read} and
    {!on_write} from its instrumentation hooks. The emitter records the
    flat observed execution (for oracles and for the JPaX baseline),
    drives Algorithm A, and forwards messages [⟨e, i, V⟩] for relevant
    events to the observer-side sink, exactly as JMPaX's instrumented
    bytecode writes to its socket (paper, Section 4.1). *)

open Trace

type t

val create :
  nthreads:int ->
  init:(Types.var * Types.value) list ->
  relevance:Relevance.t ->
  ?sink:(Message.t -> unit) ->
  unit ->
  t
(** [sink] is invoked synchronously for every emitted message; defaults
    to a no-op (messages are still accumulated and returned by
    {!finish}). *)

val on_internal : t -> Types.tid -> unit
val on_read : t -> Types.tid -> Types.var -> Types.value -> unit
val on_write : t -> Types.tid -> Types.var -> Types.value -> unit

val invariant : t -> bool
(** The underlying algorithm's internal-consistency check (useful for
    assertions in tests). *)

val message_count : t -> int

val finish : t -> Exec.t * Message.t list
(** The recorded execution and all emitted messages, in emission order.
    The emitter can keep being used afterwards; [finish] snapshots. *)
