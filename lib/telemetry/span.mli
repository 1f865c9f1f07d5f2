(** Span tracing: begin/end events for every pipeline stage, written as
    a Chrome-trace-format JSON stream ([chrome://tracing] and Perfetto
    both import it; `jmpax stats` replays it into a summary table).

    Each event is one line.  The stream opens with ["["] and every event
    line ends with a comma — the trailing comma and missing ["]"] are
    permitted by the Trace Event Format's JSON-array flavour, which is
    what lets the writer stay append-only.

    A begin event carries the span's fresh id and its parent's id (the
    innermost open span on the same domain, or 0 at top level):

    {v
    {"name":"vm.run","cat":"jmpax","ph":"B","ts":12.3,"pid":0,"tid":1,
     "args":{"id":7,"parent":3}},
    v}

    and the matching end event repeats the name and id with ["ph":"E"].
    Timestamps are monotonic-ish microseconds ([Unix.gettimeofday]
    rebased to the [enable] call).

    Like {!Metrics}, the tracer is globally gated: {!with_} costs one
    atomic load and a direct call of the thunk when tracing is off.
    Events may be emitted from any domain; the per-domain span stack
    lives in domain-local storage and the writer is mutex-protected. *)

val enabled : unit -> bool

val enable : out_channel -> unit
(** Start tracing into the channel (the caller closes it after
    {!disable}).  Writes the opening ["["]. *)

val disable : unit -> unit
(** Stop tracing and flush.  No-op when off. *)

val with_ : name:string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span.  The end event is emitted even when the
    thunk raises.  When tracing is off this is exactly [f ()]. *)

val instant : name:string -> unit -> unit
(** A zero-duration marker event ([ph:"i"]), for one-shot occurrences
    such as run-count saturation. *)
