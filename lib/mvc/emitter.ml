open Trace
module M = Telemetry.Metrics

let m_events = M.counter "mvc.events"
let m_messages = M.counter "mvc.messages"

type t = {
  builder : Exec.builder;
  algo : Algorithm.t;
  sink : Message.t -> unit;
  per_tid : M.counter array;  (* messages emitted per thread *)
  mutable rev_messages : Message.t list;
  mutable count : int;
}

let create ~nthreads ~init ~relevance ?(sink = fun _ -> ()) () =
  { builder = Exec.builder ~nthreads ~init;
    algo = Algorithm.create ~nthreads ~relevance;
    sink;
    per_tid =
      Array.init nthreads (fun i -> M.counter (Printf.sprintf "mvc.messages.t%d" i));
    rev_messages = [];
    count = 0 }

(* Algorithm A step: the per-event span is gated here so its closure
   only exists when tracing is on. *)
let process t tid kind =
  if Telemetry.Span.enabled () then
    Telemetry.Span.with_ ~name:"mvc.algorithm_a" (fun () ->
        Algorithm.process t.algo tid kind)
  else Algorithm.process t.algo tid kind

let dispatch t (e : Event.t) =
  if M.enabled () then M.incr m_events;
  match process t e.tid e.kind with
  | None -> ()
  | Some mvc ->
      let var, value =
        match e.kind with
        | Event.Write (x, v) -> (x, v)
        | Event.Read (x, v) -> (Types.read_var x, v)
        | Event.Internal ->
            (* A relevance filter marking internal events relevant would
               yield a message with no state update; JMPaX never does
               this, and neither do our filters. *)
            invalid_arg "Emitter: relevant internal events are not supported"
      in
      let m = Message.make ~eid:e.eid ~tid:e.tid ~var ~value ~mvc in
      t.rev_messages <- m :: t.rev_messages;
      t.count <- t.count + 1;
      if M.enabled () then begin
        M.incr m_messages;
        if e.tid >= 0 && e.tid < Array.length t.per_tid then
          M.incr t.per_tid.(e.tid)
      end;
      t.sink m

let on_internal t tid = dispatch t (Exec.add_internal t.builder tid)
let on_read t tid x v = dispatch t (Exec.add_read t.builder tid x v)
let on_write t tid x v = dispatch t (Exec.add_write t.builder tid x v)
let invariant t = Algorithm.invariant t.algo
let message_count t = t.count
let finish t = (Exec.freeze t.builder, List.rev t.rev_messages)
