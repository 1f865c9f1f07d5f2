open Trace

type t = {
  relevance : Relevance.t;
  vi : (Types.tid, Dvclock.t) Hashtbl.t;
  va : (Types.var, Dvclock.t) Hashtbl.t;
  vw : (Types.var, Dvclock.t) Hashtbl.t;
  mutable seen : Types.tid list;  (* ascending *)
}

let create ~relevance =
  { relevance; vi = Hashtbl.create 8; va = Hashtbl.create 8; vw = Hashtbl.create 8;
    seen = [] }

let note_thread t tid =
  if not (List.mem tid t.seen) then t.seen <- List.sort compare (tid :: t.seen)

let var_clock table x =
  match Hashtbl.find_opt table x with Some v -> v | None -> Dvclock.empty

let thread_clock t tid = var_clock t.vi tid
let access_clock t x = var_clock t.va x
let write_clock t x = var_clock t.vw x

let spawn t ~parent ~child =
  if parent < 0 || child < 0 then invalid_arg "Dynamic.spawn: negative thread id";
  if List.mem child t.seen then invalid_arg "Dynamic.spawn: child thread already exists";
  note_thread t parent;
  note_thread t child;
  (* The child inherits the parent's knowledge: every prior parent event
     causally precedes every child event. *)
  Hashtbl.replace t.vi child (thread_clock t parent)

let join t ~parent ~child =
  if parent < 0 || child < 0 then invalid_arg "Dynamic.join: negative thread id";
  note_thread t parent;
  note_thread t child;
  Hashtbl.replace t.vi parent (Dvclock.max (thread_clock t parent) (thread_clock t child))

let process t tid (kind : Event.kind) =
  if tid < 0 then invalid_arg "Dynamic.process: negative thread id";
  note_thread t tid;
  let relevant = Relevance.is_relevant t.relevance kind in
  if relevant then Hashtbl.replace t.vi tid (Dvclock.inc (thread_clock t tid) tid);
  (match kind with
  | Event.Internal -> ()
  | Event.Read (x, _) ->
      Hashtbl.replace t.vi tid (Dvclock.max (thread_clock t tid) (write_clock t x));
      Hashtbl.replace t.va x (Dvclock.max (access_clock t x) (thread_clock t tid))
  | Event.Write (x, _) ->
      let v = Dvclock.max (thread_clock t tid) (access_clock t x) in
      Hashtbl.replace t.vi tid v;
      Hashtbl.replace t.va x v;
      Hashtbl.replace t.vw x v);
  if relevant then Some (thread_clock t tid) else None

let threads_seen t = t.seen
let relevant_count t tid = Dvclock.get (thread_clock t tid) tid
