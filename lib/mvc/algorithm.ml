open Trace

type t = {
  n : int;
  relevance : Relevance.t;
  vi : Vclock.t array;
  va : (Types.var, Vclock.t) Hashtbl.t;
  vw : (Types.var, Vclock.t) Hashtbl.t;
}

let create ~nthreads ~relevance =
  if nthreads <= 0 then invalid_arg "Algorithm.create: nthreads must be positive";
  { n = nthreads;
    relevance;
    vi = Array.make nthreads (Vclock.zero nthreads);
    va = Hashtbl.create 16;
    vw = Hashtbl.create 16 }

let nthreads t = t.n
let relevance t = t.relevance

(* Every join writes all [n] components of its result; the ledger reads
   the count back through [Clock.Stats]. *)
let max t a b =
  Clock.Stats.note_join ~entries:t.n;
  Vclock.max a b

let var_clock table n x =
  match Hashtbl.find_opt table x with Some v -> v | None -> Vclock.zero n

let access_clock t x = var_clock t.va t.n x
let write_clock t x = var_clock t.vw t.n x

let thread_clock t i =
  if i < 0 || i >= t.n then invalid_arg "Algorithm.thread_clock: bad thread id";
  t.vi.(i)

let relevant_count t i = Vclock.get (thread_clock t i) i

let process t i (kind : Event.kind) =
  if i < 0 || i >= t.n then invalid_arg "Algorithm.process: bad thread id";
  let relevant = Relevance.is_relevant t.relevance kind in
  (* step 1 *)
  if relevant then t.vi.(i) <- Vclock.inc t.vi.(i) i;
  (match kind with
  | Event.Internal -> ()
  | Event.Read (x, _) ->
      (* step 2 *)
      t.vi.(i) <- max t t.vi.(i) (write_clock t x);
      Hashtbl.replace t.va x (max t (access_clock t x) t.vi.(i))
  | Event.Write (x, _) ->
      (* step 3 *)
      let v = max t t.vi.(i) (access_clock t x) in
      t.vi.(i) <- v;
      Hashtbl.replace t.va x v;
      Hashtbl.replace t.vw x v);
  (* step 4 *)
  if relevant then Some t.vi.(i) else None

let invariant t =
  let ok = ref true in
  let totals = Array.init t.n (fun i -> relevant_count t i) in
  let within v =
    let rec go j = j >= t.n || (Vclock.get v j <= totals.(j) && go (j + 1)) in
    go 0
  in
  Hashtbl.iter
    (fun x va ->
      if not (Vclock.leq (write_clock t x) va) then ok := false;
      if not (within va) then ok := false)
    t.va;
  Hashtbl.iter (fun _ vw -> if not (within vw) then ok := false) t.vw;
  Array.iter (fun v -> if not (within v) then ok := false) t.vi;
  !ok
