open Trace

type t = {
  vi : Vclock.t array;
  va : (Types.var, Vclock.t) Hashtbl.t;
  vw : (Types.var, Vclock.t) Hashtbl.t;
}

let create ~nthreads =
  { vi = Array.init nthreads (fun _ -> Vclock.zero nthreads);
    va = Hashtbl.create 8;
    vw = Hashtbl.create 8 }

let n t = Array.length t.vi

let var_clock t table x =
  match Hashtbl.find_opt table x with Some v -> v | None -> Vclock.zero (n t)

let tick t tid = t.vi.(tid) <- Vclock.inc t.vi.(tid) tid

let sync_write t tid x =
  let v = Vclock.max (var_clock t t.va x) t.vi.(tid) in
  t.vi.(tid) <- v;
  Hashtbl.replace t.va x v;
  Hashtbl.replace t.vw x v

let sync_read t tid x =
  t.vi.(tid) <- Vclock.max t.vi.(tid) (var_clock t t.vw x);
  Hashtbl.replace t.va x (Vclock.max (var_clock t t.va x) t.vi.(tid))

let observe_access t tid ~var ~is_read =
  tick t tid;
  if Types.is_sync_var var then begin
    if is_read then sync_read t tid var else sync_write t tid var;
    None
  end
  else Some t.vi.(tid)

type snapshot = {
  snap_vi : Vclock.t array;
  snap_va : (Types.var * Vclock.t) list;
  snap_vw : (Types.var * Vclock.t) list;
}

let snapshot t =
  let dump table =
    Hashtbl.fold (fun x v acc -> (x, v) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { snap_vi = Array.copy t.vi; snap_va = dump t.va; snap_vw = dump t.vw }

let restore s =
  let load bindings =
    let table = Hashtbl.create (List.length bindings + 1) in
    List.iter (fun (x, v) -> Hashtbl.replace table x v) bindings;
    table
  in
  if Array.length s.snap_vi = 0 then invalid_arg "Syncclock.restore: empty clock array";
  { vi = Array.copy s.snap_vi; va = load s.snap_va; vw = load s.snap_vw }

let observe t (e : Event.t) =
  match e.kind with
  | Event.Internal -> None
  | Event.Read (x, _) when Types.is_sync_var x ->
      tick t e.tid;
      sync_read t e.tid x;
      None
  | Event.Write (x, _) when Types.is_sync_var x ->
      tick t e.tid;
      sync_write t e.tid x;
      None
  | Event.Read _ | Event.Write _ ->
      tick t e.tid;
      Some t.vi.(e.tid)
