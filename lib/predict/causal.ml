open Trace

type t = {
  nthreads : int;
  delivered : int array;
  pending : (int, Message.t) Hashtbl.t array;  (* per thread, keyed by seq *)
  ended : bool array;
  max_buffered : int option;
  mutable buffered : int;
  mutable peak_buffered : int;
  mutable delivered_total : int;
}

let create ?max_buffered ~nthreads () =
  if nthreads <= 0 then invalid_arg "Causal.create: nthreads must be positive";
  (match max_buffered with
  | Some k when k < 0 -> invalid_arg "Causal.create: max_buffered must be >= 0"
  | _ -> ());
  { nthreads;
    delivered = Array.make nthreads 0;
    pending = Array.init nthreads (fun _ -> Hashtbl.create 8);
    ended = Array.make nthreads false;
    max_buffered;
    buffered = 0;
    peak_buffered = 0;
    delivered_total = 0 }

let buffered t = t.buffered
let peak_buffered t = t.peak_buffered

(* A message is deliverable once its thread's prefix is complete (the
   caller checks the head position) and every other component of its
   clock is already covered by delivered messages. *)
let deliverable t (m : Message.t) =
  let ok = ref true in
  for j = 0 to t.nthreads - 1 do
    if j <> m.Message.tid && t.delivered.(j) < Vclock.get m.Message.mvc j then ok := false
  done;
  !ok

let drain t =
  let out = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    for tid = 0 to t.nthreads - 1 do
      let continue = ref true in
      while !continue do
        let seq = t.delivered.(tid) + 1 in
        match Hashtbl.find_opt t.pending.(tid) seq with
        | Some m when deliverable t m ->
            Hashtbl.remove t.pending.(tid) seq;
            t.delivered.(tid) <- seq;
            t.buffered <- t.buffered - 1;
            t.delivered_total <- t.delivered_total + 1;
            out := m :: !out;
            progress := true
        | Some _ | None -> continue := false
      done
    done
  done;
  List.rev !out

let feed t (m : Message.t) =
  if m.Message.tid < 0 || m.Message.tid >= t.nthreads then
    invalid_arg
      (Printf.sprintf "Causal.feed: thread id %d out of range (%d threads)"
         m.Message.tid t.nthreads);
  let seq = Message.seq m in
  if seq < 1 then
    invalid_arg
      (Printf.sprintf "Causal.feed: message of thread %d has no own tick" m.Message.tid);
  if seq <= t.delivered.(m.Message.tid) || Hashtbl.mem t.pending.(m.Message.tid) seq
  then
    invalid_arg
      (Printf.sprintf "Causal.feed: duplicate message (thread %d, index %d)"
         m.Message.tid seq);
  if t.ended.(m.Message.tid) then
    invalid_arg
      (Printf.sprintf "Causal.feed: thread %d already ended" m.Message.tid);
  Hashtbl.replace t.pending.(m.Message.tid) seq m;
  t.buffered <- t.buffered + 1;
  if t.buffered > t.peak_buffered then t.peak_buffered <- t.buffered;
  let out = drain t in
  (match t.max_buffered with
  | Some limit when t.buffered > limit ->
      raise (Online.Backpressure { buffered = t.buffered; limit })
  | _ -> ());
  out

let end_of_thread t tid =
  if tid < 0 || tid >= t.nthreads then
    invalid_arg (Printf.sprintf "Causal.end_of_thread: thread id %d out of range" tid);
  t.ended.(tid) <- true

let missing t =
  let res = ref None in
  (try
     for tid = 0 to t.nthreads - 1 do
       if Hashtbl.length t.pending.(tid) > 0 then begin
         let seq = t.delivered.(tid) + 1 in
         match Hashtbl.find_opt t.pending.(tid) seq with
         | None ->
             res := Some (tid, seq);
             raise Exit
         | Some m ->
             for j = 0 to t.nthreads - 1 do
               if j <> tid && t.delivered.(j) < Vclock.get m.Message.mvc j then begin
                 res := Some (j, t.delivered.(j) + 1);
                 raise Exit
               end
             done
       end
     done
   with Exit -> ());
  !res

let finish t =
  Array.iteri (fun tid _ -> t.ended.(tid) <- true) t.ended;
  if t.buffered > 0 then
    match missing t with
    | Some (tid, seq) ->
        invalid_arg
          (Printf.sprintf
             "Causal.finish: %d buffered messages cannot be delivered (thread %d is \
              missing index %d)"
             t.buffered tid seq)
    | None ->
        invalid_arg
          (Printf.sprintf "Causal.finish: %d buffered messages cannot be delivered"
             t.buffered)

type snapshot = {
  snap_delivered : int array;
  snap_ended : bool array;
  snap_pending : Message.t list;  (** ascending [(tid, seq)] *)
  snap_peak_buffered : int;
  snap_delivered_total : int;
}

let snapshot t =
  let pending =
    Array.to_list t.pending
    |> List.concat_map (fun table ->
           Hashtbl.fold (fun _ m acc -> m :: acc) table [])
    |> List.sort (fun (a : Message.t) (b : Message.t) ->
           compare (a.Message.tid, Message.seq a) (b.Message.tid, Message.seq b))
  in
  { snap_delivered = Array.copy t.delivered;
    snap_ended = Array.copy t.ended;
    snap_pending = pending;
    snap_peak_buffered = t.peak_buffered;
    snap_delivered_total = t.delivered_total }

let restore ?max_buffered (s : snapshot) =
  let nthreads = Array.length s.snap_delivered in
  if nthreads = 0 then invalid_arg "Causal.restore: empty snapshot";
  if Array.length s.snap_ended <> nthreads then
    invalid_arg "Causal.restore: ended array does not match thread count";
  let t = create ?max_buffered ~nthreads () in
  Array.blit s.snap_delivered 0 t.delivered 0 nthreads;
  Array.blit s.snap_ended 0 t.ended 0 nthreads;
  List.iter
    (fun (m : Message.t) ->
      if m.Message.tid < 0 || m.Message.tid >= nthreads then
        invalid_arg "Causal.restore: buffered message thread id out of range";
      Hashtbl.replace t.pending.(m.Message.tid) (Message.seq m) m;
      t.buffered <- t.buffered + 1)
    s.snap_pending;
  t.peak_buffered <- max s.snap_peak_buffered t.buffered;
  t.delivered_total <- s.snap_delivered_total;
  t
