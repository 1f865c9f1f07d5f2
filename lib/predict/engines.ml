open Trace
module M = Telemetry.Metrics
module S = Engine.Snapshot

let m_race_events = M.counter "predict.race.events"
let m_atomicity_events = M.counter "predict.atomicity.events"

type degraded = {
  d_from : string;
  d_reason : string;
  d_at_event : int;
  d_violated : bool;
}

(* The one delivery front of the linear-time engines: messages arrive
   in any order the transport permits, leave [causal] in a causal
   linearization, and advance the sync-only [clocks] once for every
   engine that reads them. *)
type front = {
  causal : Causal.t;
  clocks : Syncclock.t;
  mutable ooo : int;  (* messages that arrived before they were deliverable *)
}

type t = {
  kinds : Engine.kind list;
  nthreads : int;
  max_buffered : int option;
  mutable online : Online.t option;
  mutable front : front option;  (* [Some _] iff race or atomicity is live *)
  mutable race : Race.engine option;
  mutable atomicity : Atomicity.engine option;
  mutable events : int;
  mutable degraded : degraded option;
}

let validate_kinds kinds ~spec =
  if kinds = [] then invalid_arg "Engines.create: no engine selected";
  if List.mem Engine.Lattice kinds && spec = None then
    invalid_arg "Engines.create: the lattice engine needs a specification"

(* The linear-time engines a bundle runs, in verdict order: the
   selected ones, plus race and atomicity once the lattice was shed.
   Both [degrade] and the degraded [restore] path derive the set from
   this one function so kill/resume lands on the same bundle. *)
let linear_kinds kinds ~degraded =
  let others = List.filter (fun k -> k <> Engine.Lattice) kinds in
  if not degraded then others
  else
    others
    @ List.filter
        (fun k -> not (List.mem k others))
        [ Engine.Race; Engine.Atomicity ]

let linear t = linear_kinds t.kinds ~degraded:(t.degraded <> None)

let create ?max_buffered ~kinds ~nthreads ~init ~spec () =
  validate_kinds kinds ~spec;
  let online =
    if List.mem Engine.Lattice kinds then
      Some
        (Online.create ?max_buffered ~nthreads ~init ~spec:(Option.get spec) ())
    else None
  in
  let has k = List.mem k kinds in
  { kinds;
    nthreads;
    max_buffered;
    online;
    front =
      (if has Engine.Race || has Engine.Atomicity then
         Some
           { causal = Causal.create ?max_buffered ~nthreads ();
             clocks = Syncclock.create ~nthreads;
             ooo = 0 }
       else None);
    race = (if has Engine.Race then Some (Race.create ~nthreads) else None);
    atomicity =
      (if has Engine.Atomicity then Some (Atomicity.create ~nthreads) else None);
    events = 0;
    degraded = None }

(* One causally delivered message: demangle it once, let atomicity see
   lock writes before the clock update, advance the sync-only clocks
   once and hand a data access with its clock to every live engine. *)
let deliver t f (m : Message.t) =
  let tid = m.Message.tid in
  let var, is_read =
    match Types.as_read m.Message.var with
    | Some x -> (x, true)
    | None -> (m.Message.var, false)
  in
  (if not is_read then
     match t.atomicity with
     | Some a -> Atomicity.write a ~tid ~var ~value:m.Message.value
     | None -> ());
  match Syncclock.observe_access f.clocks tid ~var ~is_read with
  | None -> ()
  | Some vc ->
      let a = { Race.eid = m.Message.eid; tid; var; is_write = not is_read; vc } in
      Option.iter (fun r -> Race.observe r a) t.race;
      Option.iter (fun at -> Atomicity.observe at a) t.atomicity

let feed t m =
  t.events <- t.events + 1;
  Option.iter (fun o -> Online.feed o m) t.online;
  match t.front with
  | None -> ()
  | Some f ->
      if M.enabled () then begin
        if t.race <> None then M.incr m_race_events;
        if t.atomicity <> None then M.incr m_atomicity_events
      end;
      let delivered = Causal.feed f.causal m in
      if not (List.memq m delivered) then f.ooo <- f.ooo + 1;
      List.iter (deliver t f) delivered

let end_of_thread t tid =
  Option.iter (fun o -> Online.end_of_thread o tid) t.online;
  Option.iter (fun f -> Causal.end_of_thread f.causal tid) t.front

let finish t =
  Option.iter Online.finish t.online;
  Option.iter (fun f -> Causal.finish f.causal) t.front

let violated t =
  (match t.online with Some o -> Online.violated o | None -> false)
  || (match t.degraded with Some d -> d.d_violated | None -> false)
  || (match t.race with Some r -> Race.violated r | None -> false)
  || match t.atomicity with Some a -> Atomicity.violated a | None -> false

let online t = t.online
let degraded t = t.degraded

let ticks t =
  match t.online with Some o -> Online.level o | None -> t.events

let causal_buffered t =
  match t.front with Some f -> Causal.buffered f.causal | None -> 0

let out_of_order t =
  max
    (match t.front with Some f -> f.ooo | None -> 0)
    (match t.online with Some o -> Online.out_of_order o | None -> 0)

let missing t =
  match Option.bind t.online Online.missing with
  | Some _ as m -> m
  | None -> Option.bind t.front (fun f -> Causal.missing f.causal)

(* [(name, f engine)] for each live linear-time engine, in verdict
   order. *)
let per_engine t ~race ~atomicity =
  List.map
    (fun kind ->
      ( Engine.kind_to_string kind,
        match kind with
        | Engine.Race -> race (Option.get t.race)
        | Engine.Atomicity | Engine.Lattice -> atomicity (Option.get t.atomicity) ))
    (linear t)

let verdict_lines t =
  per_engine t ~race:Race.engine_verdict ~atomicity:Atomicity.engine_verdict

(* {1 Checkpoint blocks}

   The front is one [delivery 1] block; race and atomicity write their
   own [race 2] and [atomicity 2] blocks after it.  Variable names
   never contain spaces and [Vclock.to_string] is space-free, so
   fields are space-separated. *)

let delivery_version = "delivery 1"

let delivery_block f =
  let lines = ref [] in
  let push = S.push lines in
  push delivery_version;
  let s = Syncclock.snapshot f.clocks in
  push
    ("vi "
    ^ String.concat " "
        (Array.to_list (Array.map Vclock.to_string s.Syncclock.snap_vi)));
  let table key bindings =
    push (Printf.sprintf "%s %d" key (List.length bindings));
    List.iter
      (fun (x, v) -> push (Printf.sprintf "kv %s %s" x (Vclock.to_string v)))
      bindings
  in
  table "va" s.Syncclock.snap_va;
  table "vw" s.Syncclock.snap_vw;
  let c = Causal.snapshot f.causal in
  push
    ("delivered "
    ^ String.concat " "
        (Array.to_list (Array.map string_of_int c.Causal.snap_delivered)));
  push
    ("ended "
    ^ String.concat " "
        (Array.to_list
           (Array.map (fun b -> if b then "1" else "0") c.Causal.snap_ended)));
  push
    (Printf.sprintf "progress %d %d" c.Causal.snap_peak_buffered
       c.Causal.snap_delivered_total);
  push (Printf.sprintf "pending %d" (List.length c.Causal.snap_pending));
  List.iter
    (fun (m : Message.t) ->
      push
        (Printf.sprintf "msg %d %d %s %d %s" m.Message.eid m.Message.tid
           m.Message.var m.Message.value
           (Vclock.to_string m.Message.mvc)))
    c.Causal.snap_pending;
  push (Printf.sprintf "ooo %d" f.ooo);
  List.rev !lines

(* The clocks and the causal buffer, as [delivery_block] wrote them
   after its version line. *)
let read_front ?max_buffered ~what r =
  let open S in
  let vi = keyed ~what ~key:"vi" r |> List.map (clock ~what) |> Array.of_list in
  let counted key f =
    match keyed ~what ~key r with
    | [ n ] -> List.init (int ~what n) (fun _ -> f ())
    | _ -> invalid_arg (Printf.sprintf "%s: malformed %s line" what key)
  in
  let table key =
    counted key (fun () ->
        match keyed ~what ~key:"kv" r with
        | [ x; v ] -> (x, clock ~what v)
        | _ -> invalid_arg (what ^ ": malformed kv line"))
  in
  let va = table "va" in
  let vw = table "vw" in
  let clocks =
    Syncclock.restore { Syncclock.snap_vi = vi; snap_va = va; snap_vw = vw }
  in
  let delivered =
    keyed ~what ~key:"delivered" r |> List.map (int ~what) |> Array.of_list
  in
  let ended =
    keyed ~what ~key:"ended" r
    |> List.map (fun s -> int ~what s <> 0)
    |> Array.of_list
  in
  let peak, total =
    match keyed ~what ~key:"progress" r with
    | [ p; t ] -> (int ~what p, int ~what t)
    | _ -> invalid_arg (what ^ ": malformed progress line")
  in
  let pending =
    counted "pending" (fun () ->
        match keyed ~what ~key:"msg" r with
        | [ eid; tid; var; value; mvc ] ->
            Message.make ~eid:(int ~what eid) ~tid:(int ~what tid) ~var
              ~value:(int ~what value) ~mvc:(clock ~what mvc)
        | _ -> invalid_arg (what ^ ": malformed msg line"))
  in
  let causal =
    Causal.restore ?max_buffered
      { Causal.snap_delivered = delivered;
        snap_ended = ended;
        snap_pending = pending;
        snap_peak_buffered = peak;
        snap_delivered_total = total }
  in
  { causal; clocks; ooo = 0 }

let snapshots t =
  match t.front with
  | None -> []
  | Some f ->
      ("delivery", delivery_block f)
      :: per_engine t ~race:Race.snapshot ~atomicity:Atomicity.snapshot

let restore_delivery ?max_buffered lines =
  let what = "delivery front" in
  let r = S.reader lines in
  S.version ~what ~expected:delivery_version r;
  let f = read_front ?max_buffered ~what r in
  (match S.keyed ~what ~key:"ooo" r with
  | [ n ] -> f.ooo <- S.int ~what n
  | _ -> invalid_arg (what ^ ": malformed ooo line"));
  if not (S.eof r) then invalid_arg (what ^ ": trailing lines in snapshot");
  f

(* A [race 1] or [atomicity 1] block, as written before the front was
   shared, carries its own copy of the front after the version line,
   and its counts line ends with the engine's message and out-of-order
   counts.  Split it into that front and the current block. *)
let split_legacy ?max_buffered ~name lines =
  let what = name ^ " engine" in
  let r = S.reader lines in
  S.version ~what ~expected:(name ^ " 1") r;
  let f = read_front ?max_buffered ~what r in
  match List.rev (S.keyed ~what ~key:"counts" r) with
  | ooo :: _events :: counts ->
      f.ooo <- S.int ~what ooo;
      ( f,
        (name ^ " 2")
        :: String.concat " " ("counts" :: List.rev counts)
        :: S.rest r )
  | _ -> invalid_arg (what ^ ": malformed counts line")

(* {1 Resource accounting}

   All O(1) over maintained counters — the budget layer evaluates these
   after every feed. *)

let frontier_cuts t =
  match t.online with Some o -> Online.frontier_cuts o | None -> 0

let mem_words t =
  (* ~16 words per message parked in the delivery front. *)
  (16 * causal_buffered t)
  + match t.online with Some o -> Online.mem_words o | None -> 0

(* {1 Degradation} *)

let degrade t ~reason =
  match t.online with
  | None -> invalid_arg "Engines.degrade: no lattice engine to degrade"
  | Some o ->
      (* The lattice engine pumps to quiescence inside every feed, so
         between feeds its delivered/pending split is a clean causal
         boundary.  Without a live front, the front starts at that cut;
         with one, the fresh engines attach to it where it stands.
         Their summaries start empty — they soundly cover only the
         stream suffix, which the degraded marker records. *)
      if t.front = None then begin
        let prefix, ended, pending = Online.handoff o in
        t.front <-
          Some
            { causal =
                Causal.restore ?max_buffered:t.max_buffered
                  { Causal.snap_delivered = prefix;
                    snap_ended = ended;
                    snap_pending = pending;
                    snap_peak_buffered = List.length pending;
                    snap_delivered_total = Array.fold_left ( + ) 0 prefix };
              clocks = Syncclock.create ~nthreads:t.nthreads;
              ooo = 0 }
      end;
      if t.race = None then t.race <- Some (Race.create ~nthreads:t.nthreads);
      if t.atomicity = None then
        t.atomicity <- Some (Atomicity.create ~nthreads:t.nthreads);
      t.degraded <-
        Some
          { d_from = "lattice";
            d_reason = reason;
            d_at_event = t.events;
            d_violated = Online.violated o };
      t.online <- None

let restore ?max_buffered ?degraded ~kinds ~nthreads ~spec ~online_snapshot
    ~blocks ~events () =
  validate_kinds kinds ~spec;
  let online =
    match (List.mem Engine.Lattice kinds, degraded, online_snapshot) with
    | _, Some _, Some _ ->
        invalid_arg
          "Engines.restore: checkpoint is degraded yet carries lattice engine \
           state"
    | _, Some _, None -> None
    | true, None, Some snap ->
        Some
          (Online.restore ?max_buffered ~spec:(Option.get spec) snap)
    | true, None, None ->
        invalid_arg "Engines.restore: checkpoint has no lattice engine state"
    | false, None, Some _ ->
        invalid_arg
          "Engines.restore: checkpoint has lattice engine state but the lattice \
           engine is not selected"
    | false, None, None -> None
  in
  let linear = linear_kinds kinds ~degraded:(degraded <> None) in
  let names = List.map Engine.kind_to_string linear in
  let block name =
    match List.assoc_opt name blocks with
    | Some lines -> lines
    | None ->
        invalid_arg
          (Printf.sprintf "Engines.restore: checkpoint has no state for engine %S"
             name)
  in
  List.iter (fun name -> ignore (block name)) names;
  List.iter
    (fun (name, _) ->
      if not (List.mem name names || (name = "delivery" && names <> [])) then
        invalid_arg
          (Printf.sprintf
             "Engines.restore: checkpoint has state for unselected engine %S" name))
    blocks;
  (* The front: the [delivery] block, or else the first engine block
     written before the front was shared (the first engine fed). *)
  let front, lines =
    match (names, List.assoc_opt "delivery" blocks) with
    | [], _ -> (None, block)
    | _, Some lines -> (Some (restore_delivery ?max_buffered lines), block)
    | first :: _, None ->
        let split =
          List.map
            (fun n -> (n, split_legacy ?max_buffered ~name:n (block n)))
            names
        in
        (Some (fst (List.assoc first split)), fun n -> snd (List.assoc n split))
  in
  let engine kind restore =
    if List.mem kind linear then
      Some (restore ~nthreads (lines (Engine.kind_to_string kind)))
    else None
  in
  { kinds;
    nthreads;
    max_buffered;
    online;
    front;
    race = engine Engine.Race Race.restore;
    atomicity = engine Engine.Atomicity Atomicity.restore;
    events;
    degraded }
