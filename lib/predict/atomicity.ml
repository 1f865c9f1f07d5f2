open Trace
module M = Telemetry.Metrics

type access_kind = Read | Write

type violation = {
  tid : Types.tid;
  lock : string;
  var : Types.var;
  first : int;
  second : int;
  remote : int;
  remote_tid : Types.tid;
  pattern : access_kind * access_kind * access_kind;
}

type report = {
  transactions : int;
  violations : violation list;
}

let lock_name x =
  let prefix = "#lock:" in
  if String.length x > String.length prefix
     && String.sub x 0 (String.length prefix) = prefix
  then Some (String.sub x (String.length prefix) (String.length x - String.length prefix))
  else None

(* a1; r; a2 with r remote: the four unserializable triples. *)
let unserializable = function
  | Read, Write, Read -> true  (* stale re-read *)
  | Write, Write, Read -> true  (* lost local write *)
  | Read, Write, Write -> true  (* update from a stale read *)
  | Write, Read, Write -> true  (* dirty intermediate read *)
  | (Read | Write), _, (Read | Write) -> false

let pattern_name = function
  | Read, Write, Read -> "stale re-read (R-W-R)"
  | Write, Write, Read -> "lost local write (W-W-R)"
  | Read, Write, Write -> "update from stale read (R-W-W)"
  | Write, Read, Write -> "dirty intermediate read (W-R-W)"
  | _ -> "serializable"

let kind_code = function Read -> "R" | Write -> "W"

let pattern_code (k1, kr, k2) =
  Printf.sprintf "%s-%s-%s" (kind_code k1) (kind_code kr) (kind_code k2)

(* {1 The streaming core}

   Shared by the offline pass and the message-driven engine.  Accesses
   must be processed in a causal linearization of the sync-only
   happens-before (the observed order is one; any causal delivery order
   is another).  A violation needs a local pair [a1 ≤ a2] of thread [t]
   under lock [l] and a remote access [r] of thread [u ≠ t] with both
   [Vclock.concurrent r.vc a1.vc] and [Vclock.concurrent r.vc a2.vc].
   Because [a1.vc ≤ a2.vc] componentwise, the four inequalities collapse
   to two scalars:

     a1.vc(t) > r.vc(t)   and   r.vc(u) > a2.vc(u)

   and each candidate remote falls in exactly one of two roles by its
   processing position relative to [a2]:

   - {e processed after [a2]}: the second inequality is automatic (a
     later-processed event is never causally below an earlier one), so
     it suffices to keep, per variable and per (thread, lock, kinds of
     a1/a2), the {e maximum} [a1.vc(t)] over closed local pairs —
     [pairmax] — and compare once when [r] arrives.
   - {e processed before [a2]}: both inequalities are checked at
     [a2]-time against a per-(var, remote thread, local thread, kind)
     {e pareto frontier} of past remotes — points [(r.vc(u), r.vc(t))]
     with both coordinates strictly increasing, so "∃ r with
     [r.vc(u) > a2.vc(u)] and [r.vc(t) < a1.vc(t)]" is one binary
     search.  Inserts are amortized O(1) because [r.vc(u)] increases
     monotonically per remote thread.

   Within an open block only the {e latest} local access per
   (variable, kind) matters as [a1]: its own component is maximal, and
   [a1] appears in the conditions only through [a1.vc(t)].  Violations
   are reported once per class [(thread, lock, variable, pattern)] with
   a representative triple — total O(events × threads) plus one
   O(log events) search per in-block access. *)

module Core = struct
  type slot = {
    mutable f_read : (int * int) option;  (* own-component epoch, eid *)
    mutable f_write : (int * int) option;
  }

  type pair_entry = {
    mutable pe_epoch : int;  (* max a1.vc(t) over closed pairs *)
    mutable pe_first : int;
    mutable pe_second : int;
  }

  type point = { p : int; q : int; pt_eid : int }

  (* Live points occupy [pts.(off) .. pts.(len - 1)], both coordinates
     strictly increasing.  [off] advances as queries consume the prefix:
     a frontier keyed [(var, owner, observer, kind)] is queried only by
     [observer], whose knowledge of [owner] — the [gt] bound — is
     monotone in causal processing order, so points with [p <= gt] can
     never match again. *)
  type frontier = { mutable pts : point array; mutable len : int; mutable off : int }

  type t = {
    c_nthreads : int;
    mutable c_transactions : int;
    c_depth : int array;
    c_current : (int * string) option array;
    c_frames : (Types.var, slot) Hashtbl.t array;
    c_pairmax :
      ( Types.var,
        (Types.tid * string * access_kind * access_kind, pair_entry) Hashtbl.t )
      Hashtbl.t;
    c_frontiers :
      (Types.var * Types.tid * Types.tid * access_kind, frontier) Hashtbl.t;
    c_classes :
      ( Types.tid * string * Types.var * (access_kind * access_kind * access_kind),
        violation )
      Hashtbl.t;
  }

  let create ~nthreads =
    { c_nthreads = nthreads;
      c_transactions = 0;
      c_depth = Array.make nthreads 0;
      c_current = Array.make nthreads None;
      c_frames = Array.init nthreads (fun _ -> Hashtbl.create 8);
      c_pairmax = Hashtbl.create 16;
      c_frontiers = Hashtbl.create 16;
      c_classes = Hashtbl.create 8 }

  let transactions t = t.c_transactions

  (* Lock traffic: value 1 acquires, anything else releases (the VM
     lowers release to a write of 0).  Tracked before the clock update
     so the acquire itself opens the block — same convention as the
     historical offline pass. *)
  let sync_lock t tid lock value =
    if value = 1 then begin
      if t.c_depth.(tid) = 0 then begin
        t.c_transactions <- t.c_transactions + 1;
        t.c_current.(tid) <- Some (t.c_transactions, lock)
      end;
      t.c_depth.(tid) <- t.c_depth.(tid) + 1
    end
    else begin
      t.c_depth.(tid) <- max 0 (t.c_depth.(tid) - 1);
      if t.c_depth.(tid) = 0 then begin
        t.c_current.(tid) <- None;
        Hashtbl.reset t.c_frames.(tid)
      end
    end

  let frame_slot t tid var =
    match Hashtbl.find_opt t.c_frames.(tid) var with
    | Some s -> s
    | None ->
        let s = { f_read = None; f_write = None } in
        Hashtbl.replace t.c_frames.(tid) var s;
        s

  let frontier_find t key =
    match Hashtbl.find_opt t.c_frontiers key with
    | Some f -> f
    | None ->
        let f = { pts = [||]; len = 0; off = 0 } in
        Hashtbl.replace t.c_frontiers key f;
        f

  let frontier_add f pt =
    (* New points arrive with strictly increasing [p]; drop dominated
       tail points so both coordinates stay strictly increasing. *)
    while f.len > f.off && f.pts.(f.len - 1).q >= pt.q do
      f.len <- f.len - 1
    done;
    if f.len = Array.length f.pts then
      if f.off > Array.length f.pts / 2 then begin
        (* Reclaim the consumed prefix in place. *)
        Array.blit f.pts f.off f.pts 0 (f.len - f.off);
        f.len <- f.len - f.off;
        f.off <- 0
      end
      else begin
        let cap = max 8 (2 * (f.len - f.off)) in
        let a = Array.make cap pt in
        Array.blit f.pts f.off a 0 (f.len - f.off);
        f.pts <- a;
        f.len <- f.len - f.off;
        f.off <- 0
      end;
    f.pts.(f.len) <- pt;
    f.len <- f.len + 1

  (* The point with minimal [q] among those with [p > gt].  Points with
     [p <= gt] are dead for every later query from this frontier's one
     consumer (monotone [gt]) and are dropped. *)
  let frontier_query f ~gt =
    let lo = ref f.off and hi = ref f.len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if f.pts.(mid).p > gt then hi := mid else lo := mid + 1
    done;
    f.off <- !lo;
    if !lo < f.len then Some f.pts.(!lo) else None

  let record t ~max_violations v fresh =
    let key = (v.tid, v.lock, v.var, v.pattern) in
    if
      (not (Hashtbl.mem t.c_classes key))
      && Hashtbl.length t.c_classes < max_violations
    then begin
      Hashtbl.replace t.c_classes key v;
      fresh := v :: !fresh
    end

  (* One data access, in causal processing order.  Returns the
     violations whose class this access closed (usually none). *)
  let access t ~max_violations ~tid ~var ~kind ~vc ~eid =
    let fresh = ref [] in
    (* As a remote, against closed pairs of other threads. *)
    (match Hashtbl.find_opt t.c_pairmax var with
    | None -> ()
    | Some inner ->
        Hashtbl.iter
          (fun (lt, lock, k1, k2) (entry : pair_entry) ->
            if
              lt <> tid
              && unserializable (k1, kind, k2)
              && entry.pe_epoch > Vclock.get vc lt
            then
              record t ~max_violations
                { tid = lt; lock; var; first = entry.pe_first;
                  second = entry.pe_second; remote = eid; remote_tid = tid;
                  pattern = (k1, kind, k2) }
                fresh)
          inner);
    (* As the closing end of a local pair. *)
    (match t.c_current.(tid) with
    | None -> ()
    | Some (_, lock) ->
        let slot = frame_slot t tid var in
        let close k1 = function
          | None -> ()
          | Some (e1, eid1) ->
              (* Past remotes via the frontier. *)
              for u = 0 to t.c_nthreads - 1 do
                if u <> tid then
                  List.iter
                    (fun kr ->
                      if unserializable (k1, kr, kind) then
                        match
                          frontier_query
                            (frontier_find t (var, u, tid, kr))
                            ~gt:(Vclock.get vc u)
                        with
                        | Some pt when pt.q < e1 ->
                            record t ~max_violations
                              { tid; lock; var; first = eid1; second = eid;
                                remote = pt.pt_eid; remote_tid = u;
                                pattern = (k1, kr, kind) }
                              fresh
                        | Some _ | None -> ())
                    [ Read; Write ]
              done;
              (* Future remotes via pairmax. *)
              let inner =
                match Hashtbl.find_opt t.c_pairmax var with
                | Some i -> i
                | None ->
                    let i = Hashtbl.create 8 in
                    Hashtbl.replace t.c_pairmax var i;
                    i
              in
              let key = (tid, lock, k1, kind) in
              (match Hashtbl.find_opt inner key with
              | Some entry ->
                  if e1 > entry.pe_epoch then begin
                    entry.pe_epoch <- e1;
                    entry.pe_first <- eid1;
                    entry.pe_second <- eid
                  end
              | None ->
                  Hashtbl.replace inner key
                    { pe_epoch = e1; pe_first = eid1; pe_second = eid })
        in
        close Read slot.f_read;
        close Write slot.f_write);
    (* As a future remote for every other thread. *)
    for u = 0 to t.c_nthreads - 1 do
      if u <> tid then
        frontier_add
          (frontier_find t (var, tid, u, kind))
          { p = Vclock.get vc tid; q = Vclock.get vc u; pt_eid = eid }
    done;
    (* Finally, become the latest in-block access of this kind. *)
    (match t.c_current.(tid) with
    | None -> ()
    | Some _ ->
        let slot = frame_slot t tid var in
        let e = (Vclock.get vc tid, eid) in
        (match kind with
        | Read -> slot.f_read <- Some e
        | Write -> slot.f_write <- Some e));
    List.rev !fresh

  let classes t =
    Hashtbl.fold (fun key _ acc -> key :: acc) t.c_classes []
    |> List.sort compare

  let violations t =
    Hashtbl.fold (fun _ v acc -> v :: acc) t.c_classes []
    |> List.sort (fun a b -> compare (a.first, a.remote) (b.first, b.remote))
end

(* A write, before its clock update: a lock write opens or closes the
   thread's block. *)
let write core ~tid ~var ~value =
  match lock_name var with
  | Some l -> Core.sync_lock core tid l value
  | None -> ()

let analyze ?(max_violations = 1000) exec =
  let nthreads = Exec.nthreads exec in
  let clocks = Syncclock.create ~nthreads in
  let core = Core.create ~nthreads in
  Array.iter
    (fun (e : Event.t) ->
      (match e.kind with
      | Event.Write (var, value) -> write core ~tid:e.tid ~var ~value
      | Event.Read _ | Event.Internal -> ());
      match Syncclock.observe clocks e with
      | None -> ()
      | Some vc ->
          ignore
            (Core.access core ~max_violations ~tid:e.tid
               ~var:(Option.get (Event.variable e))
               ~kind:(if Event.is_write e then Write else Read)
               ~vc ~eid:e.eid))
    (Exec.events exec);
  { transactions = Core.transactions core; violations = Core.violations core }

let serializable r = r.violations = []

let pp_violation ppf v =
  Format.fprintf ppf
    "atomicity violation in %a's sync(%s) block on %s: %s — e%d .. e%d with remote e%d \
     by %a"
    Types.pp_tid v.tid v.lock v.var (pattern_name v.pattern) v.first v.second v.remote
    Types.pp_tid v.remote_tid

let pp_report ppf r =
  match r.violations with
  | [] ->
      Format.fprintf ppf "all %d sync blocks serializable under every schedule"
        r.transactions
  | vs ->
      Format.fprintf ppf "@[<v>%d atomicity violations over %d sync blocks@,%a@]"
        (List.length vs) r.transactions
        (Format.pp_print_list pp_violation)
        vs

(* {1 Canonical verdict} *)

let verdict ~classes ~transactions =
  match classes with
  | [] ->
      Printf.sprintf "predict.atomicity: all %d sync blocks serializable"
        transactions
  | cs ->
      Printf.sprintf "predict.atomicity: VIOLATIONS PREDICTED {%s} over %d sync blocks"
        (String.concat ", "
           (List.map
              (fun (t, l, x, p) ->
                Printf.sprintf "T%d:sync(%s):%s:%s" t l x (pattern_code p))
              cs))
        transactions

let classes_of_report r =
  List.sort_uniq compare
    (List.map (fun v -> (v.tid, v.lock, v.var, v.pattern)) r.violations)

let verdict_of_report r =
  verdict ~classes:(classes_of_report r) ~transactions:r.transactions

(* {1 The streaming engine}

   The atomicity engine's own state is one {!Core}.  {!Engines} owns
   the causal delivery front and the sync-only clocks, reports every
   delivered write through [write] and every data access through
   [observe]. *)

let m_classes = M.counter "predict.atomicity.violations"

type engine = Core.t

let engine_max_violations = 1000

let create ~nthreads = Core.create ~nthreads

let observe st (a : Race.access) =
  let fresh =
    Core.access st ~max_violations:engine_max_violations ~tid:a.Race.tid
      ~var:a.Race.var
      ~kind:(if a.Race.is_write then Write else Read)
      ~vc:a.Race.vc ~eid:a.Race.eid
  in
  if M.enabled () then List.iter (fun _ -> M.incr m_classes) fresh

let violated (st : engine) = Hashtbl.length st.Core.c_classes > 0

let engine_verdict st =
  verdict ~classes:(Core.classes st) ~transactions:st.Core.c_transactions

let snapshot_version = "atomicity 2"

let kind_of_code ~what = function
  | "R" -> Read
  | "W" -> Write
  | s -> invalid_arg (Printf.sprintf "%s: bad access kind %S" what s)

let snapshot core =
  let lines = ref [] in
  let open Engine.Snapshot in
  push lines snapshot_version;
  push lines (Printf.sprintf "counts %d" core.Core.c_transactions);
  push lines
    ("depth "
    ^ String.concat " " (Array.to_list (Array.map string_of_int core.Core.c_depth)));
  let currents =
    Array.to_list core.Core.c_current
    |> List.mapi (fun tid c -> (tid, c))
    |> List.filter_map (fun (tid, c) ->
           Option.map (fun (block, lock) -> (tid, block, lock)) c)
  in
  push lines (Printf.sprintf "current %d" (List.length currents));
  List.iter
    (fun (tid, block, lock) ->
      push lines (Printf.sprintf "cur %d %d %s" tid block lock))
    currents;
  let frames =
    Array.to_list core.Core.c_frames
    |> List.mapi (fun tid table ->
           Hashtbl.fold
             (fun var (s : Core.slot) acc ->
               let row k = function
                 | None -> []
                 | Some (epoch, eid) -> [ (tid, var, k, epoch, eid) ]
               in
               row Read s.Core.f_read @ row Write s.Core.f_write @ acc)
             table [])
    |> List.concat
    |> List.sort compare
  in
  push lines (Printf.sprintf "frames %d" (List.length frames));
  List.iter
    (fun (tid, var, k, epoch, eid) ->
      push lines
        (Printf.sprintf "fs %d %s %s %d %d" tid var (kind_code k) epoch eid))
    frames;
  let pairs =
    Hashtbl.fold
      (fun var inner acc ->
        Hashtbl.fold
          (fun (tid, lock, k1, k2) (e : Core.pair_entry) acc ->
            (var, tid, lock, k1, k2, e.Core.pe_epoch, e.Core.pe_first, e.Core.pe_second)
            :: acc)
          inner acc)
      core.Core.c_pairmax []
    |> List.sort compare
  in
  push lines (Printf.sprintf "pairs %d" (List.length pairs));
  List.iter
    (fun (var, tid, lock, k1, k2, epoch, first, second) ->
      push lines
        (Printf.sprintf "pm %s %d %s %s %s %d %d %d" var tid lock (kind_code k1)
           (kind_code k2) epoch first second))
    pairs;
  let frontiers =
    Hashtbl.fold (fun key f acc -> (key, f) :: acc) core.Core.c_frontiers []
    |> List.filter (fun (_, (f : Core.frontier)) -> f.Core.len > f.Core.off)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  push lines (Printf.sprintf "frontiers %d" (List.length frontiers));
  List.iter
    (fun ((var, rtid, ltid, k), (f : Core.frontier)) ->
      push lines
        (Printf.sprintf "fr %s %d %d %s %d" var rtid ltid (kind_code k)
           (f.Core.len - f.Core.off));
      for i = f.Core.off to f.Core.len - 1 do
        let pt = f.Core.pts.(i) in
        push lines
          (Printf.sprintf "pt %d %d %d" pt.Core.p pt.Core.q pt.Core.pt_eid)
      done)
    frontiers;
  let classes =
    Hashtbl.fold (fun _ v acc -> v :: acc) core.Core.c_classes []
    |> List.sort compare
  in
  push lines (Printf.sprintf "classes %d" (List.length classes));
  List.iter
    (fun v ->
      let k1, kr, k2 = v.pattern in
      push lines
        (Printf.sprintf "cl %d %s %s %s %s %s %d %d %d %d" v.tid v.lock v.var
           (kind_code k1) (kind_code kr) (kind_code k2) v.first v.second v.remote
           v.remote_tid))
    classes;
  List.rev !lines

let restore ~nthreads lines =
  let what = "atomicity engine" in
  let open Engine.Snapshot in
  let r = reader lines in
  version ~what ~expected:snapshot_version r;
  let core = Core.create ~nthreads in
  (match keyed ~what ~key:"counts" r with
  | [ t ] -> core.Core.c_transactions <- int ~what t
  | _ -> invalid_arg (what ^ ": malformed counts line"));
  let depth = keyed ~what ~key:"depth" r |> List.map (int ~what) in
  if List.length depth <> nthreads then
    invalid_arg (what ^ ": depth array does not match thread count");
  List.iteri (fun tid d -> core.Core.c_depth.(tid) <- d) depth;
  let check_tid tid =
    if tid < 0 || tid >= nthreads then
      invalid_arg (what ^ ": thread id out of range")
  in
  let counted key of_fields =
    match keyed ~what ~key r with
    | [ n ] ->
        for _ = 1 to int ~what n do
          of_fields ()
        done
    | _ -> invalid_arg (Printf.sprintf "%s: malformed %s line" what key)
  in
  counted "current" (fun () ->
      match keyed ~what ~key:"cur" r with
      | [ tid; block; lock ] ->
          let tid = int ~what tid in
          check_tid tid;
          core.Core.c_current.(tid) <- Some (int ~what block, lock)
      | _ -> invalid_arg (what ^ ": malformed cur line"));
  counted "frames" (fun () ->
      match keyed ~what ~key:"fs" r with
      | [ tid; var; k; epoch; eid ] ->
          let tid = int ~what tid in
          check_tid tid;
          let slot = Core.frame_slot core tid var in
          let e = Some (int ~what epoch, int ~what eid) in
          (match kind_of_code ~what k with
          | Read -> slot.Core.f_read <- e
          | Write -> slot.Core.f_write <- e)
      | _ -> invalid_arg (what ^ ": malformed fs line"));
  counted "pairs" (fun () ->
      match keyed ~what ~key:"pm" r with
      | [ var; tid; lock; k1; k2; epoch; first; second ] ->
          let tid = int ~what tid in
          check_tid tid;
          let inner =
            match Hashtbl.find_opt core.Core.c_pairmax var with
            | Some i -> i
            | None ->
                let i = Hashtbl.create 8 in
                Hashtbl.replace core.Core.c_pairmax var i;
                i
          in
          Hashtbl.replace inner
            (tid, lock, kind_of_code ~what k1, kind_of_code ~what k2)
            { Core.pe_epoch = int ~what epoch;
              pe_first = int ~what first;
              pe_second = int ~what second }
      | _ -> invalid_arg (what ^ ": malformed pm line"));
  counted "frontiers" (fun () ->
      match keyed ~what ~key:"fr" r with
      | [ var; rtid; ltid; k; len ] ->
          let rtid = int ~what rtid and ltid = int ~what ltid in
          check_tid rtid;
          check_tid ltid;
          let f =
            Core.frontier_find core (var, rtid, ltid, kind_of_code ~what k)
          in
          for _ = 1 to int ~what len do
            match keyed ~what ~key:"pt" r with
            | [ p; q; eid ] ->
                Core.frontier_add f
                  { Core.p = int ~what p; q = int ~what q; pt_eid = int ~what eid }
            | _ -> invalid_arg (what ^ ": malformed pt line")
          done
      | _ -> invalid_arg (what ^ ": malformed fr line"));
  counted "classes" (fun () ->
      match keyed ~what ~key:"cl" r with
      | [ tid; lock; var; k1; kr; k2; first; second; remote; rtid ] ->
          let tid = int ~what tid in
          check_tid tid;
          let v =
            { tid; lock; var;
              first = int ~what first;
              second = int ~what second;
              remote = int ~what remote;
              remote_tid = int ~what rtid;
              pattern =
                ( kind_of_code ~what k1,
                  kind_of_code ~what kr,
                  kind_of_code ~what k2 ) }
          in
          Hashtbl.replace core.Core.c_classes (v.tid, v.lock, v.var, v.pattern) v
      | _ -> invalid_arg (what ^ ": malformed cl line"));
  if not (eof r) then invalid_arg (what ^ ": trailing lines in snapshot");
  core
