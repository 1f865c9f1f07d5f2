open Trace
module M = Telemetry.Metrics

type access = {
  eid : int;
  tid : Types.tid;
  var : Types.var;
  is_write : bool;
  vc : Vclock.t;
}

type race = { first : access; second : access }

type report = {
  races : race list;
  pairs_found : int;
  racy_vars : Types.var list;
  accesses : int;
}

module Sset = Set.Make (String)

(* {1 Bounded per-variable clock summaries}

   For each variable and thread we keep only the latest write and latest
   read.  A thread's own clock component strictly increases across its
   events, so the latest access per (variable, thread, direction)
   carries the maximal own component — and when accesses are processed
   in a causal linearization, an earlier access [prev] by thread [u] is
   concurrent with the current access [c] iff [prev.vc(u) > c.vc(u)]
   (the converse precedence is impossible once [c] is processed after
   [prev]).  "Some earlier conflicting access of [u] races with [c]"
   therefore collapses to one comparison against the stored maximum:
   O(threads) per access instead of a rescan of the whole bucket. *)

type summary = {
  s_nthreads : int;
  s_writes : (Types.var, access option array) Hashtbl.t;
  s_reads : (Types.var, access option array) Hashtbl.t;
}

let summary_create ~nthreads =
  { s_nthreads = nthreads;
    s_writes = Hashtbl.create 16;
    s_reads = Hashtbl.create 16 }

let slots table x n =
  match Hashtbl.find_opt table x with
  | Some a -> a
  | None ->
      let a = Array.make n None in
      Hashtbl.replace table x a;
      a

(* Record one access (processed in causal order) and return the racing
   pairs it closes, earliest-stored first. *)
let summary_observe s (this : access) =
  let pairs = ref [] in
  let check prev =
    match prev with
    | Some (prev : access)
      when Vclock.get prev.vc prev.tid > Vclock.get this.vc prev.tid ->
        pairs := { first = prev; second = this } :: !pairs
    | _ -> ()
  in
  let writes = slots s.s_writes this.var s.s_nthreads in
  let reads = slots s.s_reads this.var s.s_nthreads in
  for u = 0 to s.s_nthreads - 1 do
    if u <> this.tid then begin
      check writes.(u);
      if this.is_write then check reads.(u)
    end
  done;
  if this.is_write then writes.(this.tid) <- Some this
  else reads.(this.tid) <- Some this;
  List.rev !pairs

let detect ?(max_races = 10_000) exec =
  let clocks = Syncclock.create ~nthreads:(Exec.nthreads exec) in
  let summary = summary_create ~nthreads:(Exec.nthreads exec) in
  let races = ref [] in
  let kept = ref 0 in
  let pairs_found = ref 0 in
  let accesses = ref 0 in
  let racy = ref Sset.empty in
  Array.iter
    (fun (e : Event.t) ->
      match Syncclock.observe clocks e with
      | None -> ()
      | Some vc ->
          incr accesses;
          let x = Option.get (Event.variable e) in
          let this =
            { eid = e.eid; tid = e.tid; var = x; is_write = Event.is_write e; vc }
          in
          List.iter
            (fun pair ->
              racy := Sset.add x !racy;
              incr pairs_found;
              if !kept < max_races then begin
                incr kept;
                races := pair :: !races
              end)
            (summary_observe summary this))
    (Exec.events exec);
  { races = List.rev !races;
    pairs_found = !pairs_found;
    racy_vars = Sset.elements !racy;
    accesses = !accesses }

let race_free r = r.racy_vars = []

let pp_access ppf a =
  Format.fprintf ppf "%s of %s by %a at e%d %a"
    (if a.is_write then "write" else "read")
    a.var Types.pp_tid a.tid a.eid Vclock.pp a.vc

let pp_race ppf { first; second } =
  Format.fprintf ppf "race: %a || %a" pp_access first pp_access second

let pp_report ppf r =
  match r.racy_vars with
  | [] -> Format.fprintf ppf "no data races predicted (%d accesses)" r.accesses
  | vars ->
      let shown = List.length r.races in
      if r.pairs_found > shown then
        Format.fprintf ppf "@[<v>%d racy pairs (%d shown) on {%s} (%d accesses)@,%a@]"
          r.pairs_found shown (String.concat ", " vars) r.accesses
          (Format.pp_print_list pp_race)
          r.races
      else
        Format.fprintf ppf "@[<v>%d racy pairs on {%s} (%d accesses)@,%a@]"
          r.pairs_found (String.concat ", " vars) r.accesses
          (Format.pp_print_list pp_race)
          r.races

(* {1 Canonical verdict} *)

let verdict ~racy_vars ~accesses =
  match racy_vars with
  | [] -> Printf.sprintf "predict.race: no data races predicted (%d accesses)" accesses
  | vars ->
      Printf.sprintf "predict.race: RACES PREDICTED on {%s} (%d accesses)"
        (String.concat ", " vars) accesses

let verdict_of_report r = verdict ~racy_vars:r.racy_vars ~accesses:r.accesses

(* {1 The streaming engine}

   The race engine's own state: the bounded summaries and the verdict
   counters.  {!Engines} owns the causal delivery front and the
   sync-only clocks and hands every delivered data access here. *)

let m_pairs = M.counter "predict.race.pairs"
let m_racy = M.counter "predict.race.racy_vars"

type engine = {
  e_summary : summary;
  mutable e_racy : Sset.t;
  mutable e_accesses : int;
  mutable e_pairs : int;
}

let create ~nthreads =
  { e_summary = summary_create ~nthreads;
    e_racy = Sset.empty;
    e_accesses = 0;
    e_pairs = 0 }

let observe st (a : access) =
  st.e_accesses <- st.e_accesses + 1;
  List.iter
    (fun (_ : race) ->
      st.e_pairs <- st.e_pairs + 1;
      if M.enabled () then M.incr m_pairs;
      if not (Sset.mem a.var st.e_racy) then begin
        st.e_racy <- Sset.add a.var st.e_racy;
        if M.enabled () then M.incr m_racy
      end)
    (summary_observe st.e_summary a)

let violated st = not (Sset.is_empty st.e_racy)

let engine_verdict st =
  verdict ~racy_vars:(Sset.elements st.e_racy) ~accesses:st.e_accesses

let snapshot_version = "race 2"

let snapshot st =
  let lines = ref [] in
  let open Engine.Snapshot in
  push lines snapshot_version;
  push lines (Printf.sprintf "counts %d %d" st.e_accesses st.e_pairs);
  push lines (Printf.sprintf "racy %d" (Sset.cardinal st.e_racy));
  Sset.iter (fun x -> push lines (Printf.sprintf "rv %s" x)) st.e_racy;
  let table name slots_table =
    let entries =
      Hashtbl.fold
        (fun x arr acc ->
          (Array.to_list arr
          |> List.filter_map (fun a -> a)
          |> List.map (fun a -> (x, a)))
          @ acc)
        slots_table []
      |> List.sort (fun ((xa : string), (a : access)) (xb, b) ->
             compare (xa, a.tid) (xb, b.tid))
    in
    push lines (Printf.sprintf "%s %d" name (List.length entries));
    List.iter
      (fun ((x : string), (a : access)) ->
        push lines
          (Printf.sprintf "la %s %d %d %s" x a.tid a.eid (Vclock.to_string a.vc)))
      entries
  in
  table "writes" st.e_summary.s_writes;
  table "reads" st.e_summary.s_reads;
  List.rev !lines

let restore ~nthreads lines =
  let what = "race engine" in
  let open Engine.Snapshot in
  let r = reader lines in
  version ~what ~expected:snapshot_version r;
  let accesses, pairs =
    match keyed ~what ~key:"counts" r with
    | [ a; p ] -> (int ~what a, int ~what p)
    | _ -> invalid_arg (what ^ ": malformed counts line")
  in
  let racy =
    match keyed ~what ~key:"racy" r with
    | [ n ] ->
        List.init (int ~what n) (fun _ ->
            match keyed ~what ~key:"rv" r with
            | [ x ] -> x
            | _ -> invalid_arg (what ^ ": malformed rv line"))
        |> Sset.of_list
    | _ -> invalid_arg (what ^ ": malformed racy line")
  in
  let summary = summary_create ~nthreads in
  let table name slots_table is_write =
    match keyed ~what ~key:name r with
    | [ n ] ->
        for _ = 1 to int ~what n do
          match keyed ~what ~key:"la" r with
          | [ x; tid; eid; vc ] ->
              let tid = int ~what tid in
              if tid < 0 || tid >= nthreads then
                invalid_arg (what ^ ": summary thread id out of range");
              (slots slots_table x nthreads).(tid) <-
                Some
                  { eid = int ~what eid;
                    tid;
                    var = x;
                    is_write;
                    vc = clock ~what vc }
          | _ -> invalid_arg (what ^ ": malformed la line")
        done
    | _ -> invalid_arg (Printf.sprintf "%s: malformed %s line" what name)
  in
  table "writes" summary.s_writes true;
  table "reads" summary.s_reads false;
  if not (eof r) then invalid_arg (what ^ ": trailing lines in snapshot");
  { e_summary = summary; e_racy = racy; e_accesses = accesses; e_pairs = pairs }
