open Trace

(* {1 Engine selection} *)

type kind = Lattice | Race | Atomicity

let kind_to_string = function
  | Lattice -> "lattice"
  | Race -> "race"
  | Atomicity -> "atomicity"

let kind_of_string = function
  | "lattice" -> Some Lattice
  | "race" -> Some Race
  | "atomicity" -> Some Atomicity
  | _ -> None

let default_kinds = [ Lattice ]

let kinds_to_string kinds = String.concat "," (List.map kind_to_string kinds)

let kinds_of_string s =
  let names =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  if names = [] then Error "no engine named"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest -> (
          match kind_of_string n with
          | None ->
              Error
                (Printf.sprintf "unknown engine %S (known: lattice, race, atomicity)" n)
          | Some k -> go (if List.mem k acc then acc else k :: acc) rest)
    in
    go [] names

(* {1 Replaying a recorded execution}

   [jmpax check] holds the whole execution in memory; the streaming
   engines consume messages.  Replaying the execution through Algorithm
   A with the all-events relevance synthesizes exactly the message
   stream [jmpax run --engine race,...] would have recorded, so the two
   front ends stay byte-comparable. *)

let messages_of_exec exec =
  let emitter =
    Mvc.Emitter.create ~nthreads:(Exec.nthreads exec) ~init:(Exec.init exec)
      ~relevance:Mvc.Relevance.all_events ()
  in
  Array.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Internal -> Mvc.Emitter.on_internal emitter e.Event.tid
      | Event.Read (x, v) -> Mvc.Emitter.on_read emitter e.Event.tid x v
      | Event.Write (x, v) -> Mvc.Emitter.on_write emitter e.Event.tid x v)
    (Exec.events exec);
  snd (Mvc.Emitter.finish emitter)

(* {1 Snapshot line codec}

   Engine snapshots are persisted as opaque line blocks inside the
   checkpoint file; these helpers keep the per-engine codecs small and
   the error messages uniform.  Variable names never contain spaces
   (TML identifiers plus the reserved [#...:] prefixes) and
   [Vclock.to_string] is space-free, so fields are space-separated. *)

module Snapshot = struct
  type reader = { mutable lines : string list }

  let reader lines = { lines }

  let eof r = r.lines = []

  let line ~what r =
    match r.lines with
    | [] -> invalid_arg (what ^ ": truncated engine snapshot")
    | l :: rest ->
        r.lines <- rest;
        l

  let words l = String.split_on_char ' ' l |> List.filter (fun s -> s <> "")

  let int ~what s =
    match int_of_string_opt s with
    | Some n -> n
    | None -> invalid_arg (Printf.sprintf "%s: bad integer %S" what s)

  let clock ~what s =
    match Vclock.of_string s with
    | v -> v
    | exception Invalid_argument _ ->
        invalid_arg (Printf.sprintf "%s: bad clock %S" what s)

  let keyed ~what ~key r =
    match words (line ~what r) with
    | k :: rest when k = key -> rest
    | k :: _ ->
        invalid_arg (Printf.sprintf "%s: expected %S line, found %S" what key k)
    | [] -> invalid_arg (Printf.sprintf "%s: expected %S line, found blank" what key)

  let rest r = r.lines

  let version ~what ~expected r =
    let v = line ~what r in
    if v <> expected then
      invalid_arg (Printf.sprintf "%s: unsupported snapshot version %S" what v)

  let push lines l = lines := l :: !lines
end
