(* The known-answer checker: scores one producer | observer run against
   the verdict its generator derived by construction. *)

type t = {
  verdicts : string list;  (** the observer's verdict lines, in order *)
  exit_code : int;  (** the observer's exit code *)
  messages : int;  (** messages both sides must report *)
  checkpoint : string option;  (** a final checkpoint that must read cleanly *)
}

type observed = {
  producer_exit : int;
  produced : int option;  (** messages the producer reports writing *)
  observer_exit : int;
  observer_stdout : string;
}

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let lines s = String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

(* ["predict.<engine>: ..."] and ["predictive verdict (JMPaX): ..."]. *)
let verdict_lines stdout = List.filter (starts_with ~prefix:"predict") (lines stdout)

(* [jmpax run -o] ends with "<n> messages written to <path>". *)
let producer_messages stdout =
  List.find_map (fun l -> Scanf.sscanf_opt l "%d messages written to" Fun.id) (lines stdout)

(* [jmpax stream] opens with "stream: <f> frames (<n> messages, ...". *)
let observer_messages stdout =
  List.find_map
    (fun l -> Scanf.sscanf_opt l "stream: %d frames (%d messages" (fun _ n -> n))
    (lines stdout)

let show_count = function Some n -> string_of_int n | None -> "none"

let of_processes ~producer_exit ~producer_stdout ~observer_exit ~observer_stdout =
  { producer_exit; produced = producer_messages producer_stdout; observer_exit; observer_stdout }

(* An in-process observer run, rendered as [jmpax stream] prints it (exit
   1 on a predicted violation). *)
let of_stream ~produced (o : Jmpax.Stream.outcome) =
  { producer_exit = 0;
    produced = Some produced;
    observer_exit = (if o.Jmpax.Stream.s_violated then 1 else 0);
    observer_stdout = Jmpax.Report.stream_summary o }

(* Every way the run differs from the known answer; [[]] means correct. *)
let score expected o =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  if o.producer_exit <> 0 then err "producer exited %d" o.producer_exit;
  if o.observer_exit <> expected.exit_code then
    err "observer exited %d, expected %d" o.observer_exit expected.exit_code;
  let observed = observer_messages o.observer_stdout in
  if o.produced <> Some expected.messages || observed <> Some expected.messages then
    err "messages: producer %s, observer %s, expected %d" (show_count o.produced)
      (show_count observed) expected.messages;
  let got = verdict_lines o.observer_stdout in
  if got <> expected.verdicts then
    err "verdict lines [%s], expected [%s]" (String.concat " | " got)
      (String.concat " | " expected.verdicts);
  (match expected.checkpoint with
  | None -> ()
  | Some path -> (
      match Jmpax.Checkpoint.read path with
      | Ok _ -> ()
      | Error e -> err "checkpoint %s: %s" path (Jmpax.Checkpoint.error_to_string e)));
  List.rev !errors
