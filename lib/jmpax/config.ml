type channel_model =
  | In_order
  | Shuffled of int
  | Bounded of int * int

type recovery =
  | Fail
  | Skip
  | Quarantine

type t = {
  sched : Tml.Sched.t;
  fuel : int;
  channel : channel_model;
  detect_races : bool;
  detect_deadlocks : bool;
  detect_atomicity : bool;
  metrics : string option;
  trace : string option;
  max_buffered : int option;
  engines : Predict.Engine.kind list;
}

let default () =
  { sched = Tml.Sched.round_robin ();
    fuel = 100_000;
    channel = In_order;
    detect_races = true;
    detect_deadlocks = true;
    detect_atomicity = true;
    metrics = None;
    trace = None;
    max_buffered = None;
    engines = Predict.Engine.default_kinds }

let with_sched sched t = { t with sched }
let with_seed seed t = { t with sched = Tml.Sched.random ~seed }
let with_channel channel t = { t with channel }

let with_metrics metrics t = { t with metrics }
let with_trace trace t = { t with trace }

let with_max_buffered max_buffered t =
  (match max_buffered with
  | Some k when k < 0 -> invalid_arg "Config.with_max_buffered: must be >= 0"
  | _ -> ());
  { t with max_buffered }

let with_engine_names names t =
  match Predict.Engine.kinds_of_string names with
  | Ok engines -> { t with engines }
  | Error msg -> invalid_arg ("Config.with_engine_names: " ^ msg)

let recovery_of_string = function
  | "fail" -> Some Fail
  | "skip" -> Some Skip
  | "quarantine" -> Some Quarantine
  | _ -> None

let recovery_to_string = function
  | Fail -> "fail"
  | Skip -> "skip"
  | Quarantine -> "quarantine"
