(** What the prediction engines share.

    JMPaX's observer runs up to three analyses over one Algorithm-A
    message stream: the level-by-level lattice traversal ({!Online})
    and the linear-time {!Race} and {!Atomicity} engines.
    [jmpax check/run/stream] and the serve sessions select them with
    [--engine lattice,race,atomicity]; {!Engines} drives the selection.
    This module holds the closed {!kind} variant, the replay that turns
    a recorded execution into the engines' message stream, and the line
    codec their checkpoint blocks are written in. *)

open Trace

(** {1 Engine selection} *)

type kind = Lattice | Race | Atomicity

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

val default_kinds : kind list
(** [[Lattice]] — the historical behaviour. *)

val kinds_to_string : kind list -> string

val kinds_of_string : string -> (kind list, string) result
(** Parse a comma-separated engine list ([--engine] syntax).  Order is
    preserved, duplicates are dropped, unknown names are an [Error]. *)

(** {1 Replaying a recorded execution} *)

val messages_of_exec : Exec.t -> Message.t list
(** Synthesize the message stream Algorithm A with
    {!Mvc.Relevance.all_events} emits for a recorded execution — the
    bridge that lets [jmpax check] feed the streaming engines and stay
    byte-comparable with [jmpax run]/[stream]. *)

(** {1 Snapshot line codec} *)

module Snapshot : sig
  type reader

  val reader : string list -> reader
  val eof : reader -> bool

  val line : what:string -> reader -> string
  (** @raise Invalid_argument when exhausted. *)

  val words : string -> string list
  val int : what:string -> string -> int
  val clock : what:string -> string -> Vclock.t

  val keyed : what:string -> key:string -> reader -> string list
  (** Next line's fields after checking its leading keyword. *)

  val push : string list ref -> string -> unit
  (** Lines accumulate reversed; finish with [List.rev]. *)

  val rest : reader -> string list
  (** The lines not read yet. *)

  val version : what:string -> expected:string -> reader -> unit
  (** Read the block's version line.
      @raise Invalid_argument unless it is [expected]. *)
end
