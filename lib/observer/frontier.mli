(** The shared frontier engine behind {!Lattice.build} and
    [Predict.Online].

    Two ingredients, both motivated by the paper's level-by-level sweep
    (Section 4) at scale:

    - {b packed interned cuts}: every cut of the current level lives in
      one flat [int array] arena and is identified by a dense integer
      id, deduplicated through a custom open-addressing hash table — no
      [int list] keys, no per-cut [Array.to_list]/[Array.copy];
    - {b domain-parallel level expansion}: the cuts of one level are
      sharded across an OCaml 5 domain pool; successor cuts and their
      payloads are computed per shard, then merged deterministically so
      the result is bit-identical to the sequential engine for every
      jobs count. *)

(** A pool of worker domains.  Spawn-per-level: domains live only for
    the duration of one {!Make.expand} call, so clients never manage
    shutdown. *)
module Pool : sig
  type t

  val create : jobs:int -> t
  (** [jobs = 0] means [Domain.recommended_domain_count ()]; [jobs = 1]
      is the sequential path (no domain is ever spawned); capped at 64.
      @raise Invalid_argument when [jobs < 0]. *)

  val jobs : t -> int

  val run : t -> nshards:int -> (int -> unit) -> unit
  (** [run t ~nshards f] runs [f s] for each shard [0 .. nshards-1]
      (clamped to [jobs t]), shard 0 on the calling domain.  Waits for
      every shard; the first exception, in shard order, is re-raised. *)
end

(** An interning table of packed cuts: a growable flat arena of
    [width]-sized [int array] slices plus an open-addressing index.
    Interning assigns dense ids [0, 1, 2, ...] in first-seen order. *)
module Cutset : sig
  type t

  val create : ?capacity:int -> width:int -> unit -> t
  val width : t -> int

  val count : t -> int
  (** Number of distinct cuts interned so far (= next fresh id). *)

  val intern : t -> int array -> int
  (** Id of the cut, inserting it if new.
      @raise Invalid_argument on a wrong-width array. *)

  val find : t -> int array -> int option
  (** Id of the cut if present, without inserting. *)

  val get : t -> int -> int -> int
  (** [get t id i] is component [i] of cut [id]. Unchecked. *)

  val blit : t -> int -> int array -> unit
  (** Copy cut [id] into a caller-owned buffer of length [width]. *)

  val to_array : t -> int -> int array
  (** Fresh copy of cut [id]. *)

  val intern_succ : t -> src:t -> src_id:int -> tid:int -> int
  (** Intern the successor of [src]'s cut [src_id] with component [tid]
      incremented — allocation-free (goes through an internal scratch
      buffer; not reentrant on one [t]). *)

  val intern_from : t -> src:t -> src_id:int -> int
  (** Re-intern cut [src_id] of [src] unchanged (shard-merge phase). *)

  val compare_ids : t -> int -> int -> int
  (** Lexicographic order on the underlying cuts. *)

  val mem_words : t -> int
  (** Approximate resident size in words (arena + index). *)

  val flush_stats : t -> unit
  (** Publish this table's batched interning telemetry (hit/miss/probe
      counts, arena peak) to {!Telemetry.Metrics} and zero the batch.
      Cheap no-op when nothing was recorded; {!Make.expand} calls it
      once per level, long-lived tables (e.g. a lattice's node index)
      should call it when done. *)
end

module type PAYLOAD = sig
  type t

  val merge : t -> t -> t
  (** Combine two expansions that reached the same successor cut.
      {b Must be associative} — this is what makes the parallel merge
      deterministic (see {!Make.expand}). *)
end

val default_par_threshold : int
(** Minimum frontier size before {!Make.expand} shards a level
    (currently 128): below it, domain spawn/join overheads dominate. *)

(** The level-by-level engine over one payload type. *)
module Make (P : PAYLOAD) : sig
  type frontier
  (** One lattice level: an interned cut set, the canonical
      (lexicographic) iteration order, and one payload per cut. *)

  val singleton : width:int -> int array -> P.t -> frontier

  val of_list : width:int -> (int array * P.t) list -> frontier
  (** Rebuild one level from explicit cut/payload pairs — the checkpoint
      restore path of [Predict.Online].  Pairs hitting the same cut are
      combined with [P.merge] in list order; iteration order is
      canonicalized, so rebuilding from any permutation of a level's
      {!fold} output reproduces that level exactly.
      @raise Invalid_argument on an empty list or a wrong-width cut. *)

  val size : frontier -> int
  val width : frontier -> int

  val iter : (int array -> P.t -> unit) -> frontier -> unit
  (** Canonical order.  The cut argument is a reused buffer — copy it
      if retained. *)

  val fold : ('a -> int array -> P.t -> 'a) -> 'a -> frontier -> 'a
  (** Canonical order; same reused-buffer caveat as {!iter}. *)

  val find : frontier -> int array -> P.t option

  val min_components : frontier -> int array
  (** Per-thread minimum over all cuts of the level — the garbage
      collection floor of [Predict.Online]. *)

  val max_components : frontier -> int array
  (** Per-thread maximum over all cuts of the level: once every thread
      [i] has delivered event [max.(i) + 1] (or has ended), every move of
      every cut of the level is in hand — the advance condition of
      [Predict.Online]. *)

  val mem_words : frontier -> int

  val expand :
    Pool.t ->
    ?par_threshold:int ->
    moves:(shard:int -> int array -> (int * 'm) list) ->
    transition:(shard:int -> P.t -> tid:int -> 'm -> P.t) ->
    frontier ->
    frontier
  (** One level step: [moves ~shard cut] lists the enabled events
      [(tid, move)] of a cut (the cut argument is a reused buffer — do
      not retain), [transition] computes the successor payload, and
      expansions meeting at one successor cut are combined with
      [P.merge].  An empty result means the sweep is complete.

      When the pool has [jobs > 1] and the level has at least
      [par_threshold] cuts (default {!default_par_threshold}; pass [0]
      to force sharding, as the differential tests do), the level is
      split into contiguous chunks of the canonical order, one per
      shard.  [moves] and [transition] then run concurrently and must
      be thread-safe: pure, or writing only to [shard]-indexed slots.

      {b Determinism.}  Each shard interns its successors in iteration
      order; shard results are merged sequentially in shard order; the
      output order is re-sorted lexicographically.  For an associative
      [P.merge] every successor payload is the same fold in the same
      operand order as the sequential run, so the resulting frontier —
      cuts, order, payloads — is identical for every jobs count. *)
end
