(** Dynamic shadow memory for the compiled engine (debug mode).

    When enabled ([FT_SHADOW=1], or an explicit recorder passed to
    {!Compiled.execute}), the engine reports every cell-level read and write
    together with the anti-chain (front) it executed in.  The recorder
    detects, deterministically and independently of thread interleaving:

    - a same-front {b write-write} overlap: two iteration points of one
      anti-chain writing the same cell;
    - a same-front {b read-write} overlap: a point reading a cell that
      a {e sibling} point of the same anti-chain writes — the race the
      engine itself cannot see (the read may happen to observe the value);

    both raise {!Violation} immediately.  After the run,
    {!cross_check} validates the static verdicts of {!Effects} against
    what actually happened: a dynamically-read buffer the static
    analysis proved dead, or a touched cell outside a block's static
    footprint, is a static/dynamic contradiction — a hard failure.

    The recorder serialises on one mutex; it is a checking mode, not a
    fast path. *)

type t

exception Violation of string
(** A same-front overlap, raised at the offending access. *)

val create : Ir.graph -> t

val on_read :
  t ->
  block:string ->
  front:int ->
  point:int array ->
  buffer:int ->
  int array ->
  unit
(** @raise Violation on a same-front foreign-writer overlap. *)

val on_write :
  t ->
  block:string ->
  front:int ->
  point:int array ->
  buffer:int ->
  int array ->
  unit
(** @raise Violation on a same-front double write. *)

type summary = {
  sh_reads : int;       (** recorded read events *)
  sh_writes : int;      (** recorded write events *)
  sh_cells : int;       (** distinct cells touched *)
  sh_read_buffers : string list;  (** buffers with at least one read *)
}

val finish : t -> summary

val cross_check : Ir.graph -> summary -> t -> string list
(** Contradictions between the static analysis and the recorded run:
    a buffer {!Effects.never_read} claims dead that was dynamically
    read, or an access outside the block's static footprint boxes.
    Empty means every static claim held. *)
