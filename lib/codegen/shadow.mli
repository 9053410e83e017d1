(** Cell-level shadow memory: a values-free check of a graph's schedule.

    Which cells a point reads and writes depends only on the block's
    access maps, and which points share an anti-chain (front) only on
    the schedule — neither on any value.  {!check} therefore needs no
    inputs and runs nothing: it walks every block's schedule in
    dataflow order and, for each point, records the cells its
    {!Ir.live_reads} edges and then its {!Ir.writes} edges reach,
    together with the front it belongs to.  It detects, deterministically:

    - a same-front {b write-write} overlap: two iteration points of one
      anti-chain writing the same cell;
    - a same-front {b read-write} overlap: a point reading a cell that
      a {e sibling} point of the same anti-chain writes — the race the
      engine itself cannot see (the read may happen to observe the value);

    both raise {!Violation} at the offending access.  It then validates
    the static verdicts of {!Effects} against what it recorded: a read
    buffer the static analysis proved dead, or a touched cell outside a
    block's static footprint, is a contradiction.  The [shadow] oracle
    of [ftc conform] runs it on every program. *)

exception Violation of string
(** A same-front overlap, raised at the offending access. *)

type summary = {
  sh_reads : int;       (** recorded read events *)
  sh_writes : int;      (** recorded write events *)
  sh_read_buffers : string list;  (** buffers with at least one read *)
}

val check :
  ?schedule:(Ir.block -> int array list -> Vm.schedule * string option) ->
  Ir.graph ->
  summary * string list
(** [check g] records every block of [g] under [schedule] (the type of
    {!Compiled.compile}'s; default: [Vm.guard g Vm.Wavefront], the
    race guard the engine's {!Vm.guarded_schedule} applies, unproven
    blocks sequential, the downgrade not reported a second time),
    then returns the summary and the static/dynamic contradictions
    (empty when every static claim held).  Every point of an
    [Ordered] schedule is its own front; a test passes an unguarded
    schedule to see a race the guard would have removed.
    @raise Violation on a same-front overlap. *)
