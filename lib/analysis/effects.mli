(** Static memory-effect analysis: per-block read/write footprints and
    wavefront race proofs (V3xx).

    The wavefront executor runs every anti-chain of a block's iteration
    domain in parallel, which is only legal when the points of one
    front touch pairwise-disjoint buffer cells.  Until now that
    disjointness was an unchecked assumption; this module makes it a
    static verdict, per block:

    - {b footprints}: the image of every (live) access map over the
      block's iteration domain, as an axis-aligned box in buffer space
      with may/must precision — the memory-effect summary a cost model
      or an arena allocator can consume;
    - {b race proofs}: for the exact anti-chains {!Vm}'s scheduler
      forms (the hyperplane [π = Reorder.hyperplane], the first row of
      [Reorder.transform_matrix],
      one front per hyperplane value), pairwise W-W and R-W
      disjointness is decided {e exactly} by enumeration on small
      domains and by null-space / unique-solution arguments on large
      rectangular ones.  Beyond both, the verdict degrades to
      [Unproven] — conservative, never silent;
    - {b flow checks}: dead stores (an intermediate buffer no block
      ever reads) and reads whose footprint a buffer's writers cannot
      have covered, along the block dataflow order.

    Edges whose label is bound in [blk_consts] are dead at run time
    (the VM resolves the operand to the literal first) and are excluded
    throughout, mirroring execution. *)

type precision =
  | Must  (** the box is exactly the set of touched cells *)
  | May   (** the box over-approximates the touched cells *)

type region = {
  rg_buffer : int;        (** buffer id *)
  rg_name : string;       (** buffer name *)
  rg_write : bool;
  rg_label : string;      (** the edge's source-level label *)
  rg_lo : int array;      (** inclusive lower corner, buffer coords *)
  rg_hi : int array;      (** inclusive upper corner *)
  rg_precision : precision;
}

type footprint = {
  fp_block : string;
  fp_points : int;        (** iteration-domain cardinality *)
  fp_reads : region list;
  fp_writes : region list;
}

val block_footprint : Ir.graph -> Ir.block -> footprint
val footprints : Ir.graph -> footprint list
(** Top-level blocks, dataflow order. *)

val usable_live_edges : Ir.graph -> Ir.block -> Ir.edge list
(** The edges a footprint has a region for, in block order: every
    write and every read evaluation consults ({!Ir.live_reads}), minus
    those too malformed to do arithmetic with (V001/V012 territory). *)

val region_cells : region -> int
(** Volume of the region's box. *)

val subrange_region :
  Ir.graph -> Ir.block -> ext:(int * int) array -> Ir.edge -> region
(** Footprint of one edge over the sub-box [ext] of the block's
    iteration space ([(lo, hi-exclusive)] per axis) — the halo-aware
    per-device footprint the distributed partitioner ([lib/dist])
    checks: a device's shard box, widened by its declared halo for read
    edges, goes in; the buffer-space box the device touches comes out.
    [Must] precision means the box is exact (partial-permutation map,
    unclipped), so must-level overlap between two devices' write
    regions refutes a shard plan rather than merely failing to prove
    it. *)

val regions_disjoint : region -> region -> bool
(** Boxes touch different buffers or are separated on some axis.
    Conservative in the right direction: [false] only means the boxes
    {e may} overlap (exactly when both are [Must]). *)

type race_kind = WW | RW

type verdict =
  | Proven of string    (** all fronts pairwise disjoint; the proof *)
  | Unproven of string  (** could not decide cheaply; the obstacle *)
  | Race of race_kind * string  (** a genuine same-front conflict *)

val verdict_name : verdict -> string
(** ["proven-disjoint"], ["unproven"] or ["race"]. *)

type race_report = {
  rr_block : string;
  rr_points : int;
  rr_fronts : int;   (** anti-chains the hyperplane forms (0 = unknown) *)
  rr_verdict : verdict;
}

val default_threshold : int
(** Enumeration bound (points), {!Verify}'s small-volume budget. *)

type fronts
(** A block's wavefront anti-chains, grouped once: its hyperplane
    ({!Reorder.hyperplane}), its enumerated points and those points
    keyed by their hyperplane value. *)

val group_fronts : Ir.block -> int array list -> fronts
(** [group_fronts b points] groups [points], the block's whole domain as
    {!Domain.enumerate} gives it, into the fronts {!Vm} runs in
    [Wavefront] order.  The block's hyperplane is derived here, so a
    [fronts] value always carries the hyperplane of the block it was
    grouped for; the grouping itself runs once, when {!front_list} or
    an enumerated {!block_race} first needs it. *)

val front_list : fronts -> (int * int array array) list
(** The fronts in hyperplane order, keyed by hyperplane value, each
    front's points in reverse enumeration order; one front 0 holding
    every point in enumeration order when the block carries no
    dependence. *)

val block_race : ?threshold:int -> ?fronts:fronts -> Ir.graph -> Ir.block -> race_report
(** Decide same-front disjointness for one block's wavefront schedule
    (exactly the fronts {!Vm} executes in [Wavefront] order).

    A caller that already grouped the block's fronts passes them in
    ([fronts], from {!group_fronts} on this block); that changes
    neither the verdict nor the report.  The domain is decided by
    enumeration exactly when its box volume (a box) or its point count
    (a general polyhedron) is at most [threshold]; a box is never
    enumerated to count it.  The enumerated proof keys each written
    cell by one int (a per-buffer base plus the cell's mixed-radix
    offset over the range the block's writes reach), so when that range
    spans more cells than an int holds the verdict is [Unproven]. *)

val race_check : ?threshold:int -> Ir.graph -> race_report list
(** {!block_race} over the top-level blocks in dataflow order. *)

val never_read : Ir.graph -> string list
(** Names of [Intermediate] buffers written by some top-level block but
    read by none — must-level dead stores; a dynamic read of one is a
    static/dynamic contradiction. *)

val race_diagnostics :
  ?stage:string -> ?threshold:int -> Ir.graph -> Diagnostic.t list
(** [Race] verdicts as errors (V300 write-write, V301 read-write),
    [Unproven] as notes (V304).  [Proven] is silent. *)

val flow_diagnostics : ?stage:string -> Ir.graph -> Diagnostic.t list
(** Dead stores (V302) and possibly-uninitialized reads (V303), as
    warnings. *)

val diagnostics :
  ?stage:string -> ?threshold:int -> Ir.graph -> Diagnostic.t list
(** {!race_diagnostics} followed by {!flow_diagnostics}. *)

val buffer_bytes : Ir.buffer -> int
(** Allocation size under the 4-byte/f32 convention the plan emitter
    uses: [4 * numel buf_dims * numel buf_elem]. *)
