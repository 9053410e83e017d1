(** ETDG schedule-legality and well-formedness verifier.

    The compiler's passes (§5.1–§5.3: build → coarsen → emit, which
    reorders each block as it goes) each rewrite the ETDG; nothing in
    the passes themselves proves the rewrite legal.  This module makes
    legality a static check that runs between every stage, in the
    spirit of polyhedral systems that validate every schedule against
    the dependence relation before emitting code:

    - {b structural invariants} (V0xx): the five {!Ir.validate}
      conditions, operation-node arity and operand resolution,
      write-edge/result agreement, buffer-table sanity;
    - {b access-map well-formedness} (V1xx): quasi-affine maps of the
      right arity, non-empty Fourier–Motzkin iteration domains, and
      in-bounds image of every access map over its block's domain
      (decided exactly on box corners for rectangular domains, by
      enumeration for small polyhedra);
    - {b schedule legality} (V2xx): every {!Reorder} transformation
      matrix must be unimodular ({!Linalg.is_unimodular}) and map every
      Table-4 dependence distance vector to a lexicographically
      positive vector; a non-identity transform's first row must
      satisfy Lamport's hyperplane condition [π · d ≥ 1].  This is
      decided on the block before it is reordered, against its own
      dependences; that the transform itself is exact ([M' T = M],
      reordered domain [= T D]) is checked by the test suite, not here.

    Checks whose exact decision would require enumerating a full-size
    iteration space are bounded: beyond a small-volume threshold they
    degrade to corner/box arguments or are skipped, so the verifier is
    cheap enough to run inside every compilation, test and benchmark. *)

exception Verification_failed of string * Diagnostic.t list
(** Stage name and the diagnostics (at least one error) of a fatal
    verification failure. *)

val access_maps : ?stage:string -> Ir.graph -> Diagnostic.t list
(** Domain non-emptiness and access-map checks (V010–V012). *)

val schedule :
  ?stage:string ->
  ?dvs:int array list ->
  Ir.block ->
  int array array ->
  Diagnostic.t list
(** Legality of an explicit transformation matrix for a block: square,
    unimodular (V020), dependence-preserving (V021), hyperplane
    condition (V022), arity (V023).  [dvs] overrides the distance
    vectors derived from the block — the fault-injection entry point. *)

val graph :
  ?stage:string ->
  ?check_races:bool ->
  Ir.graph ->
  Diagnostic.t list
(** Structural invariants (V001–V006), {!access_maps}, the schedule
    legality of every top-level block's reordering transform as
    computed by {!Reorder.transform_matrix} (V020–V023), plus
    {!Effects.race_diagnostics} (V3xx): proven same-front races are
    errors, unproven disjointness a note.  The graph is in original
    (pre-reorder) coordinates: emission reorders each block itself, so
    no reordered graph is ever checked.  [check_races] (default
    [true]) gates the V3xx pass independently. *)

val graph_exn :
  ?stage:string ->
  ?check_races:bool ->
  Ir.graph ->
  unit
(** @raise Verification_failed when {!graph} reports any error. *)

val exit_on_failure : ?ppf:Format.formatter -> (unit -> int) -> int
(** [exit_on_failure f] is [f ()], the exit code of a command, except
    that a {!Verification_failed} escaping [f] prints the failing stage
    and its findings on [ppf] (default: stderr) and gives exit code 1
    — the one handler the [ftc] driver wraps every command in. *)
