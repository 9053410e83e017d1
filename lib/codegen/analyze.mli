(** The [ftc analyze] report: a whole-program memory-effect summary
    over the built ETDG — the graph the VM executes.

    One report combines the static passes of [lib/analysis]:

    - per-block {b footprints} ({!Effects.block_footprint}): the boxed
      image of every live access map, with may/must precision;
    - the {b wavefront race check} ({!Effects.race_check}): one verdict
      per block — proven-disjoint, unproven, or race — over exactly the
      anti-chains {!Vm} forms;
    - {b diagnostics}: structural verifier findings ({!Verify.graph})
      plus the memory-effect findings (V30x), sorted errors-first;
    - {b buffer liveness} and a proposed {b arena layout}
      ({!Liveness}): first-def/last-use intervals over the block
      dataflow order and a first-fit placement in which buffers with
      disjoint lifetimes share storage.

    Renders as text for humans and as a deterministic JSON document
    (no floats, no timestamps) for tooling and golden tests. *)

type report = {
  rp_program : string;        (** program name ([""] when unknown) *)
  rp_blocks : int;            (** top-level block count *)
  rp_buffers : int;           (** buffer count *)
  rp_footprints : Effects.footprint list;
  rp_races : Effects.race_report list;
  rp_diagnostics : Diagnostic.t list;
  rp_intervals : Liveness.interval list;
  rp_arena : Liveness.arena;
}

val graph : ?name:string -> Ir.graph -> report
(** Analyze a built graph.  Liveness steps are the top-level blocks in
    dataflow order; [Input] buffers are live-in, [Output] buffers
    live-out (both fixed, never placed in the arena). *)

val steps : Ir.graph -> Liveness.step list
(** The liveness schedule {!graph} analyzes: one step per top-level
    block in dataflow order, accessing whole buffers at allocation
    size: the buffers of {!Effects.usable_live_edges}, reads then
    writes (the order a footprint lists its regions in), read straight
    off the edges.  Exposed so the compiled executor ({!Compiled}) can size its
    arena from exactly the layout the analyzer reports. *)

val program : Expr.program -> report
(** [graph (Build.build p)], named after the program. *)

val file : string -> report
(** Parse, type-check and analyze a [.ft] file.
    @raise Parse.Syntax_error on a malformed program
    @raise Typecheck.Type_error on an ill-typed one *)

val errors : report -> bool
(** True when any diagnostic is an error — the CLI's exit-1 signal. *)

val to_text : report -> string

val to_jsonv : report -> Jsonw.t
(** Deterministic JSON: same source, same document. *)
