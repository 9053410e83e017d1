(** The Extended Task Dependence Graph (paper §4.4).

    An ETDG is an acyclic graph over three node kinds:

    - {b buffer nodes}: addressable FractalTensor instances with a
      single-assignment property;
    - {b block nodes}: [d]-dimensional control nodes, each dimension
      carrying one array compute operator ([p_d]); block nodes nest,
      forming a tree of control;
    - {b operation nodes}: side-effect-free tensor math (the bodies of
      user-defined functions).

    Every edge touching a buffer node carries an access map. *)

type role = Input | Intermediate | Output

type buffer = {
  buf_id : int;
  buf_name : string;
  buf_dims : int array;  (** programmable extents, outermost first *)
  buf_elem : Shape.t;    (** innermost static dimensions *)
  buf_role : role;
}

type operand =
  | O_var of string
      (** a lambda-bound value, i.e. a buffer read; the string names
          the read site and matches an edge's [e_label] (or an entry in
          [blk_consts] when the site resolves to a literal seed) *)
  | O_op of int      (** result of an earlier operation node (0-based) *)
  | O_const of Tensor.t (** literal tensor *)

type op_node = {
  op : Expr.prim;
  operands : operand list;
  operand_shapes : Shape.t list;
  result_shape : Shape.t;
}

type dir = Read | Write

type edge = {
  e_buffer : int;          (** buffer id *)
  e_dir : dir;
  e_access : Access_map.t; (** from the block's iteration space to the
                               buffer's programmable dimensions *)
  e_label : string;        (** the source-level value this edge carries
                               (a lambda parameter or the result name) *)
}

type block = {
  blk_id : int;
  blk_name : string;
  blk_ops : Expr.soac_kind array; (** [p_d], outermost first *)
  blk_domain : Domain.t;          (** iteration domain [P_d] *)
  blk_edges : edge list;
  blk_children : block list;      (** nested block nodes (sub-ETDG) *)
  blk_body : op_node list;        (** leaf operation nodes *)
  blk_results : operand list;
      (** where each write edge's value comes from, in write-edge order *)
  blk_consts : (string * Tensor.t) list;
      (** read sites that resolve to literal values in this region
          (e.g. a scan seed on the first iteration) *)
}

type graph = {
  g_name : string;
  g_buffers : buffer list;
  g_blocks : block list;          (** top level, in dataflow order *)
}

(** {1 Accessors} *)

val buffer : graph -> int -> buffer
(** @raise Not_found *)

val block_dim : block -> int
(** The dimension [d] of a block node. *)

val reads : block -> edge list
val writes : block -> edge list

val live_reads : block -> edge list
(** The read edges a point's evaluation consults, in edge order: per
    operand label the block's last read edge, unless a [blk_consts]
    literal shadows the label or no operand or result uses it.  The one
    read set of the compiled engine, the sharded planner, the shadow
    check and the static race proofs ({!Effects}). *)

val all_blocks : graph -> block list
(** Every block, parents before children. *)

(** {1 Metrics (paper §4.4)} *)

val depth : graph -> int
(** Number of block nodes on the longest root-to-leaf nesting path. *)

val dimension : graph -> int
(** Sum of block dimensions along the path that maximises it. *)

(** {1 Structural invariants} *)

val validate : graph -> (unit, string list) result
(** Checks the five ETDG conditions: known buffers on every edge,
    access-map arities consistent with block dimension and buffer rank,
    domain dimension equal to [p_d] length, single assignment (the
    write domains of any two writers of one buffer are disjoint in
    buffer space), and acyclicity of the block-level dataflow. *)

val dataflow_order : graph -> block list
(** Top-level blocks topologically sorted by buffer dataflow
    (writers before readers). @raise Invalid_argument on a cycle. *)

val pp : Format.formatter -> graph -> unit
val pp_block : Format.formatter -> block -> unit
