(** Exact linear algebra over the rationals.

    The reordering pass (paper §5.2) needs null spaces of access
    matrices (data-reuse detection), inverses of unimodular
    transformation matrices, and determinants — all of which must be
    exact, so everything here uses arbitrary-free exact rationals over
    native ints (the matrices involved are tiny: loop-nest depth ×
    buffer rank, entries in {-1,0,1} for the paper's quasi-affine maps). *)

(** {1 Rationals} *)

module Q : sig
  type t
  (** Normalised rational: positive denominator, reduced. *)

  val of_int : int -> t
  val make : int -> int -> t
  (** [make num den]. @raise Division_by_zero if [den = 0]. *)

  val zero : t
  val one : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  (** @raise Division_by_zero *)

  val neg : t -> t
  val equal : t -> t -> bool
  val is_zero : t -> bool
  val sign : t -> int
  val compare : t -> t -> int
  val to_int : t -> int
  (** @raise Invalid_argument if not integral. *)

  val is_integral : t -> bool
  val num : t -> int
  val den : t -> int
  val to_string : t -> string
end

(** {1 Integer matrices}

    Matrices are [int array array], row-major, rectangular. *)

val identity : int -> int array array
val matmul : int array array -> int array array -> int array array
val mat_vec : int array array -> int array -> int array
val vec_add : int array -> int array -> int array

val determinant : int array array -> Q.t
(** @raise Invalid_argument on a non-square matrix. *)

val is_unimodular : int array array -> bool
(** Square with determinant ±1 — exactly the legal reordering
    transformations of §5.2. *)

val inverse : int array array -> Q.t array array option
(** [None] when singular. *)

val inverse_unimodular : int array array -> int array array
(** Integer inverse of a unimodular matrix.
    @raise Invalid_argument if the matrix is not unimodular. *)

val rank : int array array -> int

val null_space : int array array -> int array array
(** A basis (list of rows) of [{x | M x = 0}], scaled to integer
    vectors.  An empty array means the null space is trivial — no
    data reuse along any iteration direction (paper §5.2). *)

val pp_mat : Format.formatter -> int array array -> unit
