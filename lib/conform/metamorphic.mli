(** Metamorphic laws: pairs of syntactically different programs that
    must compute bitwise-identical values.

    Differential oracles (one program, many back ends) cannot see a
    bug shared by every back end — e.g. an access operator whose
    semantics are consistently wrong.  These laws cross-check the
    semantics against themselves: each trial draws random extents and
    inputs, builds two programs related by an algebraic identity of
    the access operators (the composition rules behind paper Table 3)
    or of the aggregate direction, and demands
    [Fractal.equal_exact (interp lhs) (interp rhs)].  Every law picks
    identities whose two sides apply the same floating-point
    operations in the same order, so exact equality is sound.

    Laws:
    - [slice_slice]     — [xs.slice(a,b).slice(c,d) = xs.slice(a+c, a+d)]
    - [stride_stride]   — [xs.stride(s1,k1).stride(s2,k2)
                           = xs.stride(s1 + s2*k1, k1*k2)]
    - [shift_is_slice]  — [xs.linear(k) = xs.slice(k, n)]
    - [reverse_involution] — [xs.reverse().reverse() = xs]
    - [reverse_foldl_foldr] — [xs.reverse().foldl(z){f} = xs.foldr(z){f}]
    - [reverse_scanl_scanr] — [xs.reverse().scanl(z){f}
                               = xs.scanr(z){f}.reverse()]
    - [map_reverse_commute] — [xs.reverse().map{f} = xs.map{f}.reverse()]
    - [gather_gather]   — [xs.gather(I).gather(J) = xs.gather(I∘J)]
    - [gather_reverse]  — [xs.reverse() = xs.gather(n-1, …, 0)]
    - [fused_nofuse]    — one program drawn from the access-law pool,
                          run through the compiled executor with
                          fusion on and with fusion off: kernel
                          fusion, epilogues and aligned B copies must
                          be value-transparent bit for bit. *)

type trial = {
  t_law : string;
  t_ok : bool;
  t_detail : string;  (** describes the drawn instance; failure detail *)
}

val law_names : string list

val run_law : Rng.t -> string -> trial
(** One random trial of a named law.
    @raise Invalid_argument on an unknown law name. *)

val run_all : Rng.t -> iters:int -> trial list
(** [iters] trials of every law, interleaved law-major; all draws come
    from the one [Rng.t] stream, so a whole metamorphic run is
    reproducible from its seed. *)
