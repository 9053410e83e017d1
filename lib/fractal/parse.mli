(** Concrete syntax for FractalTensor programs.

    A textual form of the paper's Appendix-A abstract syntax, close to
    the listings.  The running example (Listing 1):

    {v
    program stacked_rnn
    input xss: [2][4]f32[1,8]
    input ws:  [3]f32[8,8]
    return xss.map { |xs|
      ws.scanl(xs) { |sbar, w|
        sbar.scanl(zeros[1,8]) { |s, x|
          x @ w + s } } }
    v}

    Grammar sketch:

    {v
    program  ::= "program" IDENT input* "return" expr
    input    ::= "input" IDENT ":" type
    type     ::= ("[" INT "]")* "f32" "[" INT {"," INT} "]"
    expr     ::= "let" IDENT "=" expr "in" expr | sum
    sum      ::= product (("+" | "-") product)*
    product  ::= matmul (("*" | "/") matmul)*
    matmul   ::= postfix (("@" | "@T") postfix)*
    postfix  ::= atom
               | postfix "." soac ["(" expr ")"] "{" "|" params "|" expr "}"
               | postfix "." access "(" args ")"
               | postfix "[" INT "]"          (static indexing)
               | postfix "." INT              (tuple projection)
    atom     ::= IDENT | call | "zeros" shape | "full" shape "(" FLOAT ")"
               | "zip(" expr {"," expr} ")" | "(" expr {"," expr} ")"
    call     ::= ("tanh"|"sigmoid"|"exp"|"neg"|"relu"|"softmax"|"rowmax"
               |"rowsum"|"transpose"|"max"|"scale"|"cols"|"concat_cols")
                 "(" args ")"
    soac     ::= "map"|"reduce"|"foldl"|"foldr"|"scanl"|"scanr"
    access   ::= "slice"|"window"|"stride"|"shifted_slide"|"interleave"
               |"linear"|"reverse"|"gather"
    v}

    [linear(shift)] is forward contiguous access; [linear(shift, 1)]
    additionally reverses the selected suffix and [reverse()] is
    shorthand for [linear(0, 1)].  [gather(i, ...)] is indirect access
    through the literal index list.

    [@T] is transposed matmul ([q @T k] = [q @ kᵀ]). *)

exception Syntax_error of { line : int; col : int; message : string }

val program : string -> Expr.program
(** Parse a whole program. @raise Syntax_error with position info. *)

val expr : string -> Expr.t
(** Parse a single expression (for tests and the toplevel). *)

val program_file : string -> Expr.program
(** Parse from a file path. @raise Sys_error on IO failure. *)

(** {1 Source spans}

    The linter needs source positions without burdening [Expr.t] with
    location fields, so the spanned entry points additionally return a
    side table keyed by {e physical identity} of the freshly parsed
    nodes: the table is only meaningful for the AST returned alongside
    it. *)

type span = { sp_line : int; sp_col : int }

type spans

val expr_span : spans -> Expr.t -> span option
(** Source position of a node of the parsed AST (physical identity). *)

val binder_spans : spans -> Expr.t -> (string * span) list
(** For a [Let] or [Soac] node: the positions of the names it binds
    ([let x = …] / lambda parameters), in declaration order. *)

val input_spans : spans -> (string * span) list
(** Positions of the program's [input] declarations, in order. *)

val program_spanned : string -> Expr.program * spans
(** As {!program}, with the span table. *)
