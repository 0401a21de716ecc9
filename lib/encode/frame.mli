(** Single combinational time-frame of a netlist encoded into a SAT
    solver (Tseitin encoding of the AND graph).

    Inputs and state-element outputs become free solver variables;
    ANDs get defining clauses.  Used for combinational equivalence
    queries (SAT sweeping) where state elements are cut points, and
    chained by {!link} into the free-start paths of induction and the
    recurrence diameter. *)

type t

val create : Backend.solver -> Netlist.Net.t -> t
(** Lazily encodes on demand; creating is cheap. *)

val solver : t -> Backend.solver

val lit : t -> Netlist.Lit.t -> Backend.lit
(** Solver literal for a netlist literal, encoding its combinational
    cone (down to inputs/state elements) on first use. *)

val state_var : t -> int -> Backend.lit
(** Solver literal (positive) for the current-state output of a
    register/latch variable. *)

val link : t -> t -> unit
(** [link pre post] makes [post] the successor of [pre]: each
    register's state in [post] equals its next-state function in
    [pre].  Both frames must encode the same netlist in one solver. *)

val distinct : Backend.solver -> Backend.lit list -> Backend.lit list -> unit
(** [distinct solver a b] requires the equal-length literal vectors
    [a] and [b] to differ in at least one position (one fresh selector
    per position).  Empty vectors give the empty clause. *)
