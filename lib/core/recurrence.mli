(** Recurrence diameter (Biere et al. [2], initial-state variant of
    Kroening & Strichman [6]): the longest loop-free state path from an
    initial state, computed as a series of SAT problems.

    The baseline the paper argues against: complete but NP-hard per
    depth, and possibly exponentially looser than the true diameter
    (e.g. a free-running mod-2^n counter has recurrence diameter 2^n -
    1 even when the property's diameter is small). *)

type result = {
  bound : Sat_bound.t;
      (** recurrence diameter + 1: a sound BMC completeness threshold,
          comparable with {!Bound.t} *)
  path_length : int;  (** the longest irredundant path found *)
  sat_calls : int;
  exhausted : bool;
      (** the resource [budget] ran out before the search concluded
          (distinct from exceeding [limit], which is a configured
          give-up, not a budget event) *)
  why : string option;
      (** the structured stand-down reason when [exhausted]:
          {!Backend.budget_reason}, a node-limit string, or a
          backend-unavailable string passed through from the solver *)
}

type evidence =
  | Structural
      (** the target cone holds no registers, so the bound is a
          structural fact needing no SAT answer (like {!Bound}) *)
  | Refutation of Sat.Proof.event list
      (** clausal proof of the closing Unsat answer — "no irredundant
          path of length [bound] exists"; checking that it derives the
          empty clause (see [Core.Certify.check_recurrence]) certifies
          the bound *)

type cert = { mutable evidence : evidence option }
(** Only meaningful when {!result.bound} is finite; give-ups and
    budget exhaustion leave it empty. *)

val new_cert : unit -> cert

val compute :
  ?limit:int ->
  ?bounded_coi:bool ->
  ?budget:Obs.Budget.t ->
  ?cert:cert ->
  ?backend:Backend.t ->
  Netlist.Net.t ->
  Netlist.Lit.t ->
  result
(** Restricts to the cone of influence of the target literal.  Gives
    up (returning [Sat_bound.huge]) once the path length exceeds
    [limit] (default 64): the series of SAT problems grows
    quadratically.  A [budget] is checked between extensions and
    threaded into each SAT call; exhaustion also returns
    [Sat_bound.huge], with [exhausted = true].

    [bounded_coi] enables Kroening & Strichman's bounded
    cone-of-influence tightening [6] (cited in the paper's footnote):
    frame [j] of a length-[k] path only needs to be distinguished from
    earlier frames on the registers within [k - j] dependency steps of
    the target, which can shorten the longest "irredundant" path
    dramatically — a deep pipeline drops from an exponential search to
    a handful of frames.  This variant ranges over free start states
    (init-anchoring would break the monotonicity that lets the first
    UNSAT close the search).  Both variants keep one solver per call
    and only add clauses as the path grows. *)
