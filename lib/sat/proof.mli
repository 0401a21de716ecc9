(** DRUP-style clausal proof log.

    When attached to a solver ({!Solver.set_proof}), the log records an
    event per input clause, learnt clause and learnt-clause deletion,
    in the exact operational order.  The event list is a self-contained
    derivation — {!Input} events are axioms, {!Add} events must each
    have the reverse-unit-propagation property — checkable by {!Drup}
    with no access to the solver that produced it.

    Clauses are canonicalized (copied, sorted, deduplicated) at log
    time, so later in-place literal shuffling by the solver's watch
    machinery cannot corrupt the record. *)

type event =
  | Input of int array  (** an original problem clause (axiom) *)
  | Add of int array  (** a learnt clause; must be RUP at this point *)
  | Delete of int array  (** a learnt clause leaving the active set *)

type t

val canon : int array -> int array
(** A fresh sorted, deduplicated copy of a clause: the form every
    logged event carries. *)

val create : unit -> t
val log_input : t -> int array -> unit
val log_add : t -> int array -> unit
val log_delete : t -> int array -> unit

val events : t -> event list
(** All events, oldest first. *)

val num_inputs : t -> int
val num_adds : t -> int
val num_deletes : t -> int

(** {1 DRUP text}

    The textual form is drat-trim compatible: one lemma per line in
    DIMACS numbering terminated by [0], deletions prefixed with [d],
    comment lines starting with [c].  {!Input} events are omitted (a
    DRUP file accompanies a DIMACS file; dump the formula with
    {!Dimacs.print}). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val parse : string -> t
(** Parse DRUP text into {!Add}/{!Delete} events.
    @raise Failure on malformed input. *)

val parse_file : string -> t
