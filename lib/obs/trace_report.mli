(** Offline analysis of a captured {!Trace}: reconstructs span
    nesting from timestamp containment and renders the three views
    that answer "where did the run go" —

    - the top-K span names by {e self} time (own duration minus the
      duration of directly nested spans),
    - the critical path (the longest root span, descending into the
      longest child at each level),
    - the per-request view, grouping spans by their ["corr"]
      correlation-id attribute when present (serve traces and flight
      recorder dumps stamp every span of a request), and
    - the per-depth BMC cost table, aggregated from ["bmc.depth"]
      spans and their [depth]/[conflicts]/[propagations] attributes,
      and likewise the per-[k] cost of the recurrence and induction
      step searches (["recurrence.solve"] / ["induction.solve"] spans
      and their [k] attribute).

    Pure presentation over {!Trace.event} lists; no global state. *)

type node = {
  event : Trace.event;
  children : node list;  (** in start order *)
  self_us : float;  (** duration minus direct children, clamped at 0 *)
}

val forest : Trace.event list -> node list
(** Span nesting reconstructed from timestamp containment (events on
    one track, as both exporters produce). *)

type corr_row = {
  c_corr : string;
  c_spans : int;
  c_first_us : float;
  c_last_us : float;
  c_busy_us : float;  (** summed self time — nesting never double-counts *)
}

val corr_table : node list -> corr_row list
(** Per-correlation-id aggregation over a forest, sorted by id; empty
    when no span carries a ["corr"] attribute. *)

type depth_row = {
  depth : int;
  calls : int;
  total_us : float;
  max_us : float;
  conflicts : int;
  propagations : int;
}

val depth_table :
  ?span:string -> ?key:string -> Trace.event list -> depth_row list
(** Per-depth cost of the [span] spans (default ["bmc.depth"]) keyed
    by their integer [key] attribute (default ["depth"]), sorted by
    it; empty when the trace has no such spans. *)

val pp : ?top:int -> Format.formatter -> Trace.event list -> unit
(** The full report: summary line, top-[top] (default 12) names by
    self time, critical path, per-request view (when correlation ids
    are present), per-depth and per-[k] tables.  An empty event list
    renders a single clear "no events" line instead of empty tables. *)
