(* What a workload hands the driver loop in perfbench.ml. *)

open Perfbench_kit

(* One pass over a workload's fixed set of operations. *)
type pass = {
  latencies : float list;  (** seconds per operation *)
  past_probe : float list;
      (** ladder, serve: the latencies of the problems past the probe
          ([Problems.past_probe]) *)
  labels : string list;  (** what each operation was, in the same order *)
  tally : Pstat.tally;  (** attempted operations and their failures *)
  decided : int;  (** conclusive answers (tables: useful targets) *)
  decided_of : int;  (** denominator of [decided_share] *)
  mismatches : string list;  (** answers contradicting the reference *)
  concluded : (string * int) list;  (** verdicts by concluding strategy *)
  inconclusive : int;
  parsed_bytes : int;  (** netlist text parsed inside the pass *)
  extra : (string * float * string) list;
      (** workload-specific end-to-end figures: name, value, unit *)
  cache : (int * int) option;  (** serve: bound-cache (hits, misses) *)
  handoff_ms_p50 : float option;
}

type t = {
  name : string;
  jobs : int;  (** worker domains the program runs on *)
  sequential : bool;  (** deterministic: exact counters must repeat *)
  min_passes : int;  (** passes a run makes even past its time *)
  pass : unit -> pass;
  time_inputs : (unit -> float * float) option;
      (** serve: benchmark-timed Bench_io.parse and Net.cone_fingerprint
          over every request text, run outside the session *)
}

let engine_strategies =
  [
    "bmc-probe";
    "structural-bound";
    "com+bound";
    "com-ret-com+bound";
    "enlargement+bound";
    "recurrence-bcoi";
    "k-induction";
  ]

(* the ladder rung a verdict's strategy belongs to ("enlargement-empty"
   concludes inside the enlargement rung) *)
let rung strategy =
  if strategy = "enlargement-empty" then "enlargement+bound" else strategy

let count_strategies strategies =
  List.map
    (fun s -> (s, List.length (List.filter (fun x -> rung x = s) strategies)))
    engine_strategies

(* Per-problem budget: a per-SAT-call conflict allowance, no deadline.
   It is deterministic, so the set of decided problems cannot depend
   on machine speed or load. *)
let problem_budget () = Obs.Budget.create ~conflicts:500 ()

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let verdict_strategy = function
  | Core.Engine.Proved { strategy; _ } | Core.Engine.Violated { strategy; _ } ->
    Some strategy
  | Core.Engine.Inconclusive _ -> None

let empty_pass =
  {
    latencies = [];
    past_probe = [];
    labels = [];
    tally = Pstat.empty_tally;
    decided = 0;
    decided_of = 0;
    mismatches = [];
    concluded = [];
    inconclusive = 0;
    parsed_bytes = 0;
    extra = [];
    cache = None;
    handoff_ms_p50 = None;
  }
