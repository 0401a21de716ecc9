(* Per-layer metrics of a traced pass: self times from the trace forest
   (span duration minus its children, as Obs.Trace_report computes it),
   plus the counters and spans the program already keeps in Obs.Stats. *)

open Perfbench_kit

let prefixed p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* The layer a trace span's self time belongs to.  The benchmark's own
   spans sit at layer boundaries ("perfbench.parse" around
   Bench_io.parse, ...); "perfbench.verify" only wraps Engine.verify,
   whose own span takes the time.  Encoding has no span in the program,
   so its time lands in the self time of its callers (bmc, core.engine,
   core.pipeline). *)
let layer_of name =
  if name = "perfbench.parse" then Some "textio"
  else if name = "perfbench.bmc" || name = "bmc.depth" then Some "bmc"
  else if name = "sat.simplify" then Some "sat.simplify"
  else if Filename.extension name = ".solve" then Some "sat"
  else if prefixed "engine." name then Some "core.engine"
  else if prefixed "certify." name then Some "core.certify"
  else if prefixed "pipeline." name || name = "perfbench.phase" then
    Some "core.pipeline"
  else if prefixed "perfbench." name then None
  else Some "other"

let layers =
  [
    "textio";
    "core.pipeline";
    "core.engine";
    "core.certify";
    "bmc";
    "sat";
    "sat.simplify";
    "other";
  ]

(* worker-domain events carry a "domain" attribute, main-domain events
   none; each domain is one track of nested spans *)
let domain_of (e : Obs.Trace.event) =
  match List.assoc_opt "domain" e.Obs.Trace.args with
  | Some (Obs.Trace.Int d) -> d
  | _ -> -1

let self_times events =
  let spans =
    List.filter
      (fun (e : Obs.Trace.event) -> e.Obs.Trace.kind = Obs.Trace.Span)
      events
  in
  let acc = Hashtbl.create 16 in
  let rec walk (n : Obs.Trace_report.node) =
    (match layer_of n.Obs.Trace_report.event.Obs.Trace.name with
    | Some l ->
      let so_far = Option.value (Hashtbl.find_opt acc l) ~default:0. in
      Hashtbl.replace acc l (so_far +. (n.Obs.Trace_report.self_us /. 1e6))
    | None -> ());
    List.iter walk n.Obs.Trace_report.children
  in
  List.iter
    (fun d ->
      List.filter (fun e -> domain_of e = d) spans
      |> Obs.Trace_report.forest |> List.iter walk)
    (List.sort_uniq compare (List.map domain_of spans));
  List.map
    (fun l -> (l, Option.value (Hashtbl.find_opt acc l) ~default:0.))
    layers

(* total duration of the trace spans with this name *)
let span_total events name =
  List.fold_left
    (fun acc (e : Obs.Trace.event) ->
      if e.Obs.Trace.kind = Obs.Trace.Span && e.Obs.Trace.name = name then
        acc +. (e.Obs.Trace.dur_us /. 1e6)
      else acc)
    0. events

type gc = {
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
  }

let gc_delta a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections;
  }

type input = {
  workload : Wl.t;
  pass : Wl.pass;  (** the traced pass *)
  snap : Obs.Stats.snapshot;  (** its stats *)
  events : Obs.Trace.event list;  (** its trace *)
  traced_wall : float;
  untraced_wall : float;  (** median of the untraced passes *)
  untraced_cpu : float;
  gc : gc;  (** over an untraced pass *)
  parse_s : float;  (** benchmark-timed Bench_io.parse over the inputs *)
  fingerprint_s : float;  (** benchmark-timed Net.cone_fingerprint *)
  parsed_bytes : int;
  past_probe_p50_ms : float;  (** over the untraced passes *)
  past_probe_time_share : float;
}

let slug s = String.map (function '+' -> '-' | c -> c) s

(* (name, value, unit) for every per-layer metric, in BENCHMARK.json
   order; a layer the workload does not run reads 0 *)
let metrics i =
  let c name =
    float_of_int
      (Option.value (List.assoc_opt name i.snap.Obs.Stats.counters) ~default:0)
  in
  let span name =
    Option.value
      (List.assoc_opt name i.snap.Obs.Stats.spans)
      ~default:{ Obs.Stats.calls = 0; total_s = 0.; max_s = 0. }
  in
  let st name = (span name).Obs.Stats.total_s in
  let sum_spans pred =
    List.fold_left
      (fun acc (n, s) -> if pred n then acc +. s.Obs.Stats.total_s else acc)
      0. i.snap.Obs.Stats.spans
  in
  let gauge_sum suffix =
    List.fold_left
      (fun acc (n, v) ->
        if prefixed "pipeline." n && Filename.check_suffix n suffix then
          acc +. float_of_int v
        else acc)
      0. i.snap.Obs.Stats.counters
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  let extra name =
    match List.find_opt (fun (n, _, _) -> n = name) i.pass.Wl.extra with
    | Some (_, v, _) -> v
    | None -> 0.
  in
  let bmc_solve_s = st "bmc.solve" in
  let bmc_solves = float_of_int (span "bmc.solve").Obs.Stats.calls in
  let selfs = self_times i.events in
  let capacity = i.traced_wall *. float_of_int i.workload.Wl.jobs in
  let attributed = List.fold_left (fun acc (_, s) -> acc +. s) 0. selfs in
  let attempted = float_of_int i.pass.Wl.tally.Pstat.attempted in
  let hit_share =
    match i.pass.Wl.cache with
    | Some (h, m) -> ratio (float_of_int h) (float_of_int (h + m))
    | None -> 0.
  in
  let concluded s =
    float_of_int
      (Option.value (List.assoc_opt s i.pass.Wl.concluded) ~default:0)
  in
  List.concat
    [
      [
        ("textio.parse_s", i.parse_s, "s");
        ( "textio.parse_mb_per_s",
          ratio (float_of_int i.parsed_bytes /. 1e6) i.parse_s,
          "MB/s" );
        ("netlist.fingerprint_s", i.fingerprint_s, "s");
        ( "transform.com_s",
          st "pipeline.com-ret-com.com1" +. st "pipeline.com-ret-com.com2",
          "s" );
        ("transform.ret_s", st "pipeline.com-ret-com.ret", "s");
        ("transform.phase_s", st "pipeline.phase", "s");
        ("transform.regs_after", gauge_sum ".regs_after", "count");
        ("transform.ands_after", gauge_sum ".ands_after", "count");
        ("bound.s", st "bound.all_targets" +. st "bound.target", "s");
        ("bound.targets_analyzed", c "bound.targets_analyzed", "count");
      ];
      List.map
        (fun p ->
          let name = "bound.useful_share." ^ p in
          (name, extra name, "ratio"))
        [ "original"; "com"; "com-ret-com" ];
      List.map
        (fun s ->
          (Printf.sprintf "engine.%s_s" (slug s), st ("engine." ^ s), "s"))
        Wl.engine_strategies;
      List.map
        (fun s -> ("engine.concluded." ^ slug s, concluded s, "count"))
        Wl.engine_strategies;
      [
        ("engine.inconclusive", float_of_int i.pass.Wl.inconclusive, "count");
        ("engine.past_probe.p50_ms", i.past_probe_p50_ms, "ms");
        ("engine.past_probe.time_share", i.past_probe_time_share, "ratio");
        ("recurrence.compute_s", st "recurrence.compute", "s");
        ("recurrence.sat_calls", c "recurrence.sat_calls", "count");
        ("certify.s", sum_spans (prefixed "certify."), "s");
        ("engine.cert_ok", c "engine.cert_ok", "count");
        ("engine.cert_fail", c "engine.cert_fail", "count");
        ("bcache.hit_share", hit_share, "ratio");
        ("bcache.bound_seeded", c "engine.cache.bound_seeded", "count");
        ("bcache.evictions", c "serve.cache.evictions", "count");
        ("encode.vars", c "encode.vars", "count");
        ("encode.clauses", c "encode.clauses", "count");
        ( "encode.clauses_per_problem",
          ratio (c "encode.clauses") attempted,
          "count" );
        ("bmc.solve_s", bmc_solve_s, "s");
        ("bmc.solves", bmc_solves, "count");
        ("bmc.depth_reached", c "bmc.depth_reached", "count");
        ( "bmc.solves_per_depth",
          ratio bmc_solves (c "bmc.depth_reached" +. 1.),
          "ratio" );
        ("sat.solves", c "sat.solves", "count");
        ("sat.conflicts", c "sat.conflicts", "count");
        ("sat.decisions", c "sat.decisions", "count");
        ("sat.propagations", c "sat.propagations", "count");
        ("sat.restarts", c "sat.restarts", "count");
        ("sat.reduce_dbs", c "sat.reduce_dbs", "count");
        ( "sat.propagations_per_s",
          ratio (c "sat.propagations") bmc_solve_s,
          "1/s" );
        ("sat.simplify_s", st "sat.simplify", "s");
        ("sat.simplify.runs", c "sat.simplify.runs", "count");
        ( "sat.simplify.eliminated_vars",
          c "sat.simplify.eliminated_vars",
          "count" );
        ("sat.simplify_share", ratio (st "sat.simplify") bmc_solve_s, "ratio");
        ("sched.jobs_submitted", c "sched.jobs_submitted", "count");
        ("sched.jobs_completed", c "sched.jobs_completed", "count");
        ( "sched.cpu_util",
          ratio i.untraced_cpu
            (i.untraced_wall *. float_of_int i.workload.Wl.jobs),
          "ratio" );
        ("serve.coalesced", c "serve.coalesced", "count");
        ("serve.shed", c "serve.shed", "count");
        ("serve.errors", c "serve.errors", "count");
        ( "serve.handoff_ms_p50",
          Option.value i.pass.Wl.handoff_ms_p50 ~default:0.,
          "ms" );
        ("gc.minor_words", i.gc.minor_words, "count");
        ("gc.promoted_words", i.gc.promoted_words, "count");
        ("gc.minor_collections", float_of_int i.gc.minor_collections, "count");
        ("gc.major_collections", float_of_int i.gc.major_collections, "count");
        ( "obs.trace_overhead_share",
          ratio (i.traced_wall -. i.untraced_wall) i.untraced_wall,
          "ratio" );
        ( "layer.unattributed_share",
          ratio (capacity -. attributed) capacity,
          "ratio" );
      ];
      List.map (fun (l, s) -> (Printf.sprintf "self.%s_s" l, s, "s")) selfs;
    ]
