(* The repository benchmark.  Runs one named workload from a seed for
   a given number of seconds and prints every metric by name with its
   unit, then one JSON result line.  See perfbench/README.md; the usual
   entry point is [python3 perfbench/run.py], which builds this program
   first. *)

open Perfbench_kit

let usage =
  "perfbench --workload ladder|bmc-deep|tables|serve --seed N --seconds S \
   --trace 0|1 [--write-reference]"

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  setup_child : bool;
  write_reference : bool;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 in
  let setup_child = ref false and write_reference = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (traced) run");
      ("--setup-child", Arg.Set setup_child, " program set-up only (setup_s)");
      ( "--write-reference",
        Arg.Set write_reference,
        " store the reference file for this seed" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload [ "ladder"; "bmc-deep"; "tables"; "serve" ])
  then begin
    prerr_endline usage;
    exit 2
  end;
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace <> 0;
    setup_child = !setup_child;
    write_reference = !write_reference;
  }

(* the program's process-level defaults, pinned so the environment of
   the caller cannot change what is measured *)
let program_init () =
  Backend.set_default (Backend.Single (Backend.reference ()));
  Sat.Solver.set_inprocess_default true;
  Obs.Stats.reset ();
  ignore (Backend.default_solver () : Backend.solver)

(* ---- setup_s: spawn to "ready" of a process doing only set-up ---- *)

let setup_child workload =
  let ready () = print_endline "ready" in
  program_init ();
  if workload = "serve" then Serve_load.setup ~ready else ready ()

(* Spawns spread over about a second, so that a short burst of load
   on the machine moves only a few of them, not the median. *)
let setup_repeats = 45
let setup_gap_s = 0.02

let measure_setup workload =
  let once () =
    let r, w = Unix.pipe ~cloexec:true () in
    let t0 = Unix.gettimeofday () in
    let pid =
      Unix.create_process Sys.executable_name
        [| Sys.executable_name; "--workload"; workload; "--setup-child" |]
        Unix.stdin w Unix.stderr
    in
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let line = In_channel.input_line ic in
    let dt = Unix.gettimeofday () -. t0 in
    close_in ic;
    match (line, snd (Unix.waitpid [] pid)) with
    | Some "ready", Unix.WEXITED 0 ->
      Unix.sleepf setup_gap_s;
      dt
    | _ -> failwith "set-up child failed"
  in
  Option.get (Pstat.median (List.init setup_repeats (fun _ -> once ())))

(* exact counters of earlier runs and the traced pass's trace file,
   inside the benchmark's build directory *)
let state_dir = Filename.concat ".bench_build" "perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

(* ---- one pass, with everything measured around it ---- *)

type measured = {
  pass : Wl.pass;
  wall : float;
  cpu : float;
  snap : Obs.Stats.snapshot;
  gc : Layers.gc;
}

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let counter snap name =
  Option.value (List.assoc_opt name snap.Obs.Stats.counters) ~default:0

let run_pass (w : Wl.t) =
  Obs.Stats.reset ();
  let g0 = Layers.gc_now () and c0 = cpu_now () and t0 = Wl.now () in
  let pass = w.Wl.pass () in
  let wall = Wl.now () -. t0 and cpu = cpu_now () -. c0 in
  let gc = Layers.gc_delta g0 (Layers.gc_now ()) in
  let snap = Obs.Stats.snapshot () in
  let tally =
    { pass.Wl.tally with Pstat.cert_fail = counter snap "engine.cert_fail" }
  in
  { pass = { pass with Wl.tally }; wall; cpu; snap; gc }

(* passes until [seconds] have gone by, at least [w.min_passes] *)
let run_passes (w : Wl.t) seconds =
  let t0 = Wl.now () in
  let rec go n acc =
    let acc = run_pass w :: acc in
    if n >= w.Wl.min_passes && Wl.now () -. t0 >= seconds then List.rev acc
    else go (n + 1) acc
  in
  go 1 []

(* ---- exact counters ---- *)

let exact_counters snap =
  String.concat " "
    (List.map
       (fun n -> Printf.sprintf "%s=%d" n (counter snap n))
       [
         "sat.conflicts";
         "sat.decisions";
         "sat.solves";
         "encode.clauses";
         "bmc.depth_reached";
         "recurrence.sat_calls";
       ])

(* Sequential workloads must repeat their counters exactly: across the
   passes of this run, and against the previous run of the same build
   on the same seed (kept under [state_dir]).  Returns the problems found. *)
let check_counters args (w : Wl.t) passes =
  let all = List.map (fun m -> exact_counters m.snap) passes in
  let first = List.hd all in
  Printf.printf "exact counters: %s\n" first;
  if not w.Wl.sequential then begin
    print_endline "exact counters: not gated (coalescing depends on timing)";
    []
  end
  else begin
    let within =
      if List.for_all (( = ) first) all then []
      else [ "exact counters differ between passes of this run" ]
    in
    (* keyed by the program's digest: another build may legitimately
       count differently *)
    let build =
      String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12
    in
    mkdir_p state_dir;
    let file =
      Filename.concat state_dir
        (Printf.sprintf "counters-%s-%d-%s.txt" w.Wl.name args.seed build)
    in
    let previous =
      if Sys.file_exists file then
        Some (String.trim (In_channel.with_open_text file In_channel.input_all))
      else None
    in
    Out_channel.with_open_text file (fun oc -> output_string oc (first ^ "\n"));
    match previous with
    | None ->
      print_endline "exact counters: first run of this build on this seed";
      within
    | Some p when p = first ->
      print_endline "exact counters: repeat the previous run exactly";
      within
    | Some p ->
      within
      @ [
          Printf.sprintf
            "exact counters differ from the previous run on seed %d (was: %s)"
            args.seed p;
        ]
  end

(* ---- output ---- *)

let print_metrics ?(indent = "") metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "%s%-32s %16.6f %s\n" indent name v unit)
    metrics

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct (tally : Pstat.tally) metrics =
  List.iter
    (fun (n, _, _) ->
      if not (Pstat.valid_name n) then failwith ("bad metric name " ^ n))
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct tally.Pstat.attempted (Pstat.failed tally) body

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
  |> Option.value ~default:nan

let median_of f ms = Option.get (Pstat.median (List.map f ms))

let print_run_summary (w : Wl.t) args passes =
  let first = (List.hd passes).pass in
  Printf.printf "workload %s, seed %d: %d passes, %d operations per pass\n"
    w.Wl.name args.seed (List.length passes)
    (List.length first.Wl.latencies);
  let slowest =
    List.combine first.Wl.labels first.Wl.latencies
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
    |> List.filteri (fun i _ -> i < 5)
  in
  Printf.printf "slowest operations: %s\n"
    (String.concat ", "
       (List.map
          (fun (l, dt) -> Printf.sprintf "%s %.1f ms" l (1e3 *. dt))
          slowest));
  Printf.printf "pass wall times: %s s\n"
    (String.concat " " (List.map (fun m -> Printf.sprintf "%.3f" m.wall) passes))

(* The problems past the probe, pooled over [passes]: per pass, their
   count; their median latency (ms); their share of the time spent in
   problems.  0 on workloads without them. *)
let past_probe_stats passes =
  let pooled f = List.concat_map (fun m -> f m.pass) passes in
  let sum = List.fold_left ( +. ) 0. in
  let past = pooled (fun p -> p.Wl.past_probe) in
  let all = pooled (fun p -> p.Wl.latencies) in
  ( List.length (List.hd passes).pass.Wl.past_probe,
    1e3 *. Option.value (Pstat.median past) ~default:0.,
    if past = [] then 0. else sum past /. sum all )

(* the end-to-end metrics, plus the figures printed beside them *)
let end_to_end ~setup_s passes tally =
  let first = (List.hd passes).pass in
  let samples = List.concat_map (fun m -> m.pass.Wl.latencies) passes in
  let n = List.length samples in
  let metrics =
    [
      ("setup_s", setup_s, "s");
      ("wall_s", median_of (fun m -> m.wall) passes, "s");
      ("cpu_s", median_of (fun m -> m.cpu) passes, "s");
      ("latency_p50_ms", 1e3 *. Option.get (Pstat.median samples), "ms");
      ( "decided_share",
        float_of_int first.Wl.decided /. float_of_int (max 1 first.Wl.decided_of),
        "ratio" );
      ("peak_rss_mb", peak_rss_mb (), "MB");
    ]
  in
  print_metrics metrics;
  Printf.printf "%-32s %16d samples\n" "latency_samples" n;
  (match Pstat.tail_percentile 99. samples with
  | Some p99 ->
    Printf.printf "%-32s %16.6f ms (%d samples beyond it)\n" "latency_p99_ms"
      (1e3 *. p99) (Pstat.beyond 99. n)
  | None ->
    Printf.printf "%-32s %16s (needs 10 samples beyond it)\n" "latency_p99_ms"
      "n/a");
  Printf.printf "%-32s %16.6f ratio (%d of %d failed)\n" "fail_share"
    (Pstat.fail_share tally) (Pstat.failed tally) tally.Pstat.attempted;
  print_metrics first.Wl.extra;
  (match past_probe_stats passes with
  | 0, _, _ -> ()
  | count, p50, share ->
    Printf.printf
      "past the probe: %d of %d problems, p50 %.3f ms, %.1f%% of problem time\n"
      count (List.length first.Wl.latencies) p50 (100. *. share));
  metrics

(* One more pass with Obs.Trace on; its per-layer metrics, and any
   problem it shows.  [untraced] are the passes timed before it. *)
let traced_run (w : Wl.t) untraced =
  let first = List.hd untraced in
  let inputs_timed = Option.map (fun f -> f ()) w.Wl.time_inputs in
  mkdir_p state_dir;
  let file =
    Filename.concat state_dir (Printf.sprintf "trace-%s.json" w.Wl.name)
  in
  Obs.Trace.start ~format:Obs.Trace.Chrome file;
  let traced = run_pass w in
  Obs.Trace.stop ();
  let events = Obs.Trace.read_file file in
  Sys.remove file;
  let parse_s, fingerprint_s =
    match inputs_timed with
    | Some timed -> timed
    | None -> (Layers.span_total events "perfbench.parse", 0.)
  in
  let untraced_wall = median_of (fun m -> m.wall) untraced in
  let _, past_probe_p50_ms, past_probe_time_share = past_probe_stats untraced in
  let metrics =
    Layers.metrics
      {
        Layers.workload = w;
        pass = traced.pass;
        snap = traced.snap;
        events;
        traced_wall = traced.wall;
        untraced_wall;
        untraced_cpu = median_of (fun m -> m.cpu) untraced;
        gc = first.gc;
        parse_s;
        fingerprint_s;
        parsed_bytes = traced.pass.Wl.parsed_bytes;
        past_probe_p50_ms;
        past_probe_time_share;
      }
  in
  Printf.printf "traced pass: %.6f s (untraced median %.6f s), %d trace events\n"
    traced.wall untraced_wall (List.length events);
  print_metrics ~indent:"  " metrics;
  let moved =
    w.Wl.sequential && exact_counters traced.snap <> exact_counters first.snap
  in
  ( metrics,
    traced.pass.Wl.mismatches
    @ if moved then [ "exact counters of the traced pass differ" ] else [] )

(* ---- main ---- *)

let reference_name args = Printf.sprintf "%s-%d.ref" args.workload args.seed

let build args =
  match args.workload with
  | "ladder" -> Ladder.make ~seed:args.seed
  | "bmc-deep" -> Bmc_deep.make ~seed:args.seed
  | "serve" -> Serve_load.make ~seed:args.seed
  | _ -> (Tables.make ~seed:args.seed, [])

let main args =
  program_init ();
  let w, entries = build args in
  if args.write_reference then begin
    if w.Wl.name = "tables" then
      Reference.save Tables.reference_file (Tables.entries ~seed:args.seed)
    else Reference.save (reference_name args) entries;
    print_endline "reference written";
    exit 0
  end;
  let stale =
    match Reference.check_stored (reference_name args) entries with
    | Ok () -> []
    | Error e -> [ e ]
  in
  let setup_s = measure_setup args.workload in
  let passes =
    run_passes w (if args.trace then args.seconds /. 2. else args.seconds)
  in
  let tally =
    List.fold_left
      (fun acc m -> Pstat.add_tally acc m.pass.Wl.tally)
      Pstat.empty_tally passes
  in
  let counter_problems = check_counters args w passes in
  print_run_summary w args passes;
  let untraced = end_to_end ~setup_s passes tally in
  let metrics, traced_problems =
    if args.trace then traced_run w passes else (untraced, [])
  in
  let problems =
    stale
    @ List.concat_map (fun m -> m.pass.Wl.mismatches) passes
    @ counter_problems @ traced_problems
  in
  List.iter (fun m -> Printf.printf "MISMATCH %s\n" m) problems;
  let correct = problems = [] in
  print_result ~correct tally metrics;
  exit (if correct then 0 else 1)

let () =
  let args = parse_args () in
  if args.setup_child then setup_child args.workload else main args
