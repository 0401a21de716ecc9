(* ladder: sequential certified Engine.verify over fuzz-bred problems,
   one (design, target) at a time, parsing inside each timed problem. *)

open Perfbench_kit

(* Fixed anchors, the same on every seed: the gated counter of the
   backend experiment, which stands every rung down, and two members of
   the recurrence tail found by fuzz campaign seed 1 (earliest hits at
   15 and 18, past the 10-deep probe; k-induction concludes the first,
   nothing concludes the second). *)
let anchors () =
  Problems.of_net ~label:"anchor-gated6" (Problems.gated_counter 6)
  @ List.concat_map
      (fun i ->
        let c = Workload.Fuzz.case ~seed:1 i in
        Problems.of_net
          ~label:("anchor-s1-" ^ c.Workload.Fuzz.label)
          ~species:c.Workload.Fuzz.species c.Workload.Fuzz.net)
      [ 371; 161 ]

(* The seeded draw, weighted toward the species whose hit tends to lie
   past the probe (mixed outside the tail stratum, deep counterexamples).
   Per-problem latency is bimodal: probe hits take ~0.3 ms, bound
   discharges 1-40 ms.  With about 70% probe hits the median lies
   inside the fast mode, not in the gap between the modes where a
   few problems more or less would move it. *)
let quota =
  Workload.Fuzz.
    [
      (Mixed, 300);
      (Deep_cex, 75);
      (Near_miss, 45);
      (Retiming_hostile, 45);
      (Reconvergent, 60);
      (Wide_memory, 60);
    ]

let problems ~seed = anchors () @ Problems.fuzz_quota ~seed quota

let run_problem (p : Problems.t) =
  let net =
    Obs.Trace.with_span "perfbench.parse" (fun () ->
        Textio.Bench_io.parse p.text)
  in
  Obs.Trace.with_span "perfbench.verify" (fun () ->
      Core.Engine.verify ~budget:(Wl.problem_budget ()) ~certify:true net
        ~target:p.target)

let pass problems () =
  let results =
    List.map
      (fun (p : Problems.t) ->
        let v, dt = Wl.timed (fun () -> run_problem p) in
        (p, v, dt))
      problems
  in
  let verdicts = List.map (fun (_, v, _) -> v) results in
  let mismatches =
    List.filter_map
      (fun ((p : Problems.t), v, _) ->
        if Reference.contradicts p.answer (Reference.of_engine v) then
          Some
            (Format.asprintf "%s: %a (reference %s)" p.key
               Core.Engine.pp_verdict v (Reference.to_string p.answer))
        else None)
      results
  in
  let decided = List.length (List.filter_map Wl.verdict_strategy verdicts) in
  let n = List.length problems in
  {
    Wl.empty_pass with
    latencies = List.map (fun (_, _, dt) -> dt) results;
    past_probe =
      List.filter_map
        (fun (p, _, dt) -> if Problems.past_probe p then Some dt else None)
        results;
    labels = List.map (fun ((p : Problems.t), _, _) -> p.key) results;
    tally = { Pstat.empty_tally with attempted = n };
    decided;
    decided_of = n;
    mismatches;
    concluded = Wl.count_strategies (List.filter_map Wl.verdict_strategy verdicts);
    inconclusive = n - decided;
    parsed_bytes =
      List.fold_left
        (fun acc (p : Problems.t) -> acc + String.length p.text)
        0 problems;
  }

let make ~seed =
  let problems = problems ~seed in
  ( {
      Wl.name = "ladder";
      jobs = 1;
      sequential = true;
      min_passes = 1;
      pass = pass problems;
      time_inputs = None;
    },
    Problems.reference_entries problems )
