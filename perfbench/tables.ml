(* tables: the paper's Tables 1 and 2 — Original, COM and COM,RET,COM
   over every ISCAS89-like profile, and over every GP-like latch design
   after phase abstraction.  Transformation and the structural bound do
   all the work; no BMC runs. *)

open Perfbench_kit

let cutoff = 50

let reference_file = "tables.ref"

type design = {
  label : string;  (** "T1/<profile>" or "T2/<profile>" *)
  text : string;
  latched : bool;  (** a Table 2 design: phase-abstract first *)
}

let pipelines = [ "original"; "com"; "com-ret-com" ]

(* A .bench OUTPUT is also a target, so the recipe's observation
   outputs ("obs<i>", not targets of the paper's tables) are left out of
   the text the program reads; their logic stays in the design. *)
let bench_text net =
  Textio.Bench_io.to_string net
  |> String.split_on_char '\n'
  |> List.filter (fun l -> not (Layers.prefixed "OUTPUT(obs" l))
  |> String.concat "\n"

(* The designs are the paper's fixed tables, so the seed only permutes
   the order in which they run. *)
let designs ~seed =
  let mk table latched (p : Workload.Recipe.profile) net =
    {
      label = Printf.sprintf "%s/%s" table p.Workload.Recipe.name;
      text = bench_text net;
      latched;
    }
  in
  let all =
    List.map
      (fun p -> mk "T1" false p (Workload.Iscas.build p))
      Workload.Iscas.profiles
    @ List.map (fun p -> mk "T2" true p (Workload.Gp.build p)) Workload.Gp.profiles
  in
  let rng = Random.State.make [| seed |] in
  List.map (fun d -> (Random.State.bits rng, d)) all
  |> List.sort compare |> List.map snd

(* one design: its three pipeline summaries, and the time of each
   pipeline call *)
let run_design d =
  let net =
    Obs.Trace.with_span "perfbench.parse" (fun () ->
        Textio.Bench_io.parse d.text)
  in
  let net, phase_dt =
    if d.latched then
      let (abstracted, _translator), dt =
        Wl.timed (fun () ->
            Obs.Trace.with_span "perfbench.phase" (fun () ->
                Core.Pipeline.phase_front net))
      in
      (abstracted, [ dt ])
    else (net, [])
  in
  let run f = Wl.timed (fun () -> Core.Pipeline.summarize ~cutoff (f net)) in
  let results =
    [
      run Core.Pipeline.original;
      run (fun n -> Core.Pipeline.com n);
      run (fun n -> Core.Pipeline.com_ret_com n);
    ]
  in
  (List.map fst results, phase_dt @ List.map snd results)

let entry_of d summaries =
  List.map2
    (fun name (s : Core.Pipeline.summary) ->
      ( d.label ^ "/" ^ name,
        Printf.sprintf "%d/%d" s.Core.Pipeline.proved_small s.Core.Pipeline.total ))
    pipelines summaries

let pass designs reference () =
  let results = List.map (fun d -> (d, run_design d)) designs in
  let entries =
    List.concat_map (fun (d, (sums, _)) -> entry_of d sums) results
    |> List.sort compare
  in
  (* every design's |T'|/|T|, exactly the stored list: this also holds
     the useful-target total at the reference's 788 *)
  let mismatches =
    match reference with
    | None -> [ "no reference file " ^ reference_file ]
    | Some stored -> (
      match Reference.diff reference_file ~stored entries with
      | Ok () -> []
      | Error e -> [ e ])
  in
  let nth_sum i f =
    List.fold_left (fun acc (_, (sums, _)) -> acc + f (List.nth sums i)) 0 results
  in
  let useful i = nth_sum i (fun s -> s.Core.Pipeline.proved_small) in
  let total i = nth_sum i (fun s -> s.Core.Pipeline.total) in
  let ops = List.concat_map (fun (_, (_, dts)) -> dts) results in
  let labels =
    List.concat_map
      (fun (d, _) ->
        (if d.latched then [ d.label ^ "/phase" ] else [])
        @ List.map (fun p -> d.label ^ "/" ^ p) pipelines)
      results
  in
  let share i = float_of_int (useful i) /. float_of_int (max 1 (total i)) in
  {
    Wl.empty_pass with
    latencies = ops;
    labels;
    tally = { Pstat.empty_tally with attempted = List.length ops };
    decided = useful 2;
    decided_of = total 2;
    mismatches;
    parsed_bytes =
      List.fold_left (fun acc d -> acc + String.length d.text) 0 designs;
    extra =
      [
        ("useful_targets", float_of_int (useful 2), "count");
        ("bound.useful_share.original", share 0, "ratio");
        ("bound.useful_share.com", share 1, "ratio");
        ("bound.useful_share.com-ret-com", share 2, "ratio");
      ];
  }

(* the |T'|/|T| entries of one run, for --write-reference *)
let entries ~seed =
  List.concat_map (fun d -> entry_of d (fst (run_design d))) (designs ~seed)
  |> List.sort compare

let make ~seed =
  let reference = Reference.load reference_file in
  {
    Wl.name = "tables";
    jobs = 1;
    sequential = true;
    min_passes = 1;
    pass = pass (designs ~seed) reference;
    time_inputs = None;
  }
