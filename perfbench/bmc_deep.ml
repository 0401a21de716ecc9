(* bmc-deep: Bmc.check to a fixed depth, one long-lived incremental
   solver per design — the sat/encode/bmc layers used the other way
   round from the ladder's many short-lived solvers. *)

open Perfbench_kit

module Net = Netlist.Net

type design = {
  label : string;
  text : string;  (** what the program reads *)
  depth : int;
  answer : Reference.answer;
}

let design label net depth =
  let lit = List.assoc "t" (Net.targets net) in
  match Reference.compute net lit with
  | Some answer ->
    { label; text = Textio.Bench_io.to_string net; depth; answer }
  | None -> failwith ("bmc-deep: no exact reference for " ^ label)

(* the duplicated-function guard of the bmc experiment: only variable
   elimination or sweeping sees that it is constant false, so the
   counter behind it never moves *)
let comguard ~seed =
  let net = Net.create () in
  let rng = Workload.Rng.create seed in
  let inputs = List.init 8 (fun i -> Net.add_input net (Printf.sprintf "i%d" i)) in
  let g = Workload.Gen.com_guard net rng ~inputs in
  let c = Workload.Gen.counter net ~name:"c" ~bits:6 ~enable:g in
  Net.add_target net "t" c.Workload.Gen.out;
  (* a .bench target is an OUTPUT *)
  Net.add_output net "t" c.Workload.Gen.out;
  net

let designs ~seed =
  [
    (* hit exactly at the last depth: 127 counting refutations first *)
    design "gated7" (Problems.gated_counter 7) 127;
    (* all 151 depths unsatisfiable *)
    design "gated8" (Problems.gated_counter 8) 150;
    design "comguard" (comguard ~seed) 40;
  ]

let matches answer = function
  | Bmc.Hit cex -> answer = Reference.Hit cex.Bmc.depth
  | Bmc.No_hit n -> (
    match answer with Reference.Unreachable -> true | Hit h -> h > n)
  | Bmc.Unknown _ -> true

let brief = function
  | Bmc.Hit cex -> Printf.sprintf "hit@%d" cex.Bmc.depth
  | Bmc.No_hit n -> Printf.sprintf "no-hit..%d" n
  | Bmc.Unknown { after; why } -> Printf.sprintf "unknown@%d (%s)" after why

let pass designs () =
  let results =
    List.map
      (fun d ->
        let outcome, dt =
          Wl.timed (fun () ->
              let net =
                Obs.Trace.with_span "perfbench.parse" (fun () ->
                    Textio.Bench_io.parse d.text)
              in
              Obs.Trace.with_span "perfbench.bmc" (fun () ->
                  Bmc.check net ~target:"t" ~depth:d.depth))
        in
        (d, String.length d.text, outcome, dt))
      designs
  in
  let n = List.length designs in
  let decided =
    List.length
      (List.filter
         (fun (_, _, o, _) -> match o with Bmc.Unknown _ -> false | _ -> true)
         results)
  in
  {
    Wl.empty_pass with
    latencies = List.map (fun (_, _, _, dt) -> dt) results;
    labels = List.map (fun (d, _, _, _) -> d.label) results;
    tally = { Pstat.empty_tally with attempted = n };
    decided;
    decided_of = n;
    mismatches =
      List.filter_map
        (fun (d, _, o, _) ->
          if matches d.answer o then None
          else
            Some
              (Printf.sprintf "%s: %s (reference %s)" d.label (brief o)
                 (Reference.to_string d.answer)))
        results;
    inconclusive = n - decided;
    parsed_bytes = List.fold_left (fun acc (_, b, _, _) -> acc + b) 0 results;
  }

let make ~seed =
  let designs = designs ~seed in
  ( {
      Wl.name = "bmc-deep";
      jobs = 1;
      sequential = true;
      min_passes = 1;
      pass = pass designs;
      time_inputs = None;
    },
    List.map (fun d -> (d.label ^ "/t", Reference.to_string d.answer)) designs )
