(* Verification problems shared by the ladder and serve workloads:
   fuzz-bred designs (Workload.Fuzz) written out as .bench text, each
   target paired with its exact reference answer. *)

module Net = Netlist.Net

type t = {
  key : string;  (** "<case label>/<target>", stable across runs *)
  text : string;  (** the design as .bench text: what the program reads *)
  target : string;
  answer : Reference.answer;
  species : Workload.Fuzz.species option;  (** [None] for hand-built anchors *)
}

let probe_depth = Core.Engine.default.Core.Engine.probe_depth

(* A problem past the probe: its target is unreachable or first hit
   deeper than the probe, so a later rung (a bound discharge, the
   recurrence, k-induction) must conclude it. *)
let past_probe p =
  match p.answer with Reference.Hit d -> d > probe_depth | Unreachable -> true

(* The recurrence tail: mixed designs whose earliest hit lies past the
   shallow probe.  On these the ladder falls through to the bounded-COI
   recurrence and k-induction, at 0.05 to 5 s per problem.  So few of
   them occur per seed that their count, not the code, would decide a
   pass's wall time; they are kept out of the seeded draw and enter the
   ladder as fixed anchors instead. *)
let in_tail_stratum species answer =
  species = Some Workload.Fuzz.Mixed
  && match answer with Reference.Hit d -> d > probe_depth | Unreachable -> false

let of_net ~label ?species net =
  let text = Textio.Bench_io.to_string net in
  List.filter_map
    (fun (target, lit) ->
      match Reference.compute net lit with
      | None -> None
      | Some answer ->
        Some { key = label ^ "/" ^ target; text; target; answer; species })
    (Net.targets net)

(* every target of fuzz cases [0 .. cases-1] of campaign [seed], minus
   the tail stratum *)
let fuzz ~seed ~cases =
  List.concat_map
    (fun i ->
      let c = Workload.Fuzz.case ~seed i in
      of_net ~label:c.Workload.Fuzz.label ~species:c.Workload.Fuzz.species
        c.Workload.Fuzz.net)
    (List.init cases Fun.id)
  |> List.filter (fun p -> not (in_tail_stratum p.species p.answer))

(* a counter behind a free enable input: every depth below 2^bits - 1
   is a counting refutation, and every ladder rung stands down on it *)
let gated_counter bits =
  let net = Net.create () in
  let en = Net.add_input net "en" in
  let c = Workload.Gen.counter net ~name:"c" ~bits ~enable:en in
  Net.add_target net "t" c.Workload.Gen.out;
  (* a .bench target is an OUTPUT *)
  Net.add_output net "t" c.Workload.Gen.out;
  net

(* The first [n] problems of each species in [quota], scanning fuzz
   cases 0, 1, ... of campaign [seed]; the tail stratum is skipped. *)
let fuzz_quota ~seed quota =
  let left = Hashtbl.create 8 in
  List.iter (fun (s, n) -> Hashtbl.replace left s n) quota;
  let wanted s = Option.value (Hashtbl.find_opt left s) ~default:0 > 0 in
  let rec scan i acc =
    if not (List.exists (fun (s, _) -> wanted s) quota) then List.rev acc
    else
      (* case [i] is of species [i mod 6]: skip building the others *)
      let species = List.nth Workload.Fuzz.all_species (i mod 6) in
      if not (wanted species) then scan (i + 1) acc
      else
        let c = Workload.Fuzz.case ~seed i in
        let taken =
          of_net ~label:c.Workload.Fuzz.label ~species c.Workload.Fuzz.net
          |> List.filter (fun p -> not (in_tail_stratum p.species p.answer))
          |> List.filteri (fun k _ -> k < Hashtbl.find left species)
        in
        Hashtbl.replace left species
          (Hashtbl.find left species - List.length taken);
        scan (i + 1) (List.rev_append taken acc)
  in
  scan 0 []

let reference_entries problems =
  List.map (fun p -> (p.key, Reference.to_string p.answer)) problems
