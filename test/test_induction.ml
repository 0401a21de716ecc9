module Net = Netlist.Net
module Lit = Netlist.Lit

let test_inductive_invariant () =
  (* complementary flags: inductive at k = 0 (the step case alone
     suffices... after the base state excludes the bad combination) *)
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let r0 = Net.add_reg net ~init:Net.Init0 "r0" in
  let r1 = Net.add_reg net ~init:Net.Init1 "r1" in
  Net.set_next net r0 a;
  Net.set_next net r1 (Lit.neg a);
  Net.add_target net "both" (Net.add_and net r0 r1);
  match Core.Induction.prove net ~target:"both" with
  | Core.Induction.Proved k -> Helpers.check_bool "small k" true (k <= 1)
  | Core.Induction.Cex _ -> Alcotest.fail "property holds"
  | Core.Induction.Unknown _ | Core.Induction.Exhausted _ ->
    Alcotest.fail "property is inductive"

let test_needs_uniqueness () =
  (* a ring counter's unreachable pattern: plain induction fails at
     every k (the bad states are closed under the transition), but
     simple-path uniqueness terminates *)
  let net = Net.create () in
  let ring = Workload.Gen.ring net ~name:"r" ~length:4 in
  (* two tokens at once: unreachable from the one-hot initial state *)
  let t =
    match ring.Workload.Gen.regs with
    | a :: b :: _ -> Net.add_and net a b
    | _ -> assert false
  in
  Net.add_target net "two_tokens" t;
  (match Core.Induction.prove ~unique:false ~max_k:6 net ~target:"two_tokens" with
  | Core.Induction.Unknown _ -> ()
  | Core.Induction.Proved k ->
    (* plain induction may still close it at some k; accept but record *)
    Helpers.check_bool "proved without uniqueness" true (k >= 0)
  | Core.Induction.Cex _ | Core.Induction.Exhausted _ ->
    Alcotest.fail "property holds");
  match Core.Induction.prove ~unique:true ~max_k:20 net ~target:"two_tokens" with
  | Core.Induction.Proved _ -> ()
  | Core.Induction.Cex _ -> Alcotest.fail "property holds"
  | Core.Induction.Unknown _ | Core.Induction.Exhausted _ ->
    Alcotest.fail "uniqueness makes the ring provable"

let test_finds_counterexample () =
  let net = Net.create () in
  let c = Workload.Gen.counter net ~name:"c" ~bits:3 ~enable:Lit.true_ in
  Net.add_target net "t" c.Workload.Gen.out;
  match Core.Induction.prove net ~target:"t" with
  | Core.Induction.Cex cex ->
    Helpers.check_int "counter saturates at 7" 7 cex.Bmc.depth;
    Helpers.check_bool "replay" true
      (Bmc.replay net (List.assoc "t" (Net.targets net)) cex)
  | Core.Induction.Proved _ | Core.Induction.Unknown _
  | Core.Induction.Exhausted _ ->
    Alcotest.fail "counter does reach all-ones"

let test_combinational () =
  let net = Net.create () in
  let a = Net.add_input net "a" in
  Net.add_target net "t" (Net.add_and net a (Lit.neg a));
  match Core.Induction.prove net ~target:"t" with
  | Core.Induction.Proved 0 -> ()
  | _ -> Alcotest.fail "constant-false target proved immediately"

let test_gives_up () =
  (* a deep counter's saturation is true but beyond max_k's base
     case reach only if the target is reachable late; use an
     unreachable variant instead: counter with enable stuck low is
     provable but a free counter's all-ones needs depth 2^b - 1 *)
  let net = Net.create () in
  let c = Workload.Gen.counter net ~name:"c" ~bits:6 ~enable:Lit.true_ in
  Net.add_target net "t" c.Workload.Gen.out;
  match Core.Induction.prove ~max_k:3 net ~target:"t" with
  | Core.Induction.Unknown k -> Helpers.check_int "gave up at max_k" 3 k
  | Core.Induction.Cex _ -> Alcotest.fail "not reachable within k=3"
  | Core.Induction.Proved _ -> Alcotest.fail "reachable at 63, not provable"
  | Core.Induction.Exhausted _ -> Alcotest.fail "no budget was given"

let prop_agrees_with_exact =
  Helpers.qtest ~count:30 "induction results agree with explicit search"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, t = Helpers.rand_net_with_target seed ~inputs:2 ~regs:4 ~gates:8 in
      Net.add_target net "p" t;
      match Core.Induction.prove ~max_k:8 net ~target:"p" with
      | Core.Induction.Unknown _ -> true
      | Core.Induction.Exhausted _ -> false (* no budget given *)
      | Core.Induction.Proved _ -> (
        match Core.Exact.explore net t with
        | None -> true
        | Some e -> e.Core.Exact.earliest_hit = None)
      | Core.Induction.Cex cex -> (
        Bmc.replay net t cex
        &&
        match Core.Exact.explore net t with
        | None -> true
        | Some e -> e.Core.Exact.earliest_hit = Some cex.Bmc.depth))

let suite =
  [
    Alcotest.test_case "inductive invariant" `Quick test_inductive_invariant;
    Alcotest.test_case "uniqueness needed" `Quick test_needs_uniqueness;
    Alcotest.test_case "counterexample" `Quick test_finds_counterexample;
    Alcotest.test_case "combinational" `Quick test_combinational;
    Alcotest.test_case "gives up" `Quick test_gives_up;
    prop_agrees_with_exact;
  ]

(* ----- differential: incremental step case vs per-k from scratch -----

   The oracle is the step case as it was encoded before the search kept
   one solver: for every k a fresh solver with frames 0..k+1 chained
   from a free state, frames 0..k hit-free, all pairs distinct under
   [unique], and the target at frame k+1 as the assumption.  The base
   case is the library's own per-k BMC run, so any disagreement is the
   step encoding's. *)

module Solver = Backend

let oracle_step ~unique net target k =
  let solver = Solver.create () in
  let frames = Array.init (k + 2) (fun _ -> Encode.Frame.create solver net) in
  let regs = Net.regs net in
  for i = 0 to k do
    List.iter
      (fun r ->
        let n = Encode.Frame.lit frames.(i) (Net.reg_of net r).Net.next in
        let s = Encode.Frame.state_var frames.(i + 1) r in
        Solver.add_clause solver [ Solver.negate n; s ];
        Solver.add_clause solver [ n; Solver.negate s ])
      regs;
    Solver.add_clause solver
      [ Solver.negate (Encode.Frame.lit frames.(i) target) ]
  done;
  if unique then
    for i = 0 to k do
      for j = i + 1 to k + 1 do
        Solver.add_clause solver
          (List.map
             (fun r ->
               let a = Encode.Frame.state_var frames.(i) r in
               let b = Encode.Frame.state_var frames.(j) r in
               let d = Solver.pos (Solver.new_var solver) in
               Solver.add_clause solver [ Solver.negate d; a; b ];
               Solver.add_clause solver
                 [ Solver.negate d; Solver.negate a; Solver.negate b ];
               d)
             regs)
      done
    done;
  let goal = Encode.Frame.lit frames.(k + 1) target in
  Solver.solve ~assumptions:[ goal ] solver = Solver.Unsat

let oracle_prove ~max_k ~unique net tlit =
  let rec go k =
    if k > max_k then Core.Induction.Unknown max_k
    else
      match Bmc.check_lit net tlit ~depth:k with
      | Bmc.Hit cex -> Core.Induction.Cex cex
      | Bmc.Unknown { why; _ } -> Core.Induction.Exhausted { k; why }
      | Bmc.No_hit _ ->
        if Net.regs net = [] then Core.Induction.Proved 0
        else if oracle_step ~unique net tlit k then Core.Induction.Proved k
        else go (k + 1)
  in
  go 0

let same_outcome a b =
  match (a, b) with
  | Core.Induction.Proved k1, Core.Induction.Proved k2 -> k1 = k2
  | Core.Induction.Unknown k1, Core.Induction.Unknown k2 -> k1 = k2
  | Core.Induction.Cex c1, Core.Induction.Cex c2 -> c1 = c2
  | _ -> false

let agrees_with_oracle ~max_k net t =
  let name = Printf.sprintf "p%d" (List.length (Net.targets net)) in
  Net.add_target net name t;
  List.for_all
    (fun unique ->
      same_outcome
        (Core.Induction.prove ~max_k ~unique net ~target:name)
        (oracle_prove ~max_k ~unique net t))
    [ true; false ]

(* random targets mostly hit at depth 0 or 1; conjunctions of register
   literals that survive depth 1 reach the step case at larger k *)
let quiet_targets net =
  let lits =
    List.concat_map
      (fun r -> [ Lit.make r; Lit.neg (Lit.make r) ])
      (Net.regs net)
  in
  List.concat_map (fun a -> List.map (fun b -> Net.add_and net a b) lits) lits
  |> List.filter (fun t ->
         (not (Lit.is_const t))
         &&
         match Bmc.check_lit net t ~depth:1 with
         | Bmc.No_hit _ -> true
         | Bmc.Hit _ | Bmc.Unknown _ -> false)
  |> List.filteri (fun i _ -> i mod 7 = 0)

let prop_matches_oracle =
  Helpers.qtest ~count:60 "induction: incremental step = per-k from scratch"
    QCheck.(pair (int_bound 1000000) (int_range 4 6))
    (fun (seed, regs) ->
      let net, t =
        Helpers.rand_net_with_target seed ~inputs:2 ~regs ~gates:(2 * regs)
      in
      List.for_all (agrees_with_oracle ~max_k:10 net) (t :: quiet_targets net))

let test_matches_oracle_structured () =
  let pipeline stages data_of =
    let net = Net.create () in
    let data = data_of net in
    (net, (Workload.Gen.pipeline net ~name:"p" ~stages ~data).Workload.Gen.out)
  in
  List.iter
    (fun n ->
      (* free data: hit at depth n; constant data: proved near k = n;
         a ring's two tokens: needs uniqueness *)
      let free = pipeline n (fun net -> Net.add_input net "a") in
      let stuck = pipeline n (fun _ -> Lit.false_) in
      let ring =
        let net = Net.create () in
        let r = Workload.Gen.ring net ~name:"r" ~length:(n + 1) in
        match r.Workload.Gen.regs with
        | x :: y :: _ -> (net, Net.add_and net x y)
        | _ -> assert false
      in
      List.iter
        (fun (what, (net, t)) ->
          Helpers.check_bool
            (Printf.sprintf "%s %d agrees" what n)
            true
            (agrees_with_oracle ~max_k:8 net t))
        [ ("free pipeline", free); ("stuck pipeline", stuck); ("ring", ring) ])
    [ 1; 2; 3; 4; 5 ]

let suite =
  suite
  @ [
      prop_matches_oracle;
      Alcotest.test_case "oracle on pipelines and rings" `Quick
        test_matches_oracle_structured;
    ]
