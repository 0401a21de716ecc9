module Net = Netlist.Net
module Lit = Netlist.Lit

let test_free_counter () =
  (* the longest loop-free path of a free-running 2-bit counter visits
     all 4 states: recurrence diameter 3, bound 4 *)
  let net = Net.create () in
  let c = Workload.Gen.counter net ~name:"c" ~bits:2 ~enable:Lit.true_ in
  Net.add_target net "t" c.Workload.Gen.out;
  let r = Core.Recurrence.compute net (List.assoc "t" (Net.targets net)) in
  Helpers.check_int "path length" 3 r.Core.Recurrence.path_length;
  Helpers.check_int "bound" 4 r.Core.Recurrence.bound

let test_pipeline_loose () =
  (* the paper's criticism: the recurrence diameter of an n-stage
     pipeline can be much larger than the property's diameter *)
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let p = Workload.Gen.pipeline net ~name:"p" ~stages:4 ~data:a in
  Net.add_target net "t" p.Workload.Gen.out;
  let t = List.assoc "t" (Net.targets net) in
  let rd = Core.Recurrence.compute net t in
  let structural = (Core.Bound.target net t).Core.Bound.bound in
  Helpers.check_int "structural bound tight" 5 structural;
  Helpers.check_bool "recurrence no tighter than structural" true
    (rd.Core.Recurrence.bound >= structural)

let test_combinational () =
  let net = Net.create () in
  let a = Net.add_input net "a" in
  Net.add_target net "t" a;
  let r = Core.Recurrence.compute net (List.assoc "t" (Net.targets net)) in
  Helpers.check_int "no state: bound 1" 1 r.Core.Recurrence.bound

let test_limit_gives_huge () =
  let net = Net.create () in
  let c = Workload.Gen.counter net ~name:"c" ~bits:6 ~enable:Lit.true_ in
  Net.add_target net "t" c.Workload.Gen.out;
  let r = Core.Recurrence.compute ~limit:10 net (List.assoc "t" (Net.targets net)) in
  Helpers.check_bool "gave up at the limit" true
    (Core.Sat_bound.is_huge r.Core.Recurrence.bound)

let prop_recurrence_sound =
  (* the recurrence bound covers the earliest hit *)
  Helpers.qtest ~count:25 "recurrence bound covers earliest hit"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, t = Helpers.rand_net_with_target seed ~inputs:2 ~regs:4 ~gates:8 in
      let r = Core.Recurrence.compute ~limit:40 net t in
      if Core.Sat_bound.is_huge r.Core.Recurrence.bound then true
      else
        match Core.Exact.explore net t with
        | None -> true
        | Some e -> (
          match e.Core.Exact.earliest_hit with
          | None -> true
          | Some hit -> hit <= r.Core.Recurrence.bound - 1))

let prop_recurrence_at_least_init_diameter =
  Helpers.qtest ~count:25 "recurrence bound dominates exact distances"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, t = Helpers.rand_net_with_target seed ~inputs:2 ~regs:4 ~gates:8 in
      let r = Core.Recurrence.compute ~limit:40 net t in
      if Core.Sat_bound.is_huge r.Core.Recurrence.bound then true
      else
        (* restrict the oracle to the same cone the engine used *)
        match Core.Exact.explore net t with
        | None -> true
        | Some e -> e.Core.Exact.init_diameter <= r.Core.Recurrence.bound)

let suite =
  [
    Alcotest.test_case "free counter" `Quick test_free_counter;
    Alcotest.test_case "pipeline looseness" `Quick test_pipeline_loose;
    Alcotest.test_case "combinational" `Quick test_combinational;
    Alcotest.test_case "limit" `Quick test_limit_gives_huge;
    prop_recurrence_sound;
    prop_recurrence_at_least_init_diameter;
  ]

let test_bounded_coi_pipeline () =
  (* plain recurrence diverges on a pipeline; bounded COI terminates
     quickly at a tight bound *)
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let p = Workload.Gen.pipeline net ~name:"p" ~stages:6 ~data:a in
  Net.add_target net "t" p.Workload.Gen.out;
  let t = List.assoc "t" (Net.targets net) in
  let plain = Core.Recurrence.compute ~limit:20 net t in
  let bcoi = Core.Recurrence.compute ~limit:20 ~bounded_coi:true net t in
  Helpers.check_bool "plain diverges past the limit" true
    (Core.Sat_bound.is_huge plain.Core.Recurrence.bound);
  Helpers.check_bool "bounded COI converges" false
    (Core.Sat_bound.is_huge bcoi.Core.Recurrence.bound);
  (* and the bound still covers the earliest hit (at time 6) *)
  Helpers.check_bool "still sound" true (bcoi.Core.Recurrence.bound >= 7)

let prop_bounded_coi_sound =
  Helpers.qtest ~count:25 "bounded-COI recurrence covers earliest hit"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, t = Helpers.rand_net_with_target seed ~inputs:2 ~regs:4 ~gates:8 in
      let r = Core.Recurrence.compute ~limit:32 ~bounded_coi:true net t in
      if Core.Sat_bound.is_huge r.Core.Recurrence.bound then true
      else
        match Core.Exact.explore net t with
        | None -> true
        | Some e -> (
          match e.Core.Exact.earliest_hit with
          | None -> true
          | Some hit -> hit <= r.Core.Recurrence.bound - 1))

let prop_bounded_coi_finite_on_pipelines =
  (* the variant's selling point: pipelines of any depth converge *)
  Helpers.qtest ~count:10 "bounded COI converges on pipelines"
    QCheck.(int_range 2 10)
    (fun stages ->
      let net = Net.create () in
      let a = Net.add_input net "a" in
      let p = Workload.Gen.pipeline net ~name:"p" ~stages ~data:a in
      Net.add_target net "t" p.Workload.Gen.out;
      let t = List.assoc "t" (Net.targets net) in
      let r = Core.Recurrence.compute ~limit:40 ~bounded_coi:true net t in
      (not (Core.Sat_bound.is_huge r.Core.Recurrence.bound))
      && r.Core.Recurrence.bound >= stages + 1)

let suite =
  suite
  @ [
      Alcotest.test_case "bounded COI on pipelines" `Quick test_bounded_coi_pipeline;
      prop_bounded_coi_sound;
      prop_bounded_coi_finite_on_pipelines;
    ]

(* ----- differential: incremental search vs per-k from-scratch encoding -----

   The oracle is the encoding the search used before it kept one
   solver: for every k a fresh solver, frames 0..k chained from a free
   start, and frame j distinct from every earlier frame on the
   registers within k - j dependency steps of the target.  Without a
   budget both must agree exactly on the bound, the path and the
   number of SAT calls. *)

module Coi = Netlist.Coi
module Solver = Backend

(* shortest register distances to the target, by fixpoint iteration
   (the library computes them breadth-first) *)
let oracle_distances net target =
  let regs = Net.regs net in
  let reads l =
    let cone = Coi.combinational net [ l ] in
    List.filter (fun r -> cone.(r)) regs
  in
  let dist = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace dist r 0) (reads target);
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun r' ->
        match Hashtbl.find_opt dist r' with
        | None -> ()
        | Some d ->
          List.iter
            (fun r ->
              match Hashtbl.find_opt dist r with
              | Some e when e <= d + 1 -> ()
              | _ ->
                Hashtbl.replace dist r (d + 1);
                changed := true)
            (reads (Net.reg_of net r').Net.next))
      regs
  done;
  dist

let oracle_distinct solver xs ys =
  Solver.add_clause solver
    (List.map2
       (fun a b ->
         let d = Solver.pos (Solver.new_var solver) in
         Solver.add_clause solver [ Solver.negate d; a; b ];
         Solver.add_clause solver
           [ Solver.negate d; Solver.negate a; Solver.negate b ];
         d)
       xs ys)

(* (bound, path_length, sat_calls) of the from-scratch search *)
let oracle_bounded ~limit net target =
  let cone = Transform.Rebuild.copy ~roots:[ target ] net in
  let target = Transform.Rebuild.map_lit cone target in
  let net = cone.Transform.Rebuild.net in
  let regs = Net.regs net in
  if regs = [] then (1, 0, 0)
  else begin
    let dist = oracle_distances net target in
    let rec extend k =
      if k > limit then (Core.Sat_bound.huge, k - 1, limit)
      else begin
        let solver = Solver.create () in
        let frames =
          Array.init (k + 1) (fun _ -> Encode.Frame.create solver net)
        in
        for i = 0 to k - 1 do
          List.iter
            (fun r ->
              let n = Encode.Frame.lit frames.(i) (Net.reg_of net r).Net.next in
              let s = Encode.Frame.state_var frames.(i + 1) r in
              Solver.add_clause solver [ Solver.negate n; s ];
              Solver.add_clause solver [ n; Solver.negate s ])
            regs
        done;
        for j = 1 to k do
          let rs =
            List.filter
              (fun r ->
                match Hashtbl.find_opt dist r with
                | Some d -> d <= k - j
                | None -> false)
              regs
          in
          let lits f = List.map (Encode.Frame.state_var frames.(f)) rs in
          if rs <> [] then
            for i = 0 to j - 1 do
              oracle_distinct solver (lits i) (lits j)
            done
        done;
        match Solver.solve solver with
        | Solver.Sat -> extend (k + 1)
        | Solver.Unsat -> (k, k - 1, k)
        | Solver.Unknown why -> Alcotest.failf "unbudgeted oracle: %s" why
      end
    in
    extend 1
  end

let agrees_with_oracle ~limit net t =
  let r = Core.Recurrence.compute ~limit ~bounded_coi:true net t in
  let bound, path_length, sat_calls = oracle_bounded ~limit net t in
  (not r.Core.Recurrence.exhausted)
  && r.Core.Recurrence.bound = bound
  && r.Core.Recurrence.path_length = path_length
  && r.Core.Recurrence.sat_calls = sat_calls

let prop_bounded_matches_oracle =
  Helpers.qtest ~count:60 "bounded COI: incremental = per-k from scratch"
    QCheck.(pair (int_bound 1000000) (int_range 4 6))
    (fun (seed, regs) ->
      let net, t =
        Helpers.rand_net_with_target seed ~inputs:2 ~regs ~gates:(2 * regs)
      in
      agrees_with_oracle ~limit:20 net t)

let test_bounded_matches_oracle_pipelines () =
  List.iter
    (fun stages ->
      let net = Net.create () in
      let a = Net.add_input net "a" in
      let p = Workload.Gen.pipeline net ~name:"p" ~stages ~data:a in
      Net.add_target net "t" p.Workload.Gen.out;
      Helpers.check_bool
        (Printf.sprintf "pipeline%d agrees" stages)
        true
        (agrees_with_oracle ~limit:20 net (List.assoc "t" (Net.targets net))))
    [ 1; 2; 3; 4; 6; 8 ]

let suite =
  suite
  @ [
      prop_bounded_matches_oracle;
      Alcotest.test_case "bounded COI oracle on pipelines" `Quick
        test_bounded_matches_oracle_pipelines;
    ]
