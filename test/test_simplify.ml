(* Inprocessing: the Simplify pass itself, its integration with the
   solver (elimination, reintroduction, model reconstruction, clause
   tiers), proof soundness of simplified runs, and fault injection
   under inprocessing. *)

module Solver = Sat.Solver
module Simplify = Sat.Simplify
module Cnf = Sat.Cnf
module Proof = Sat.Proof
module Drup = Sat.Drup
module Chaos = Sat.Chaos

let no_log _ = ()

let ok_or_fail what = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" what msg

let run_simplify ?config ~nvars clauses =
  Simplify.run ?config ~nvars
    ~frozen:(fun _ -> false)
    ~value:(fun _ -> -1)
    ~log_add:no_log ~log_delete:no_log clauses

(* ----- the pass in isolation ----- *)

let test_subsumption () =
  (* {a,b} subsumes {a,b,c}; no variable elimination so the subsumed
     clause is really gone, not resolved away *)
  let cfg = { Simplify.default with Simplify.var_elim = false } in
  let r =
    run_simplify ~config:cfg ~nvars:3
      [
        [| Solver.pos 0; Solver.pos 1 |];
        [| Solver.pos 0; Solver.pos 1; Solver.pos 2 |];
      ]
  in
  Helpers.check_int "one clause subsumed" 1 r.Simplify.n_subsumed;
  Helpers.check_int "one clause left" 1 (List.length r.Simplify.clauses);
  match r.Simplify.clauses with
  | [ Simplify.Kept 0 ] -> ()
  | _ -> Alcotest.fail "survivor should be the untouched input clause 0"

let test_self_subsumption () =
  (* {a,b} strengthens {~a,b,c} to {b,c} by self-subsuming resolution *)
  let cfg = { Simplify.default with Simplify.var_elim = false } in
  let r =
    run_simplify ~config:cfg ~nvars:3
      [
        [| Solver.pos 0; Solver.pos 1 |];
        [| Solver.neg_of 0; Solver.pos 1; Solver.pos 2 |];
      ]
  in
  Helpers.check_bool "strengthened" true (r.Simplify.n_strengthened >= 1);
  let fresh =
    List.filter_map
      (function Simplify.Fresh l -> Some (Array.to_list l) | Simplify.Kept _ -> None)
      r.Simplify.clauses
  in
  Helpers.check_bool "strengthened clause is {b,c}" true
    (List.mem [ Solver.pos 1; Solver.pos 2 ] fresh)

let test_probing () =
  (* l implies x and y, but x implies ~y: probing must fail l and
     derive the unit ~l from the binary implication graph alone *)
  let cfg =
    { Simplify.default with Simplify.var_elim = false; subsumption = false }
  in
  let r =
    run_simplify ~config:cfg ~nvars:3
      [
        [| Solver.neg_of 0; Solver.pos 1 |];
        [| Solver.neg_of 0; Solver.pos 2 |];
        [| Solver.neg_of 1; Solver.neg_of 2 |];
      ]
  in
  Helpers.check_bool "one failed literal" true (r.Simplify.n_probed >= 1);
  Helpers.check_bool "unit ~l derived" true
    (List.mem (Solver.neg_of 0) r.Simplify.units)

let test_bve_records_elimination () =
  (* Tseitin v = a & b: v is the cheapest variable; elimination must
     store its clauses for reconstruction and produce no contradiction *)
  let r =
    run_simplify ~nvars:3
      [
        [| Solver.neg_of 2; Solver.pos 0 |];
        [| Solver.neg_of 2; Solver.pos 1 |];
        [| Solver.pos 2; Solver.neg_of 0; Solver.neg_of 1 |];
      ]
  in
  Helpers.check_bool "no contradiction" false r.Simplify.contradiction;
  Helpers.check_bool "something eliminated" true (r.Simplify.eliminated <> []);
  let v, stored = List.hd r.Simplify.eliminated in
  Helpers.check_bool "stored clauses mention the variable" true
    (Array.for_all
       (fun lits -> Array.exists (fun l -> l lsr 1 = v) lits)
       stored)

(* ----- solver integration ----- *)

let tseitin_and s =
  (* v = a & b on fresh variables; returns (a, b, v) *)
  let a = Solver.new_var s and b = Solver.new_var s and v = Solver.new_var s in
  Solver.add_clause s [ Solver.neg_of v; Solver.pos a ];
  Solver.add_clause s [ Solver.neg_of v; Solver.pos b ];
  Solver.add_clause s [ Solver.pos v; Solver.neg_of a; Solver.neg_of b ];
  (a, b, v)

let test_model_reconstruction () =
  (* eliminate the Tseitin variable, then demand a full model: the
     eliminated variable's value must be reconstructed consistently *)
  let s = Solver.create () in
  let a, b, v = tseitin_and s in
  Solver.add_clause s [ Solver.pos a ];
  Solver.simplify_now s;
  Helpers.check_bool "sat" true (Solver.solve s = Solver.Sat);
  Helpers.check_bool "v = a & b holds in the model" true
    (Solver.value s (Solver.pos v)
    = (Solver.value s (Solver.pos a) && Solver.value s (Solver.pos b)))

let test_reintroduction_via_add_clause () =
  (* after v is eliminated, a new clause naming v must bring its
     defining clauses back: v & ~a is unsat only through them *)
  let s = Solver.create () in
  let p = Proof.create () in
  Solver.set_proof s p;
  let a, _, v = tseitin_and s in
  Solver.simplify_now s;
  Helpers.check_bool "v eliminated" true (Solver.num_eliminated s >= 1);
  Solver.add_clause s [ Solver.pos v ];
  Solver.add_clause s [ Solver.neg_of a ];
  Helpers.check_bool "unsat through restored clauses" true
    (Solver.solve s = Solver.Unsat);
  ok_or_fail "drup after reintroduction" (Drup.check (Proof.events p))

let test_reintroduction_via_assumptions () =
  let s = Solver.create () in
  let a, b, v = tseitin_and s in
  Solver.simplify_now s;
  Helpers.check_bool "sat under v" true
    (Solver.solve ~assumptions:[ Solver.pos v ] s = Solver.Sat);
  Helpers.check_bool "a and b forced by v" true
    (Solver.value s (Solver.pos a) && Solver.value s (Solver.pos b));
  Helpers.check_bool "unsat under v & ~a" true
    (Solver.solve ~assumptions:[ Solver.pos v; Solver.neg_of a ] s
    = Solver.Unsat)

let php s pigeons holes =
  let var =
    Array.init pigeons (fun _ -> Array.init holes (fun _ -> Solver.new_var s))
  in
  for p = 0 to pigeons - 1 do
    Solver.add_clause s (List.init holes (fun h -> Solver.pos var.(p).(h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Solver.add_clause s
          [ Solver.neg_of var.(p1).(h); Solver.neg_of var.(p2).(h) ]
      done
    done
  done

let test_drup_from_simplified_run () =
  (* a full unsat run with inprocessing on: every simplification step
     (subsumption deletes, BVE resolvents, probe units) must leave the
     proof checkable.  php(8,7) searches well past the warmup, so the
     scheduled passes run mid-search. *)
  let s = Solver.create () in
  let p = Proof.create () in
  Solver.set_proof s p;
  Solver.set_inprocess s true;
  php s 8 7;
  Helpers.check_bool "php(8,7) unsat" true (Solver.solve s = Solver.Unsat);
  Helpers.check_bool "inprocessing ran" true (Solver.num_simplifies s >= 1);
  Helpers.check_bool "variables eliminated" true (Solver.num_eliminated s >= 1);
  ok_or_fail "drup of simplified run" (Drup.check (Proof.events p))

let test_tiers_never_drop_core () =
  (* LBD tiers under heavy reduce_db pressure: core learnts and locked
     clauses survive by construction, and the watch lists stay clean *)
  let s = Solver.create () in
  php s 7 6;
  Solver.set_max_learnts s 5;
  Helpers.check_bool "php(7,6) unsat" true (Solver.solve s = Solver.Unsat);
  Helpers.check_bool "reduce_db ran" true (Solver.num_reduce_dbs s > 0);
  Helpers.check_int "no core learnt ever deleted" 0
    (Solver.num_core_deleted s);
  Helpers.check_int "no dead watch entries" 0 (Solver.num_dead_watches s);
  Helpers.check_int "watch entries = 2 * live clauses"
    (2 * (Solver.num_clauses s + Solver.num_learnts s))
    (Solver.num_watch_entries s)

(* ----- fault injection still caught under inprocessing ----- *)

let test_chaos_flip_to_unsat_caught () =
  Chaos.with_fault ~seed:1234 Chaos.Flip_to_unsat (fun () ->
      let s = Solver.create () in
      let p = Proof.create () in
      Solver.set_proof s p;
      Solver.set_inprocess s true;
      let a, _, v = tseitin_and s in
      Solver.add_clause s [ Solver.pos a ];
      Solver.simplify_now s;
      (match Solver.solve ~assumptions:[ Solver.pos v ] s with
      | Solver.Unsat -> ()
      | _ -> Alcotest.fail "fault should have reported Unsat");
      Helpers.check_bool "fault fired" true (Chaos.injections () > 0);
      (* the lie has no refutation, simplified clause set or not *)
      Helpers.check_bool "drup rejects flipped unsat" true
        (Result.is_error
           (Drup.check ~goals:[ [ Solver.pos v ] ] (Proof.events p))))

let test_chaos_flip_to_sat_caught () =
  Chaos.with_fault ~seed:1234 Chaos.Flip_to_sat (fun () ->
      let s = Solver.create () in
      Solver.set_inprocess s true;
      php s 4 3;
      Solver.simplify_now s;
      Helpers.check_bool "inprocessing ran" true (Solver.num_simplifies s >= 1);
      (match Solver.solve s with
      | Solver.Sat -> ()
      | _ -> Alcotest.fail "fault should have reported Sat");
      Helpers.check_bool "fault fired" true (Chaos.injections () > 0);
      Helpers.check_bool "check_model rejects garbage model" true
        (Result.is_error (Solver.check_model s)))

(* ----- verdict equivalence, inprocessing on vs off ----- *)

let random_cnf seed =
  let rng = Workload.Rng.create seed in
  let nv = 1 + Workload.Rng.int rng 10 in
  let nc = 1 + Workload.Rng.int rng 35 in
  let clauses =
    List.init nc (fun _ ->
        let len = 1 + Workload.Rng.int rng 4 in
        List.init len (fun _ ->
            let v = Workload.Rng.int rng nv in
            if Workload.Rng.bool rng then Solver.pos v else Solver.neg_of v))
  in
  { Cnf.num_vars = nv; clauses }

let prop_verdict_equivalence =
  Helpers.qtest ~count:300 "inprocessed solver agrees with exhaustive search"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let cnf = random_cnf seed in
      let s = Solver.create () in
      Solver.set_inprocess s true;
      Cnf.load s cnf;
      (* force a pass even when the conflict schedule would skip it *)
      Solver.simplify_now s;
      match (Solver.solve s, Cnf.brute_force cnf) with
      | Solver.Sat, Some _ -> Cnf.eval (Solver.model s) cnf
      | Solver.Unsat, None -> true
      | Solver.Sat, None | Solver.Unsat, Some _ -> false
      | Solver.Unknown, _ -> false)

let prop_assumptions_hit_eliminated =
  Helpers.qtest ~count:200
    "assumptions naming eliminated variables stay correct"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Workload.Rng.create (seed + 23) in
      let cnf = random_cnf seed in
      let s = Solver.create () in
      Solver.set_inprocess s true;
      Cnf.load s cnf;
      Solver.simplify_now s;
      (* unfrozen assumptions: some will name just-eliminated vars *)
      let assumptions =
        List.init
          (1 + Workload.Rng.int rng 3)
          (fun _ ->
            let v = Workload.Rng.int rng cnf.Cnf.num_vars in
            if Workload.Rng.bool rng then Solver.pos v else Solver.neg_of v)
      in
      let strengthened =
        {
          cnf with
          Cnf.clauses = List.map (fun a -> [ a ]) assumptions @ cnf.Cnf.clauses;
        }
      in
      match (Solver.solve ~assumptions s, Cnf.brute_force strengthened) with
      | Solver.Sat, Some _ -> Cnf.eval (Solver.model s) strengthened
      | Solver.Unsat, None -> true
      | Solver.Sat, None | Solver.Unsat, Some _ -> false
      | Solver.Unknown, _ -> false)

(* A reference solver behind the backend seam with the underlying
   solver exposed, so a test can drive the unroller and still force
   passes and read the solver's own counters. *)
let exposed_backend () =
  let s = Solver.create ~inprocess:true () in
  let solver =
    Backend.of_module
      (module struct
        let name = "reference"
        let new_var () = Solver.new_var s
        let add_clause c = Solver.add_clause s c

        let solve ?assumptions ?max_conflicts ?max_propagations ?max_nodes:_
            ?should_stop () =
          match
            Solver.solve ?assumptions ?max_conflicts ?max_propagations
              ?should_stop s
          with
          | Solver.Sat -> Backend.Sat
          | Solver.Unsat -> Backend.Unsat
          | Solver.Unknown -> Backend.Unknown Backend.budget_reason

        let value l = Solver.value s l
        let set_proof p = Solver.set_proof s p
        let proof_capable = true

        let stats () =
          {
            Backend.zero_stats with
            Backend.vars = Solver.num_vars s;
            clauses = Solver.num_clauses s;
          }

        let set_simplify_wrapper w = Solver.set_simplify_wrapper s w
        let interrupt () = ()
      end)
  in
  (s, solver)

(* Incremental BMC of target "t" at depths [0 .. depth] on one solver,
   calling [between] before each depth's solve. *)
let unrolled_bmc ?(between = ignore) (s, solver) net depth =
  let unroll = Encode.Unroll.create solver net in
  let target = List.assoc "t" (Netlist.Net.targets net) in
  let rec go t =
    if t > depth then `No_hit depth
    else begin
      let tl = Encode.Unroll.lit_at unroll target t in
      between s;
      match Backend.solve ~assumptions:[ tl ] solver with
      | Backend.Sat -> `Hit t
      | Backend.Unsat -> go (t + 1)
      | Backend.Unknown _ -> `Unknown
    end
  in
  go 0

(* Passes are paid for by search: a solver whose solves stay short
   never simplifies, however many clauses or frames it is given; once
   it has searched past the warmup, passes run on schedule and when new
   clauses arrive, with its proof intact. *)
let test_simplify_policy () =
  let net = Netlist.Net.create () in
  let enable = Netlist.Net.add_input net "en" in
  let c = Workload.Gen.counter net ~name:"c" ~bits:4 ~enable in
  Netlist.Net.add_target net "t" c.Workload.Gen.out;
  let ((s, _) as exposed) = exposed_backend () in
  Helpers.check_bool "all-ones unreachable within 10 steps" true
    (unrolled_bmc exposed net 9 = `No_hit 9);
  Helpers.check_int "10-depth counter BMC runs no pass" 0
    (Solver.num_simplifies s);
  let add_ands s n =
    for _ = 1 to n do
      ignore (tseitin_and s)
    done
  in
  let s = Solver.create ~inprocess:true () in
  for _ = 1 to 5 do
    add_ands s 300;
    Helpers.check_bool "sat" true (Solver.solve s = Solver.Sat)
  done;
  Helpers.check_bool "short search" true
    (Solver.num_conflicts s < Solver.simplify_warmup);
  Helpers.check_int "added clauses trigger no pass" 0 (Solver.num_simplifies s);
  (* pigeonhole 8 into 7 behind an activation literal: unsat under the
     assumption, so the solver stays usable after a long search *)
  let s = Solver.create ~inprocess:true () in
  let p = Proof.create () in
  Solver.set_proof s p;
  let triggers = ref [] in
  Solver.set_simplify_wrapper s (fun pass ->
      triggers := Solver.num_conflicts s :: !triggers;
      pass ());
  let act = Solver.new_var s in
  let var = Array.init 8 (fun _ -> Array.init 7 (fun _ -> Solver.new_var s)) in
  Array.iter
    (fun row ->
      Solver.add_clause s
        (Solver.neg_of act :: Array.to_list (Array.map Solver.pos row)))
    var;
  for h = 0 to 6 do
    for p1 = 0 to 7 do
      for p2 = p1 + 1 to 7 do
        Solver.add_clause s
          [ Solver.neg_of var.(p1).(h); Solver.neg_of var.(p2).(h) ]
      done
    done
  done;
  Helpers.check_bool "php(8,7) unsat under the assumption" true
    (Solver.solve ~assumptions:[ Solver.pos act ] s = Solver.Unsat);
  Helpers.check_bool "a searching solver simplifies" true (!triggers <> []);
  Helpers.check_bool "every pass after the warmup" true
    (List.for_all (fun c -> c >= Solver.simplify_warmup) !triggers);
  (* the first solve settles any pass the conflict schedule still owes;
     the second, with nothing new, must then run none *)
  Helpers.check_bool "sat without the assumption" true
    (Solver.solve s = Solver.Sat);
  let before = Solver.num_simplifies s in
  Helpers.check_bool "sat again" true (Solver.solve s = Solver.Sat);
  Helpers.check_int "nothing new, no pass" before (Solver.num_simplifies s);
  add_ands s 1000;
  Helpers.check_bool "sat with new clauses" true (Solver.solve s = Solver.Sat);
  Helpers.check_bool "new clauses trigger a pass after the warmup" true
    (Solver.num_simplifies s > before);
  Solver.add_clause s [ Solver.pos act ];
  Helpers.check_bool "unsat once the assumption is a unit" true
    (Solver.solve s = Solver.Unsat);
  ok_or_fail "drup of simplified run" (Drup.check (Proof.events p))

(* BMC over structured random designs: the end-to-end answer must not
   depend on inprocessing.  Frames this small never search long enough
   for a scheduled pass, so the "on" arm drives the unroller itself and
   forces a pass before every depth; the "off" arm is the production
   checker on a solver with inprocessing disabled. *)
let prop_bmc_corpus_equivalence =
  Helpers.qtest ~count:25 "BMC verdicts agree with inprocessing on and off"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, _ = Helpers.rand_structured seed in
      let ((s, _) as exposed) = exposed_backend () in
      let on = unrolled_bmc ~between:Solver.simplify_now exposed net 8 in
      let off =
        Bmc.check ~backend:(Backend.reference ~inprocess:false ()) net
          ~target:"t" ~depth:8
      in
      Solver.num_simplifies s > 0
      &&
      match (on, off) with
      | `Hit a, Bmc.Hit b -> a = b.Bmc.depth
      | `No_hit a, Bmc.No_hit b -> a = b
      | _ -> false)

let suite =
  [
    Alcotest.test_case "subsumption" `Quick test_subsumption;
    Alcotest.test_case "self-subsuming resolution" `Quick test_self_subsumption;
    Alcotest.test_case "failed-literal probing" `Quick test_probing;
    Alcotest.test_case "bve records elimination" `Quick
      test_bve_records_elimination;
    Alcotest.test_case "model reconstruction" `Quick test_model_reconstruction;
    Alcotest.test_case "reintroduction via add_clause" `Quick
      test_reintroduction_via_add_clause;
    Alcotest.test_case "reintroduction via assumptions" `Quick
      test_reintroduction_via_assumptions;
    Alcotest.test_case "drup from simplified run" `Quick
      test_drup_from_simplified_run;
    Alcotest.test_case "tiers never drop core" `Quick
      test_tiers_never_drop_core;
    Alcotest.test_case "chaos flip-to-unsat caught" `Quick
      test_chaos_flip_to_unsat_caught;
    Alcotest.test_case "chaos flip-to-sat caught" `Quick
      test_chaos_flip_to_sat_caught;
    Alcotest.test_case "simplify only after search" `Quick test_simplify_policy;
    prop_verdict_equivalence;
    prop_assumptions_hit_eliminated;
    prop_bmc_corpus_equivalence;
  ]
