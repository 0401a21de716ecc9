(* Certification of engine verdicts: the happy paths (every genuine
   verdict certifies, certification never changes a verdict) and the
   checker primitives' own rejection behavior.  The fault-injection
   suite (Test_chaos) covers the unhappy paths end to end. *)

module Net = Netlist.Net
module Lit = Netlist.Lit
module Stats = Obs.Stats
module Engine = Core.Engine
module Certify = Core.Certify
module Translate = Core.Translate
module Sat_bound = Core.Sat_bound

let counter_of snap name = List.assoc name snap.Stats.counters

(* 2-register design with an unreachable conjunction: proved via a
   small structural bound discharged by a real BMC run *)
let proved_net () =
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let r0 = Net.add_reg net ~init:Net.Init0 "r0" in
  let r1 = Net.add_reg net ~init:Net.Init1 "r1" in
  Net.set_next net r0 a;
  Net.set_next net r1 (Lit.neg a);
  Net.add_target net "t" (Net.add_and net r0 r1);
  net

(* 2-bit counter with its all-ones value as target: hit at time 3 *)
let violated_net () =
  let net = Net.create () in
  let c = Workload.Gen.counter net ~name:"c" ~bits:2 ~enable:Lit.true_ in
  Net.add_target net "t" c.Workload.Gen.out;
  net

let test_proved_certifies () =
  Stats.reset ();
  let sunk = ref 0 in
  (match
     Engine.verify ~certify:true
       ~proof_sink:(fun p ->
         incr sunk;
         Helpers.check_bool "sunk proof has axioms" true
           (Sat.Proof.num_inputs p > 0))
       (proved_net ()) ~target:"t"
   with
  | Engine.Proved _ -> ()
  | v -> Alcotest.fail (Format.asprintf "unexpected: %a" Engine.pp_verdict v));
  let snap = Stats.snapshot () in
  Helpers.check_bool "cert_ok bumped" true (counter_of snap "engine.cert_ok" > 0);
  Helpers.check_int "no cert failures" 0 (counter_of snap "engine.cert_fail");
  Helpers.check_int "proof sunk once" 1 !sunk;
  Helpers.check_bool "drup time recorded" true
    (List.mem_assoc "certify.drup" snap.Stats.spans)

let test_violated_certifies () =
  Stats.reset ();
  (match Engine.verify ~certify:true (violated_net ()) ~target:"t" with
  | Engine.Violated { cex; _ } -> Helpers.check_int "hit at 3" 3 cex.Bmc.depth
  | v -> Alcotest.fail (Format.asprintf "unexpected: %a" Engine.pp_verdict v));
  let snap = Stats.snapshot () in
  Helpers.check_bool "cert_ok bumped" true (counter_of snap "engine.cert_ok" > 0);
  Helpers.check_int "no cert failures" 0 (counter_of snap "engine.cert_fail");
  Helpers.check_bool "replay time recorded" true
    (List.mem_assoc "certify.replay" snap.Stats.spans)

let test_check_cex () =
  let net = violated_net () in
  let tlit = List.assoc "t" (Net.targets net) in
  match Bmc.check net ~target:"t" ~depth:5 with
  | Bmc.Hit cex ->
    (match Certify.check_cex net tlit cex with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "genuine cex rejected: %s" msg);
    (* corrupt the claimed depth: replay must reject it *)
    let bad = { cex with Bmc.depth = cex.Bmc.depth + 1 } in
    Helpers.check_bool "corrupt cex rejected" true
      (Result.is_error (Certify.check_cex net tlit bad))
  | _ -> Alcotest.fail "expected a hit"

let test_check_no_hit () =
  let net = proved_net () in
  let cert = Bmc.new_cert () in
  (match Bmc.check ~cert net ~target:"t" ~depth:3 with
  | Bmc.No_hit 3 -> ()
  | _ -> Alcotest.fail "expected no hit to depth 3");
  (match Certify.check_no_hit ~depth:3 cert with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "genuine certificate rejected: %s" msg);
  (* an under-covering certificate is rejected even though its goals
     all check *)
  Helpers.check_bool "depth mismatch rejected" true
    (Result.is_error (Certify.check_no_hit ~depth:4 cert));
  (* same goals, empty derivation: nothing is refuted *)
  let hollow = { (Bmc.new_cert ()) with Bmc.goals = cert.Bmc.goals } in
  Helpers.check_bool "hollow certificate rejected" true
    (Result.is_error (Certify.check_no_hit ~depth:3 hollow))

let test_check_translation () =
  let translator =
    Translate.compose
      (Translate.compose Translate.trace_equivalence (Translate.retiming ~skew:3))
      (Translate.state_folding ~factor:2)
  in
  let raw = Sat_bound.of_int 5 in
  let claimed = translator.Translate.apply raw in
  Helpers.check_int "t1 then fold then retime" 13 claimed;
  (match
     Certify.check_translation ~raw ~steps:translator.Translate.steps ~claimed
   with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "genuine translation rejected: %s" msg);
  Helpers.check_bool "off-by-one rejected" true
    (Result.is_error
       (Certify.check_translation ~raw ~steps:translator.Translate.steps
          ~claimed:(claimed + 1)));
  (* saturation must agree with Sat_bound's *)
  (match
     Certify.check_translation ~raw:Sat_bound.huge
       ~steps:[ Translate.T3 2 ]
       ~claimed:(Sat_bound.mul Sat_bound.huge (Sat_bound.of_int 2))
   with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "saturating translation rejected: %s" msg);
  Helpers.check_bool "illegal step parameter rejected" true
    (Result.is_error
       (Certify.check_translation ~raw ~steps:[ Translate.T2 (-1) ]
          ~claimed:(raw - 1)))

let test_check_induction () =
  let net = proved_net () in
  let cert = Core.Induction.new_cert () in
  match Core.Induction.prove ~cert net ~target:"t" with
  | Core.Induction.Proved k -> (
    Helpers.check_bool "base recorded" true (cert.Core.Induction.base <> None);
    Helpers.check_bool "step recorded" true (cert.Core.Induction.step <> None);
    (match Certify.check_induction ~k cert with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "genuine induction rejected: %s" msg);
    (* hollow step: keep the goal literal, empty the derivation *)
    (match cert.Core.Induction.step with
    | Some (_, goal) -> cert.Core.Induction.step <- Some ([], goal)
    | None -> ());
    Helpers.check_bool "hollow step rejected" true
      (Result.is_error (Certify.check_induction ~k cert)))
  | _ -> Alcotest.fail "expected an induction proof"

(* A search over one solver logs every k into one proof: the input
   clauses that grow the path to k, then the lemmas of the k-th solve.
   Cutting off the last such block leaves the log as it stood when the
   previous k was answered Sat, which no sound checker can accept.
   (Dropping only the final empty clause is not enough to break a DRUP
   certificate: the unit lemma before it already propagates to a
   conflict.) *)
let drop_closing_k events =
  let rec lemmas = function
    | (Sat.Proof.Add _ | Sat.Proof.Delete _) :: rest -> lemmas rest
    | rest -> inputs rest
  and inputs = function
    | Sat.Proof.Input _ :: rest -> inputs rest
    | rest -> rest
  in
  let kept = List.rev (lemmas (List.rev events)) in
  Helpers.check_bool "closing k cut off" true
    (List.length kept < List.length events);
  kept

let test_check_recurrence () =
  (* the bounded-COI search over a 4-stage pipeline runs several k on
     one solver; its closing Unsat certifies the bound *)
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let p = Workload.Gen.pipeline net ~name:"p" ~stages:4 ~data:a in
  Net.add_target net "t" p.Workload.Gen.out;
  let cert = Core.Recurrence.new_cert () in
  let r =
    Core.Recurrence.compute ~bounded_coi:true ~cert net
      (List.assoc "t" (Net.targets net))
  in
  Helpers.check_bool "closes at k >= 3" true (r.Core.Recurrence.bound >= 3);
  (match Certify.check_recurrence cert with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "genuine recurrence rejected: %s" msg);
  match cert.Core.Recurrence.evidence with
  | Some (Core.Recurrence.Refutation events) ->
    Helpers.check_bool "ends in the empty clause" true
      (List.nth events (List.length events - 1) = Sat.Proof.Add [||]);
    let cut = drop_closing_k events in
    Helpers.check_bool "cut refutation rejected" true
      (Result.is_error
         (Certify.check_recurrence
            {
              Core.Recurrence.evidence =
                Some (Core.Recurrence.Refutation cut);
            }))
  | _ -> Alcotest.fail "expected a refutation"

let test_check_induction_deep () =
  (* two tokens in a 5-ring: the step case needs uniqueness and closes
     only after several k on the one step solver *)
  let net = Net.create () in
  let ring = Workload.Gen.ring net ~name:"r" ~length:5 in
  (match ring.Workload.Gen.regs with
  | a :: b :: _ -> Net.add_target net "t" (Net.add_and net a b)
  | _ -> assert false);
  let cert = Core.Induction.new_cert () in
  match Core.Induction.prove ~cert net ~target:"t" with
  | Core.Induction.Proved k -> (
    Helpers.check_bool "k >= 2" true (k >= 2);
    (match Certify.check_induction ~k cert with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "genuine induction rejected: %s" msg);
    match cert.Core.Induction.step with
    | Some (events, goal) ->
      cert.Core.Induction.step <- Some (drop_closing_k events, goal);
      Helpers.check_bool "cut step rejected" true
        (Result.is_error (Certify.check_induction ~k cert))
    | None -> Alcotest.fail "expected a step certificate")
  | _ -> Alcotest.fail "expected an induction proof"

(* certification is read-only: it must never change a verdict, only
   (on corrupt answers, see Test_chaos) withhold one *)
let prop_certify_preserves_verdicts =
  Helpers.qtest ~count:25 "certification preserves verdicts"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, _ = Helpers.rand_structured seed in
      let plain = Core.Engine.verify net ~target:"t" in
      let fail0 =
        List.assoc "engine.cert_fail" (Stats.snapshot ()).Stats.counters
      in
      let certified = Core.Engine.verify ~certify:true net ~target:"t" in
      let fail1 =
        List.assoc "engine.cert_fail" (Stats.snapshot ()).Stats.counters
      in
      let same =
        match (plain, certified) with
        | ( Engine.Proved { strategy = s1; depth = d1 },
            Engine.Proved { strategy = s2; depth = d2 } ) ->
          s1 = s2 && d1 = d2
        | ( Engine.Violated { strategy = s1; cex = c1 },
            Engine.Violated { strategy = s2; cex = c2 } ) ->
          s1 = s2 && c1 = c2
        | Engine.Inconclusive _, Engine.Inconclusive _ -> true
        | _ -> false
      in
      same && fail1 = fail0)

let suite =
  [
    Alcotest.test_case "proved verdict certifies" `Quick test_proved_certifies;
    Alcotest.test_case "violated verdict certifies" `Quick
      test_violated_certifies;
    Alcotest.test_case "check_cex" `Quick test_check_cex;
    Alcotest.test_case "check_no_hit" `Quick test_check_no_hit;
    Alcotest.test_case "check_translation" `Quick test_check_translation;
    Alcotest.test_case "check_induction" `Quick test_check_induction;
    Alcotest.test_case "check_recurrence" `Quick test_check_recurrence;
    Alcotest.test_case "check_induction, k >= 2" `Quick
      test_check_induction_deep;
    prop_certify_preserves_verdicts;
  ]
