module Net = Netlist.Net
module Lit = Netlist.Lit
module Stats = Obs.Stats

type config = {
  cutoff : int;
  probe_depth : int;
  enlargement_k : int;
  enlargement_reg_limit : int;
  recurrence_limit : int;
  induction_max_k : int;
  backend : Backend.spec option;
}

let default =
  {
    cutoff = 50;
    probe_depth = 10;
    enlargement_k = 3;
    enlargement_reg_limit = 18;
    recurrence_limit = 48;
    induction_max_k = 16;
    backend = None;
  }

(* the backend spec a run solves with: an explicit config choice, else
   the process default (set by the CLI / DIAMBOUND_BACKEND) *)
let spec_of config =
  match config.backend with Some s -> s | None -> Backend.default ()

type attempt = {
  strategy : string;
  reason : string;
  elapsed_s : float;
  bound : Sat_bound.t option;
}

type verdict =
  | Proved of { strategy : string; depth : int }
  | Violated of { strategy : string; cex : Bmc.cex }
  | Inconclusive of { attempts : attempt list }

let pp_verdict ppf = function
  | Proved { strategy; depth } ->
    Format.fprintf ppf "PROVED by %s (complete to depth %d)" strategy depth
  | Violated { strategy; cex } ->
    Format.fprintf ppf "VIOLATED at time %d (found by %s)" cex.Bmc.depth
      strategy
  | Inconclusive { attempts } ->
    Format.fprintf ppf "INCONCLUSIVE after %d strategies:"
      (List.length attempts);
    List.iter
      (fun a ->
        Format.fprintf ppf "@.  %-20s %s" a.strategy a.reason;
        (match a.bound with
        | Some b -> Format.fprintf ppf " [bound %s]" (Sat_bound.to_string b)
        | None -> ());
        Format.fprintf ppf " (%.1fms)" (1e3 *. a.elapsed_s))
      attempts

let outcome_name = function
  | Proved _ -> "proved"
  | Violated _ -> "violated"
  | Inconclusive _ -> "inconclusive"

let discharge_depth bound =
  if Sat_bound.is_huge bound || bound <= 0 then None else Some (bound - 1)

exception Done of verdict

(* the one distinguished stand-down reason: resource budget ran out,
   as opposed to a strategy being inapplicable or giving up *)
let budget_reason = "budget-exhausted"

(* prefix of every certification-failure stand-down reason *)
let cert_fail_reason = "certification-failed"

let () =
  Stats.declare
    [ "engine.cert_ok"; "engine.cert_fail"; "engine.cache.bound_seeded" ]

(* ----- one cell, run in isolation -----

   A strategy body receives scoped callbacks rather than touching any
   verify-wide state, so the same ladder runs identically whether the
   cells execute sequentially on one domain or as independent
   portfolio jobs across several. *)

type callbacks = {
  sbudget : Obs.Budget.t;  (* this step's slice *)
  certifying : bool;
  sink : (Sat.Proof.t -> unit) option;
  stand_down : string -> unit;
  discharge :
    ?translator:Translate.t ->
    ?pre:(unit -> (unit, string) result) ->
    Sat_bound.t ->
    unit;
  certified : (unit -> (unit, string) result) -> verdict -> unit;
}

(* What a bound candidate's analysis hands its rung: the translated
   bound that ranks it, and the discharge that turns it into a
   verdict. *)
type plan = { rank : Sat_bound.t; go : callbacks -> unit }

(* A cell: its candidates in fixed order, each named for its attempts
   and its verdict.  An analysis returns the plan its cell discharges
   later, or [None] once it concluded or recorded its stand-down; a
   plain strategy is a cell of one candidate that does both itself.  In
   a sequential run a cell takes one deadline slice per candidate. *)
type strategy = string * (string * (callbacks -> plan option)) list

let single name body = (name, [ (name, fun cb -> body cb; None) ])

(* A bound below the cutoff becomes a plan; any other bound goes
   straight through [discharge], which records why it stood down. *)
let bound_plan ~config cb ?(translator = Translate.identity) ?pre raw =
  let go cb = cb.discharge ~translator ?pre raw in
  let rank = translator.Translate.apply raw in
  if Sat_bound.is_huge rank || rank >= config.cutoff then begin
    go cb;
    None
  end
  else Some { rank; go }

(* the bookkeeping of one attempt name: a strategy or a rung candidate *)
type scope = {
  sname : string;
  idx : int;  (* fixed order within the cell *)
  mutable ran : bool;  (* took a step on a live budget *)
  mutable spent : float;  (* seconds in finished steps *)
  mutable step_t0 : float option;  (* start of the running step *)
  mutable rank : Sat_bound.t option;  (* a rung candidate's plan *)
  mutable bound_seen : Sat_bound.t option;
  mutable closed : bool;  (* its stand-down is recorded *)
}

let new_scope idx sname =
  {
    sname;
    idx;
    ran = false;
    spent = 0.;
    step_t0 = None;
    rank = None;
    bound_seen = None;
    closed = false;
  }

(* Run one cell, collecting its verdict (if any), the attempts it
   recorded and the winning name with its bound.  [slice_for k] is the
   budget of a step taken while [k] of the cell's names are still
   open.  The [Done] unwind never escapes: the portfolio path must not
   have exceptions crossing domain boundaries, and the sequential path
   decides itself when to stop. *)
let run_cell ~config ~certify ~proof_sink ~backend ~slice_for net ~target
    ~tlit ((name, cands) : strategy) =
  let attempts = ref [] in
  let scopes = Array.of_list (List.mapi (fun i (n, _) -> new_scope i n) cands) in
  let analyses = Array.of_list (List.map snd cands) in
  let stand_down sc reason =
    if String.equal reason budget_reason then begin
      Stats.count "engine.budget_exhausted" 1;
      Obs.Budget.note_exhausted "engine"
    end;
    let running =
      match sc.step_t0 with Some t0 -> Stats.now () -. t0 | None -> 0.
    in
    sc.closed <- true;
    attempts :=
      ( sc.idx,
        {
          strategy = sc.sname;
          reason;
          elapsed_s = sc.spent +. running;
          bound = sc.bound_seen;
        } )
      :: !attempts
  in
  let callbacks sc slice =
    let stand_down = stand_down sc in
    (* Gate a candidate verdict behind its certification.
       Certification is a safety net, so any failure — including an
       exception escaping a checker — downgrades the candidate to a
       stand-down with the distinguished reason and lets the ladder
       continue; it never crashes the engine and never lets an
       uncertified Proved/Violated through. *)
    let certified check verdict =
      if not certify then raise (Done verdict)
      else begin
        match try check () with exn -> Error (Printexc.to_string exn) with
        | Ok () ->
          Stats.count "engine.cert_ok" 1;
          raise (Done verdict)
        | Error msg ->
          Stats.count "engine.cert_fail" 1;
          stand_down (cert_fail_reason ^ ": " ^ msg)
      end
    in
    (* a finite translated bound below the cutoff closes the problem
       with one complete BMC run on the ORIGINAL netlist.  [raw] is
       the bound as computed on the transformed netlist; [translator]
       carries it back.  Under certification the arithmetic is
       recomputed from the recorded theorem steps and the discharge
       run's Unsat answers re-check through the DRUP verifier. *)
    let discharge ?(translator = Translate.identity) ?(pre = fun () -> Ok ())
        raw =
      let bound = translator.Translate.apply raw in
      sc.bound_seen <- Some bound;
      if Sat_bound.is_huge bound then stand_down "no practically useful bound"
      else if bound >= config.cutoff then
        stand_down
          (Printf.sprintf "bound %s above cutoff %d"
             (Sat_bound.to_string bound) config.cutoff)
      else begin
        (* [pre] certifies the raw bound's own provenance when it came
           from a SAT answer (recurrence); arithmetic re-derives the
           translation *)
        let arithmetic () =
          match pre () with
          | Error _ as e -> e
          | Ok () ->
            Certify.check_translation ~raw ~steps:translator.Translate.steps
              ~claimed:bound
        in
        match discharge_depth bound with
        | None ->
          (* bound 0: the target is unhittable at any depth; the
             BMC run would be vacuous (and [depth - 1] negative) *)
          certified arithmetic (Proved { strategy = sc.sname; depth = 0 })
        | Some depth -> (
          let cert = if certify then Some (Bmc.new_cert ()) else None in
          match Bmc.check ?cert ~budget:slice ~backend net ~target ~depth with
          | Bmc.No_hit d ->
            certified
              (fun () ->
                match arithmetic () with
                | Error _ as e -> e
                | Ok () -> (
                  let c = Option.get cert in
                  match Certify.check_no_hit ~depth:d c with
                  | Ok () ->
                    Option.iter (fun sink -> sink c.Bmc.proof) proof_sink;
                    Ok ()
                  | Error _ as e -> e))
              (Proved { strategy = sc.sname; depth = d })
          | Bmc.Hit cex ->
            certified
              (fun () -> Certify.check_cex net tlit cex)
              (Violated { strategy = sc.sname; cex })
          | Bmc.Unknown { why; _ } -> stand_down why)
      end
    in
    {
      sbudget = slice;
      certifying = certify;
      sink = proof_sink;
      stand_down;
      discharge;
      certified;
    }
  in
  (* one step of [sc] (an analysis or a discharge) under a fresh slice.
     An exhausted (or cancelled) budget still records an attempt: a
     name is never skipped silently, no matter how degenerate the
     slice an overrunning predecessor left it *)
  let step sc ~open_ways f =
    let slice = slice_for open_ways in
    let t0 = Stats.now () in
    sc.step_t0 <- Some t0;
    Fun.protect
      ~finally:(fun () ->
        sc.spent <- sc.spent +. (Stats.now () -. t0);
        sc.step_t0 <- None)
      (fun () ->
        if Obs.Budget.expired slice then begin
          stand_down sc budget_reason;
          `Expired
        end
        else begin
          sc.ran <- true;
          Obs.Heartbeat.set_phase ("engine." ^ sc.sname);
          match f (callbacks sc slice) with
          | r -> `Ran r
          | exception Done v -> `Won v
        end)
  in
  (* a step that neither concluded nor stood down would vanish from
     the attempt log; make the gap visible *)
  let close sc =
    if not sc.closed then stand_down sc "stood down without a recorded reason"
  in
  let open_ways () =
    Array.fold_left (fun k sc -> if sc.closed then k else k + 1) 0 scopes
  in
  (* Compute the candidates' translated bounds in fixed order until a
     pending one is cheap to discharge (no deeper than the probe), then
     discharge the cheapest pending candidate; repeat until one
     concludes or every candidate stood down.  The cell is
     self-contained, so the sequential ladder and the portfolio pick
     the same candidate by construction. *)
  let n = Array.length scopes in
  let cheap (rank, _, _) = rank <= config.probe_depth + 1 in
  let by_rank (r1, i1, _) (r2, i2, _) =
    if r1 <> r2 then Int.compare r1 r2 else Int.compare i1 i2
  in
  let pending = ref [] in
  let rec go next =
    if next < n && not (List.exists cheap !pending) then begin
      let sc = scopes.(next) in
      match step sc ~open_ways:(open_ways ()) analyses.(next) with
      | `Won v -> Some (sc, v)
      | `Ran (Some p) ->
        sc.rank <- Some p.rank;
        pending := List.merge by_rank [ (p.rank, next, p) ] !pending;
        go (next + 1)
      | `Ran None | `Expired ->
        close sc;
        go (next + 1)
    end
    else
      match !pending with
      | [] -> None
      | (_, i, p) :: rest -> (
        pending := rest;
        match step scopes.(i) ~open_ways:(open_ways ()) p.go with
        | `Won v -> Some (scopes.(i), v)
        | `Ran () | `Expired ->
          close scopes.(i);
          go next)
  in
  let run () =
    let won = go 0 in
    Option.iter
      (fun (w, _) ->
        Array.iter
          (fun sc ->
            if sc != w && not sc.closed then
              stand_down sc (w.sname ^ " concluded first"))
          scopes)
      won;
    won
  in
  (* provenance: every computed candidate's translated bound and the
     one that won *)
  let provenance won =
    List.filter_map
      (fun sc ->
        match match sc.rank with None -> sc.bound_seen | r -> r with
        | Some b ->
          Some ("bound." ^ sc.sname, Obs.Trace.String (Sat_bound.to_string b))
        | None -> None)
      (Array.to_list scopes)
    @
    match won with
    | Some (w, _) -> [ ("chosen", Obs.Trace.String w.sname) ]
    | None -> []
  in
  let won =
    Fun.protect
      ~finally:(fun () ->
        Array.iter
          (fun sc -> if sc.ran then Stats.add_span ("engine." ^ sc.sname) sc.spent)
          scopes)
      (fun () ->
        (* one trace span per cell; the Done unwind that delivers a
           verdict is converted to an "outcome" attribute rather than
           recorded as an exception *)
        Obs.Trace.with_span_args ("engine." ^ name)
          ~args:[ ("target", Obs.Trace.String target) ]
          (fun () ->
            let won = run () in
            let outcome =
              match won with None -> "stand-down" | Some (_, v) -> outcome_name v
            in
            (won, provenance won @ [ ("outcome", Obs.Trace.String outcome) ])))
  in
  let attempts =
    List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) (List.rev !attempts)
    |> List.map snd
  in
  match won with
  | Some (sc, v) -> (Some v, attempts, (sc.sname, sc.bound_seen))
  | None -> (None, attempts, (name, None))

(* ----- the strategy ladder -----

   [rv] is the register-based view (the phase abstraction for
   latch-based designs, translated by Theorem 3), lazy so the
   sequential path only pays for it when the shallow probe fails.
   Portfolio execution forces it before submitting jobs: OCaml 5's
   [Lazy] is not safe to force concurrently, but reading an
   already-forced suspension is. *)
let ladder ~config ~backend ~suffix net ~target ~tlit ~rv : strategy list =
  let latch_based = Net.num_latches net > 0 in
  (* [cell base] is the (strategy, backend) cell's name: the plain
     strategy name except for non-reference backends in a race, which
     are suffixed so ranked cells stay distinguishable in attempt logs
     and cache keys while the default single-backend output stays
     byte-identical *)
  let cell base = base ^ suffix in
  (* a rung candidate that analyses the register view through one
     transformation pipeline and translates its bound back *)
  let pipeline_candidate base
      (run :
        ?budget:Obs.Budget.t -> ?inprocess:bool -> Net.t -> Pipeline.report) =
    ( cell base,
      fun cb ->
        let reg_view, fold = Lazy.force rv in
        let report =
          run ~budget:cb.sbudget ?inprocess:backend.Backend.b_inprocess reg_view
        in
        match
          List.find_opt
            (fun t -> String.equal t.Pipeline.target target)
            report.Pipeline.targets
        with
        | Some t ->
          bound_plan ~config cb
            ~translator:(Translate.compose fold t.Pipeline.translator)
            t.Pipeline.raw_bound
        | None ->
          cb.stand_down "target reduced away";
          None )
  in
  [
    (* 1. shallow probe *)
    single (cell "bmc-probe") (fun cb ->
      match
        Bmc.check ~budget:cb.sbudget ~backend net ~target
          ~depth:config.probe_depth
      with
      | Bmc.Hit cex ->
        cb.certified
          (fun () -> Certify.check_cex net tlit cex)
          (Violated { strategy = cell "bmc-probe"; cex })
      | Bmc.No_hit _ -> cb.stand_down "no shallow counterexample"
      | Bmc.Unknown { why; _ } -> cb.stand_down why);
    (* 2. the bound rung: the tightest completeness bound of four
       candidates is discharged first *)
    ( cell "bound",
      [
        (* structural bound, untransformed *)
        ( cell "structural-bound",
          fun cb ->
            let reg_view, fold = Lazy.force rv in
            match List.assoc_opt target (Net.targets reg_view) with
            | None ->
              cb.stand_down "target lost by phase abstraction";
              None
            | Some l ->
              bound_plan ~config cb ~translator:fold
                (Bound.target reg_view l).Bound.bound );
        (* COM (Theorem 1) *)
        pipeline_candidate "com+bound" Pipeline.com;
        (* COM,RET,COM (Theorems 1 + 2) *)
        pipeline_candidate "com-ret-com+bound" Pipeline.com_ret_com;
        (* target enlargement (Theorem 4) — register view only, and
           the hittability bound is still a valid completeness
           threshold for this very target *)
        ( cell "enlargement+bound",
          fun cb ->
            if latch_based then begin
              cb.stand_down "latch-based design";
              None
            end
            else
              match
                Transform.Enlarge.run
                  ~reg_limit:config.enlargement_reg_limit
                  ?max_nodes:(Obs.Budget.bdd_nodes cb.sbudget) net ~target
                  ~k:config.enlargement_k
              with
              | Error (Transform.Enlarge.Unsuitable reason) ->
                cb.stand_down reason;
                None
              | Error (Transform.Enlarge.Node_limit _) ->
                cb.stand_down budget_reason;
                None
              | Ok r when r.Transform.Enlarge.empty ->
                (* every hit, if any, occurs within the first k
                   steps; clamp so k = 0 (nothing hittable at all)
                   does not turn into a depth -1 run.  Note the BDD
                   emptiness result itself has no certificate — only
                   this BMC run is certified *)
                let depth = max 0 (config.enlargement_k - 1) in
                Some
                  {
                    rank = Sat_bound.of_int (depth + 1);
                    go =
                      (fun cb ->
                        let cert =
                          if cb.certifying then Some (Bmc.new_cert ())
                          else None
                        in
                        match
                          Bmc.check ?cert ~budget:cb.sbudget ~backend net
                            ~target ~depth
                        with
                        | Bmc.No_hit d ->
                          cb.certified
                            (fun () ->
                              let c = Option.get cert in
                              match Certify.check_no_hit ~depth:d c with
                              | Ok () ->
                                Option.iter
                                  (fun sink -> sink c.Bmc.proof)
                                  cb.sink;
                                Ok ()
                              | Error _ as e -> e)
                            (Proved
                               { strategy = cell "enlargement-empty"; depth = d })
                        | Bmc.Hit cex ->
                          cb.certified
                            (fun () -> Certify.check_cex net tlit cex)
                            (Violated
                               { strategy = cell "enlargement-empty"; cex })
                        | Bmc.Unknown { why; _ } -> cb.stand_down why);
                  }
              | Ok r ->
                let name =
                  Printf.sprintf "%s#enl%d" target config.enlargement_k
                in
                let b = Bound.target_named r.Transform.Enlarge.net name in
                bound_plan ~config cb
                  ~translator:
                    (Translate.target_enlargement ~k:config.enlargement_k)
                  b.Bound.bound );
      ] );
    (* 3. bounded-COI recurrence diameter *)
    single (cell "recurrence-bcoi") (fun cb ->
      let reg_view, fold = Lazy.force rv in
      match List.assoc_opt target (Net.targets reg_view) with
      | None -> cb.stand_down "target lost by phase abstraction"
      | Some l ->
        let rcert =
          if cb.certifying then Some (Recurrence.new_cert ()) else None
        in
        let r =
          Recurrence.compute ~limit:config.recurrence_limit ~bounded_coi:true
            ~budget:cb.sbudget ?cert:rcert ~backend reg_view l
        in
        if r.Recurrence.exhausted then
          cb.stand_down
            (Option.value ~default:budget_reason r.Recurrence.why)
        else
          let pre () =
            match rcert with
            | Some c -> Certify.check_recurrence c
            | None -> Ok ()
          in
          cb.discharge ~translator:fold ~pre r.Recurrence.bound);
    (* 4. temporal induction *)
    single (cell "k-induction") (fun cb ->
      if latch_based then cb.stand_down "latch-based design"
      else begin
        let icert =
          if cb.certifying then Some (Induction.new_cert ()) else None
        in
        match
          Induction.prove ~max_k:config.induction_max_k ~budget:cb.sbudget
            ?cert:icert ~backend net ~target
        with
        | Induction.Proved k ->
          cb.certified
            (fun () ->
              let c = Option.get icert in
              match Certify.check_induction ~k c with
              | Ok () ->
                Option.iter
                  (fun sink ->
                    match c.Induction.base with
                    | Some bc -> sink bc.Bmc.proof
                    | None -> ())
                  cb.sink;
                Ok ()
              | Error _ as e -> e)
            (Proved { strategy = cell "k-induction"; depth = k })
        | Induction.Cex cex ->
          cb.certified
            (fun () -> Certify.check_cex net tlit cex)
            (Violated { strategy = cell "k-induction"; cex })
        | Induction.Unknown k ->
          cb.stand_down (Printf.sprintf "gave up at k = %d" k)
        | Induction.Exhausted { why; _ } -> cb.stand_down why
      end);
  ]

(* ----- drivers ----- *)

let check_target net target =
  if not (List.mem_assoc target (Net.targets net)) then
    invalid_arg ("Engine.verify: unknown target " ^ target);
  List.assoc target (Net.targets net)

let reg_view_of net =
  lazy
    (if Net.num_latches net > 0 then Pipeline.phase_front net
     else (net, Translate.identity))

(* ----- the (strategy x backend) cell grid -----

   One cell per ladder strategy per backend of the run's spec,
   STRATEGY-MAJOR: all backends of strategy 1 outrank every cell of
   strategy 2.  With a single backend this degenerates to the plain
   ladder (identical names, identical order), so default output is
   unchanged.  Rank order is total and static, which is what keeps
   portfolio selection deterministic for every job count. *)

let rec transpose = function
  | [] | [] :: _ -> []
  | rows -> List.map List.hd rows :: transpose (List.map List.tl rows)

let cells ~config net ~target ~tlit ~rv : (Backend.t * strategy) list =
  let bs =
    match Backend.backends (spec_of config) with
    | [] -> [ Backend.reference () ]
    | bs -> bs
  in
  let multi = List.length bs > 1 in
  List.map
    (fun b ->
      let suffix =
        if multi && not (Backend.is_reference b) then "@" ^ b.Backend.b_name
        else ""
      in
      List.map
        (fun s -> (b, s))
        (ladder ~config ~backend:b ~suffix net ~target ~tlit ~rv))
    bs
  |> transpose |> List.concat

let count_verdict verdict =
  match verdict with
  | Proved _ -> Stats.count "engine.proved" 1
  | Violated _ -> Stats.count "engine.violated" 1
  | Inconclusive _ -> Stats.count "engine.inconclusive" 1

(* ----- the bound cache hooks -----

   [bcache] is [(cache, key_prefix)]: per ladder strategy and rung
   candidate, the prefix plus its name keys a previously certified
   completeness bound.  Seeding replaces the strategy's body (or the
   candidate's analysis) with the cached bound — the expensive analysis
   (COM/RET/BDD/recurrence) is skipped, while the discharge BMC run
   and its certification are repeated in full, so a seeded ladder can
   only conclude what a fresh ladder would.  [Bcache.peek] keeps these
   speculative probes out of the request-level hit/miss counters. *)

let seed_strategies ~config bcache cells =
  match bcache with
  | None -> cells
  | Some (cache, kp) ->
    let cached name =
      match Bcache.peek cache (kp ^ name) with
      | Some (Bcache.Bound { raw; _ }) ->
        Stats.count "engine.cache.bound_seeded" 1;
        Some raw
      | Some _ | None -> None
    in
    List.map
      (fun (backend, (name, cands)) ->
        let seed (cname, analyse) =
          match cached cname with
          | Some raw -> (cname, fun cb -> bound_plan ~config cb raw)
          | None -> (cname, analyse)
        in
        (backend, (name, List.map seed cands)))
      cells

(* Bounds enter the cache only off a certified [Proved], under the
   winning name only: that certification re-derived the translation
   arithmetic (and any recurrence evidence), so the stored bound's
   provenance is checked — an injected fault upstream of it cannot be
   laundered through the cache.  [Violated] is excluded: its certification replays the cex
   but does not re-check the bound. *)
let store_bound bcache ~certify verdict name bound =
  match (bcache, verdict, bound) with
  | Some (cache, kp), Proved _, Some raw when certify ->
    Bcache.add cache (kp ^ name) (Bcache.Bound { strategy = name; raw })
  | _ -> ()

let verify ?(config = default) ?(budget = Obs.Budget.unlimited)
    ?(certify = false) ?proof_sink ?bcache net ~target =
  let tlit = check_target net target in
  (* a proof sink only ever receives certified proofs *)
  let certify = certify || proof_sink <> None in
  let rv = reg_view_of net in
  let grid =
    seed_strategies ~config bcache (cells ~config net ~target ~tlit ~rv)
  in
  let attempts = ref [] in
  let remaining =
    ref (List.fold_left (fun k (_, (_, cands)) -> k + List.length cands) 0 grid)
  in
  let run_ladder () =
    try
      List.iter
        (fun (backend, ((_, cands) as s)) ->
          (* Deadlines degrade gracefully: every strategy and every
             rung candidate gets an equal slice of whatever wall-clock
             remains when it starts (so an early one overrunning only
             squeezes, never starves, the later ones — [slice] clamps
             an overdrawn remainder, and [run_cell] records a budget
             attempt on a dead slice rather than skipping). *)
          let later = !remaining - List.length cands in
          let slice_for k = Obs.Budget.slice budget ~ways:(max 1 (later + k)) in
          let verdict, atts, (winner, bound) =
            run_cell ~config ~certify ~proof_sink ~backend ~slice_for net
              ~target ~tlit s
          in
          attempts := !attempts @ atts;
          remaining := later;
          match verdict with
          | Some v ->
            store_bound bcache ~certify v winner bound;
            raise (Done v)
          | None -> ())
        grid;
      Inconclusive { attempts = !attempts }
    with Done v -> v
  in
  let verdict =
    Obs.Trace.with_span_args "engine.verify"
      ~args:[ ("target", Obs.Trace.String target) ]
      (fun () ->
        let v = run_ladder () in
        (v, [ ("verdict", Obs.Trace.String (outcome_name v)) ]))
  in
  count_verdict verdict;
  verdict

(* ----- portfolio execution -----

   Each (strategy, backend) cell becomes an independent job: cells
   already discharge on the ORIGINAL netlist, so their verdicts
   compose without any cross-cell state.  Determinism comes from the
   selection rule, not arrival order: the conclusive verdict of the
   LOWEST-ranked cell wins, which is exactly the cell sequential
   [verify] would have stopped at (every lower-ranked cell ran to
   completion uncancelled and was inconclusive).  A conclusive verdict
   at rank k stands down only ranks ABOVE k — their outcome can no
   longer matter — through the budget cancellation token each job
   polls at its existing check points (the backends' solve loops all
   poll [should_stop], so BDD and external cells cancel too). *)

let verify_portfolio ?(config = default) ?(budget = Obs.Budget.unlimited)
    ?(certify = false) ?proof_sink ?pool ?(jobs = 1) ?bcache net ~target =
  let pool_size = match pool with Some p -> Sched.Pool.size p | None -> jobs in
  if pool_size <= 1 && pool = None then
    (* one worker: run the ladder in-domain, bit-for-bit the
       sequential semantics (including lazy phase abstraction) *)
    verify ~config ~budget ~certify ?proof_sink ?bcache net ~target
  else begin
    let tlit = check_target net target in
    let certify = certify || proof_sink <> None in
    let rv = reg_view_of net in
    (* force before sharing: concurrent Lazy.force is unsafe, reading
       a forced suspension is not *)
    ignore (Lazy.force rv);
    (* seeding happens here, on the calling domain, before any job is
       submitted — workers never touch the cache, so the seeded ladder
       is the same for every [jobs] value given the same cache state *)
    let grid =
      seed_strategies ~config bcache (cells ~config net ~target ~tlit ~rv)
    in
    let n = List.length grid in
    let cancels = Array.init n (fun _ -> Atomic.make false) in
    let cancel_above k =
      for j = k + 1 to n - 1 do
        Atomic.set cancels.(j) true
      done
    in
    let run_job (rank, (backend, s)) =
      (* proofs are sunk locally and replayed only if this rank is
         selected — the real sink must not observe losers *)
      let proofs = ref [] in
      let local_sink =
        match proof_sink with
        | None -> None
        | Some _ -> Some (fun p -> proofs := p :: !proofs)
      in
      (* every job gets the WHOLE remaining budget (racing strategies
         replace the sequential equal split) plus its rank's
         cancellation token *)
      let jbudget = Obs.Budget.with_cancel budget cancels.(rank) in
      let verdict, atts, winner =
        run_cell ~config ~certify ~proof_sink:local_sink ~backend
          ~slice_for:(fun _ -> jbudget) net ~target ~tlit s
      in
      if verdict <> None then cancel_above rank;
      (verdict, atts, List.rev !proofs, winner)
    in
    let indexed = List.mapi (fun i c -> (i, c)) grid in
    let verdict =
      Obs.Trace.with_span_args "engine.verify"
        ~args:
          [
            ("target", Obs.Trace.String target);
            ("jobs", Obs.Trace.Int pool_size);
          ]
        (fun () ->
          let results =
            match pool with
            | Some p -> Sched.Pool.map p run_job indexed
            | None ->
              Sched.Pool.with_pool ~jobs (fun p ->
                  Sched.Pool.map p run_job indexed)
          in
          let v =
            match
              (* results are in rank order; the first conclusive one
                 is the sequential answer *)
              List.find_map
                (function
                  | Some v, _, proofs, nb -> Some (v, proofs, nb)
                  | None, _, _, _ -> None)
                results
            with
            | Some (v, proofs, (sname, bound)) ->
              Option.iter (fun sink -> List.iter sink proofs) proof_sink;
              (* only the WINNING rank's bound enters the cache — the
                 same bound the sequential ladder would have stored *)
              store_bound bcache ~certify v sname bound;
              v
            | None ->
              Inconclusive
                { attempts = List.concat_map (fun (_, a, _, _) -> a) results }
          in
          (v, [ ("verdict", Obs.Trace.String (outcome_name v)) ]))
    in
    count_verdict verdict;
    verdict
  end

(* ----- cached verification ----- *)

type cache_status = Cache_hit | Cache_miss

(* The configuration digest folded into every cache key.  The verdict
   key includes [cutoff] (it decides whether a bound concludes); the
   bound key omits it — a completeness bound is a property of the cone,
   valid under any cutoff.  The budget is in neither: a conclusive,
   certified verdict holds regardless of how much time the run that
   produced it was allowed. *)
let config_digest ~with_cutoff c =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "cfg:%s:%d:%d:%d:%d:%d:%s"
          (if with_cutoff then string_of_int c.cutoff else "-")
          c.probe_depth c.enlargement_k c.enlargement_reg_limit
          c.recurrence_limit c.induction_max_k
          (Backend.spec_id (spec_of c))))

let cache_keys ?(config = default) ~certify net ~target =
  let tlit = check_target net target in
  let fp = Net.cone_fingerprint net tlit in
  ( Printf.sprintf "v:%s:%s:%b" fp (config_digest ~with_cutoff:true config)
      certify,
    Printf.sprintf "b:%s:%s:" fp (config_digest ~with_cutoff:false config) )

let verify_cached ?(config = default) ?budget ?(certify = false) ?pool
    ?(jobs = 1) ~cache net ~target =
  let vkey, bprefix = cache_keys ~config ~certify net ~target in
  match Bcache.find cache vkey with
  | Some (Bcache.Proved { strategy; depth }) ->
    let v = Proved { strategy; depth } in
    count_verdict v;
    (v, Cache_hit)
  | Some (Bcache.Violated { strategy; cex }) ->
    let v = Violated { strategy; cex } in
    count_verdict v;
    (v, Cache_hit)
  | Some (Bcache.Bound _) (* never stored under a "v:" key *) | None ->
    let v =
      verify_portfolio ~config ?budget ~certify ?pool ~jobs
        ~bcache:(cache, bprefix) net ~target
    in
    (if certify then
       match v with
       | Proved { strategy; depth } ->
         Bcache.add cache vkey (Bcache.Proved { strategy; depth })
       | Violated { strategy; cex } ->
         Bcache.add cache vkey (Bcache.Violated { strategy; cex })
       | Inconclusive _ ->
         (* never cached: an inconclusive outcome is circumstance
            (budget, limits), not a fact about the cone *)
         ());
    (v, Cache_miss)

let exhausted = function
  | Proved _ | Violated _ -> false
  | Inconclusive { attempts } ->
    List.exists (fun a -> String.equal a.reason budget_reason) attempts

let cert_failed = function
  | Proved _ | Violated _ -> None
  | Inconclusive { attempts } ->
    let p = cert_fail_reason in
    let plen = String.length p in
    List.find_map
      (fun a ->
        if String.length a.reason >= plen && String.equal (String.sub a.reason 0 plen) p
        then Some (a.strategy ^ ": " ^ a.reason)
        else None)
      attempts
