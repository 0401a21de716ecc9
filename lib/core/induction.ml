module Net = Netlist.Net
module Lit = Netlist.Lit
module Solver = Backend

type outcome =
  | Proved of int
  | Cex of Bmc.cex
  | Unknown of int
  | Exhausted of { k : int; why : string }

(* certificate for a [Proved k] outcome: the base case is an ordinary
   BMC certificate to depth k; the step case is the step solver's
   proof together with the assumption literal ("target at frame k+1")
   whose refutation is the induction step *)
type cert = {
  mutable base : Bmc.cert option;
  mutable step : (Sat.Proof.event list * Solver.lit) option;
}

let new_cert () = { base = None; step = None }

(* The step case, one solver per [prove]: from a free state, [k + 1]
   hit-free frames force the next frame to be hit-free.  Frames are
   numbered by their distance [m] from the goal frame [m = 0], whose
   target literal is the one assumption [goal]; frames [m >= 1] are
   hit-free.  Going from [k - 1] to [k] prepends frame [m = k + 1]:
   tied to the old front, hit-free and, with [unique], distinct from
   every later frame.  Clauses are only added, so each solve sees the
   from-scratch step encoding of its [k] up to variable names, and the
   single proof log certifies whichever [k] closes the induction.
   Returns the check for the next [k], to be called with 0, 1, ... *)
let step_case ~unique ?budget ?cert ?backend net target =
  let solver =
    match backend with
    | Some b -> Backend.instantiate b
    | None -> Backend.default_solver ()
  in
  let proof =
    Option.map
      (fun _ ->
        let p = Sat.Proof.create () in
        Solver.set_proof solver p;
        p)
      cert
  in
  let last = Encode.Frame.create solver net in
  let goal = Encode.Frame.lit last target in
  let path = ref [ last ] (* front (largest m) first *) in
  fun k ->
    let front = Encode.Frame.create solver net in
    Encode.Frame.link front (List.hd !path);
    Solver.add_clause solver [ Solver.negate (Encode.Frame.lit front target) ];
    if unique then begin
      let regs = Net.regs net in
      let states f = List.map (Encode.Frame.state_var f) regs in
      let mine = states front in
      List.iter (fun f -> Encode.Frame.distinct solver mine (states f)) !path
    end;
    path := front :: !path;
    match
      fst
        (Encode.Sat_obs.solve ~assumptions:[ goal ] ?budget
           ~span:"induction.solve"
           ~attrs:[ ("k", Obs.Trace.Int k) ]
           solver)
    with
    | Solver.Unsat ->
      Option.iter
        (fun c -> c.step <- Some (Sat.Proof.events (Option.get proof), goal))
        cert;
      `Holds
    | Solver.Sat -> `Fails
    | Solver.Unknown why -> `Unknown why

let prove ?(max_k = 32) ?(unique = true) ?budget ?cert ?backend net ~target =
  if Net.num_latches net > 0 then
    invalid_arg "Induction.prove: register netlists only";
  let tlit =
    match List.assoc_opt target (Net.targets net) with
    | Some l -> l
    | None -> invalid_arg ("Induction.prove: unknown target " ^ target)
  in
  let give_up ?(why = Backend.budget_reason) k =
    if not (Backend.is_unavailable why) then
      Obs.Budget.note_exhausted "induction";
    Exhausted { k; why }
  in
  let expired () =
    match budget with Some b -> Obs.Budget.expired b | None -> false
  in
  (* a fresh BMC certificate per base check: check_lit builds a fresh
     solver each call, and only the final k's base matters *)
  let base_cert () =
    Option.map
      (fun c ->
        let bc = Bmc.new_cert () in
        c.base <- Some bc;
        bc)
      cert
  in
  (* degenerate case: no state at all *)
  if Net.regs net = [] then begin
    match Bmc.check_lit ?budget ?cert:(base_cert ()) ?backend net tlit ~depth:0 with
    | Bmc.Hit cex -> Cex cex
    | Bmc.No_hit _ -> Proved 0
    | Bmc.Unknown { why; _ } -> give_up ~why 0
  end
  else begin
    let step = lazy (step_case ~unique ?budget ?cert ?backend net tlit) in
    let rec go k =
      if k > max_k then Unknown max_k
      else if expired () then give_up k
      else begin
        (* base case: no hit within the first k steps *)
        match Bmc.check_lit ?budget ?cert:(base_cert ()) ?backend net tlit ~depth:k with
        | Bmc.Hit cex -> Cex cex
        | Bmc.Unknown { why; _ } -> give_up ~why k
        | Bmc.No_hit _ -> (
          match Lazy.force step k with
          | `Holds -> Proved k
          | `Fails -> go (k + 1)
          | `Unknown why -> give_up ~why k)
      end
    in
    go 0
  end
