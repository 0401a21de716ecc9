module Net = Netlist.Net
module Lit = Netlist.Lit
module Solver = Backend

type t = {
  solver : Solver.solver;
  net : Net.t;
  vars : int array; (* netlist var -> solver var, -1 if not yet encoded *)
  const_var : int;
}

let create solver net =
  let const_var = Solver.new_var solver in
  Solver.add_clause solver [ Solver.neg_of const_var ];
  { solver; net; vars = Array.make (Net.num_vars net) (-1); const_var }

let solver t = t.solver

let rec var t v =
  if t.vars.(v) >= 0 then t.vars.(v)
  else begin
    match Net.node t.net v with
    | Net.Const -> t.const_var
    | Net.Input _ | Net.Reg _ | Net.Latch _ ->
      let sv = Solver.new_var t.solver in
      t.vars.(v) <- sv;
      sv
    | Net.And (a, b) ->
      let sa = slit t a in
      let sb = slit t b in
      let sv = Solver.new_var t.solver in
      t.vars.(v) <- sv;
      let c = Solver.pos sv in
      Solver.add_clause t.solver [ Solver.negate c; sa ];
      Solver.add_clause t.solver [ Solver.negate c; sb ];
      Solver.add_clause t.solver [ c; Solver.negate sa; Solver.negate sb ];
      sv
  end

and slit t l =
  let sv = var t (Lit.var l) in
  if Lit.is_neg l then Solver.neg_of sv else Solver.pos sv

let lit = slit

let state_var t v =
  if not (Net.is_state t.net v) then invalid_arg "Frame.state_var";
  Solver.pos (var t v)

let link pre post =
  List.iter
    (fun r ->
      let next = lit pre (Net.reg_of pre.net r).Net.next in
      let s = state_var post r in
      Solver.add_clause pre.solver [ Solver.negate next; s ];
      Solver.add_clause pre.solver [ next; Solver.negate s ])
    (Net.regs pre.net)

let distinct solver a b =
  let diffs =
    List.map2
      (fun x y ->
        (* d -> (x xor y) *)
        let d = Solver.pos (Solver.new_var solver) in
        Solver.add_clause solver [ Solver.negate d; x; y ];
        Solver.add_clause solver
          [ Solver.negate d; Solver.negate x; Solver.negate y ];
        d)
      a b
  in
  Solver.add_clause solver diffs
