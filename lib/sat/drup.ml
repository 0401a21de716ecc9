(* Forward DRUP checking: an independent certifier for Unsat answers.

   The checker shares nothing with the solver but the literal
   encoding: it has its own clause store, its own watch lists and its
   own unit propagation, so a bug in the solver's propagation or
   conflict analysis cannot also hide in the check.

   Each [Add] event must have the reverse-unit-propagation (RUP)
   property against the clauses live at that point: asserting the
   negation of every literal of the lemma and propagating to fixpoint
   must yield a conflict.  After the whole log is replayed, each goal
   cube (the assumptions of one Unsat answer) must itself propagate to
   a conflict against the final clause set.  Monotonicity of unit
   propagation makes checking early goals against the final set sound:
   the solver never deletes a clause locked as a top-level reason, so
   every root-level implication it ever derived is re-derivable. *)

type clause = {
  lits : int array; (* positions 0 and 1 are the watched literals *)
  mutable active : bool;
}

(* Deletion index keyed on the canonical (strictly increasing) literal
   array itself: proof events are canonical already, so no per-clause
   list or polymorphic hash is built. *)
module Index = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  let hash (a : t) =
    Array.fold_left (fun h l -> (h * 31) + l) (Array.length a) a land max_int
end)

type t = {
  mutable nvars : int;
  mutable assigns : int array; (* var -> -1 unassigned / 0 false / 1 true *)
  mutable watches : clause Vec.t array; (* per literal *)
  trail : int Vec.t;
  mutable qhead : int;
  index : clause list ref Index.t; (* for deletions *)
  mutable root_conflict : bool;
  mutable clauses : int; (* live clause count, for reporting *)
}

let dummy_clause = { lits = [||]; active = false }

let create () =
  {
    nvars = 0;
    assigns = [||];
    watches = [||];
    trail = Vec.create ~dummy:0 ();
    qhead = 0;
    index = Index.create 256;
    root_conflict = false;
    clauses = 0;
  }

let var_of l = l lsr 1
let negate l = l lxor 1

let ensure_var t v =
  if v >= t.nvars then begin
    (* grow the LOGICAL size geometrically, so consecutive fresh
       variables trigger O(log n) reallocations in total — growing only
       the capacity while keeping nvars at v+1 would reallocate (and
       double) the watch array on every single new variable *)
    let n = max (v + 1) (2 * t.nvars) in
    let assigns = Array.make n (-1) in
    Array.blit t.assigns 0 assigns 0 t.nvars;
    t.assigns <- assigns;
    let old = Array.length t.watches in
    let watches =
      Array.init (2 * n) (fun i ->
          if i < old then t.watches.(i) else Vec.create ~dummy:dummy_clause ())
    in
    t.watches <- watches;
    t.nvars <- n
  end

let value t l =
  let a = t.assigns.(var_of l) in
  if a < 0 then -1 else a lxor (l land 1)

(* returns false on conflict *)
let assign t l =
  match value t l with
  | 1 -> true
  | 0 -> false
  | _ ->
    t.assigns.(var_of l) <- (if l land 1 = 0 then 1 else 0);
    Vec.push t.trail l;
    true

(* two-watched-literal unit propagation; returns false on conflict *)
let propagate t =
  let ok = ref true in
  while !ok && t.qhead < Vec.size t.trail do
    let p = Vec.get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    let false_lit = negate p in
    let ws = t.watches.(false_lit) in
    let n = Vec.size ws in
    let j = ref 0 in
    let i = ref 0 in
    while !i < n do
      let c = Vec.get ws !i in
      incr i;
      if c.active then begin
        if c.lits.(0) = false_lit then begin
          c.lits.(0) <- c.lits.(1);
          c.lits.(1) <- false_lit
        end;
        let first = c.lits.(0) in
        if value t first = 1 then begin
          Vec.set ws !j c;
          incr j
        end
        else begin
          let len = Array.length c.lits in
          let rec find k =
            if k >= len then -1
            else if value t c.lits.(k) <> 0 then k
            else find (k + 1)
          in
          let k = find 2 in
          if k >= 0 then begin
            c.lits.(1) <- c.lits.(k);
            c.lits.(k) <- false_lit;
            Vec.push t.watches.(c.lits.(1)) c
          end
          else begin
            Vec.set ws !j c;
            incr j;
            if not (assign t first) then begin
              ok := false;
              (* keep the remaining watch entries *)
              while !i < n do
                Vec.set ws !j (Vec.get ws !i);
                incr j;
                incr i
              done
            end
          end
        end
      end
    done;
    Vec.shrink ws !j
  done;
  !ok

let undo_to t mark =
  for i = Vec.size t.trail - 1 downto mark do
    t.assigns.(var_of (Vec.get t.trail i)) <- -1
  done;
  Vec.shrink t.trail mark;
  t.qhead <- mark

(* the canonical form of a clause; only inputs from outside the proof
   log (e.g. [check_cnf]'s) need sorting *)
let key lits =
  let n = Array.length lits in
  let rec increasing i = i >= n || (lits.(i - 1) < lits.(i) && increasing (i + 1)) in
  if increasing 1 then lits else Proof.canon lits

(* insert a clause (already RUP-checked or an axiom) into the store,
   folding it into the root assignment when unit or empty *)
let insert t lits =
  Array.iter (fun l -> ensure_var t (var_of l)) lits;
  if not t.root_conflict then begin
    let k = key lits in
    (* a literal already true at root satisfies the clause, but it must
       stay watchable in case a temporary probe is undone; put a
       non-false literal (preferring a true one) in each watch slot *)
    let lits = Array.copy lits in
    let n = Array.length lits in
    let prefer slot =
      (* move the best literal (true > unassigned > false) to [slot];
         note raw values order false (0) above unassigned (-1), so
         rank them explicitly *)
      let rank l =
        match value t l with 1 -> 2 | -1 -> 1 | _ -> 0
      in
      let best = ref slot in
      for k = slot to n - 1 do
        if rank lits.(k) > rank lits.(!best) then best := k
      done;
      let tmp = lits.(slot) in
      lits.(slot) <- lits.(!best);
      lits.(!best) <- tmp
    in
    if n = 0 then t.root_conflict <- true
    else begin
      prefer 0;
      if value t lits.(0) = 0 then
        (* every literal false at root *)
        t.root_conflict <- true
      else if n = 1 || (prefer 1; value t lits.(1) = 0 && value t lits.(0) < 1)
      then begin
        (* unit under the root assignment: fold in permanently *)
        if not (assign t lits.(0) && propagate t) then t.root_conflict <- true
      end
      else begin
        let c = { lits; active = true } in
        Vec.push t.watches.(lits.(0)) c;
        Vec.push t.watches.(lits.(1)) c;
        t.clauses <- t.clauses + 1;
        match Index.find_opt t.index k with
        | Some r -> r := c :: !r
        | None -> Index.add t.index k (ref [ c ])
      end
    end
  end

let delete t lits =
  match Index.find_opt t.index (key lits) with
  | Some ({ contents = c :: rest } as r) ->
    c.active <- false;
    t.clauses <- t.clauses - 1;
    r := rest
  | Some { contents = [] } | None ->
    (* deleting an unknown clause only weakens the derivation; a
       corrupted log still cannot certify a wrong answer *)
    ()

(* assert every literal of [cube], propagate, expect a conflict *)
let refutes t cube =
  t.root_conflict
  ||
  let mark = Vec.size t.trail in
  List.iter (fun l -> ensure_var t (var_of l)) cube;
  let conflict =
    not (List.for_all (fun l -> assign t l) cube && propagate t)
  in
  undo_to t mark;
  conflict

(* RUP check: the negation of every literal of [lits] propagates to a
   conflict.  A lemma containing a root-true literal is subsumed and
   passes trivially. *)
let rup t lits =
  t.root_conflict
  || Array.exists (fun l -> value t l = 1) lits
  || refutes t (List.map negate (Array.to_list lits))

let check ?(goals = [ [] ]) events =
  let t = create () in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let rec steps i = function
    | [] -> Ok ()
    | ev :: rest -> (
      match ev with
      | Proof.Input lits ->
        insert t lits;
        steps (i + 1) rest
      | Proof.Add lits ->
        if rup t lits then begin
          insert t lits;
          steps (i + 1) rest
        end
        else
          err "lemma %d of the proof is not reverse-unit-propagation (%d lits)"
            i (Array.length lits)
      | Proof.Delete lits ->
        delete t lits;
        steps (i + 1) rest)
  in
  match steps 0 events with
  | Error _ as e -> e
  | Ok () ->
    let rec check_goals i = function
      | [] -> Ok ()
      | g :: rest ->
        if refutes t g then check_goals (i + 1) rest
        else
          err
            "goal %d is not refuted by unit propagation over the certified \
             clauses (%d clauses live)"
            i t.clauses
    in
    check_goals 0 goals

let check_cnf cnf ?goals events =
  let inputs =
    List.map (fun c -> Proof.Input (Array.of_list c)) cnf.Cnf.clauses
  in
  check ?goals (inputs @ events)
