(* Clausal proof log: the solver appends an event per input clause,
   learnt clause and deletion, in operational order.  The log is both
   a self-contained derivation (inputs are axioms) and dumpable as a
   drat-trim-compatible DRUP text file (lemmas and deletions only —
   the formula itself ships separately as DIMACS). *)

type event =
  | Input of int array
  | Add of int array
  | Delete of int array

type t = {
  mutable events : event list; (* newest first *)
  mutable n_inputs : int;
  mutable n_adds : int;
  mutable n_deletes : int;
}

let create () = { events = []; n_inputs = 0; n_adds = 0; n_deletes = 0 }

(* canonical form: sorted, deduplicated.  Learnt-clause arrays are
   mutated in place by the solver's watch swapping, so events must
   copy at log time; sorting makes add/delete pairs match up. *)
let canon lits =
  let a = Array.copy lits in
  Array.sort Int.compare a;
  let n = Array.length a in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || a.(i) <> a.(i - 1) then begin
      a.(!j) <- a.(i);
      incr j
    end
  done;
  Array.sub a 0 !j

let log_input p lits =
  p.events <- Input (canon lits) :: p.events;
  p.n_inputs <- p.n_inputs + 1

let log_add p lits =
  p.events <- Add (canon lits) :: p.events;
  p.n_adds <- p.n_adds + 1

let log_delete p lits =
  p.events <- Delete (canon lits) :: p.events;
  p.n_deletes <- p.n_deletes + 1

let events p = List.rev p.events
let num_inputs p = p.n_inputs
let num_adds p = p.n_adds
let num_deletes p = p.n_deletes

(* ----- DRUP text (drat-trim compatible) ----- *)

(* solver literal <-> DIMACS integer *)
let dimacs_of_lit l =
  let v = (l lsr 1) + 1 in
  if l land 1 = 0 then v else -v

let lit_of_dimacs i =
  let v = abs i - 1 in
  if i > 0 then 2 * v else (2 * v) + 1

let pp_clause ppf lits =
  Array.iter (fun l -> Format.fprintf ppf "%d " (dimacs_of_lit l)) lits;
  Format.pp_print_string ppf "0"

let pp ppf p =
  List.iter
    (fun ev ->
      match ev with
      | Input _ -> () (* the formula is not part of a DRUP file *)
      | Add lits -> Format.fprintf ppf "%a@." pp_clause lits
      | Delete lits -> Format.fprintf ppf "d %a@." pp_clause lits)
    (events p)

let to_string p = Format.asprintf "%a" pp p

let parse text =
  let p = create () in
  List.iteri
    (fun lineno line ->
      let line = String.trim line in
      if String.length line > 0 && line.[0] <> 'c' then begin
        let deletion = line.[0] = 'd' in
        let body =
          if deletion then String.sub line 1 (String.length line - 1) else line
        in
        let toks =
          String.split_on_char ' ' body |> List.filter (( <> ) "")
        in
        let lits = ref [] in
        let closed = ref false in
        List.iter
          (fun tok ->
            match int_of_string_opt tok with
            | None ->
              failwith
                (Printf.sprintf "Proof.parse: line %d: bad token %S"
                   (lineno + 1) tok)
            | Some 0 -> closed := true
            | Some i ->
              if !closed then
                failwith
                  (Printf.sprintf "Proof.parse: line %d: literal after 0"
                     (lineno + 1));
              lits := lit_of_dimacs i :: !lits)
          toks;
        if toks <> [] then begin
          if not !closed then
            failwith
              (Printf.sprintf "Proof.parse: line %d: unterminated clause"
                 (lineno + 1));
          let arr = Array.of_list (List.rev !lits) in
          if deletion then log_delete p arr else log_add p arr
        end
      end)
    (String.split_on_char '\n' text);
  p

let parse_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      parse (really_input_string ic n))
