(* The verdict reference: for every (design, target) problem, the
   earliest time the target can be hit, or "unreachable", from exact
   reachability (Core.Symbolic, falling back to the explicit-state
   Core.Exact) — never from the strategy ladder under test.

   Reference files under perfbench/reference/ store the answers for the
   seeds BENCHMARK.json records.  For those seeds a run recomputes the
   reference and refuses to start if it drifted from the stored file;
   for any other seed the recomputed reference is used alone. *)

type answer = Hit of int | Unreachable

let to_string = function Hit d -> string_of_int d | Unreachable -> "unreachable"

(* [None] when neither exact engine can decide the cone *)
let compute net lit =
  match Core.Symbolic.explore net lit with
  | Some r -> (
    Some
      (match r.Core.Symbolic.earliest_hit with
      | Some d -> Hit d
      | None -> Unreachable))
  | None -> (
    match Core.Exact.explore net lit with
    | Some r -> (
      Some
        (match r.Core.Exact.earliest_hit with
        | Some d -> Hit d
        | None -> Unreachable))
    | None -> None)

(* A conclusive verdict contradicts the reference when it proves a
   reachable target, or reports a hit earlier than the earliest
   possible one or on an unreachable target.  A counterexample deeper
   than the earliest hit is sound (BMC discharges may start past the
   probe depth), and Inconclusive is never wrong. *)
type verdict = Proved | Violated of int | Inconclusive

let contradicts answer verdict =
  match (answer, verdict) with
  | _, Inconclusive -> false
  | Hit _, Proved -> true
  | Unreachable, Proved -> false
  | Unreachable, Violated _ -> true
  | Hit h, Violated d -> d < h

let of_engine = function
  | Core.Engine.Proved _ -> Proved
  | Core.Engine.Violated { cex; _ } -> Violated cex.Bmc.depth
  | Core.Engine.Inconclusive _ -> Inconclusive

(* ---- stored files: one "<key> <answer>" line per problem ---- *)

let dir = Filename.concat "perfbench" "reference"

let path name = Filename.concat dir name

let load name =
  let file = path name in
  if not (Sys.file_exists file) then None
  else
    In_channel.with_open_text file (fun ic ->
        let lines = In_channel.input_all ic |> String.split_on_char '\n' in
        Some
          (List.filter_map
             (fun l ->
               match String.split_on_char ' ' (String.trim l) with
               | [ key; v ] -> Some (key, v)
               | _ -> None)
             lines))

let save name entries =
  Out_channel.with_open_text (path name) (fun oc ->
      List.iter (fun (k, v) -> Printf.fprintf oc "%s %s\n" k v) entries)

(* Freshly computed entries must equal the stored ones exactly: an
   entry changed, added or missing on either side is a difference. *)
let diff name ~stored entries =
  if stored = entries then Ok ()
  else
    let first_diff =
      let rec go a b =
        match (a, b) with
        | (k, v) :: a', (k', v') :: b' ->
          if k = k' && v = v' then go a' b'
          else Printf.sprintf "%s=%s vs stored %s=%s" k v k' v'
        | (k, _) :: _, [] -> Printf.sprintf "%s not in stored file" k
        | [], (k, _) :: _ -> Printf.sprintf "stored %s not generated" k
        | [], [] -> "?"
      in
      go entries stored
    in
    Error (Printf.sprintf "reference %s drifted: %s" name first_diff)

(* Compare freshly computed entries with the stored file, when there is
   one: the workload generator and the exact engines must still produce
   exactly the committed reference. *)
let check_stored name entries =
  match load name with None -> Ok () | Some stored -> diff name ~stored entries
