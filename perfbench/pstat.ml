(* Statistics and accounting rules shared by every workload.  Pure, so
   the benchmark's own tests can pin them down. *)

(* A metric name is 1..64 of [A-Za-z0-9_.-], starting with a letter or
   a digit: the grammar the benchmark's result line promises. *)
let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with
     | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all ok_char s

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it.  [None] on an empty sample. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then None
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    Some a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 50. xs

(* Samples strictly above the nearest-rank [p]th percentile position:
   the ones that "lie beyond" it. *)
let beyond p n =
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  n - rank

(* A tail percentile is only reported when at least 10 samples lie
   beyond it; with fewer, the value is one or two outliers, not a
   percentile. *)
let tail_percentile p xs =
  if beyond p (List.length xs) >= 10 then percentile p xs else None

(* Failure accounting: every operation attempted ends either in an
   answer or in one of these failure kinds.  An [Inconclusive] verdict
   is an answer (it lowers the decided share, not the fail share). *)
type tally = {
  attempted : int;
  errors : int;  (** error responses / exceptions *)
  shed : int;  (** refused by admission control *)
  crashes : int;  (** a worker died or the barrier was crossed *)
  cert_fail : int;  (** "engine.cert_fail": a withheld, corrupt verdict *)
}

let empty_tally =
  { attempted = 0; errors = 0; shed = 0; crashes = 0; cert_fail = 0 }

let failed t = t.errors + t.shed + t.crashes + t.cert_fail

let fail_share t =
  if t.attempted <= 0 then 1.0
  else float_of_int (failed t) /. float_of_int t.attempted

let add_tally a b =
  {
    attempted = a.attempted + b.attempted;
    errors = a.errors + b.errors;
    shed = a.shed + b.shed;
    crashes = a.crashes + b.crashes;
    cert_fail = a.cert_fail + b.cert_fail;
  }
