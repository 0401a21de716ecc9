(* serve: Serve.Server.run_session in process with 2 worker domains,
   driven by 2 closed-loop clients over a corpus of certified verify
   requests, each carrying an inline fuzz-bred netlist.  About 40% of
   the requests repeat an earlier problem, so the bound cache's hit
   and miss paths both run. *)

open Perfbench_kit

module Json = Obs.Report

let jobs = 2
let clients = 2
let requests = 1000
let repeat_share = 0.4

(* far above any corpus problem's cost (tens of ms at most), so no
   request can flip to budget-exhausted under load *)
let timeout_ms = 20_000

let config = { Serve.Server.default_config with Serve.Server.jobs }

let request_line i (p : Problems.t) =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.String (string_of_int i));
         ("op", Json.String "verify");
         ("netlist", Json.String p.text);
         ("target", Json.String p.target);
         ("timeout_ms", Json.Int timeout_ms);
         ("certify", Json.Bool true);
       ])

(* the request sequence: fresh problems in order, and with probability
   [repeat_share] an earlier request's problem again *)
let corpus ~seed =
  let fresh = Array.of_list (Problems.fuzz ~seed ~cases:480) in
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let issued = ref [] and next_fresh = ref 0 in
  Array.init requests (fun _ ->
      let repeat =
        !issued <> []
        && (!next_fresh >= Array.length fresh
           || Random.State.float rng 1.0 < repeat_share)
      in
      let p =
        if repeat then
          let earlier = Array.of_list !issued in
          earlier.(Random.State.int rng (Array.length earlier))
        else begin
          let p = fresh.(!next_fresh) in
          incr next_fresh;
          issued := p :: !issued;
          p
        end
      in
      p)

type response = Answer of Reference.verdict * string option | Error of string

(* request index and outcome of one response line *)
let parse_response line =
  match Json.parse line with
  | Json.Obj fields -> (
    let field k = List.assoc_opt k fields in
    let str k = match field k with Some (Json.String s) -> Some s | _ -> None in
    let time = match field "time" with Some (Json.Int n) -> n | _ -> -1 in
    let id = Option.bind (str "id") int_of_string_opt in
    match (str "error", str "verdict") with
    | Some code, _ -> (id, Error code)
    | None, Some "proved" -> (id, Answer (Reference.Proved, str "strategy"))
    | None, Some "violated" ->
      (id, Answer (Reference.Violated time, str "strategy"))
    | None, Some "unknown" -> (id, Answer (Reference.Inconclusive, None))
    | None, _ -> (id, Error "unparsed"))
  | _ -> (None, Error "unparsed")
  | exception Failure _ -> (None, Error "unparsed")

let counter snap name =
  Option.value (List.assoc_opt name snap.Obs.Stats.counters) ~default:0

(* an unanswered request counts as a crash: the session lost it *)
let account (t : Pstat.tally) = function
  | None | Some (Error "internal") -> { t with crashes = t.crashes + 1 }
  | Some (Error "overloaded") -> { t with shed = t.shed + 1 }
  | Some (Error _) -> { t with errors = t.errors + 1 }
  | Some (Answer _) -> t

let pass (problems : Problems.t array) () =
  let loop = Closed_loop.create ~clients (Array.mapi request_line problems) in
  let n = Array.length problems in
  let responses = Array.make n None in
  let output line =
    match parse_response line with
    | Some i, r when i >= 0 && i < n ->
      responses.(i) <- Some r;
      Closed_loop.respond loop i
    | _ -> ()
  in
  ignore
    (Serve.Server.run_session config ~input:(Closed_loop.input loop) ~output ()
      : Serve.Server.ending);
  let answers =
    List.filter_map
      (fun (p, r) ->
        match r with Some (Answer (v, s)) -> Some (p, v, s) | _ -> None)
      (List.combine (Array.to_list problems) (Array.to_list responses))
  in
  let decided =
    List.length
      (List.filter (fun (_, v, _) -> v <> Reference.Inconclusive) answers)
  in
  let mismatches =
    List.filter_map
      (fun ((p : Problems.t), v, _) ->
        if Reference.contradicts p.answer v then
          Some
            (Printf.sprintf "%s: served answer contradicts reference %s" p.key
               (Reference.to_string p.answer))
        else None)
      answers
  in
  let latencies = Closed_loop.latencies loop in
  let snap = Obs.Stats.snapshot () in
  let server_p50_ms =
    float_of_int (counter snap "serve.latency_us.p50") /. 1e3
  in
  {
    Wl.empty_pass with
    latencies;
    past_probe =
      List.filter_map
        (fun i ->
          let dt = Closed_loop.latency loop i in
          if Problems.past_probe problems.(i) && not (Float.is_nan dt) then
            Some dt
          else None)
        (List.init n Fun.id);
    labels =
      List.filteri
        (fun i _ -> not (Float.is_nan (Closed_loop.latency loop i)))
        (Array.to_list (Array.map (fun (p : Problems.t) -> p.key) problems));
    tally =
      Array.fold_left account { Pstat.empty_tally with attempted = n } responses;
    decided;
    decided_of = n;
    mismatches;
    concluded = Wl.count_strategies (List.filter_map (fun (_, _, s) -> s) answers);
    inconclusive = n - decided;
    parsed_bytes =
      Array.fold_left
        (fun acc (p : Problems.t) -> acc + String.length p.text)
        0 problems;
    cache =
      Some (counter snap "serve.cache.hits", counter snap "serve.cache.misses");
    handoff_ms_p50 =
      Option.map
        (fun p50 -> (1e3 *. p50) -. server_p50_ms)
        (Pstat.median latencies);
  }

let time_inputs (problems : Problems.t array) () =
  Array.fold_left
    (fun (parse_s, fp_s) (p : Problems.t) ->
      let net, dp = Wl.timed (fun () -> Textio.Bench_io.parse p.text) in
      let lit = List.assoc p.target (Netlist.Net.targets net) in
      let _, df =
        Wl.timed (fun () -> Netlist.Net.cone_fingerprint net lit)
      in
      (parse_s +. dp, fp_s +. df))
    (0., 0.) problems

(* program set-up of a session: bound cache and worker pool start-up,
   up to the first request read *)
let setup ~ready =
  ignore
    (Serve.Server.run_session config
       ~input:(fun () -> ready (); None)
       ~output:ignore ()
      : Serve.Server.ending)

let make ~seed =
  let problems = corpus ~seed in
  let unique =
    Array.to_list problems
    |> List.sort_uniq (fun (a : Problems.t) b -> compare a.key b.key)
  in
  ( {
      Wl.name = "serve";
      jobs;
      sequential = false;
      (* wall_s is a median of at least this many passes *)
      min_passes = 5;
      pass = pass problems;
      time_inputs = Some (time_inputs problems);
    },
    Problems.reference_entries unique )
