(* The benchmark's own rules: percentile reporting, metric names,
   failure accounting and closed-loop pacing. *)

open Perfbench_kit

let floats n = List.init n (fun i -> float_of_int (i + 1))

let percentile_rule () =
  Alcotest.(check (option (float 0.))) "median of 1..9" (Some 5.) (Pstat.median (floats 9));
  Alcotest.(check (option (float 0.))) "p99 of 1..1000" (Some 990.) (Pstat.percentile 99. (floats 1000));
  Alcotest.(check int) "10 samples beyond p99 of 1000" 10 (Pstat.beyond 99. 1000);
  Alcotest.(check (option (float 0.)))
    "p99 reported with 10 beyond" (Some 990.)
    (Pstat.tail_percentile 99. (floats 1000));
  Alcotest.(check (option (float 0.)))
    "p99 withheld with 9 beyond" None
    (Pstat.tail_percentile 99. (floats 999));
  Alcotest.(check (option (float 0.))) "empty sample" None (Pstat.median [])

let name_grammar () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Pstat.valid_name n))
    [ "wall_s"; "engine.com-ret-com-bound_s"; "bound.useful_share.com-ret-com"; "9lives" ];
  List.iter
    (fun n -> Alcotest.(check bool) ("rejects " ^ n) false (Pstat.valid_name n))
    [ ""; "engine.com+bound_s"; "_hidden"; ".dot"; "has space"; String.make 65 'a' ]

let fail_share_accounting () =
  let t =
    { Pstat.attempted = 200; errors = 1; shed = 2; crashes = 3; cert_fail = 4 }
  in
  Alcotest.(check int) "every failure kind counts" 10 (Pstat.failed t);
  Alcotest.(check (float 1e-12)) "share of attempted" 0.05 (Pstat.fail_share t);
  let healthy = { Pstat.empty_tally with attempted = 50 } in
  Alcotest.(check (float 0.)) "inconclusive is not a failure" 0. (Pstat.fail_share healthy);
  Alcotest.(check int) "tallies add" 400 (Pstat.add_tally t t).Pstat.attempted

(* A fake server on another domain answers each request after a short
   delay; no client may ever have two requests outstanding. *)
let closed_loop_pacing () =
  let n = 40 and clients = 3 in
  let lines = Array.init n string_of_int in
  let loop = Closed_loop.create ~clients lines in
  let queue = Queue.create () and lock = Mutex.create () in
  let stop = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        let rec go () =
          Mutex.lock lock;
          let item = Queue.take_opt queue in
          Mutex.unlock lock;
          match item with
          | Some i ->
            Unix.sleepf 0.0005;
            Closed_loop.respond loop i;
            go ()
          | None -> if Atomic.get stop then () else (Domain.cpu_relax (); go ())
        in
        go ())
  in
  let order = ref [] in
  let rec read () =
    match Closed_loop.input loop () with
    | Some line ->
      let i = int_of_string line in
      order := i :: !order;
      Mutex.lock lock;
      Queue.push i queue;
      Mutex.unlock lock;
      read ()
    | None -> ()
  in
  read ();
  (* every request was sent; wait for the last responses *)
  while List.length (Closed_loop.latencies loop) < n do Domain.cpu_relax () done;
  Atomic.set stop true;
  Domain.join server;
  Alcotest.(check int) "every request sent once" n (List.length (List.sort_uniq compare !order));
  Alcotest.(check bool) "at most one outstanding per client" true
    (Closed_loop.max_outstanding loop <= clients);
  (* each client's requests go out in its own order *)
  List.iter
    (fun c ->
      let mine = List.filter (fun i -> i mod clients = c) (List.rev !order) in
      Alcotest.(check (list int)) "client order" (List.sort compare mine) mine)
    (List.init clients Fun.id);
  Alcotest.(check int) "one latency per request" n (List.length (Closed_loop.latencies loop))

(* With one client the loop is strictly sequential: the next request
   is not read until the previous one has been answered. *)
let one_client_waits () =
  let loop = Closed_loop.create ~clients:1 [| "a"; "b" |] in
  Alcotest.(check (option string)) "first" (Some "a") (Closed_loop.input loop ());
  let got = Atomic.make None in
  let reader = Domain.spawn (fun () -> Atomic.set got (Some (Closed_loop.input loop ()))) in
  Unix.sleepf 0.05;
  Alcotest.(check (option (option string))) "blocked until answered" None (Atomic.get got);
  Closed_loop.respond loop 0;
  Domain.join reader;
  Alcotest.(check (option (option string))) "then the next" (Some (Some "b")) (Atomic.get got);
  Closed_loop.respond loop 1;
  Alcotest.(check (option string)) "then end of input" None (Closed_loop.input loop ())

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "metric name grammar" `Quick name_grammar;
          Alcotest.test_case "fail_share accounting" `Quick fail_share_accounting;
          Alcotest.test_case "closed-loop pacing" `Quick closed_loop_pacing;
          Alcotest.test_case "closed loop with one client" `Quick one_client_waits;
        ] );
    ]
