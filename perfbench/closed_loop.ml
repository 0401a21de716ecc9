(* Closed-loop load generation: [clients] callers, each of which sends
   its next request only after the response to its previous one has
   arrived — the behaviour of [diam serve] / [diam batch] callers that
   wait for replies.  A slow server therefore receives less load, and
   latency is measured from send to response.

   Request [i] belongs to client [i mod clients]; requests are handed
   to the server through [input] (the session's read side) and
   answered through [respond] (called from any domain). *)

type t = {
  lines : string array;  (** request [i] on the wire *)
  clients : int;
  next : int array;  (** per client: index of its next request *)
  busy : bool array;  (** per client: a request is outstanding *)
  sent_at : float array;
  latency : float array;  (** seconds, [nan] until answered *)
  mutable turn : int;  (** round-robin start for fairness *)
  mutable max_outstanding : int;
  mutable outstanding : int;
  lock : Mutex.t;
  freed : Condition.t;
}

let create ~clients lines =
  if clients < 1 then invalid_arg "Closed_loop.create: clients < 1";
  let n = Array.length lines in
  {
    lines;
    clients;
    next = Array.init clients (fun c -> c);
    busy = Array.make clients false;
    sent_at = Array.make n nan;
    latency = Array.make n nan;
    turn = 0;
    max_outstanding = 0;
    outstanding = 0;
    lock = Mutex.create ();
    freed = Condition.create ();
  }

let has_more t c = t.next.(c) < Array.length t.lines

(* an idle client with a request left, scanning from [turn] *)
let ready_client t =
  let rec scan k =
    if k = t.clients then None
    else
      let c = (t.turn + k) mod t.clients in
      if (not t.busy.(c)) && has_more t c then Some c else scan (k + 1)
  in
  scan 0

let all_sent t =
  let rec go c = c = t.clients || ((not (has_more t c)) && go (c + 1)) in
  go 0

(* The server's read side: blocks until some client is free to send,
   and returns [None] once every client has sent its last request. *)
let input t () =
  Mutex.lock t.lock;
  let rec wait () =
    if all_sent t then None
    else
      match ready_client t with
      | Some c ->
        let i = t.next.(c) in
        t.next.(c) <- i + t.clients;
        t.busy.(c) <- true;
        t.turn <- (c + 1) mod t.clients;
        t.outstanding <- t.outstanding + 1;
        t.max_outstanding <- max t.max_outstanding t.outstanding;
        t.sent_at.(i) <- Unix.gettimeofday ();
        Some t.lines.(i)
      | None ->
        Condition.wait t.freed t.lock;
        wait ()
  in
  let r = wait () in
  Mutex.unlock t.lock;
  r

(* The response to request [i] arrived: record its latency and free
   its client.  A second response to the same request is ignored. *)
let respond t i =
  Mutex.lock t.lock;
  if i >= 0 && i < Array.length t.lines && Float.is_nan t.latency.(i)
     && not (Float.is_nan t.sent_at.(i))
  then begin
    t.latency.(i) <- Unix.gettimeofday () -. t.sent_at.(i);
    t.busy.(i mod t.clients) <- false;
    t.outstanding <- t.outstanding - 1;
    Condition.broadcast t.freed
  end;
  Mutex.unlock t.lock

let latency t i = t.latency.(i)

let latencies t =
  Array.to_list t.latency |> List.filter (fun x -> not (Float.is_nan x))

let max_outstanding t = t.max_outstanding
