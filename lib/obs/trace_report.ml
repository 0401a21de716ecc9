type node = {
  event : Trace.event;
  children : node list;
  self_us : float;
}

(* Mutable scaffolding used while the forest is under construction;
   frozen into [node] at the end. *)
type building = {
  b_event : Trace.event;
  mutable b_children : building list;
  mutable b_self : float;
}

let span_end (e : Trace.event) = e.Trace.ts_us +. e.Trace.dur_us

(* Nesting tolerance: both exporters timestamp from one clock, but a
   child can share its parent's start/end microsecond *)
let eps = 1e-3

(* Which domain recorded an event (multi-domain traces tag worker
   events with a "domain" attribute; untagged means the main domain).
   Spans from different domains overlap in time without nesting, so
   the containment forest is built per domain. *)
let domain_of (e : Trace.event) =
  match List.assoc_opt "domain" e.Trace.args with
  | Some (Trace.Int d) -> d
  | _ -> 0

let forest_one spans =
  (* parents first: earlier start, or same start with longer duration *)
  let sorted =
    List.stable_sort
      (fun (a : Trace.event) (b : Trace.event) ->
        match compare a.Trace.ts_us b.Trace.ts_us with
        | 0 -> compare b.Trace.dur_us a.Trace.dur_us
        | c -> c)
      spans
  in
  let roots = ref [] in
  let stack = ref [] in
  let contains (outer : Trace.event) (inner : Trace.event) =
    inner.Trace.ts_us >= outer.Trace.ts_us -. eps
    && span_end inner <= span_end outer +. eps
  in
  List.iter
    (fun e ->
      let rec unwind () =
        match !stack with
        | top :: rest when not (contains top.b_event e) ->
          stack := rest;
          unwind ()
        | _ -> ()
      in
      unwind ();
      let n = { b_event = e; b_children = []; b_self = e.Trace.dur_us } in
      (match !stack with
      | top :: _ ->
        top.b_children <- n :: top.b_children;
        top.b_self <- top.b_self -. e.Trace.dur_us
      | [] -> roots := n :: !roots);
      stack := n :: !stack)
    sorted;
  (* [roots] and [b_children] accumulate newest-first; one reversal
     restores start order *)
  let rec freeze b =
    {
      event = b.b_event;
      children = List.rev_map freeze b.b_children;
      self_us = Float.max 0. b.b_self;
    }
  in
  List.rev_map freeze !roots

let forest events =
  let spans =
    List.filter (fun (e : Trace.event) -> e.Trace.kind = Trace.Span) events
  in
  let by_domain : (int, Trace.event list ref) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun e ->
      let d = domain_of e in
      match Hashtbl.find_opt by_domain d with
      | Some l -> l := e :: !l
      | None -> Hashtbl.replace by_domain d (ref [ e ]))
    spans;
  Hashtbl.fold (fun d l acc -> (d, List.rev !l) :: acc) by_domain []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.concat_map (fun (_, spans) -> forest_one spans)

(* ----- aggregation by correlation id -----

   Serve traces stamp every span of a request with a "corr" attribute
   (Trace.push under Log.with_corr); grouping by it turns one
   interleaved multi-request capture into a per-request cost view. *)

let corr_of (e : Trace.event) =
  match List.assoc_opt "corr" e.Trace.args with
  | Some (Trace.String c) -> Some c
  | _ -> None

type corr_row = {
  c_corr : string;
  c_spans : int;
  c_first_us : float;
  c_last_us : float;
  c_busy_us : float;  (* summed self time, so nesting never double-counts *)
}

let corr_table roots =
  let tbl : (string, corr_row ref) Hashtbl.t = Hashtbl.create 16 in
  let rec visit n =
    (match corr_of n.event with
    | None -> ()
    | Some c ->
      let r =
        match Hashtbl.find_opt tbl c with
        | Some r -> r
        | None ->
          let r =
            ref
              {
                c_corr = c;
                c_spans = 0;
                c_first_us = n.event.Trace.ts_us;
                c_last_us = span_end n.event;
                c_busy_us = 0.;
              }
          in
          Hashtbl.replace tbl c r;
          r
      in
      r :=
        {
          !r with
          c_spans = !r.c_spans + 1;
          c_first_us = Float.min !r.c_first_us n.event.Trace.ts_us;
          c_last_us = Float.max !r.c_last_us (span_end n.event);
          c_busy_us = !r.c_busy_us +. n.self_us;
        });
    List.iter visit n.children
  in
  List.iter visit roots;
  Hashtbl.fold (fun _ r acc -> !r :: acc) tbl []
  |> List.sort (fun a b -> compare a.c_corr b.c_corr)

(* ----- aggregation by name ----- *)

type agg = {
  mutable calls : int;
  mutable total : float;
  mutable self : float;
  mutable max : float;
}

let by_name roots =
  let table : (string, agg) Hashtbl.t = Hashtbl.create 64 in
  let get name =
    match Hashtbl.find_opt table name with
    | Some a -> a
    | None ->
      let a = { calls = 0; total = 0.; self = 0.; max = 0. } in
      Hashtbl.replace table name a;
      a
  in
  let rec visit n =
    let a = get n.event.Trace.name in
    a.calls <- a.calls + 1;
    a.total <- a.total +. n.event.Trace.dur_us;
    a.self <- a.self +. n.self_us;
    if n.event.Trace.dur_us > a.max then a.max <- n.event.Trace.dur_us;
    List.iter visit n.children
  in
  List.iter visit roots;
  Hashtbl.fold (fun name a acc -> (name, a) :: acc) table []
  |> List.sort (fun (_, a) (_, b) -> compare b.self a.self)

(* ----- per-depth cost tables (BMC depths, simple-path search k) ----- *)

type depth_row = {
  depth : int;
  calls : int;
  total_us : float;
  max_us : float;
  conflicts : int;
  propagations : int;
}

let int_arg name (e : Trace.event) =
  match List.assoc_opt name e.Trace.args with
  | Some (Trace.Int n) -> Some n
  | _ -> None

let depth_table ?(span = "bmc.depth") ?(key = "depth") events =
  let rows : (int, depth_row ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.kind = Trace.Span && String.equal e.Trace.name span then
        match int_arg key e with
        | None -> ()
        | Some depth ->
          let r =
            match Hashtbl.find_opt rows depth with
            | Some r -> r
            | None ->
              let r =
                ref
                  {
                    depth;
                    calls = 0;
                    total_us = 0.;
                    max_us = 0.;
                    conflicts = 0;
                    propagations = 0;
                  }
              in
              Hashtbl.replace rows depth r;
              r
          in
          r :=
            {
              !r with
              calls = !r.calls + 1;
              total_us = !r.total_us +. e.Trace.dur_us;
              max_us = Float.max !r.max_us e.Trace.dur_us;
              conflicts =
                !r.conflicts + Option.value ~default:0 (int_arg "conflicts" e);
              propagations =
                !r.propagations
                + Option.value ~default:0 (int_arg "propagations" e);
            })
    events;
  Hashtbl.fold (fun _ r acc -> !r :: acc) rows []
  |> List.sort (fun a b -> compare a.depth b.depth)

(* ----- rendering ----- *)

let ms us = us /. 1e3

let pp_critical_path ppf roots =
  match
    List.fold_left
      (fun best n ->
        match best with
        | Some b when b.event.Trace.dur_us >= n.event.Trace.dur_us -> best
        | _ -> Some n)
      None roots
  with
  | None -> ()
  | Some root ->
    Format.fprintf ppf "critical path (longest child at each level):@.";
    let rec walk indent n parent_dur =
      Format.fprintf ppf "  %s%-*s %10.3fms %4.0f%%@." indent
        (max 1 (32 - String.length indent))
        n.event.Trace.name
        (ms n.event.Trace.dur_us)
        (if parent_dur > 0. then 100. *. n.event.Trace.dur_us /. parent_dur
         else 100.);
      match
        List.fold_left
          (fun best c ->
            match best with
            | Some b when b.event.Trace.dur_us >= c.event.Trace.dur_us -> best
            | _ -> Some c)
          None n.children
      with
      | None -> ()
      | Some widest -> walk (indent ^ "  ") widest n.event.Trace.dur_us
    in
    walk "" root root.event.Trace.dur_us

let pp ?(top = 12) ppf events =
  if events = [] then
    (* a clear verdict beats a table of zeroes: the capture is empty,
       never started, or was truncated beyond salvage *)
    Format.fprintf ppf
      "trace: no events (empty or truncated capture — nothing was \
       recorded, or the file lost every complete line)@."
  else begin
    let spans =
      List.filter (fun (e : Trace.event) -> e.Trace.kind = Trace.Span) events
    in
    let instants = List.length events - List.length spans in
    let wall =
      List.fold_left (fun acc e -> Float.max acc (span_end e)) 0. spans
    in
    Format.fprintf ppf "trace: %d spans, %d instants, %.3fms wall@."
      (List.length spans) instants (ms wall);
    let roots = forest events in
    (match by_name roots with
    | [] -> ()
    | aggs ->
      Format.fprintf ppf "@.top spans by self time:@.";
      Format.fprintf ppf "  %-32s %8s %12s %12s %12s@." "name" "calls"
        "self(ms)" "total(ms)" "max(ms)";
      List.iteri
        (fun i ((name, a) : string * agg) ->
          if i < top then
            Format.fprintf ppf "  %-32s %8d %12.3f %12.3f %12.3f@." name a.calls
              (ms a.self) (ms a.total) (ms a.max))
        aggs;
      Format.fprintf ppf "@.";
      pp_critical_path ppf roots);
    (match corr_table roots with
    | [] -> ()
    | rows ->
      Format.fprintf ppf "@.per-request view (correlation ids):@.";
      Format.fprintf ppf "  %-20s %8s %12s %12s@." "corr" "spans" "busy(ms)"
        "wall(ms)";
      List.iter
        (fun r ->
          Format.fprintf ppf "  %-20s %8d %12.3f %12.3f@." r.c_corr r.c_spans
            (ms r.c_busy_us)
            (ms (r.c_last_us -. r.c_first_us)))
        rows);
    List.iter
      (fun (title, span, key) ->
        match depth_table ~span ~key events with
        | [] -> ()
        | rows ->
          Format.fprintf ppf "@.%s:@." title;
          Format.fprintf ppf "  %6s %6s %12s %12s %12s %14s@." key "calls"
            "total(ms)" "max(ms)" "conflicts" "propagations";
          List.iter
            (fun r ->
              Format.fprintf ppf "  %6d %6d %12.3f %12.3f %12d %14d@." r.depth
                r.calls (ms r.total_us) (ms r.max_us) r.conflicts
                r.propagations)
            rows)
      [
        ("per-depth BMC cost", "bmc.depth", "depth");
        ("per-k recurrence cost", "recurrence.solve", "k");
        ("per-k induction step cost", "induction.solve", "k");
      ]
  end
