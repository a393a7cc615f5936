(* The repository's end-to-end benchmark: ARC (or SQL) text → rows through
   the public API, on four seeded workloads, every result checked against
   an independent oracle (see oracle.ml).

     main.exe --workload rollup|tc|catalog|ivm --seed N --seconds S
              --trace 0|1 [--git-sha SHA] [--dirty 0|1]

   One process, one thread, one closed-loop client: the next operation
   starts when the previous one has returned. Set-up (input generation
   plus ANALYZE, and for ivm the view registration) runs several times and
   reports its median; then operations run for --seconds. With --trace 0
   the last stdout line carries the end-to-end metrics; with --trace 1
   untraced and traced operations alternate, and it carries the per-layer
   metrics measured through the spans of trace.ml. The line before it
   holds the run's metadata and the per-workload figures named in
   README.md, each percentile with its sample count; the same and the
   spans go to .bench_out/. *)

module Conventions = Arc_value.Conventions
module Relation = Arc_relation.Relation
module Tuple = Arc_relation.Tuple
module Database = Arc_relation.Database
module Eval = Arc_engine.Eval
module Exec = Arc_engine.Exec
module Ivm = Arc_ivm.Ivm
module Json = Arc_obs.Json
open Inputs

let now () = Int64.to_float (Arc_obs.Metrics.now_ns ()) /. 1e9

(* ------------------------------------------------------------------ *)
(* Run bookkeeping                                                      *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0
let checks_ok = ref true
let notes : string list ref = ref []
let note msg = if List.length !notes < 10 then notes := msg :: !notes

let fail what =
  incr failed;
  note what

(* a check that is not an operation (plan equality, Ivm.check) *)
let check ok what =
  if not ok then begin
    checks_ok := false;
    note what
  end

let min_ops = 3

(* Closed loop: [step ~warm i] runs operation i, until [seconds] have
   passed and at least [min_ops] operations were timed. Operations started
   in the first tenth of the run, and always the first, are warm-up:
   checked, but kept out of the samples (the major heap grows to the
   working set on first use). The reference kernel of calib.ml runs
   between operations. *)
(* the GC's top heap when the operations end, before the report's own
   sorting allocates *)
let heap_peak_words = ref 0

let closed_loop ~seconds step =
  let start = now () in
  let warm_until = start +. (seconds /. 10.) and deadline = start +. seconds in
  let i = ref 0 and timed_ops = ref 0 in
  while !timed_ops < min_ops || now () < deadline do
    let warm = !i = 0 || now () < warm_until in
    Calib.tick ();
    step ~warm !i;
    if not warm then incr timed_ops;
    incr i
  done;
  heap_peak_words := (Gc.quick_stat ()).Gc.top_heap_words

let ms s = s *. 1e3

(* a figure of the report line: value, unit and, for percentiles, the
   number of samples behind it *)
let fig ?samples value unit =
  Json.Obj
    ([ ("value", Json.Float value); ("unit", Json.Str unit) ]
    @ match samples with Some n -> [ ("samples", Json.Int n) ] | None -> [])

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* Set-up runs at least [setup_min_reps] times, and more while the total
   stays under [setup_budget_s]; [setup_s] is the median, in seconds at the
   reference speed of calib.ml (the kernel runs between repetitions), and
   [setup_raw_s] the median in seconds. Each repetition
   drops the previous state first. There is no explicit collection between
   repetitions: forced major collections change how the OCaml 5.1 runtime
   paces the heap afterwards (hundreds of them let the TC heap grow
   several-fold). [f] returns the state and named sub-timings (seconds),
   reported as medians too. *)
let setup_min_reps = 5
let setup_max_reps = 500
let setup_budget_s = 1.0

type 'a setup = {
  state : 'a;
  setup_s : float;
  setup_raw_s : float;
  parts : (string * float) list;
  reps : int;
}

let repeat_setup f =
  let state = ref None and times = Samples.create () and parts = ref [] in
  let scaled = Samples.create () in
  while
    Samples.count times < setup_min_reps
    || (Samples.sum times < setup_budget_s && Samples.count times < setup_max_reps)
  do
    state := None;
    Calib.tick ();
    let t0 = now () in
    let s, named = f () in
    let dt = now () -. t0 in
    Samples.add times dt;
    Samples.add scaled (Calib.at_reference dt);
    state := Some s;
    parts := named :: !parts
  done;
  let part name =
    let s = Samples.create () in
    List.iter (fun named -> Samples.add s (List.assoc name named)) !parts;
    (name, Samples.median s)
  in
  {
    state = Option.get !state;
    setup_s = Samples.median scaled;
    setup_raw_s = Samples.median times;
    parts = List.map (fun (name, _) -> part name) (List.hd !parts);
    reps = Samples.count times;
  }

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let analyze db = timed (fun () -> Database.analyze db)

(* ------------------------------------------------------------------ *)
(* Query workloads: rollup, tc, catalog                                *)
(* ------------------------------------------------------------------ *)

type query = {
  label : string;
  text : text;
  conv : Conventions.t;
  db : Database.t;
  expected : (Oracle.bag, string) result;
}

let rows_bag = function
  | Eval.Rows r -> Some (Oracle.bag r)
  | Eval.Truth _ -> None

let agrees q outcome =
  match (q.expected, rows_bag outcome) with
  | Ok e, Some b -> Oracle.same b e
  | _ -> false

let run_query q = Exec.run ~conv:q.conv ~db:q.db (parse q.db q.text)

(* the latency of one timed operation, in seconds and in reference units *)
type latencies = { secs : Samples.t; refs : Samples.t }

let latencies () = { secs = Samples.create (); refs = Samples.create () }

let add_latency l dt =
  Samples.add l.secs dt;
  Samples.add l.refs (Calib.units dt)

type query_run = {
  latencies : latencies;  (* untraced operations *)
  overhead_pct : float;  (* traced minus untraced, over untraced *)
}

(* One untraced text → rows query, timed into [lat] unless [warm]; the
   oracle comparison runs after the clock stops. Returns the result bag. *)
let plain_query ~warm lat q =
  incr attempted;
  match timed (fun () -> run_query q) with
  | outcome, dt ->
      if not warm then add_latency lat dt;
      if not (agrees q outcome) then fail ("oracle mismatch: " ^ q.label);
      rows_bag outcome
  | exception e ->
      fail (q.label ^ " raised " ^ Printexc.to_string e);
      None

let untraced_queries ~seconds (next : int -> query) =
  let lat = latencies () in
  closed_loop ~seconds (fun ~warm i -> ignore (plain_query ~warm lat (next i)));
  { latencies = lat; overhead_pct = 0. }

(* The traced loop: every operation runs untraced and traced, in
   alternating order. Both must match the oracle, the traced result must
   be bag-equal to the untraced one, and the split plan must equal
   [Exec.compile]'s. *)
let traced_queries ~seconds (next : int -> query) =
  let lat = latencies () and traced = ref 0. in
  closed_loop ~seconds (fun ~warm i ->
      let q = next i in
      let with_spans () =
        incr attempted;
        match Trace.query ~qid:i ~conv:q.conv ~db:q.db q.text with
        | outcome, dt, same_plan ->
            if not warm then traced := !traced +. dt;
            if not (agrees q outcome) then
              fail ("oracle mismatch (traced): " ^ q.label);
            check same_plan ("split plan differs from Exec.compile: " ^ q.label);
            rows_bag outcome
        | exception e ->
            fail (q.label ^ " raised (traced) " ^ Printexc.to_string e);
            None
      in
      let a, b =
        if i mod 2 = 0 then
          let a = plain_query ~warm lat q in
          (a, with_spans ())
        else
          let b = with_spans () in
          (plain_query ~warm lat q, b)
      in
      check (compare a b = 0) ("traced result differs from untraced: " ^ q.label));
  let untraced = Samples.sum lat.secs in
  {
    latencies = lat;
    overhead_pct =
      (if untraced > 0. then (!traced -. untraced) /. untraced *. 100. else 0.);
  }

let run_queries ~trace ~seconds next =
  (if trace then traced_queries else untraced_queries) ~seconds next

(* ------------------------------------------------------------------ *)
(* Workload definitions                                                 *)
(* ------------------------------------------------------------------ *)

type outcome = {
  setup : unit setup;
  latencies : latencies;  (* one sample per timed operation *)
  overhead_pct : float;
  report : (string * Json.t) list;
  scale : (string * Json.t) list;
  layer : (string * float * string) list;  (* workload-specific per-layer *)
}

(* rollup and tc: one ARC text over one database, queried repeatedly *)
let repeated ~trace ~seconds ~label ~text ~db ~expected =
  let q = { label; text = Arc_text text; conv = Conventions.sql_set; db; expected = Ok expected } in
  run_queries ~trace ~seconds (fun _ -> q)

let p50_fig lat =
  fig ~samples:(Samples.count lat.secs) (ms (Samples.median lat.secs)) "ms"

(* [per_op] units of work per operation, per second of operation time *)
let rate lat per_op = Float.of_int (per_op * Samples.count lat) /. Samples.sum lat
let sec_rate lat per_op = rate lat.secs per_op

let rollup_orders = 200_000

let rollup ~seed ~seconds ~trace =
  let s =
    repeat_setup (fun () ->
        let os = orders (rng seed "orders") rollup_orders in
        let db =
          Database.of_list
            [ ("Orders", orders_rel os); ("Customers", customers_rel ()) ]
        in
        let adb, analyze_s = analyze db in
        ((os, adb), [ ("analyze", analyze_s) ]))
  in
  let os, db = s.state in
  let r =
    repeated ~trace ~seconds ~label:"rollup" ~text:rollup_text ~db
      ~expected:(Oracle.rollup (Oracle.totals os))
  in
  {
    setup = { s with state = () };
    latencies = r.latencies;
    overhead_pct = r.overhead_pct;
    report =
      [
        ("query_ms_p50", p50_fig r.latencies);
        ( "input_rows_per_s",
          fig (sec_rate r.latencies (rollup_orders + customers)) "rows/s" );
      ];
    scale =
      [
        ("orders", Json.Int rollup_orders);
        ("customers", Json.Int customers);
        ("regions", Json.Int regions);
      ];
    layer = [];
  }

let tc_edges = 192

let tc ~seed ~seconds ~trace =
  let s =
    repeat_setup (fun () ->
        let labels = chain_labels (rng seed "chain") tc_edges in
        let adb, analyze_s = analyze (Database.of_list [ ("P", chain_rel labels) ]) in
        ((labels, adb), [ ("analyze", analyze_s) ]))
  in
  let labels, db = s.state in
  let r =
    repeated ~trace ~seconds ~label:"tc" ~text:tc_text ~db
      ~expected:(Oracle.closure labels)
  in
  let derived = Oracle.closure_size tc_edges in
  {
    setup = { s with state = () };
    latencies = r.latencies;
    overhead_pct = r.overhead_pct;
    report =
      [
        ("query_ms_p50", p50_fig r.latencies);
        ("derived_tuples_per_s", fig (sec_rate r.latencies derived) "tuples/s");
      ];
    scale = [ ("edges", Json.Int tc_edges); ("derived_tuples", Json.Int derived) ];
    layer = [];
  }

let catalog_cycles = 64

let catalog ~seed ~seconds ~trace =
  (* choosing fuzz cores consults the reference evaluator: oracle work,
     so it stays out of the timed set-up *)
  let fuzz, fuzz_draws = fuzz_cores seed ~accept:Oracle.accepts in
  let s =
    repeat_setup (fun () ->
        let analyze_s = ref 0. in
        let pool =
          catalog_pool fuzz ~analyze:(fun db ->
              let a, dt = analyze db in
              analyze_s := !analyze_s +. dt;
              a)
        in
        (pool, [ ("analyze", !analyze_s) ]))
  in
  let pool =
    Array.of_list
      (List.map
         (fun (e : entry) ->
           { label = e.name; text = e.text; conv = e.conv; db = e.db;
             expected = Oracle.catalog e })
         s.state)
  in
  Array.iter
    (fun q ->
      match q.expected with
      | Ok _ -> ()
      | Error m -> note ("reference evaluator rejects " ^ q.label ^ ": " ^ m))
    pool;
  let order = catalog_order seed (Array.length pool) catalog_cycles in
  let r =
    run_queries ~trace ~seconds (fun i -> pool.(order.(i mod Array.length order)))
  in
  {
    setup = { s with state = () };
    latencies = r.latencies;
    overhead_pct = r.overhead_pct;
    report =
      [
        ("query_ms_p50", p50_fig r.latencies);
        ( "query_ms_p99",
          fig ~samples:(Samples.count r.latencies.secs)
            (ms (Samples.quantile r.latencies.secs 0.99)) "ms" );
        ("queries_per_s", fig (sec_rate r.latencies 1) "1/s");
      ];
    scale =
      [
        ("pool", Json.Int (Array.length pool));
        ("paper_equations", Json.Int (List.length paper_equations));
        ("sql_figures", Json.Int (List.length sql_figures));
        ("fuzz_cores", Json.Int (List.length fuzz));
        ("fuzz_draws", Json.Int fuzz_draws);
        ("order_cycles", Json.Int catalog_cycles);
      ];
    layer = [];
  }

(* ------------------------------------------------------------------ *)
(* ivm                                                                 *)
(* ------------------------------------------------------------------ *)

let ivm_orders = 20_000
let ivm_edges = 48

type stream = {
  ivm : Ivm.t;
  live : order array;  (* the current orders; a batch swaps one *)
  mutable next_oid : int;
  totals : Oracle.totals;
  labels : int array;
  mutable missing : int option;  (* the chain edge deleted last *)
  st : Random.State.t;
}

type kind = Counting | Dred

let kind_name = function Counting -> "counting" | Dred -> "dred"
let view_of = function Counting -> "rollup" | Dred -> "tc"

(* The next batch of the seeded stream. Nine in ten replace one order
   (insert a fresh one, delete a live one); one in ten moves a chain edge
   (delete a present edge, restore the one deleted last). The oracle's
   state follows the stream as it is drawn. *)
let next_batch s : kind * Ivm.batch =
  let tuple rel vs =
    Tuple.make (Relation.schema (Database.find (Ivm.db s.ivm) rel)) (Array.of_list vs)
  in
  if Random.State.int s.st 10 = 0 then begin
    let edges = Array.length s.labels - 1 in
    let rec pick () =
      let e = Random.State.int s.st edges in
      if Some e = s.missing then pick () else e
    in
    let e = pick () in
    let edge i = tuple "P" (edge_row s.labels i) in
    let restore = match s.missing with Some m -> [ (edge m, 1) ] | None -> [] in
    s.missing <- Some e;
    (Dred, [ ("P", (edge e, -1) :: restore) ])
  end
  else begin
    let v = Random.State.int s.st (Array.length s.live) in
    let victim = s.live.(v) in
    let fresh = draw_order s.st s.next_oid in
    s.next_oid <- s.next_oid + 1;
    s.live.(v) <- fresh;
    Oracle.edit_totals s.totals fresh 1;
    Oracle.edit_totals s.totals victim (-1);
    ( Counting,
      [ ("Orders", [ (tuple "Orders" (order_row fresh), 1); (tuple "Orders" (order_row victim), -1) ]) ] )
  end

let expected_view s = function
  | Counting -> Oracle.rollup s.totals
  | Dred -> Oracle.closure ?missing:s.missing s.labels

let ivm ~seed ~seconds ~trace =
  let views = [ ("rollup", rollup_text); ("tc", tc_text) ] in
  let setup =
    repeat_setup (fun () ->
        let os = orders (rng seed "orders") ivm_orders in
        let labels = chain_labels (rng seed "chain") ivm_edges in
        let db =
          Database.of_list
            [
              ("Orders", orders_rel os);
              ("Customers", customers_rel ());
              ("P", chain_rel labels);
            ]
        in
        let adb, analyze_s = analyze db in
        let t = Ivm.create ~db:adb () in
        let registers =
          List.map
            (fun (name, text) ->
              let prog = Arc_syntax.Parser.program_of_string text in
              let (), dt = timed (fun () -> Ivm.register t ~name prog) in
              ("register." ^ name, dt))
            views
        in
        ((t, os, labels), ("analyze", analyze_s) :: registers))
  in
  let t, os, labels = setup.state in
  let s =
    {
      ivm = t;
      live = Array.copy os;
      next_oid = ivm_orders;
      totals = Oracle.totals os;
      labels;
      missing = None;
      st = rng seed "batches";
    }
  in
  let all = latencies () and counting = Samples.create ()
  and dred = Samples.create () and traced_counting = Samples.create () in
  let out_delta = ref 0 and fallbacks = ref 0 and traced_batches = ref 0 in
  let reeval_every = 4 in
  let reeval kind i =
    match
      Trace.query ~qid:i ~root:("ivm.reeval." ^ kind_name kind) ~conv:(Ivm.conv t)
        ~db:(Ivm.db t) (Arc_text (List.assoc (view_of kind) views))
    with
    | outcome, _, same_plan ->
        check same_plan "split plan differs from Exec.compile: ivm re-evaluation";
        check
          (match rows_bag outcome with
           | Some b -> Oracle.same b (Oracle.bag (Ivm.result t (view_of kind)))
           | None -> false)
          ("re-evaluation differs from the maintained view " ^ view_of kind)
    | exception e -> check false ("re-evaluation raised " ^ Printexc.to_string e)
  in
  closed_loop ~seconds (fun ~warm i ->
      let kind, batch = next_batch s in
      let traced = trace && i mod 2 = 1 in
      incr attempted;
      let step () =
        let reports = Ivm.apply t batch in
        (reports, Ivm.result t (view_of kind))
      in
      let spanned () =
        Trace.op i "ivm.batch" (fun () ->
            let reports =
              Trace.span ("ivm.apply." ^ kind_name kind) (fun () -> Ivm.apply t batch)
            in
            (reports, Trace.span "ivm.read" (fun () -> Ivm.result t (view_of kind))))
      in
      match timed (if traced then spanned else step) with
      | (reports, view), dt ->
          if traced then begin
            incr traced_batches;
            List.iter
              (fun (r : Ivm.view_report) ->
                out_delta := !out_delta + r.vr_out_delta;
                fallbacks := !fallbacks + r.vr_fallbacks)
              reports;
            if kind = Counting && not warm then Samples.add traced_counting dt
          end
          else if not warm then begin
            add_latency all dt;
            Samples.add (match kind with Counting -> counting | Dred -> dred) dt
          end;
          if not (Oracle.same (Oracle.bag view) (expected_view s kind)) then
            fail ("oracle mismatch: view " ^ view_of kind ^ " after batch " ^ string_of_int i);
          if traced && !traced_batches mod reeval_every = 0 then reeval kind i
      | exception e -> fail ("batch raised " ^ Printexc.to_string e));
  check (Ivm.check t = []) "Ivm.check: a maintained view differs from recomputation";
  let part name = List.assoc name setup.parts in
  let per_batch x =
    if !traced_batches = 0 then 0. else Float.of_int x /. Float.of_int !traced_batches
  in
  let apply kind = Trace.mean ("ivm.apply." ^ kind_name kind) ~unit_ns:1e6 in
  let reeval_ms kind = Trace.mean ("ivm.reeval." ^ kind_name kind) ~unit_ns:1e6 in
  let speedup kind = if apply kind = 0. then 0. else reeval_ms kind /. apply kind in
  let untraced_counting = Samples.median counting in
  {
    setup = { setup with state = () };
    latencies = all;
    overhead_pct =
      (if untraced_counting > 0. && Samples.count traced_counting > 0 then
         (Samples.median traced_counting -. untraced_counting) /. untraced_counting *. 100.
       else 0.);
    report =
      [
        ( "view_create_ms",
          fig ~samples:setup.reps (ms (part "register.rollup" +. part "register.tc")) "ms" );
        ( "batch_ms_p50",
          fig ~samples:(Samples.count counting) (ms (Samples.median counting)) "ms" );
        ( "batch_ms_p95",
          fig ~samples:(Samples.count counting) (ms (Samples.quantile counting 0.95)) "ms" );
        ( "rec_batch_ms_p50",
          fig ~samples:(Samples.count dred) (ms (Samples.median dred)) "ms" );
      ];
    scale =
      [
        ("orders", Json.Int ivm_orders);
        ("chain_edges", Json.Int ivm_edges);
        ("counting_batches", Json.Int (Samples.count counting));
        ("dred_batches", Json.Int (Samples.count dred));
      ];
    layer =
      [
        ("ivm.register_ms.rollup", ms (part "register.rollup"), "ms");
        ("ivm.register_ms.tc", ms (part "register.tc"), "ms");
        ("ivm.apply_ms.counting", apply Counting, "ms");
        ("ivm.apply_ms.dred", apply Dred, "ms");
        ("ivm.reeval_ms.counting", reeval_ms Counting, "ms");
        ("ivm.reeval_ms.dred", reeval_ms Dred, "ms");
        ("ivm.speedup_vs_reeval.counting", speedup Counting, "ratio");
        ("ivm.speedup_vs_reeval.dred", speedup Dred, "ratio");
        ("ivm.out_delta_rows", per_batch !out_delta, "count");
        ("ivm.fallbacks", per_batch !fallbacks, "count");
        ("ivm.state_rows", Float.of_int (Ivm.state_rows t), "count");
      ];
  }

(* the ivm per-layer metrics, reported as 0 where no view is maintained *)
let ivm_layer_names =
  [
    ("ivm.register_ms.rollup", "ms"); ("ivm.register_ms.tc", "ms");
    ("ivm.apply_ms.counting", "ms"); ("ivm.apply_ms.dred", "ms");
    ("ivm.reeval_ms.counting", "ms"); ("ivm.reeval_ms.dred", "ms");
    ("ivm.speedup_vs_reeval.counting", "ratio");
    ("ivm.speedup_vs_reeval.dred", "ratio");
    ("ivm.out_delta_rows", "count"); ("ivm.fallbacks", "count");
    ("ivm.state_rows", "count");
  ]

let workloads = [ ("rollup", rollup); ("tc", tc); ("catalog", catalog); ("ivm", ivm) ]

(* ------------------------------------------------------------------ *)
(* Command line and output                                             *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload rollup|tc|catalog|ivm --seed N --seconds S \
     --trace 0|1 [--git-sha SHA] [--dirty 0|1]";
  exit 2

let args () =
  let rec go acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let a = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k a with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem_assoc workload workloads) then usage ();
  let seconds = match float_of_string_opt (get "seconds") with
    | Some s when s > 0. -> s | _ -> usage () in
  let trace = match int "trace" with 0 -> false | 1 -> true | _ -> usage () in
  let opt k = Option.value ~default:"unknown" (List.assoc_opt k a) in
  (workload, int "seed", seconds, trace, opt "git-sha", opt "dirty")

let () =
  let workload, seed, seconds, trace, git_sha, dirty = args () in
  let o = (List.assoc workload workloads) ~seed ~seconds ~trace in
  let { parts; setup_s; setup_raw_s; reps = setup_reps; state = () } = o.setup in
  let heap_peak_mb = Float.of_int (!heap_peak_words * (Sys.word_size / 8)) /. 1e6 in
  let end_to_end =
    [
      ("setup_s", setup_s, "s");
      ("op_ref_p50", Samples.median o.latencies.refs, "ref");
      ("ops_per_ref", rate o.latencies.refs 1, "1/ref");
      ("heap_peak_mb", heap_peak_mb, "MB");
    ]
  in
  let per_layer =
    Trace.query_metrics ()
    @ [ ("stats.analyze_ms", ms (List.assoc "analyze" parts), "ms") ]
    @ List.map
        (fun (name, unit) ->
          match List.find_opt (fun (n, _, _) -> n = name) o.layer with
          | Some m -> m
          | None -> (name, 0., unit))
        ivm_layer_names
    @ [ ("trace.overhead_pct", o.overhead_pct, "%") ]
  in
  let metrics = if trace then per_layer else end_to_end in
  let metrics_json =
    Json.Obj
      (List.map
         (fun (name, v, unit) ->
           (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
         metrics)
  in
  let fail_rate =
    if !attempted = 0 then 0. else Float.of_int !failed /. Float.of_int !attempted
  in
  let meta =
    Json.Obj
      [
        ("git_sha", Json.Str git_sha);
        ("dirty", Json.Str dirty);
        ("ocaml_version", Json.Str Sys.ocaml_version);
        ("nproc", Json.Int (Domain.recommended_domain_count ()));
        ("workload", Json.Str workload);
        ("seed", Json.Int seed);
        ("seconds", Json.Float seconds);
        ("trace", Json.Bool trace);
        ("scale", Json.Obj o.scale);
        ("setup_reps", Json.Int setup_reps);
        ("operations", Json.Int (Samples.count o.latencies.secs));
      ]
  in
  let report =
    Json.Obj
      ([
         ("setup_s", fig ~samples:setup_reps setup_s "s");
         ("setup_raw_s", fig ~samples:setup_reps setup_raw_s "s");
         ("fail_rate", fig fail_rate "ratio");
         ("heap_peak_mb", fig heap_peak_mb "MB");
         ("op_ms_p50", p50_fig o.latencies);
         ("ops_per_s", fig (sec_rate o.latencies 1) "1/s");
         ( "ref_kernel_ms_p50",
           fig ~samples:(Samples.count Calib.times)
             (ms (Samples.median Calib.times)) "ms" );
       ]
      @ o.report)
  in
  let correct = !failed = 0 && !checks_ok in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int !attempted);
        ("failed", Json.Int !failed);
        ("metrics", metrics_json);
      ]
  in
  let notes = Json.List (List.rev_map (fun s -> Json.Str s) !notes) in
  (try
     if not (Sys.file_exists ".bench_out") then Sys.mkdir ".bench_out" 0o755;
     Out_channel.with_open_text
       (Printf.sprintf ".bench_out/%s-seed%d-trace%d.json" workload seed
          (if trace then 1 else 0))
       (fun oc ->
         output_string oc
           (Json.to_string
              (Json.Obj
                 ([ ("meta", meta); ("report", report); ("notes", notes);
                    ("result", result) ]
                 @ if trace then [ ("trace", Trace.spans_json ()) ] else [])));
         output_char oc '\n')
   with Sys_error m -> prerr_endline ("cannot write .bench_out: " ^ m));
  print_endline
    (Json.to_string (Json.Obj [ ("meta", meta); ("report", report); ("notes", notes) ]));
  print_endline (Json.to_string result);
  if not correct then exit 1
