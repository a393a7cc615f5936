(* The traced run's instrumentation, all on the benchmark's side of the
   API: spans around calls into each layer's public functions, and the
   query path of [Exec.run] split into those calls. Spans stay in memory
   and are written out when the run ends; counts come from the executor's
   own per-node actuals ([Ir.stats]). *)

module Relation = Arc_relation.Relation
module Database = Arc_relation.Database
module Ast = Arc_core.Ast
module Eval = Arc_engine.Eval
module Exec = Arc_engine.Exec
module Ir = Arc_plan.Ir
module Opt = Arc_plan.Opt
module Lower = Arc_plan.Lower
module Explain = Arc_plan.Explain
module Json = Arc_obs.Json

let now_ns = Arc_obs.Metrics.now_ns

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  name : string;
  start_ns : int64;
  stop_ns : int64;
  parent : int;  (* -1 at the root *)
  qid : int;  (* the operation the span belongs to *)
}

(* Every span feeds the per-name totals; the first [keep] are also kept
   whole for the spans file. *)
let keep = 50_000
let kept : span list ref = ref []
let recorded = ref 0
let totals : (string, int ref * int64 ref) Hashtbl.t = Hashtbl.create 64
let next_id = ref 0
let current = ref (-1)
let current_qid = ref 0

let record s =
  incr recorded;
  if !recorded <= keep then kept := s :: !kept;
  let n, t =
    match Hashtbl.find_opt totals s.name with
    | Some nt -> nt
    | None ->
        let nt = (ref 0, ref 0L) in
        Hashtbl.replace totals s.name nt;
        nt
  in
  incr n;
  t := Int64.add !t (Int64.sub s.stop_ns s.start_ns)

let span name f =
  incr next_id;
  let id = !next_id and parent = !current in
  current := id;
  let start_ns = now_ns () in
  let close () =
    current := parent;
    record { id; name; start_ns; stop_ns = now_ns (); parent; qid = !current_qid }
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(* a root span for operation [qid] *)
let op qid name f =
  current_qid := qid;
  span name f

(* mean duration of the spans named [name], in [unit_ns]; 0 when none ran *)
let mean name ~unit_ns =
  match Hashtbl.find_opt totals name with
  | Some (n, t) when !n > 0 -> Int64.to_float !t /. Float.of_int !n /. unit_ns
  | _ -> 0.

(* Spans with their self time: duration minus the part covered by child
   spans (children of one span never overlap: the run has one thread). *)
let spans_json () =
  let spans = List.rev !kept in
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let d = Int64.sub s.stop_ns s.start_ns in
      Hashtbl.replace child s.parent
        (Int64.add d (Option.value ~default:0L (Hashtbl.find_opt child s.parent))))
    spans;
  Json.Obj
    [
      ("recorded", Json.Int !recorded);
      ("kept", Json.Int (List.length spans));
      ( "spans",
        Json.List
          (List.map
             (fun s ->
               let d = Int64.sub s.stop_ns s.start_ns in
               let covered =
                 Option.value ~default:0L (Hashtbl.find_opt child s.id)
               in
               Json.Obj
                 [
                   ("id", Json.Int s.id);
                   ("name", Json.Str s.name);
                   ("parent", Json.Int s.parent);
                   ("qid", Json.Int s.qid);
                   ("start_ns", Json.Int (Int64.to_int s.start_ns));
                   ("end_ns", Json.Int (Int64.to_int s.stop_ns));
                   ("self_ns", Json.Int (Int64.to_int (Int64.sub d covered)));
                 ])
             spans) );
    ]

(* ------------------------------------------------------------------ *)
(* Per-query counts                                                    *)
(* ------------------------------------------------------------------ *)

(* The operator kinds whose exclusive time is reported. *)
let ops =
  [
    "scan"; "filter"; "hash_join"; "product"; "semi_join"; "anti_join";
    "residual"; "project"; "hash_aggregate"; "union";
  ]

type counts = {
  mutable queries : int;
  mutable magic_fired : int;
  mutable nodes_lowered : int;
  mutable nodes_optimized : int;
  q_errors : Samples.t;
  mutable minor_words : float;
  mutable major_gcs : int;
  mutable scan_rows : int;
  mutable rows_out : int;
  mutable build : int;
  mutable probe : int;
  mutable matches : int;
  mutable rounds : int;
  mutable delta_rows : int;
  op_excl_ns : (string, int64) Hashtbl.t;
}

let counts =
  {
    queries = 0; magic_fired = 0; nodes_lowered = 0; nodes_optimized = 0;
    q_errors = Samples.create (); minor_words = 0.; major_gcs = 0; scan_rows = 0;
    rows_out = 0; build = 0; probe = 0; matches = 0; rounds = 0;
    delta_rows = 0; op_excl_ns = Hashtbl.create 16;
  }

let plan_size (pp : Ir.program_plan) =
  List.fold_left
    (fun acc -> function
      | Ir.Nonrecursive dp -> acc + Ir.size_coll dp.Ir.dplan
      | Ir.Recursive dps ->
          List.fold_left (fun acc dp -> acc + Ir.size_coll dp.Ir.dplan) acc dps)
    (match pp.Ir.main with Ir.Main_coll p -> Ir.size_coll p | Ir.Main_sentence _ -> 0)
    pp.Ir.strata

let take_actuals ~db opt stats =
  List.iter
    (fun (ni : Explain.node_info) ->
      Hashtbl.replace counts.op_excl_ns ni.ni_op
        (Int64.add ni.ni_excl_ns
           (Option.value ~default:0L (Hashtbl.find_opt counts.op_excl_ns ni.ni_op)));
      Option.iter (Samples.add counts.q_errors) ni.ni_q;
      match ni.ni_actual with
      | None -> ()
      | Some a ->
          if ni.ni_op = "scan" then counts.scan_rows <- counts.scan_rows + a.Ir.a_rows;
          counts.build <- counts.build + a.Ir.a_build;
          counts.probe <- counts.probe + a.Ir.a_probe;
          counts.matches <- counts.matches + a.Ir.a_matches;
          counts.rounds <- counts.rounds + a.Ir.a_iterations;
          counts.delta_rows <-
            List.fold_left ( + ) counts.delta_rows a.Ir.a_deltas)
    (Explain.analyze_info ~cenv:(Database.stats_bindings db) opt ~stats)

(* ------------------------------------------------------------------ *)
(* The split query path                                                *)
(* ------------------------------------------------------------------ *)

(* One text → rows query through the public steps of [Exec.run], each in
   its own span under a root span named [root]. Returns the outcome, its
   wall time in seconds (counts included), and whether the split produced
   the very plans [Exec.compile] produces (checked after the clock stops). *)
let query ~qid ?(root = "query") ~conv ~db text =
  let t0 = now_ns () in
  let parsed, raw, optimized, outcome =
    op qid root (fun () ->
        let prog =
          match (text : Inputs.text) with
          | Arc_text s ->
              span "syntax.parse" (fun () ->
                  Arc_syntax.Parser.program_of_string s)
          | Sql_text s ->
              span "sql.to_arc" (fun () -> Inputs.sql_program db s)
        in
        let magic, fired = span "plan.magic" (fun () -> Opt.magic_sets prog) in
        if fired then counts.magic_fired <- counts.magic_fired + 1;
        let ctx, safe =
          span "engine.prepare" (fun () ->
              Eval.Internal.prepare ~conv ~db magic)
        in
        let lenv, raw =
          span "plan.lower" (fun () ->
              let lenv =
                Lower.env_of_db ~db
                  ~defs:(List.map (fun d -> d.Ast.def_name) safe)
              in
              (lenv, Lower.lower_program lenv ~safe magic))
        in
        let optimized =
          List.fold_left
            (fun p (pass : Opt.pass) ->
              span ("plan.opt." ^ pass.name) (fun () ->
                  fst (Opt.optimize ~passes:[ pass ] lenv p)))
            raw Opt.pipeline
        in
        let stats = Ir.fresh_stats () in
        let words0 = Gc.minor_words ()
        and gcs0 = (Gc.quick_stat ()).Gc.major_collections in
        let outcome =
          span "exec" (fun () -> Exec.exec_program ~stats ctx optimized)
        in
        counts.minor_words <- counts.minor_words +. (Gc.minor_words () -. words0);
        counts.major_gcs <-
          counts.major_gcs + ((Gc.quick_stat ()).Gc.major_collections - gcs0);
        take_actuals ~db optimized stats;
        (prog, raw, optimized, outcome))
  in
  let seconds = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9 in
  counts.queries <- counts.queries + 1;
  counts.nodes_lowered <- counts.nodes_lowered + plan_size raw;
  counts.nodes_optimized <- counts.nodes_optimized + plan_size optimized;
  (match outcome with
  | Eval.Rows r -> counts.rows_out <- counts.rows_out + Relation.cardinality r
  | Eval.Truth _ -> ());
  let same_plan =
    let _, raw', optimized', _ = Exec.compile ~conv ~db parsed in
    compare raw raw' = 0 && compare optimized optimized' = 0
  in
  (outcome, seconds, same_plan)

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)
(* ------------------------------------------------------------------ *)

(* The query-path metrics, per traced query: (name, value, unit). *)
let query_metrics () =
  let c = counts in
  let per x = if c.queries = 0 then 0. else Float.of_int x /. Float.of_int c.queries in
  let ratio a b = if b = 0 then 0. else Float.of_int a /. Float.of_int b in
  let us name = mean name ~unit_ns:1e3 in
  [
    ("syntax.parse_us", us "syntax.parse", "us");
    ("sql.to_arc_us", us "sql.to_arc", "us");
    ("plan.magic_us", us "plan.magic", "us");
    ("plan.magic_fired", ratio c.magic_fired c.queries, "ratio");
    ("engine.prepare_us", us "engine.prepare", "us");
    ("plan.lower_us", us "plan.lower", "us");
    ("plan.nodes_lowered", per c.nodes_lowered, "count");
  ]
  @ List.map
      (fun (p : Opt.pass) -> ("plan.opt." ^ p.name ^ "_us", us ("plan.opt." ^ p.name), "us"))
      Opt.pipeline
  @ [
      ("plan.nodes_optimized", per c.nodes_optimized, "count");
      ("plan.q_error_p50", Samples.median c.q_errors, "ratio");
      ("exec.ms", mean "exec" ~unit_ns:1e6, "ms");
      ( "exec.minor_words_per_row",
        (if c.scan_rows = 0 then 0. else c.minor_words /. Float.of_int c.scan_rows),
        "words" );
      ("exec.major_gcs", per c.major_gcs, "count");
      ("exec.rows_out", per c.rows_out, "count");
      ("exec.hash_build_rows", per c.build, "count");
      ("exec.hash_probe_rows", per c.probe, "count");
      ("exec.hash_match_ratio", ratio c.matches c.probe, "ratio");
    ]
  @ List.map
      (fun op ->
        let ns = Option.value ~default:0L (Hashtbl.find_opt c.op_excl_ns op) in
        ( "exec.op." ^ op ^ ".excl_ms",
          (if c.queries = 0 then 0.
           else Int64.to_float ns /. 1e6 /. Float.of_int c.queries),
          "ms" ))
      ops
  @ [
      ("exec.fixpoint_rounds", per c.rounds, "count");
      ("exec.fixpoint_delta_rows", per c.delta_rows, "count");
    ]
