(* Seeded inputs for the four workloads. Every draw comes from a
   [Random.State.t] made from the --seed argument and a purpose tag, so one
   seed fixes the data, the query order and the update stream, and the
   program under test only ever sees the generated relations and texts. *)

module V = Arc_value.Value
module Conventions = Arc_value.Conventions
module Relation = Arc_relation.Relation
module Database = Arc_relation.Database
module Ast = Arc_core.Ast
module Data = Arc_catalog.Data
module Printer = Arc_syntax.Printer

let rng seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

(* a seeded permutation of 0..n-1 (Fisher–Yates) *)
let shuffle st n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------------ *)
(* Orders ⋈ Customers                                                  *)
(* ------------------------------------------------------------------ *)

let customers = 29
let regions = 5
let region_of cust = cust mod regions

(* The analytics rollup of BENCH_4 (grouped SUM over a join), as ARC
   text: the engine parses it on every query. *)
let rollup_text =
  "{Q(region, total) | exists o in Orders, c in Customers, \
   gamma_{c.region}[o.cust = c.cust and Q.region = c.region and Q.total = \
   sum(o.amount)]}"

type order = { oid : int; cust : int; amount : int }

let draw_order st oid =
  let cust = Random.State.int st customers in
  { oid; cust; amount = 1 + Random.State.int st 50 }

let orders st n = Array.init n (fun oid -> draw_order st oid)
let order_row o = [ V.Int o.oid; V.Int o.cust; V.Int o.amount ]

let customers_rel () =
  Relation.of_rows [ "cust"; "region" ]
    (List.init customers (fun c -> [ V.Int c; V.Int (region_of c) ]))

let orders_rel os =
  Relation.of_rows [ "oid"; "cust"; "amount" ]
    (Array.to_list (Array.map order_row os))

(* ------------------------------------------------------------------ *)
(* Chains for transitive closure                                        *)
(* ------------------------------------------------------------------ *)

(* Eq 16 of the paper: the transitive closure of P, as ARC text. *)
let tc_text =
  "def A := {A(s, t) | exists p in P[A.s = p.s and A.t = p.t] or exists p \
   in P, a2 in A[A.s = p.s and p.t = a2.s and a2.t = A.t]}\n\
   {Q(s, t) | exists a in A[Q.s = a.s and Q.t = a.t]}"

(* A chain of [edges] edges over nodes labelled by a seeded permutation of
   0..edges: edge i goes from [labels.(i)] to [labels.(i + 1)]. *)
let chain_labels st edges = shuffle st (edges + 1)

let edge_row labels i = [ V.Int labels.(i); V.Int labels.(i + 1) ]

(* the chain without the edges at the [missing] positions *)
let chain_rel ?(missing = []) labels =
  let edges = Array.length labels - 1 in
  Relation.of_rows [ "s"; "t" ]
    (List.filter_map
       (fun i -> if List.mem i missing then None else Some (edge_row labels i))
       (List.init edges Fun.id))

(* ------------------------------------------------------------------ *)
(* The catalog pool                                                    *)
(* ------------------------------------------------------------------ *)

let coll c = { Ast.defs = []; main = Ast.Coll c }

let schemas db =
  List.map
    (fun n ->
      (n, Arc_relation.Schema.attrs (Relation.schema (Database.find db n))))
    (Database.names db)

(* SQL text → ARC program through the SQL front end *)
let sql_program db text =
  Arc_sql.To_arc.statement ~schemas:(schemas db)
    (Arc_sql.Parse.statement_of_string text)

(* A query as the program receives it. *)
type text = Arc_text of string | Sql_text of string

(* the untraced front end: ARC or SQL text → program *)
let parse db = function
  | Arc_text s -> Arc_syntax.Parser.program_of_string s
  | Sql_text s -> sql_program db s

type entry = {
  name : string;
  text : text;
  ast : Ast.program option;  (* the AST an ARC text was rendered from *)
  conv : Conventions.t;
  db : Database.t;
}

(* ancestors of one node of Eq 16: the recursion passes [t] through
   unchanged, so the magic-sets rewrite restricts the fixpoint *)
let eq16_bound c =
  let open Arc_core.Build in
  Ast.program ~defs:Data.eq16_defs
    (Ast.Coll
       (collection "Q" [ "s" ]
          (exists [ bind "a" "A" ]
             (conj
                [ eq (attr "a" "t") (cint c); eq (attr "Q" "s") (attr "a" "s") ]))))

(* The paper's collection-valued equations on their paper instances. *)
let paper_equations =
  [
    ("eq1", Data.db_rs, coll Data.eq1);
    ("eq3", Data.db_grouping, coll Data.eq3);
    ("eq7", Data.db_grouping, coll Data.eq7);
    ("eq8", Data.db_payroll, coll Data.eq8);
    ("eq10", Data.db_payroll, coll Data.eq10);
    ("eq12", Data.db_payroll, coll Data.eq12);
    ("eq15", Data.db_souffle, coll Data.eq15);
    ( "eq16",
      Data.db_parent,
      { Ast.defs = Data.eq16_defs; main = Ast.Coll Data.eq16_main } );
    ("eq16_bound3", Data.db_parent, eq16_bound 3);
    ("eq16_bound4", Data.db_parent, eq16_bound 4);
    ("eq17", Data.db_nulls, coll Data.eq17);
    ("eq18", Data.db_outer, coll Data.eq18);
    ("fig13_lateral", Data.db_fig13, coll Data.fig13_lateral);
    ("fig13_leftjoin", Data.db_fig13, coll Data.fig13_leftjoin);
    ("eq19", Data.db_external, coll Data.eq19);
    ("eq20", Data.db_external, coll Data.eq20);
    ("eq21", Data.db_external, coll Data.eq21);
    ("eq22", Data.db_beers, coll Data.eq22);
    ("eq26", Data.db_matrices, coll Data.eq26);
    ("eq27", Data.db_countbug, coll Data.eq27);
    ("eq28", Data.db_countbug, coll Data.eq28);
    ("eq29", Data.db_countbug, coll Data.eq29);
  ]

(* The paper's SQL figures on the instances the catalog runs them on. *)
let sql_figures =
  [
    ("fig4a", Data.db_grouping, Data.sql_fig4a);
    ("fig5a", Data.db_grouping, Data.sql_fig5a);
    ("fig5b", Data.db_grouping, Data.sql_fig5b);
    ("fig6a", Data.db_payroll, Data.sql_fig6a);
    ("fig9a", Data.db_boolean, Data.sql_fig9a);
    ("fig11a", Data.db_nulls, Data.sql_fig11a);
    ("fig11b", Data.db_nulls, Data.sql_fig11b);
    ("fig12a", Data.db_outer, Data.sql_fig12a);
    ("fig13a", Data.db_fig13, Data.sql_fig13a);
    ("fig13b", Data.db_fig13, Data.sql_fig13b);
    ("fig13c", Data.db_fig13, Data.sql_fig13c);
    ("fig17", Data.db_beers, Data.sql_fig17);
    ("fig21a", Data.db_countbug, Data.sql_fig21a);
    ("fig21b", Data.db_countbug, Data.sql_fig21b);
    ("fig21c", Data.db_countbug, Data.sql_fig21c);
  ]

let fuzz_count = 2048

(* A draw of fuzzer cores, kept when they validate (the fuzzer's own
   skip rule) and [accept] — the reference evaluator within a small work
   budget — gives them a result. The engine under test plays no part in
   the choice. Returns the cores and the number of draws. *)
let fuzz_cores seed ~accept =
  let st = rng seed "fuzz" in
  let rec go i n acc =
    if n = fuzz_count then (List.rev acc, i)
    else
      let case = Arc_fuzz.Gen.gen_case st in
      if Arc_fuzz.Case.validate case = Ok () && accept case.db case.prog then
        go (i + 1) (n + 1) ((Printf.sprintf "fuzz%d" i, case) :: acc)
      else go (i + 1) n acc
  in
  go 0 0 []

(* The pool over the fuzz cores drawn for this seed, every database
   ANALYZEd once (paper instances are shared between entries). *)
let catalog_pool ~analyze fuzz =
  let memo = ref [] in
  let analyzed db =
    match List.assq_opt db !memo with
    | Some a -> a
    | None ->
        let a = analyze db in
        memo := (db, a) :: !memo;
        a
  in
  let arc (name, db, prog) =
    {
      name;
      text = Arc_text (Printer.program ~unicode:false prog);
      ast = Some prog;
      conv = Conventions.sql_set;
      db = analyzed db;
    }
  in
  let sql (name, db, text) =
    { name; text = Sql_text text; ast = None; conv = Conventions.sql; db = analyzed db }
  in
  List.map arc paper_equations
  @ List.map sql sql_figures
  @ List.map (fun (name, (c : Arc_fuzz.Case.t)) -> arc (name, c.db, c.prog)) fuzz

(* The seeded order in which the pool is queried: [cycles] shuffles of the
   pool back to back, so every entry runs equally often. *)
let catalog_order seed pool_size cycles =
  let st = rng seed "order" in
  Array.concat (List.init cycles (fun _ -> shuffle st pool_size))
