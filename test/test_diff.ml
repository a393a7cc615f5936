(* Differential testing: the plan engine (Exec) against the reference
   evaluator (Eval) on the full Fig/Eq catalog plus queries drawn from the
   examples/ programs, under every convention combination and both
   recursion strategies. The two engines must agree bag-for-bag (or both
   raise an evaluation error). *)

open Arc_core.Ast
open Arc_core.Build
module V = Arc_value.Value
module B3 = Arc_value.Bool3
module Conventions = Arc_value.Conventions
module Relation = Arc_relation.Relation
module Tuple = Arc_relation.Tuple
module Database = Arc_relation.Database
module Eval = Arc_engine.Eval
module Exec = Arc_engine.Exec
module Data = Arc_catalog.Data

let program ?(defs = []) main = { defs; main }

(* every convention combination: 2 collection × 2 null-logic × 2 agg-empty *)
let all_conventions : (string * Conventions.t) list =
  List.concat_map
    (fun (cs, cn) ->
      List.concat_map
        (fun (nl, nn) ->
          List.map
            (fun (ae, an) ->
              ( Printf.sprintf "%s/%s/%s" cn nn an,
                Conventions.
                  { collection = cs; null_logic = nl; agg_empty = ae } ))
            [ (Conventions.Agg_null, "agg_null");
              (Conventions.Agg_zero, "agg_zero") ])
        [ (Conventions.Two_valued, "2vl"); (Conventions.Three_valued, "3vl") ])
    [ (Conventions.Set, "set"); (Conventions.Bag, "bag") ]

type run_result =
  | Bag of string list  (** sorted canonical tuple keys *)
  | Truth of B3.t
  | Errored of string

let outcome_of ~engine ~conv ~strategy ~db prog =
  match engine ~conv ~strategy ~db prog with
  | Eval.Rows r ->
      Bag (List.sort compare (List.map Tuple.key (Relation.tuples r)))
  | Eval.Truth t -> Truth t
  | exception Eval.Eval_error _ -> Errored "eval_error"

let result_to_string = function
  | Bag keys -> Printf.sprintf "bag of %d rows" (List.length keys)
  | Truth t -> "truth " ^ B3.to_string t
  | Errored m -> "error: " ^ m

let agree a b =
  match (a, b) with
  | Bag x, Bag y -> x = y
  | Truth x, Truth y -> x = y
  | Errored _, Errored _ -> true (* both engines reject: acceptable *)
  | _ -> false

let check_case name ~db ?(defs = []) main () =
  let prog = program ~defs main in
  List.iter
    (fun (cname, conv) ->
      List.iter
        (fun (sname, strategy) ->
          let reference =
            outcome_of
              ~engine:(fun ~conv ~strategy ~db p ->
                Eval.run ~conv ~strategy ~db p)
              ~conv ~strategy ~db prog
          in
          let plan =
            outcome_of
              ~engine:(fun ~conv ~strategy ~db p ->
                Exec.run ~conv ~strategy ~db p)
              ~conv ~strategy ~db prog
          in
          if not (agree reference plan) then
            Alcotest.failf "%s [%s, %s]: reference %s, plan %s" name cname
              sname
              (result_to_string reference)
              (result_to_string plan))
        [ ("naive", Eval.Naive); ("seminaive", Eval.Seminaive) ])
    all_conventions

(* ---------------------------------------------------------------- *)
(* Catalog corpus: every Fig/Eq query with its paper database        *)
(* ---------------------------------------------------------------- *)

let db_xy =
  Database.of_list
    [
      ("X", Relation.of_rows [ "A" ] [ [ V.Int 1 ]; [ V.Int 5 ] ]);
      ("Y", Relation.of_rows [ "A" ] [ [ V.Int 2 ]; [ V.Int 6 ] ]);
    ]

let db_sec27 =
  Database.of_list
    [
      ("R", Relation.of_rows [ "A"; "B" ] [ [ V.Int 1; V.Int 7 ] ]);
      ("S", Relation.of_rows [ "B" ] [ [ V.Int 7 ]; [ V.Int 7 ] ]);
    ]

let db_dedup =
  Database.of_list
    [
      ( "R",
        Relation.of_rows [ "A"; "B" ]
          [ [ V.Int 1; V.Int 2 ]; [ V.Int 1; V.Int 2 ]; [ V.Int 3; V.Int 4 ] ]
      );
    ]

let catalog_cases =
  [
    ("eq1", Data.db_rs, [], Coll Data.eq1);
    ("eq2", db_xy, [], Coll Data.eq2);
    ("eq3", Data.db_grouping, [], Coll Data.eq3);
    ("eq7", Data.db_grouping, [], Coll Data.eq7);
    ("eq8", Data.db_payroll, [], Coll Data.eq8);
    ("eq10", Data.db_payroll, [], Coll Data.eq10);
    ("eq12", Data.db_payroll, [], Coll Data.eq12);
    ("eq13", Data.db_boolean, [], Sentence Data.eq13);
    ("eq14", Data.db_boolean, [], Sentence Data.eq14);
    ("eq15", Data.db_souffle, [], Coll Data.eq15);
    ("eq16", Data.db_parent, Data.eq16_defs, Coll Data.eq16_main);
    ("eq17", Data.db_nulls, [], Coll Data.eq17);
    ("eq17-plain", Data.db_nulls, [], Coll Data.eq17_plain_not_exists);
    ("eq18", Data.db_outer, [], Coll Data.eq18);
    ("fig13-lateral", Data.db_fig13, [], Coll Data.fig13_lateral);
    ("fig13-leftjoin", Data.db_fig13, [], Coll Data.fig13_leftjoin);
    ("eq19", Data.db_external, [], Coll Data.eq19);
    ("eq20", Data.db_external, [], Coll Data.eq20);
    ("eq21", Data.db_external, [], Coll Data.eq21);
    ("eq22", Data.db_beers, [], Coll Data.eq22);
    ("eq24", Data.db_beers, [ Data.eq23_subset ], Coll Data.eq24);
    ("eq26", Data.db_matrices, [], Coll Data.eq26);
    ("eq26-external", Data.db_matrices, [], Coll Data.eq26_external);
    ("eq27", Data.db_countbug, [], Coll Data.eq27);
    ("eq28", Data.db_countbug, [], Coll Data.eq28);
    ("eq29", Data.db_countbug, [], Coll Data.eq29);
    ("sec27-nested", db_sec27, [], Coll Data.sec27_nested);
    ("sec27-unnested", db_sec27, [], Coll Data.sec27_unnested);
    ("dedup-grouping", db_dedup, [], Coll Data.dedup_grouping);
  ]

(* ---------------------------------------------------------------- *)
(* Example-program corpus (examples/*.ml queries, rebuilt here)      *)
(* ---------------------------------------------------------------- *)

let s = V.str

let db_division =
  Database.of_list
    [
      ( "Supplies",
        Relation.of_rows [ "sup"; "part" ]
          [
            [ s "acme"; s "bolt" ]; [ s "acme"; s "nut" ]; [ s "acme"; s "cam" ];
            [ s "bolts4u"; s "bolt" ]; [ s "bolts4u"; s "nut" ];
            [ s "camco"; s "cam" ];
          ] );
      ( "Parts",
        Relation.of_rows [ "part" ] [ [ s "bolt" ]; [ s "nut" ]; [ s "cam" ] ]
      );
    ]

(* relational_division.ml: double negation (anti-join of anti-joins) *)
let division_trc =
  collection "Q" [ "sup" ]
    (exists [ bind "s1" "Supplies" ]
       (conj
          [
            eq (attr "Q" "sup") (attr "s1" "sup");
            not_
              (exists [ bind "p" "Parts" ]
                 (not_
                    (exists [ bind "s2" "Supplies" ]
                       (conj
                          [
                            eq (attr "s2" "sup") (attr "s1" "sup");
                            eq (attr "s2" "part") (attr "p" "part");
                          ]))));
          ]))

let db_analytics =
  Database.of_list
    [
      ( "Orders",
        Relation.of_rows [ "oid"; "cust"; "amount" ]
          (List.init 40 (fun i ->
               [ V.Int i; V.Int (i mod 7); V.Int ((i * 13 mod 50) + 1) ])) );
      ( "Customers",
        Relation.of_rows [ "cust"; "region" ]
          (List.init 7 (fun i -> [ V.Int i; s (if i mod 2 = 0 then "n" else "s") ]))
      );
    ]

(* analytics_workload.ml: join + grouped aggregate + having *)
let analytics_rollup =
  collection "Q" [ "region"; "total" ]
    (exists
       ~grouping:[ ("c", "region") ]
       [ bind "o" "Orders"; bind "c" "Customers" ]
       (conj
          [
            eq (attr "o" "cust") (attr "c" "cust");
            eq (attr "Q" "region") (attr "c" "region");
            eq (attr "Q" "total") (sum (attr "o" "amount"));
            gt (sum (attr "o" "amount")) (cint 0);
          ]))

let db_chain n =
  Database.of_list
    [
      ( "E",
        Relation.of_rows [ "src"; "dst" ]
          (List.init n (fun i -> [ V.Int i; V.Int (i + 1) ])) );
    ]

(* [H(src,dst)] from [l] followed by [r] on [l.dst = r.src] *)
let path_step head l r =
  conj
    [
      eq (attr l "dst") (attr r "src");
      eq (attr head "src") (attr l "src");
      eq (attr head "dst") (attr r "dst");
    ]

(* [H(src,dst)] equal to [v]'s row *)
let copy_of head v =
  conj
    [
      eq (attr head "src") (attr v "src");
      eq (attr head "dst") (attr v "dst");
    ]

(* [name] := [E] or [step] *)
let edge_def name step =
  define name
    (collection name [ "src"; "dst" ]
       (disj [ exists [ bind "e" "E" ] (copy_of name "e"); step ]))

(* transitive closure, the canonical recursive workload *)
let tc_defs =
  [ edge_def "T" (exists [ bind "t" "T"; bind "e" "E" ] (path_step "T" "t" "e")) ]

let tc_main =
  collection "Q" [ "src"; "dst" ] (exists [ bind "t" "T" ] (copy_of "Q" "t"))

(* nonlinear transitive closure: both delta rules join the delta with the
   full relation *)
let tc_nonlinear_defs =
  [
    edge_def "T"
      (exists [ bind "t1" "T"; bind "t2" "T" ] (path_step "T" "t1" "t2"));
  ]

(* mutual recursion: odd- and even-length paths *)
let parity_defs =
  [
    edge_def "Od"
      (exists [ bind "v" "Ev"; bind "e" "E" ] (path_step "Od" "v" "e"));
    define "Ev"
      (collection "Ev" [ "src"; "dst" ]
         (exists [ bind "o" "Od"; bind "e" "E" ] (path_step "Ev" "o" "e")));
  ]

let parity_main =
  collection "Q" [ "k"; "src"; "dst" ]
    (disj
       [
         exists [ bind "o" "Od" ]
           (conj [ eq (attr "Q" "k") (cstr "odd"); copy_of "Q" "o" ]);
         exists [ bind "v" "Ev" ]
           (conj [ eq (attr "Q" "k") (cstr "even"); copy_of "Q" "v" ]);
       ])

(* transitive closure through two copies of itself: [U] copies [V] and
   [V] copies [T], so the component seeds [U], then [V], then [T], and both
   copies start empty. The closure step joins [U] and [V] only, so every
   path longer than one edge needs the full copies as they grow,
   mid-fixpoint. *)
let tc_copies_defs =
  let copy_def name src =
    define name
      (collection name [ "src"; "dst" ]
         (exists [ bind "c" src ] (copy_of name "c")))
  in
  [
    copy_def "U" "V";
    copy_def "V" "T";
    edge_def "T"
      (exists [ bind "u" "U"; bind "v" "V" ] (path_step "T" "u" "v"));
  ]

(* a two-key join whose key pairs cross attribute names (p.s = r.t,
   p.t = r.s): both sides' key attributes are the same set, but only
   (1,2) joins *)
let db_swapped =
  Database.of_list
    [
      ( "P",
        Relation.of_rows [ "s"; "t" ]
          [ [ V.Int 1; V.Int 2 ]; [ V.Int 3; V.Int 4 ] ] );
      ( "R",
        Relation.of_rows [ "s"; "t" ]
          [ [ V.Int 2; V.Int 1 ]; [ V.Int 3; V.Int 4 ] ] );
    ]

let swapped_keys =
  collection "Q" [ "s"; "t" ]
    (exists [ bind "p" "P"; bind "r" "R" ]
       (conj
          [
            eq (attr "p" "s") (attr "r" "t");
            eq (attr "p" "t") (attr "r" "s");
            eq (attr "Q" "s") (attr "p" "s");
            eq (attr "Q" "t") (attr "p" "t");
          ]))

let example_cases =
  [
    ("division-trc", db_division, [], Coll division_trc);
    ("analytics-rollup", db_analytics, [], Coll analytics_rollup);
    ("tc-chain", db_chain 12, tc_defs, Coll tc_main);
    ("tc-nonlinear", db_chain 12, tc_nonlinear_defs, Coll tc_main);
    ("parity-mutual", db_chain 12, parity_defs, Coll parity_main);
    ("tc-through-copies", db_chain 12, tc_copies_defs, Coll tc_main);
    ("two-key-swapped", db_swapped, [], Coll swapped_keys);
  ]

let () =
  let case (name, db, defs, main) =
    Alcotest.test_case name `Quick (check_case name ~db ~defs main)
  in
  Alcotest.run "arc_diff"
    [
      ("catalog", List.map case catalog_cases);
      ("examples", List.map case example_cases);
    ]
