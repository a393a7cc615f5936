(* Value substrate tests: values, 3VL, aggregates, conventions. *)

module V = Arc_value.Value
module B3 = Arc_value.Bool3
module Agg = Arc_value.Aggregate
module Conv = Arc_value.Conventions

let i = V.int

let value_compare () =
  Alcotest.(check bool) "null < int" true (V.compare V.Null (i 0) < 0);
  Alcotest.(check bool) "int/float cross" true
    (V.compare (i 1) (V.Float 1.5) < 0);
  Alcotest.(check bool) "1 = 1.0" true (V.equal (i 1) (V.Float 1.));
  Alcotest.(check bool) "null = null (grouping)" true (V.equal V.Null V.Null);
  Alcotest.(check bool) "str order" true (V.compare (V.Str "a") (V.Str "b") < 0)

let value_cmp3 () =
  Alcotest.(check bool) "null vs x is None" true (V.cmp3 V.Null (i 1) = None);
  Alcotest.(check bool) "x vs null is None" true (V.cmp3 (i 1) V.Null = None);
  Alcotest.(check bool) "1 < 2" true (V.cmp3 (i 1) (i 2) = Some (-1));
  Alcotest.check_raises "int vs str raises"
    (V.Type_error "cannot compare int with string") (fun () ->
      ignore (V.cmp3 (i 1) (V.Str "x")))

let value_arith () =
  Alcotest.(check bool) "3 - 1 = 2" true (V.equal (V.sub (i 3) (i 1)) (i 2));
  Alcotest.(check bool) "null strict" true (V.is_null (V.add V.Null (i 1)));
  Alcotest.(check bool) "mixed int/float" true
    (V.equal (V.mul (i 2) (V.Float 1.5)) (V.Float 3.));
  (* SQL semantics: division/modulo by zero yields NULL, never an error,
     never an infinity (which would not round-trip through canonical) *)
  Alcotest.(check bool) "int div by zero is null" true
    (V.is_null (V.div (i 1) (i 0)));
  Alcotest.(check bool) "float div by zero is null" true
    (V.is_null (V.div (V.Float 1.5) (V.Float 0.)));
  Alcotest.(check bool) "mixed div by zero is null" true
    (V.is_null (V.div (i 1) (V.Float 0.)));
  Alcotest.(check bool) "7 mod 3 = 1" true
    (V.equal (V.modulo (i 7) (i 3)) (i 1));
  Alcotest.(check bool) "mod by zero is null" true
    (V.is_null (V.modulo (i 7) (i 0)));
  Alcotest.(check bool) "float mod" true
    (V.equal (V.modulo (V.Float 7.5) (i 2)) (V.Float 1.5));
  Alcotest.(check bool) "mod null strict" true
    (V.is_null (V.modulo V.Null (i 3)))

(* Int/Float values that compare equal must agree on their hash key, or
   the reference evaluator's grouping and the plan engine's hash joins
   would partition the same rows differently. *)
let value_canonical_coercion () =
  Alcotest.(check string)
    "Int 1 and Float 1.0 share a canonical form" (V.canonical (i 1))
    (V.canonical (V.Float 1.0));
  Alcotest.(check bool) "Float 1.5 differs from Int 1" true
    (V.canonical (V.Float 1.5) <> V.canonical (i 1));
  Alcotest.(check bool) "equal values, equal keys" true
    (List.for_all
       (fun (a, b) -> (V.equal a b) = (V.canonical a = V.canonical b))
       [
         (i 0, V.Float 0.);
         (i (-3), V.Float (-3.));
         (i 7, V.Float 7.2);
         (V.Float 2.5, V.Float 2.5);
         (V.Null, i 0);
         (V.Bool true, i 1);
         (V.Str "1", i 1);
       ])

let value_to_string_roundtrip () =
  Alcotest.(check string) "quote doubling" "'it''s'"
    (V.to_string (V.Str "it's"));
  Alcotest.(check string) "plain string" "'abc'" (V.to_string (V.Str "abc"));
  (* float_repr must reparse to the identical float *)
  List.iter
    (fun f ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "float %h reparses" f)
        f
        (float_of_string (V.to_string (V.Float f))))
    [ 0.5; 1.0; -2.25; 1e-7; 1e20; 3.141592653589793; 0.1 ]

let value_like () =
  let t pat s expect =
    Alcotest.(check (option bool))
      (Printf.sprintf "'%s' like '%s'" s pat)
      (Some expect)
      (V.like (V.Str s) pat)
  in
  t "a%" "abc" true;
  t "a%" "bac" false;
  t "%c" "abc" true;
  t "a_c" "abc" true;
  t "a_c" "abbc" false;
  t "%b%" "abc" true;
  t "" "" true;
  t "%" "" true;
  t "_" "" false;
  Alcotest.(check (option bool)) "null like" None (V.like V.Null "a%")

let bool3_tables () =
  let open B3 in
  Alcotest.(check bool) "T and U = U" true (and_ True Unknown = Unknown);
  Alcotest.(check bool) "F and U = F" true (and_ False Unknown = False);
  Alcotest.(check bool) "T or U = T" true (or_ True Unknown = True);
  Alcotest.(check bool) "F or U = U" true (or_ False Unknown = Unknown);
  Alcotest.(check bool) "not U = U" true (not_ Unknown = Unknown);
  Alcotest.(check bool) "to_bool U = false" true (to_bool Unknown = false);
  Alcotest.(check bool) "and_list empty = T" true (and_list [] = True);
  Alcotest.(check bool) "or_list empty = F" true (or_list [] = False)

let agg_basic () =
  let apply k vs = Agg.apply Conv.Agg_null k vs in
  Alcotest.(check bool) "sum" true (V.equal (apply Agg.Sum [ i 1; i 2; i 3 ]) (i 6));
  Alcotest.(check bool) "count" true (V.equal (apply Agg.Count [ i 1; i 2 ]) (i 2));
  Alcotest.(check bool) "count skips nulls" true
    (V.equal (apply Agg.Count [ i 1; V.Null ]) (i 1));
  Alcotest.(check bool) "sum skips nulls" true
    (V.equal (apply Agg.Sum [ i 1; V.Null; i 2 ]) (i 3));
  Alcotest.(check bool) "avg" true
    (V.equal (apply Agg.Avg [ i 1; i 3 ]) (V.Float 2.));
  Alcotest.(check bool) "min" true (V.equal (apply Agg.Min [ i 3; i 1 ]) (i 1));
  Alcotest.(check bool) "max" true (V.equal (apply Agg.Max [ i 3; i 1 ]) (i 3))

let agg_distinct () =
  let apply k vs = Agg.apply Conv.Agg_null k vs in
  Alcotest.(check bool) "countdistinct" true
    (V.equal (apply Agg.Count_distinct [ i 1; i 1; i 2 ]) (i 2));
  Alcotest.(check bool) "sumdistinct" true
    (V.equal (apply Agg.Sum_distinct [ i 5; i 5; i 2 ]) (i 7));
  Alcotest.(check bool) "avgdistinct" true
    (V.equal (apply Agg.Avg_distinct [ i 2; i 2; i 4 ]) (V.Float 3.))

let agg_empty_convention () =
  Alcotest.(check bool) "SQL: sum [] = null" true
    (V.is_null (Agg.apply Conv.Agg_null Agg.Sum []));
  Alcotest.(check bool) "Souffle: sum [] = 0" true
    (V.equal (Agg.apply Conv.Agg_zero Agg.Sum []) (i 0));
  Alcotest.(check bool) "count [] = 0 in both" true
    (V.equal (Agg.apply Conv.Agg_null Agg.Count []) (i 0));
  Alcotest.(check bool) "sum of all nulls behaves as empty" true
    (V.is_null (Agg.apply Conv.Agg_null Agg.Sum [ V.Null; V.Null ]))

let agg_names () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Agg.kind_to_string k ^ " round-trips")
        true
        (Agg.kind_of_string (Agg.kind_to_string k) = Some k))
    Agg.all_kinds;
  Alcotest.(check bool) "average alias" true
    (Agg.kind_of_string "average" = Some Agg.Avg);
  Alcotest.(check bool) "unknown" true (Agg.kind_of_string "median" = None)

let conventions () =
  Alcotest.(check bool) "sql is bag" true (Conv.sql.Conv.collection = Conv.Bag);
  Alcotest.(check bool) "sql_set is set" true
    (Conv.sql_set.Conv.collection = Conv.Set);
  Alcotest.(check bool) "souffle 2VL" true
    (Conv.souffle.Conv.null_logic = Conv.Two_valued);
  Alcotest.(check bool) "souffle agg 0" true
    (Conv.souffle.Conv.agg_empty = Conv.Agg_zero)

(* property tests *)
let prop_like_percent =
  QCheck.Test.make ~name:"LIKE '%' matches every string" ~count:200
    QCheck.(string_of_size (Gen.int_bound 20))
    (fun s ->
      (* avoid pattern metacharacters confusion: pattern is just % *)
      V.like (V.Str s) "%" = Some true)

let prop_compare_total =
  let gen =
    QCheck.oneof
      [
        QCheck.always V.Null;
        QCheck.map V.int QCheck.small_int;
        QCheck.map V.float (QCheck.float_bound_exclusive 100.);
        QCheck.map V.str QCheck.(string_of_size (Gen.int_bound 6));
      ]
  in
  QCheck.Test.make ~name:"compare is antisymmetric" ~count:500
    (QCheck.pair gen gen)
    (fun (a, b) -> compare (V.compare a b) 0 = compare 0 (V.compare b a))

let prop_bool3_demorgan =
  let gen = QCheck.oneofl [ B3.True; B3.False; B3.Unknown ] in
  QCheck.Test.make ~name:"Kleene De Morgan" ~count:100 (QCheck.pair gen gen)
    (fun (a, b) ->
      B3.not_ (B3.and_ a b) = B3.or_ (B3.not_ a) (B3.not_ b)
      && B3.not_ (B3.or_ a b) = B3.and_ (B3.not_ a) (B3.not_ b))

let prop_sum_append =
  QCheck.Test.make ~name:"sum distributes over append" ~count:200
    QCheck.(pair (small_list small_int) (small_list small_int))
    (fun (xs, ys) ->
      let vs l = List.map V.int l in
      let s l =
        match Agg.apply Conv.Agg_zero Agg.Sum (vs l) with
        | V.Int n -> n
        | _ -> -1
      in
      s (xs @ ys) = s xs + s ys)

(* The value-key hash/equality must partition values exactly as
   [V.canonical] strings do. The generator favours values whose canonical
   forms collide or nearly collide: Int/Float pairs, signed zeros and NaNs,
   floats at the 4e18 cut-off, max_int, NULL, and strings holding the
   form's own delimiters. *)
let cutoff = 4.0e18

let edge_floats =
  [ 0.0; -0.0; 1.0; -1.0; 0.5; -2.5; nan; -.nan; infinity; neg_infinity;
    cutoff; -.cutoff; Float.succ cutoff; Float.pred cutoff;
    Float.succ (-.cutoff); float_of_int max_int; float_of_int min_int;
    ldexp 1.0 62; 1e15; 1e15 +. 0.5 ]

let edge_ints =
  [ 0; 1; -1; 2; max_int; min_int; 4_000_000_000_000_000_000;
    -4_000_000_000_000_000_000; 4_000_000_000_000_000_001 ]

let edge_strings = [ ""; ";"; ":"; "d1;"; "s1:;"; "1"; "1.0"; "n;"; "a;b:c" ]

let key_agrees a b =
  let same = String.equal (V.canonical a) (V.canonical b) in
  Arc_value.Key.equal a b = same
  && ((not same) || Arc_value.Key.hash a = Arc_value.Key.hash b)

(* every pair of edge values, deterministically *)
let key_edge_pairs () =
  let vals =
    [ V.Null; V.Bool true; V.Bool false ]
    @ List.map V.int edge_ints
    @ List.map V.float edge_floats
    @ List.map V.str edge_strings
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if not (key_agrees a b) then
            Alcotest.failf "key disagrees with canonical on %s vs %s"
              (V.canonical a) (V.canonical b))
        vals)
    vals

let key_value_gen =
  let open QCheck.Gen in
  let strings = edge_strings in
  frequency
    [
      (1, return V.Null);
      (1, map V.bool bool);
      (2, map V.int (oneofl edge_ints));
      (2, map V.int (int_range (-3) 3));
      (3, map V.float (oneofl edge_floats));
      (2, map (fun i -> V.Float (float_of_int i)) (int_range (-3) 3));
      (1, map V.float (map (fun i -> float_of_int i /. 2.) (int_range (-6) 6)));
      (2, map V.str (oneofl strings));
      ( 1,
        map V.str
          (string_size ~gen:(oneofl [ 'd'; 's'; ';'; ':'; '1' ]) (int_bound 4))
      );
    ]

let key_value = QCheck.make ~print:V.canonical key_value_gen

let prop_key_matches_canonical =
  QCheck.Test.make ~name:"value keys agree with canonical equality"
    ~count:2000 (QCheck.pair key_value key_value) (fun (a, b) ->
      key_agrees a b)

let prop_composite_key_matches_canonical =
  let arr =
    QCheck.(map Array.of_list (list_of_size (Gen.int_range 1 3) key_value))
  in
  QCheck.Test.make ~name:"composite value keys agree with canonical strings"
    ~count:1000 (QCheck.pair arr arr) (fun (a, b) ->
      let canon k =
        String.concat "" (Array.to_list (Array.map V.canonical k))
      in
      let same = Array.length a = Array.length b && canon a = canon b in
      Arc_value.Key.equal_array a b = same
      && ((not same)
         || Arc_value.Key.hash_array a = Arc_value.Key.hash_array b))

let () =
  Alcotest.run "arc_value"
    [
      ( "value",
        [
          Alcotest.test_case "compare" `Quick value_compare;
          Alcotest.test_case "cmp3" `Quick value_cmp3;
          Alcotest.test_case "arithmetic" `Quick value_arith;
          Alcotest.test_case "canonical int/float coercion" `Quick
            value_canonical_coercion;
          Alcotest.test_case "to_string roundtrip" `Quick
            value_to_string_roundtrip;
          Alcotest.test_case "like" `Quick value_like;
          Alcotest.test_case "value keys on edge pairs" `Quick key_edge_pairs;
        ] );
      ( "bool3",
        [ Alcotest.test_case "kleene tables" `Quick bool3_tables ] );
      ( "aggregate",
        [
          Alcotest.test_case "basic" `Quick agg_basic;
          Alcotest.test_case "distinct variants" `Quick agg_distinct;
          Alcotest.test_case "empty-input convention" `Quick agg_empty_convention;
          Alcotest.test_case "names" `Quick agg_names;
        ] );
      ( "conventions", [ Alcotest.test_case "presets" `Quick conventions ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_like_percent;
            prop_compare_total;
            prop_bool3_demorgan;
            prop_sum_append;
            prop_key_matches_canonical;
            prop_composite_key_matches_canonical;
          ] );
    ]
