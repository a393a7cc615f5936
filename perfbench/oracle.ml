(* Independent oracles. Every expected result is computed without the
   engine under test ([Arc_engine.Exec]): closed forms over the generated
   inputs for rollup, TC and the IVM views, and the reference evaluator
   ([Arc_engine.Eval]) for the catalog pool. Results are compared as bags
   of canonical tuple keys.

   Floats that are not integral are the one exception to exact comparison.
   A float SUM depends on the order of its additions, and the engine and the
   reference add in different orders: on one fuzz core, over the same three
   rows, they return 0x1.0000035afe536p+0 and 0x1.0000035afe535p+0. So a
   tuple's key holds such a float as a bare "f;" and the float itself is
   kept beside the key, to be compared within a relative [float_tolerance];
   every other value is compared exactly. *)

module V = Arc_value.Value
module Relation = Arc_relation.Relation
module Tuple = Arc_relation.Tuple
module Eval = Arc_engine.Eval
open Inputs

(* per tuple, sorted: the key with non-integral floats masked, and those
   floats in attribute order *)
type bag = (string * float list) list

let row t =
  let floats = ref [] in
  let key =
    String.concat ""
      (List.map
         (fun a ->
           let cell =
             match Tuple.get t a with
             | V.Float f when not (Float.is_integer f) ->
                 floats := f :: !floats;
                 "f;"
             | v -> V.canonical v
           in
           string_of_int (String.length a) ^ ":" ^ a ^ cell)
         (Arc_relation.Schema.sorted_attrs (Tuple.schema t)))
  in
  (key, List.rev !floats)

let bag rel : bag = List.sort compare (List.map row (Relation.tuples rel))
let bag_of_rows attrs rows = bag (Relation.of_rows attrs rows)

let float_tolerance = 1e-9

let close x y =
  Float.equal x y
  || Float.abs (x -. y) <= float_tolerance *. Float.max (Float.abs x) (Float.abs y)

(* bag equality, floats within [float_tolerance] *)
let same (a : bag) (b : bag) =
  List.compare_lengths a b = 0
  && List.for_all2
       (fun (k, fs) (k', fs') -> String.equal k k' && List.for_all2 close fs fs')
       a b

(* Region totals summed from the generated orders: [sums.(r)] and
   [counts.(r)] per region, updated in place as the IVM stream edits
   orders. *)
type totals = { sums : int array; counts : int array }

let totals orders =
  let t = { sums = Array.make regions 0; counts = Array.make regions 0 } in
  Array.iter
    (fun o ->
      let r = region_of o.cust in
      t.sums.(r) <- t.sums.(r) + o.amount;
      t.counts.(r) <- t.counts.(r) + 1)
    orders;
  t

let edit_totals t o sign =
  let r = region_of o.cust in
  t.sums.(r) <- t.sums.(r) + (sign * o.amount);
  t.counts.(r) <- t.counts.(r) + sign

let rollup t =
  bag_of_rows [ "region"; "total" ]
    (List.filter_map
       (fun r ->
         if t.counts.(r) = 0 then None else Some [ V.Int r; V.Int t.sums.(r) ])
       (List.init regions Fun.id))

(* Closure of the permuted chain in closed form: node [labels.(i)]
   reaches [labels.(j)] iff i < j and no missing edge k has i <= k < j. *)
let closure ?missing labels =
  let n = Array.length labels in
  let cut i j = match missing with Some k -> i <= k && k < j | None -> false in
  let rows = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if not (cut i j) then
        rows := [ V.Int labels.(i); V.Int labels.(j) ] :: !rows
    done
  done;
  bag_of_rows [ "s"; "t" ] !rows

let closure_size edges = edges * (edges + 1) / 2

(* The reference evaluator on the program a pool entry stands for: the
   AST an ARC text was rendered from, or the translation of an SQL text.
   [Error] marks an entry the reference cannot evaluate. *)
let catalog (e : entry) =
  match
    let prog = match e.ast with Some p -> p | None -> parse e.db e.text in
    Eval.run ~conv:e.conv ~db:e.db prog
  with
  | Eval.Rows r -> Ok (bag r)
  | Eval.Truth _ -> Error "sentence result"
  | exception ex -> Error (Printexc.to_string ex)

(* Whether the reference evaluator gives a fuzz core a result within a
   budget of scope bindings: the catalog stands for many small queries, and
   a count of the reference's work (not a time) keeps the choice the same
   on every machine. *)
let fuzz_budget =
  { Arc_guard.Budget.unlimited with max_bindings = Some 300; max_iterations = Some 1000 }

let accepts db prog =
  let guard = Arc_guard.Gov.make ~on_limit:`Fail fuzz_budget in
  match Eval.run ~guard ~conv:Arc_value.Conventions.sql_set ~db prog with
  | Eval.Rows _ -> true
  | Eval.Truth _ | (exception _) -> false
