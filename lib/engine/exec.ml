open Arc_core.Ast
module V = Arc_value.Value
module B3 = Arc_value.Bool3
module Conventions = Arc_value.Conventions
module Aggregate = Arc_value.Aggregate
module Key = Arc_value.Key
module Relation = Arc_relation.Relation
module Tuple = Arc_relation.Tuple
module Schema = Arc_relation.Schema
module Obs = Arc_obs.Obs
module Gov = Arc_guard.Gov
module Err = Arc_guard.Error
module Depend = Arc_core.Depend
module Ir = Arc_plan.Ir
module Lower = Arc_plan.Lower
module Opt = Arc_plan.Opt
module I = Eval.Internal

(* The physical engine: executes the Arc_plan IR with hash-based join,
   semi/anti-join, aggregation and deduplication operators. Per-row
   semantics come from Eval.Internal: the tuple path calls its term,
   predicate and formula evaluators directly; the block path compiles terms
   into closures over the same value-level primitives and hands formulas,
   deferred resolution and the collection fallback to it. So the two
   engines share one notion of what a row means and can only differ in
   what they enumerate. *)

exception Eval_error = Eval.Eval_error

let raise_kind kind = raise (Eval_error (Err.make kind))

(* ------------------------------------------------------------------ *)
(* Fixpoint rule marks                                                 *)
(* ------------------------------------------------------------------ *)

(* Per-delta-rule marks for the indexed seminaive fixpoint. [fm_stable]
   holds the maximal subtrees of the rule's plan that scan neither the
   recursive component nor its __delta__ relations: their result cannot
   change between rounds, so the compiled rule memoizes it on first
   execution. [fm_joins] holds the hash joins with such a stable subtree
   on one side: the compiled join keeps the hash table built from that
   side alive across rounds, so each round only probes it with the
   current delta. The memoized rows and tables live in the closures of
   the rule's compiled pipeline, which the fixpoint builds once. *)
type fix_marks = {
  fm_stable : (int, unit) Hashtbl.t;
  fm_joins : (int, [ `Left | `Right ]) Hashtbl.t;
}

(* A subtree is stable when no scan under it resolves a [banned] relation
   (the component and its deltas). Correlated or context-dependent nodes
   (laterals, subqueries, deferred resolution) are conservatively treated
   as unstable — they may evaluate under a different outer row each time.
   Residual formulas and filters cannot reference the component at all
   here: [Ir.seminaive_eligible] rejects opaque component references
   before a stratum ever reaches the seminaive path. *)
let rec stable_subtree banned (t : Ir.t) =
  match t with
  | Ir.One -> true
  | Ir.Scan { rel; _ } -> not (List.mem rel banned)
  | Ir.Product { left; right } | Ir.Hash_join { left; right; _ } ->
      stable_subtree banned left && stable_subtree banned right
  | Ir.Filter { input; _ } | Ir.Residual { input; _ } | Ir.Prune { input; _ }
    ->
      stable_subtree banned input
  | Ir.Semi { input; sub; _ } ->
      stable_subtree banned input && stable_subtree banned sub
  | Ir.Append ts -> List.for_all (stable_subtree banned) ts
  | Ir.Lateral _ | Ir.Subquery _ | Ir.Resolve _ -> false

(* Mark the maximal stable subtrees (and the hash joins that should keep a
   persistent build table) of one delta rule, using the same positional id
   arithmetic the executor walks with. Inner plans of laterals and
   subqueries are never marked: their nodes execute under per-row outer
   rows, where memoized results would be wrong. *)
let rec mark_fix fm banned id (t : Ir.t) =
  if stable_subtree banned t then (
    match t with Ir.One -> () | _ -> Hashtbl.replace fm.fm_stable id ())
  else
    match t with
    | Ir.One | Ir.Scan _ | Ir.Subquery _ -> ()
    | Ir.Product { left; right } ->
        mark_fix fm banned (id + 1) left;
        mark_fix fm banned (id + 1 + Ir.size left) right
    | Ir.Hash_join { left; right; _ } ->
        let lid = id + 1 and rid = id + 1 + Ir.size left in
        if stable_subtree banned right then begin
          Hashtbl.replace fm.fm_joins id `Right;
          mark_fix fm banned lid left
        end
        else if stable_subtree banned left then begin
          Hashtbl.replace fm.fm_joins id `Left;
          mark_fix fm banned rid right
        end
        else begin
          mark_fix fm banned lid left;
          mark_fix fm banned rid right
        end
    | Ir.Filter { input; _ }
    | Ir.Residual { input; _ }
    | Ir.Prune { input; _ }
    | Ir.Resolve { input; _ }
    | Ir.Lateral { input; _ } ->
        mark_fix fm banned (id + 1) input
    | Ir.Semi { input; sub; _ } ->
        mark_fix fm banned (id + 1) input;
        mark_fix fm banned (id + 1 + Ir.size input) sub
    | Ir.Append ts -> List.iter2 (mark_fix fm banned) (Ir.child_ids id t) ts

let make_fix_marks banned did (d : Ir.disjunct_plan) =
  let fm = { fm_stable = Hashtbl.create 16; fm_joins = Hashtbl.create 8 } in
  (match d with
  | Ir.Project { input; _ } | Ir.Aggregate { input; _ } ->
      mark_fix fm banned (did + 1) input);
  fm

(* [stats] is the EXPLAIN ANALYZE sink: when present, every operator
   records per-node actuals keyed by the stable ids of [Ir.program_ids].
   When absent the executor takes a branch per node and nothing else.
   [batched] selects the slot-compiled block pipeline below; the
   tuple-at-a-time path over binding environments is kept as the
   ablation baseline and for the incremental maintenance hooks. Both
   paths produce rows in the same order. *)
type env = {
  ctx : I.ctx;
  outer : I.benv;
  stats : Ir.stats option;
  batched : bool;
}

let tracer env = I.tracer env.ctx
let gov env = I.gov env.ctx

let clock = Arc_obs.Metrics.now_ns

let with_actual stats id f =
  match stats with None -> () | Some st -> f (Ir.touch st id)

(* Brackets one operator with two clock reads and accumulates
   invocations / rows / inclusive time on the node's id; with stats off
   it is the operator itself. *)
let instrument stats id count f =
  match stats with
  | None -> f
  | Some st ->
      fun x ->
        let t0 = clock () in
        let r = f x in
        let t1 = clock () in
        let a = Ir.touch st id in
        a.Ir.a_invocations <- a.Ir.a_invocations + 1;
        a.Ir.a_rows <- a.Ir.a_rows + count r;
        a.Ir.a_incl_ns <- Int64.add a.Ir.a_incl_ns (Int64.sub t1 t0);
        r

let pred_true env full p = I.eval_pred env.ctx full p = B3.True
let formula_true env full f = I.eval_formula env.ctx full f = B3.True

(* Composite hash key for a list of terms evaluated under [row @ outer].
   Under three-valued logic a NULL key component can never satisfy an
   equality, so the row is excluded from matching ([None]); under two-valued
   logic NULL is an ordinary value. Value.canonical equates values that
   compare equal (Int 1 vs Float 1.0) and cannot collide otherwise. *)
let key_of env (row : I.benv) terms =
  let full = row @ env.outer in
  let vals = List.map (I.eval_term env.ctx full) terms in
  match (I.conv env.ctx).Conventions.null_logic with
  | Conventions.Three_valued when List.exists V.is_null vals -> None
  | _ -> Some (String.concat "" (List.map V.canonical vals))

let group_key env (full : I.benv) keys =
  let kv = List.map (fun (v, a) -> I.eval_term env.ctx full (Attr (v, a))) keys in
  String.concat "" (List.map V.canonical kv)

(* The collection boundary both pipelines share: governor tick and
   collection depth, the [collection:<name>] span, the row charge, and
   set-semantics deduplication of the disjuncts' concatenated output. *)
let union_coll ctx (head : head) (disjuncts : unit -> Tuple.t list) =
  let name = head.head_name in
  let g = I.gov ctx and tr = I.tracer ctx in
  Gov.tick g;
  if not (Gov.enter_collection g) then Relation.empty ~name head.head_attrs
  else
    let sp = Obs.enter tr ("collection:" ^ name) in
    let compute () =
      let tuples = disjuncts () in
      let tuples =
        if not (Gov.active g) then tuples
        else
          let n = List.length tuples in
          let allowed = Gov.charge_rows g n in
          if allowed >= n then tuples else I.take allowed tuples
      in
      let r = Relation.make ~name (Schema.make head.head_attrs) tuples in
      match (I.conv ctx).Conventions.collection with
      | Conventions.Set -> Relation.dedup r
      | Conventions.Bag -> r
    in
    match compute () with
    | r ->
        if Obs.enabled tr then
          Obs.set sp "rows_emitted" (Obs.Int (Relation.cardinality r));
        Obs.leave tr sp;
        Gov.leave_collection g;
        r
    | exception Eval_error e ->
        Obs.leave tr sp;
        Gov.leave_collection g;
        raise (Eval_error (Err.in_collection name e))
    | exception Err.Guard_error e ->
        Obs.leave tr sp;
        Gov.leave_collection g;
        raise (Eval_error (Err.in_collection name e))
    | exception e ->
        Obs.leave tr sp;
        Gov.leave_collection g;
        raise e

let head_unassigned (head : head) a =
  raise_kind (Err.Head_unassigned { head = head.head_name; attr = a })

(* ------------------------------------------------------------------ *)
(* Tuple-at-a-time pipeline over binding environments                  *)
(* ------------------------------------------------------------------ *)

(* Every operator is a wrapper around an [_inner] worker (see
   [instrument]). Child ids use the same arithmetic as [Ir.child_ids] /
   [Explain]. *)
let rec exec_rows env id (t : Ir.t) : I.benv list =
  instrument env.stats id List.length (exec_rows_inner env id) t

and exec_rows_inner env id (t : Ir.t) : I.benv list =
  match t with
  | One -> [ [] ]
  | Scan { var; rel; filters; _ } ->
      let sp = Obs.enter (tracer env) "scan" in
      let tuples = I.source_rows env.ctx env.outer (Base rel) in
      let rows = List.map (fun tp -> [ (var, tp) ]) tuples in
      let kept =
        if filters = [] then rows
        else
          List.filter
            (fun (row : I.benv) ->
              List.for_all (pred_true env (row @ env.outer)) filters)
            rows
      in
      if Obs.enabled (tracer env) then begin
        Obs.set sp "relation" (Obs.Str rel);
        Obs.set sp "candidates" (Obs.Int (List.length rows));
        Obs.set sp "survivors" (Obs.Int (List.length kept))
      end;
      Obs.leave (tracer env) sp;
      kept
  | Subquery { var; plan } ->
      let r = exec_coll env (id + 1) plan in
      List.map (fun tp -> [ (var, tp) ]) (Relation.tuples r)
  | Lateral { input; var; plan } ->
      let rows = exec_rows env (id + 1) input in
      let plan_id = id + 1 + Ir.size input in
      let sp = Obs.enter (tracer env) "lateral" in
      let out =
        List.concat_map
          (fun (row : I.benv) ->
            let r =
              exec_coll { env with outer = row @ env.outer } plan_id plan
            in
            List.map (fun tp -> (var, tp) :: row) (Relation.tuples r))
          rows
      in
      if Obs.enabled (tracer env) then begin
        Obs.set sp "rows_in" (Obs.Int (List.length rows));
        Obs.set sp "rows_out" (Obs.Int (List.length out))
      end;
      Obs.leave (tracer env) sp;
      out
  | Product { left; right } ->
      let l = exec_rows env (id + 1) left in
      let r = exec_rows env (id + 1 + Ir.size left) right in
      List.concat_map (fun lr -> List.map (fun rr -> rr @ lr) r) l
  | Hash_join { left; right; keys } ->
      Gov.tick (gov env);
      let sp = Obs.enter (tracer env) "hash_join" in
      let build = exec_rows env (id + 1 + Ir.size left) right in
      let inner_terms = List.map (fun k -> k.Ir.inner) keys in
      let outer_terms = List.map (fun k -> k.Ir.outer) keys in
      let tbl = Hashtbl.create (max 16 (List.length build)) in
      List.iter
        (fun rrow ->
          match key_of env rrow inner_terms with
          | Some k -> Hashtbl.add tbl k rrow
          | None -> ())
        build;
      let probe = exec_rows env (id + 1) left in
      let out =
        List.concat_map
          (fun lrow ->
            match key_of env lrow outer_terms with
            | Some k ->
                List.map (fun rrow -> rrow @ lrow) (Hashtbl.find_all tbl k)
            | None -> [])
          probe
      in
      with_actual env.stats id (fun a ->
          a.Ir.a_build <- a.Ir.a_build + List.length build;
          a.Ir.a_probe <- a.Ir.a_probe + List.length probe;
          a.Ir.a_matches <- a.Ir.a_matches + List.length out);
      if Obs.enabled (tracer env) then begin
        Obs.set sp "build" (Obs.Int (List.length build));
        Obs.set sp "probe" (Obs.Int (List.length probe));
        Obs.set sp "rows_out" (Obs.Int (List.length out))
      end;
      Obs.leave (tracer env) sp;
      out
  | Filter { input; preds } ->
      let rows = exec_rows env (id + 1) input in
      let sp = Obs.enter (tracer env) "filter" in
      let kept =
        List.filter
          (fun (row : I.benv) ->
            List.for_all (pred_true env (row @ env.outer)) preds)
          rows
      in
      if Obs.enabled (tracer env) then begin
        Obs.set sp "candidates" (Obs.Int (List.length rows));
        Obs.set sp "survivors" (Obs.Int (List.length kept))
      end;
      Obs.leave (tracer env) sp;
      kept
  | Residual { input; conjs } ->
      let rows = exec_rows env (id + 1) input in
      let sp = Obs.enter (tracer env) "residual" in
      let kept =
        List.filter
          (fun (row : I.benv) ->
            List.for_all (formula_true env (row @ env.outer)) conjs)
          rows
      in
      if Obs.enabled (tracer env) then begin
        Obs.set sp "candidates" (Obs.Int (List.length rows));
        Obs.set sp "survivors" (Obs.Int (List.length kept))
      end;
      Obs.leave (tracer env) sp;
      kept
  | Semi { anti; input; sub; keys; residual; _ } ->
      Gov.tick (gov env);
      let sp =
        Obs.enter (tracer env) (if anti then "anti_join" else "semi_join")
      in
      let sub_rows = exec_rows env (id + 1 + Ir.size input) sub in
      let witness row candidates =
        List.exists
          (fun (srow : I.benv) ->
            List.for_all
              (pred_true env (srow @ row @ env.outer))
              residual)
          candidates
      in
      let rows = exec_rows env (id + 1) input in
      let kept =
        match keys with
        | [] -> List.filter (fun row -> witness row sub_rows <> anti) rows
        | _ ->
            let inner_terms = List.map (fun k -> k.Ir.inner) keys in
            let outer_terms = List.map (fun k -> k.Ir.outer) keys in
            let tbl = Hashtbl.create (max 16 (List.length sub_rows)) in
            List.iter
              (fun srow ->
                match key_of env srow inner_terms with
                | Some k -> Hashtbl.add tbl k srow
                | None -> ())
              sub_rows;
            List.filter
              (fun row ->
                let found =
                  match key_of env row outer_terms with
                  | Some k -> witness row (Hashtbl.find_all tbl k)
                  | None -> false
                in
                found <> anti)
              rows
      in
      with_actual env.stats id (fun a ->
          a.Ir.a_build <- a.Ir.a_build + List.length sub_rows;
          a.Ir.a_probe <- a.Ir.a_probe + List.length rows;
          a.Ir.a_matches <- a.Ir.a_matches + List.length kept);
      if Obs.enabled (tracer env) then begin
        Obs.set sp "sub_rows" (Obs.Int (List.length sub_rows));
        Obs.set sp "candidates" (Obs.Int (List.length rows));
        Obs.set sp "survivors" (Obs.Int (List.length kept))
      end;
      Obs.leave (tracer env) sp;
      kept
  | Resolve { input; binding; scope } ->
      Gov.tick (gov env);
      let rows = exec_rows env (id + 1) input in
      I.resolve_deferred env.ctx env.outer scope rows [ binding ]
  | Prune { input; keep } ->
      List.map
        (fun (row : I.benv) ->
          List.filter (fun (v, _) -> List.mem v keep) row)
        (exec_rows env (id + 1) input)
  | Append ts ->
      List.concat
        (List.map2 (fun cid b -> exec_rows env cid b) (Ir.child_ids id t) ts)


and exec_disjunct env id (head : head) (d : Ir.disjunct_plan) : Tuple.t list
    =
  instrument env.stats id List.length (exec_disjunct_inner env id head) d

and exec_disjunct_inner env id (head : head) (d : Ir.disjunct_plan) :
    Tuple.t list =
  let schema = Schema.make head.head_attrs in
  let assign_term assigns a =
    match List.assoc_opt a assigns with
    | Some t -> t
    | None -> head_unassigned head a
  in
  match d with
  | Project { input; assigns } ->
      let rows = exec_rows env (id + 1) input in
      List.map
        (fun (row : I.benv) ->
          let full = row @ env.outer in
          Tuple.make schema
            (Array.of_list
               (List.map
                  (fun a -> I.eval_term env.ctx full (assign_term assigns a))
                  head.head_attrs)))
        rows
  | Aggregate { input; keys; scope_vars; post; assigns } ->
      let rows = exec_rows env (id + 1) input in
      Gov.tick (gov env);
      let sp = Obs.enter (tracer env) "hash_aggregate" in
      let groups =
        if keys = [] then
          let full = List.map (fun r -> r @ env.outer) rows in
          [ ((match full with [] -> env.outer | r :: _ -> r), full) ]
        else begin
          let tbl = Hashtbl.create 16 in
          let order = ref [] in
          List.iter
            (fun (row : I.benv) ->
              let full = row @ env.outer in
              let k = group_key env full keys in
              match Hashtbl.find_opt tbl k with
              | Some rs -> Hashtbl.replace tbl k (rs @ [ full ])
              | None ->
                  order := k :: !order;
                  Hashtbl.replace tbl k [ full ])
            rows;
          List.rev_map
            (fun k ->
              let group = Hashtbl.find tbl k in
              (List.hd group, group))
            !order
        end
      in
      if Obs.enabled (tracer env) then begin
        Obs.set sp "rows_in" (Obs.Int (List.length rows));
        Obs.set sp "keys" (Obs.Int (List.length keys));
        Obs.set sp "buckets" (Obs.Int (List.length groups))
      end;
      Obs.leave (tracer env) sp;
      List.filter_map
        (fun (rep, group) ->
          if
            List.for_all
              (fun f ->
                I.eval_gformula env.ctx ~rep ~group ~scope_vars f = B3.True)
              post
          then
            Some
              (Tuple.make schema
                 (Array.of_list
                    (List.map
                       (fun a ->
                         I.eval_gterm env.ctx ~rep ~group ~scope_vars
                           (assign_term assigns a))
                       head.head_attrs)))
          else None)
        groups

and exec_coll env id (p : Ir.coll_plan) : Relation.t =
  instrument env.stats id Relation.cardinality (exec_coll_inner env id) p

and exec_coll_inner env id (p : Ir.coll_plan) : Relation.t =
  match p with
  | Fallback { coll; _ } -> I.eval_collection env.ctx env.outer coll
  | Union { head; disjuncts } ->
      union_coll env.ctx head (fun () ->
          List.concat
            (List.map2
               (fun did d -> exec_disjunct env did head d)
               (Ir.coll_child_ids id p) disjuncts))

(* ------------------------------------------------------------------ *)
(* Slot-compiled block pipeline                                        *)
(* ------------------------------------------------------------------ *)

(* The batched pipeline works on rows that are slot arrays: one tuple per
   bound variable, at a position fixed per plan node. A node's layout is
   its bound variables in the order the tuple path concatenates them
   (right side before left, a lateral's or a resolve's new variable
   first), so a slot lookup finds the binding [List.assoc] would. Rows
   inside a lateral's nested plan also see the enclosing row, passed
   separately as the [outer] row with its own layout.

   Each node is compiled once per execution into a closure from the outer
   row to the node's output rows. Terms, predicates and keys compile to
   closures that read [row.(slot)] and a column index cached per schema,
   and join, semi-join and grouping tables hash on values ([Key]), not on
   canonical strings. Per-row semantics stay shared with the reference
   evaluator at the value level ([I.cmp_values], [I.eval_pred_values],
   [Aggregate.apply]); rows turn back into binding environments only
   where a node hands them to the reference evaluator: residual formulas,
   deferred resolution, fallback collections, and HAVING formulas with a
   nested quantifier. *)

type row = Tuple.t array
type layout = var array

(* The compilation environment: what stays fixed while a compiled plan
   runs. [marks] is only set for the pipeline of a fixpoint delta rule. *)
type cenv = {
  cx : I.ctx;
  cstats : Ir.stats option;
  marks : fix_marks option;
}

(* Rows per governor probe on the batched path: cheap enough that a
   cancel/deadline is still noticed promptly, large enough that the probe
   vanishes from per-row cost. *)
let block_rows = 256

let slot (l : layout) v =
  let rec go i =
    if i = Array.length l then -1
    else if String.equal l.(i) v then i
    else go (i + 1)
  in
  go 0

(* The binding environment of [row] under layout [l], in front of
   [tail]: what the tuple path would hold for the same row. *)
let benv_of (l : layout) (row : row) (tail : I.benv) : I.benv =
  let acc = ref tail in
  for i = Array.length l - 1 downto 0 do
    acc := (l.(i), row.(i)) :: !acc
  done;
  !acc

let no_schema = Schema.make []

(* Stands in for a variable an [Append] branch does not bind; reading it
   raises the reference's missing-attribute error. *)
let no_tuple = Tuple.make no_schema [||]

(* [Tuple.get] with the column index cached per schema: rows of one scan
   or one collection share their schema value, so the by-name lookup runs
   once per schema rather than once per row. *)
let column ctx v a : Tuple.t -> V.t =
  let last = ref (no_schema, 0) in
  fun tp ->
    let s = Tuple.schema tp in
    let ls, i = !last in
    if ls == s then Tuple.nth tp i
    else
      match Schema.index s a with
      | i ->
          last := (s, i);
          Tuple.nth tp i
      | exception Schema.Unknown_attribute _ ->
          (* raises the reference's error *)
          I.eval_term ctx [ (v, tp) ] (Attr (v, a))

let apply_scalar ctx op vals =
  match (op, vals) with
  | Add, [ a; b ] -> V.add a b
  | Sub, [ a; b ] -> V.sub a b
  | Mul, [ a; b ] -> V.mul a b
  | Div, [ a; b ] -> V.div a b
  | Mod, [ a; b ] -> V.modulo a b
  | Neg, [ a ] -> V.neg a
  | _ ->
      (* malformed: the reference raises the error *)
      I.eval_term ctx [] (Scalar (op, List.map (fun v -> Const v) vals))

(* Compiled terms take the outer row, then the row. Attributes of
   variables bound in neither fall through to the reference, which
   resolves abstract-relation parameters or reports the unbound
   variable. *)
let rec compile_term ctx (l : layout) (o : layout) (t : term) :
    row -> row -> V.t =
  match t with
  | Const c -> fun _ _ -> c
  | Attr (v, a) -> (
      let col = column ctx v a in
      match (slot l v, slot o v) with
      | i, _ when i >= 0 -> fun _ row -> col row.(i)
      | _, j when j >= 0 -> fun outer _ -> col outer.(j)
      | _ -> fun _ _ -> I.eval_term ctx [] t)
  | Scalar (op, [ x; y ]) when op <> Neg ->
      let f =
        match op with
        | Add -> V.add
        | Sub -> V.sub
        | Mul -> V.mul
        | Div -> V.div
        | _ -> V.modulo
      in
      let fx = compile_term ctx l o x and fy = compile_term ctx l o y in
      fun outer row ->
        let a = fx outer row in
        let b = fy outer row in
        f a b
  | Scalar (op, ts) ->
      let fs = List.map (compile_term ctx l o) ts in
      fun outer row -> apply_scalar ctx op (List.map (fun f -> f outer row) fs)
  | Agg _ ->
      (* outside a grouping evaluation: the reference raises the error *)
      fun outer row -> I.eval_term ctx (benv_of l row (benv_of o outer [])) t

let is_true = function B3.True -> true | _ -> false

let compile_pred ctx l o (p : pred) : row -> row -> bool =
  match p with
  | Cmp (op, x, y) ->
      let fx = compile_term ctx l o x and fy = compile_term ctx l o y in
      fun outer row ->
        let a = fx outer row in
        let b = fy outer row in
        is_true (I.cmp_values ctx op a b)
  | Is_null x | Not_null x | Like (x, _) ->
      let fx = compile_term ctx l o x in
      fun outer row -> is_true (I.eval_pred_values ctx p [ fx outer row ])

(* A conjunction, evaluated left to right with short-circuit. *)
let compile_preds ctx l o ps : row -> row -> bool =
  match List.map (compile_pred ctx l o) ps with
  | [] -> fun _ _ -> true
  | [ p ] -> p
  | ps -> fun outer row -> List.for_all (fun p -> p outer row) ps

(* Returned by a compiled key when a component is NULL under
   three-valued logic: such a key can never satisfy an equality. *)
let no_key = [| V.Null |]

let compile_key ctx ~join l o terms : row -> row -> V.t array =
  let exclude_nulls =
    join
    &&
    match (I.conv ctx).Conventions.null_logic with
    | Conventions.Three_valued -> true
    | Conventions.Two_valued -> false
  in
  match List.map (compile_term ctx l o) terms with
  | [ f ] ->
      fun outer row ->
        let v = f outer row in
        if exclude_nulls && V.is_null v then no_key else [| v |]
  | fs ->
      let fs = Array.of_list fs in
      let n = Array.length fs in
      fun outer row ->
        let k = Array.make n V.Null in
        let i = ref 0 in
        while !i < n do
          let v = fs.(!i) outer row in
          if exclude_nulls && V.is_null v then i := n + 1
          else begin
            k.(!i) <- v;
            incr i
          end
        done;
        if !i > n then no_key else k

(* Group-aware terms and formulas for a non-empty group: [rep] is the
   group's first row. Mirrors [I.eval_gterm]/[I.eval_gformula]. *)
let rec compile_gterm ctx l o (t : term) : row -> row -> row array -> V.t =
  match t with
  | Const c -> fun _ _ _ -> c
  | Attr _ ->
      let f = compile_term ctx l o t in
      fun outer rep _ -> f outer rep
  | Scalar (op, ts) ->
      let fs = List.map (compile_gterm ctx l o) ts in
      fun outer rep group ->
        apply_scalar ctx op (List.map (fun f -> f outer rep group) fs)
  | Agg (k, inner) ->
      let f = compile_term ctx l o inner in
      let empty = (I.conv ctx).Conventions.agg_empty in
      fun outer _ group ->
        Aggregate.apply empty k
          (Array.fold_right (fun r acc -> f outer r :: acc) group [])

let rec compile_gformula ctx l o scope_vars (f : formula) :
    row -> row -> row array -> B3.t =
  let sub = compile_gformula ctx l o scope_vars in
  match f with
  | True -> fun _ _ _ -> B3.True
  | Pred p ->
      let ts = List.map (compile_gterm ctx l o) (pred_terms p) in
      fun outer rep group ->
        I.eval_pred_values ctx p (List.map (fun t -> t outer rep group) ts)
  | And fs ->
      let cs = List.map sub fs in
      fun outer rep group ->
        B3.and_list (List.map (fun c -> c outer rep group) cs)
  | Or fs ->
      let cs = List.map sub fs in
      fun outer rep group ->
        B3.or_list (List.map (fun c -> c outer rep group) cs)
  | Not f ->
      let c = sub f in
      fun outer rep group -> B3.not_ (c outer rep group)
  | Exists _ ->
      fun outer rep group ->
        let ob = benv_of o outer [] in
        I.eval_gformula ctx ~rep:(benv_of l rep ob)
          ~group:(Array.to_list (Array.map (fun r -> benv_of l r ob) group))
          ~scope_vars f

(* Filter an array of rows, probing the governor once per block. *)
let filter_block g pass (rows : row array) : row array =
  let n = Array.length rows in
  let out = Array.make n [||] in
  let kept = ref 0 in
  let i = ref 0 in
  while !i < n do
    Gov.tick g;
    let stop = min n (!i + block_rows) in
    while !i < stop do
      let row = rows.(!i) in
      if pass row then begin
        out.(!kept) <- row;
        incr kept
      end;
      incr i
    done
  done;
  if !kept = n then out else Array.sub out 0 !kept

(* [Array.append] for rows, with the common narrow cases allocated inline
   instead of through the runtime. *)
let concat (a : row) (b : row) : row =
  match (Array.length a, Array.length b) with
  | 1, 1 -> [| a.(0); b.(0) |]
  | 1, 2 -> [| a.(0); b.(0); b.(1) |]
  | 2, 1 -> [| a.(0); a.(1); b.(0) |]
  | _ -> Array.append a b

let rows_of_tuples tps : row array =
  let a = Array.make (List.length tps) [||] in
  List.iteri (fun i tp -> a.(i) <- [| tp |]) tps;
  a

(* Partition [rows] by [key]: each distinct key gets an id in
   first-occurrence order, and [parts.(id)] holds its rows in input order.
   Rows whose key is [no_key] are left out. Ids go to an int array first
   and rows are then copied into exact-size arrays, so the partition
   allocates no per-row blocks. *)
type partition = { ids : int Key.Tbl.t; parts : row array array }

let partition key outer (rows : row array) =
  let ids = Key.Tbl.create 64 in
  let n = Array.length rows in
  (* group ids as 32-bit ints in bytes: half the memory, and not scanned
     by the GC *)
  let gid = Bytes.make (4 * n) '\255' in
  let counts = ref (Array.make 16 0) in
  let ngroups = ref 0 in
  for i = 0 to n - 1 do
    let k = key outer rows.(i) in
    if k != no_key then begin
      let g =
        match Key.Tbl.find ids k with
        | g -> g
        | exception Not_found ->
            let g = !ngroups in
            if g = Array.length !counts then begin
              let c = Array.make (2 * g) 0 in
              Array.blit !counts 0 c 0 g;
              counts := c
            end;
            Key.Tbl.add ids k g;
            incr ngroups;
            g
      in
      Bytes.set_int32_ne gid (4 * i) (Int32.of_int g);
      !counts.(g) <- !counts.(g) + 1
    end
  done;
  let parts = Array.init !ngroups (fun g -> Array.make !counts.(g) [||]) in
  let fill = Array.make !ngroups 0 in
  for i = 0 to n - 1 do
    let g = Int32.to_int (Bytes.get_int32_ne gid (4 * i)) in
    if g >= 0 then begin
      parts.(g).(fill.(g)) <- rows.(i);
      fill.(g) <- fill.(g) + 1
    end
  done;
  { ids; parts }

let part p k =
  if k == no_key then [||]
  else
    match Key.Tbl.find p.ids k with
    | g -> p.parts.(g)
    | exception Not_found -> [||]

(* Probe [tbl] with every row, one governor probe per block, and [join]
   each probe row with each of its matches into an exact-size output
   array. A key's matches are visited newest first, the order
   [Hashtbl.find_all] returns them in on the tuple path. *)
let probe_join g tbl key outer (probe : row array) join =
  let n = Array.length probe in
  let ms = Array.make n [||] in
  let total = ref 0 in
  let i = ref 0 in
  while !i < n do
    Gov.tick g;
    let stop = min n (!i + block_rows) in
    while !i < stop do
      let m = part tbl (key outer probe.(!i)) in
      ms.(!i) <- m;
      total := !total + Array.length m;
      incr i
    done
  done;
  let out = Array.make !total [||] in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let prow = probe.(i) and m = ms.(i) in
    for j = Array.length m - 1 downto 0 do
      out.(!k) <- join prow m.(j);
      incr k
    done
  done;
  out

let rec exists_cand p ro (cands : row array) ~newest_first j =
  let n = Array.length cands in
  j < n
  && (p ro cands.(if newest_first then n - 1 - j else j)
     || exists_cand p ro cands ~newest_first (j + 1))

let rec compile_block ce id (o : layout) (t : Ir.t) :
    layout * (row -> row array) =
  let l, f = compile_node ce id o t in
  (* inside an indexed fixpoint rule, maximal component-free subtrees are
     memoized: round 1 computes them, every later round reuses the rows *)
  let f =
    match ce.marks with
    | Some m when Hashtbl.mem m.fm_stable id ->
        let memo = ref None in
        fun outer ->
          (match !memo with
          | Some rows -> rows
          | None ->
              let rows = f outer in
              memo := Some rows;
              rows)
    | _ -> f
  in
  (l, instrument ce.cstats id Array.length f)

and compile_node ce id (o : layout) (t : Ir.t) : layout * (row -> row array)
    =
  let ctx = ce.cx in
  let tr = I.tracer ctx and g = I.gov ctx in
  match t with
  | One -> ([||], fun _ -> [| [||] |])
  | Scan { var; rel; filters; _ } ->
      let l = [| var |] in
      let pass = compile_preds ctx l o filters in
      ( l,
        fun outer ->
          let sp = Obs.enter tr "scan" in
          let rows = rows_of_tuples (I.source_rows ctx [] (Base rel)) in
          let kept =
            if filters = [] then rows else filter_block g (pass outer) rows
          in
          if Obs.enabled tr then begin
            Obs.set sp "relation" (Obs.Str rel);
            Obs.set sp "candidates" (Obs.Int (Array.length rows));
            Obs.set sp "survivors" (Obs.Int (Array.length kept))
          end;
          Obs.leave tr sp;
          kept )
  | Subquery { var; plan } ->
      let inner = compile_coll ce (id + 1) o plan in
      ([| var |], fun outer -> rows_of_tuples (Relation.tuples (inner outer)))
  | Lateral { input; var; plan } ->
      let li, fi = compile_block ce (id + 1) o input in
      let inner =
        compile_coll ce (id + 1 + Ir.size input) (Array.append li o) plan
      in
      ( Array.append [| var |] li,
        fun outer ->
          let rows = fi outer in
          let sp = Obs.enter tr "lateral" in
          let out = ref [] in
          Array.iter
            (fun row ->
              let r = inner (concat row outer) in
              List.iter
                (fun tp -> out := concat [| tp |] row :: !out)
                (Relation.tuples r))
            rows;
          let out = Array.of_list (List.rev !out) in
          if Obs.enabled tr then begin
            Obs.set sp "rows_in" (Obs.Int (Array.length rows));
            Obs.set sp "rows_out" (Obs.Int (Array.length out))
          end;
          Obs.leave tr sp;
          out )
  | Product { left; right } ->
      let ll, fl = compile_block ce (id + 1) o left in
      let lr, fr = compile_block ce (id + 1 + Ir.size left) o right in
      ( Array.append lr ll,
        fun outer ->
          let l = fl outer in
          let r = fr outer in
          let nl = Array.length l and nr = Array.length r in
          if nl = 0 || nr = 0 then [||]
          else begin
            let out = Array.make (nl * nr) [||] in
            for i = 0 to nl - 1 do
              let lr = l.(i) in
              for j = 0 to nr - 1 do
                out.((i * nr) + j) <- concat r.(j) lr
              done
            done;
            out
          end )
  | Hash_join { left; right; keys } ->
      let ll, fl = compile_block ce (id + 1) o left in
      let lr, fr = compile_block ce (id + 1 + Ir.size left) o right in
      let lkey =
        compile_key ctx ~join:true ll o (List.map (fun k -> k.Ir.outer) keys)
      and rkey =
        compile_key ctx ~join:true lr o (List.map (fun k -> k.Ir.inner) keys)
      in
      let run =
        match ce.marks with
        | Some m when Hashtbl.mem m.fm_joins id ->
            indexed_join ce id (Hashtbl.find m.fm_joins id) fl lkey fr rkey
        | _ ->
            fun outer ->
              Gov.tick g;
              let sp = Obs.enter tr "hash_join" in
              let build = fr outer in
              let probe = fl outer in
              let tbl = partition rkey outer build in
              let out =
                probe_join g tbl lkey outer probe (fun lrow rrow ->
                    concat rrow lrow)
              in
              with_actual ce.cstats id (fun a ->
                  a.Ir.a_build <- a.Ir.a_build + Array.length build;
                  a.Ir.a_probe <- a.Ir.a_probe + Array.length probe;
                  a.Ir.a_matches <- a.Ir.a_matches + Array.length out);
              if Obs.enabled tr then begin
                Obs.set sp "build" (Obs.Int (Array.length build));
                Obs.set sp "probe" (Obs.Int (Array.length probe));
                Obs.set sp "rows_out" (Obs.Int (Array.length out))
              end;
              Obs.leave tr sp;
              out
      in
      (Array.append lr ll, run)
  | Filter { input; preds } ->
      let li, fi = compile_block ce (id + 1) o input in
      let pass = compile_preds ctx li o preds in
      ( li,
        fun outer ->
          let rows = fi outer in
          let sp = Obs.enter tr "filter" in
          let kept = filter_block g (pass outer) rows in
          if Obs.enabled tr then begin
            Obs.set sp "candidates" (Obs.Int (Array.length rows));
            Obs.set sp "survivors" (Obs.Int (Array.length kept))
          end;
          Obs.leave tr sp;
          kept )
  | Residual { input; conjs } ->
      let li, fi = compile_block ce (id + 1) o input in
      ( li,
        fun outer ->
          let rows = fi outer in
          let sp = Obs.enter tr "residual" in
          let ob = benv_of o outer [] in
          let kept =
            filter_block g
              (fun row ->
                let full = benv_of li row ob in
                List.for_all
                  (fun f -> is_true (I.eval_formula ctx full f))
                  conjs)
              rows
          in
          if Obs.enabled tr then begin
            Obs.set sp "candidates" (Obs.Int (Array.length rows));
            Obs.set sp "survivors" (Obs.Int (Array.length kept))
          end;
          Obs.leave tr sp;
          kept )
  | Semi { anti; input; sub; keys; residual; _ } ->
      let li, fi = compile_block ce (id + 1) o input in
      let ls, fs = compile_block ce (id + 1 + Ir.size input) o sub in
      let ikey =
        compile_key ctx ~join:true li o (List.map (fun k -> k.Ir.outer) keys)
      and skey =
        compile_key ctx ~join:true ls o (List.map (fun k -> k.Ir.inner) keys)
      in
      (* the residual sees the sub row first, then the input row, then
         the outer row: the input row is prepended to the outer one *)
      let resid = compile_preds ctx ls (Array.append li o) residual in
      (* keyless candidates are tried in sub order, keyed ones newest
         first, as on the tuple path *)
      let no_residual = residual = [] in
      let witness ~newest_first outer row (cands : row array) =
        Array.length cands > 0
        && (no_residual
           ||
           let ro = if Array.length outer = 0 then row else concat row outer in
           exists_cand resid ro cands ~newest_first 0)
      in
      ( li,
        fun outer ->
          Gov.tick g;
          let sp = Obs.enter tr (if anti then "anti_join" else "semi_join") in
          let sub_rows = fs outer in
          let rows = fi outer in
          let kept =
            match keys with
            | [] ->
                filter_block g
                  (fun row ->
                    witness ~newest_first:false outer row sub_rows <> anti)
                  rows
            | _ ->
                let tbl = partition skey outer sub_rows in
                filter_block g
                  (fun row ->
                    witness ~newest_first:true outer row
                      (part tbl (ikey outer row))
                    <> anti)
                  rows
          in
          with_actual ce.cstats id (fun a ->
              a.Ir.a_build <- a.Ir.a_build + Array.length sub_rows;
              a.Ir.a_probe <- a.Ir.a_probe + Array.length rows;
              a.Ir.a_matches <- a.Ir.a_matches + Array.length kept);
          if Obs.enabled tr then begin
            Obs.set sp "sub_rows" (Obs.Int (Array.length sub_rows));
            Obs.set sp "candidates" (Obs.Int (Array.length rows));
            Obs.set sp "survivors" (Obs.Int (Array.length kept))
          end;
          Obs.leave tr sp;
          kept )
  | Resolve { input; binding; scope } ->
      let li, fi = compile_block ce (id + 1) o input in
      ( Array.append [| binding.var |] li,
        fun outer ->
          Gov.tick g;
          let rows = fi outer in
          (* each resolved environment is the new binding in front of the
             input row, i.e. already in this node's layout *)
          Array.of_list
            (List.map
               (fun (b : I.benv) -> Array.of_list (List.map snd b))
               (I.resolve_deferred ctx (benv_of o outer []) scope
                  (Array.to_list (Array.map (fun r -> benv_of li r []) rows))
                  [ binding ])) )
  | Prune { input; keep } ->
      let li, fi = compile_block ce (id + 1) o input in
      let ixs =
        Array.of_list
          (List.filter
             (fun i -> List.mem li.(i) keep)
             (List.init (Array.length li) Fun.id))
      in
      if Array.length ixs = Array.length li then (li, fi)
      else
        ( Array.map (fun i -> li.(i)) ixs,
          fun outer ->
            Array.map (fun r -> Array.map (fun i -> r.(i)) ixs) (fi outer) )
  | Append ts ->
      let branches =
        List.map2 (fun cid b -> compile_block ce cid o b) (Ir.child_ids id t) ts
      in
      let l = match branches with [] -> [||] | (l, _) :: _ -> l in
      (* branches bind the same variables, maybe in another order *)
      let fs =
        List.map
          (fun (lb, fb) ->
            if lb = l then fb
            else
              let perm = Array.map (slot lb) l in
              fun outer ->
                Array.map
                  (fun r ->
                    Array.map (fun j -> if j < 0 then no_tuple else r.(j)) perm)
                  (fb outer))
          branches
      in
      (l, fun outer -> Array.concat (List.map (fun f -> f outer) fs))

(* A hash join inside an indexed fixpoint rule with a stable [side]: that
   side's hash table is built on the first round and kept in this
   closure, and each round probes it with the side that reaches the
   __delta__ scan. Output rows keep the right-before-left layout. *)
and indexed_join ce id side fl lkey fr rkey : row -> row array =
  let g = I.gov ce.cx and tr = I.tracer ce.cx in
  let fb, bkey, fp, pkey =
    match side with
    | `Right -> (fr, rkey, fl, lkey)
    | `Left -> (fl, lkey, fr, rkey)
  in
  let table = ref None in
  fun outer ->
    Gov.tick g;
    let sp = Obs.enter tr "hash_join" in
    let tbl, build_n =
      match !table with
      | Some entry -> entry
      | None ->
          let rows = fb outer in
          let tbl = partition bkey outer rows in
          let entry = (tbl, Array.length rows) in
          table := Some entry;
          with_actual ce.cstats id (fun a ->
              a.Ir.a_build <- a.Ir.a_build + Array.length rows);
          entry
    in
    let probe = fp outer in
    let out =
      probe_join g tbl pkey outer probe (fun prow brow ->
          match side with
          | `Right -> concat brow prow
          | `Left -> concat prow brow)
    in
    with_actual ce.cstats id (fun a ->
        a.Ir.a_probe <- a.Ir.a_probe + Array.length probe;
        a.Ir.a_matches <- a.Ir.a_matches + Array.length out);
    if Obs.enabled tr then begin
      Obs.set sp "build" (Obs.Int build_n);
      Obs.set sp "probe" (Obs.Int (Array.length probe));
      Obs.set sp "indexed" (Obs.Bool true);
      Obs.set sp "rows_out" (Obs.Int (Array.length out))
    end;
    Obs.leave tr sp;
    out

and compile_disjunct ce id (o : layout) (head : head) (d : Ir.disjunct_plan)
    : row -> Tuple.t list =
  instrument ce.cstats id List.length (compile_disjunct_node ce id o head d)

and compile_disjunct_node ce id o (head : head) (d : Ir.disjunct_plan) :
    row -> Tuple.t list =
  let ctx = ce.cx in
  let schema = lazy (Schema.make head.head_attrs) in
  let unassigned a = head_unassigned head a in
  match d with
  | Project { input; assigns } ->
      let li, fi = compile_block ce (id + 1) o input in
      let cells =
        Array.of_list
          (List.map
             (fun a ->
               match List.assoc_opt a assigns with
               | Some t -> compile_term ctx li o t
               | None -> fun _ _ -> unassigned a)
             head.head_attrs)
      in
      fun outer ->
        let rows = fi outer in
        let schema = Lazy.force schema in
        Array.to_list
          (Array.map
             (fun row ->
               Tuple.make schema (Array.map (fun c -> c outer row) cells))
             rows)
  | Aggregate { input; keys; scope_vars; post; assigns } ->
      let li, fi = compile_block ce (id + 1) o input in
      let g = I.gov ctx and tr = I.tracer ctx in
      let gkey =
        compile_key ctx ~join:false li o
          (List.map (fun (v, a) -> Attr (v, a)) keys)
      in
      let post_c = List.map (compile_gformula ctx li o scope_vars) post in
      let cells =
        Array.of_list
          (List.map
             (fun a ->
               match List.assoc_opt a assigns with
               | Some t -> compile_gterm ctx li o t
               | None -> fun _ _ _ -> unassigned a)
             head.head_attrs)
      in
      let emit outer (group : row array) =
        let schema = Lazy.force schema in
        if Array.length group > 0 then
          let rep = group.(0) in
          if List.for_all (fun f -> is_true (f outer rep group)) post_c then
            Some
              (Tuple.make schema (Array.map (fun c -> c outer rep group) cells))
          else None
        else
          (* γ∅ over no rows: the reference's empty-group semantics, with
             the outer environment as representative *)
          let rep = benv_of o outer [] in
          let gt t = I.eval_gterm ctx ~rep ~group:[] ~scope_vars t in
          if
            List.for_all
              (fun f ->
                is_true (I.eval_gformula ctx ~rep ~group:[] ~scope_vars f))
              post
          then
            Some
              (Tuple.make schema
                 (Array.of_list
                    (List.map
                       (fun a ->
                         match List.assoc_opt a assigns with
                         | Some t -> gt t
                         | None -> unassigned a)
                       head.head_attrs)))
          else None
      in
      fun outer ->
        let rows = fi outer in
        Gov.tick g;
        let sp = Obs.enter tr "hash_aggregate" in
        let groups =
          if keys = [] then [| rows |] else (partition gkey outer rows).parts
        in
        if Obs.enabled tr then begin
          Obs.set sp "rows_in" (Obs.Int (Array.length rows));
          Obs.set sp "keys" (Obs.Int (List.length keys));
          Obs.set sp "buckets" (Obs.Int (Array.length groups))
        end;
        Obs.leave tr sp;
        List.filter_map (emit outer) (Array.to_list groups)

and compile_coll ce id (o : layout) (p : Ir.coll_plan) : row -> Relation.t =
  instrument ce.cstats id Relation.cardinality
    (match p with
    | Fallback { coll; _ } ->
        fun outer -> I.eval_collection ce.cx (benv_of o outer []) coll
    | Union { head; disjuncts } ->
        let ds =
          List.map2
            (fun did d -> compile_disjunct ce did o head d)
            (Ir.coll_child_ids id p) disjuncts
        in
        fun outer ->
          union_coll ce.cx head (fun () -> List.concat_map (fun d -> d outer) ds))

(* A collection plan ready to run at top level: compiled once on the
   batched path, interpreted per call on the tuple path. *)
let coll_runner env id (p : Ir.coll_plan) : unit -> Relation.t =
  if env.batched then
    let f =
      compile_coll { cx = env.ctx; cstats = env.stats; marks = None } id
        [||] p
    in
    fun () -> f [||]
  else fun () -> exec_coll env id p

(* ------------------------------------------------------------------ *)
(* Recursive strata: hash-based fixpoints over plans                   *)
(* ------------------------------------------------------------------ *)

(* The delta-substitution helpers ([delta_name], [count_scans_coll],
   [subst_scan], [opaque_refs_coll], [seminaive_eligible]) live in
   [Arc_plan.Ir] so the incremental maintenance layer (Arc_ivm) shares
   them with the fixpoints below. *)
let delta_name = Ir.delta_name

let naive_fixpoint env (dps : (Ir.def_plan * int) list) =
  let ctx = env.ctx in
  let sp = Obs.enter (tracer env) "fixpoint:naive" in
  if Obs.enabled (tracer env) then
    Obs.set sp "stratum"
      (Obs.Str (String.concat "," (List.map (fun (d, _) -> d.Ir.dname) dps)));
  let runs = List.map (fun (dp, id) -> (dp, id, coll_runner env id dp.Ir.dplan)) dps in
  let changed = ref true in
  let iterations = ref 0 in
  while !changed do
    incr iterations;
    Gov.tick (gov env);
    changed := false;
    if Gov.iteration_allowed (gov env) !iterations && not (Gov.stopped (gov env))
    then begin
      let isp = Obs.enter (tracer env) "iteration" in
      List.iter
        (fun (dp, id, run) ->
          let n = dp.Ir.dname in
          let current = Option.get (I.idb_get ctx n) in
          let next = Relation.dedup (Relation.union current (run ())) in
          let delta =
            Relation.cardinality next - Relation.cardinality current
          in
          with_actual env.stats id (fun a -> a.Ir.a_deltas <- delta :: a.Ir.a_deltas);
          if Obs.enabled (tracer env) then
            Obs.set isp ("delta:" ^ n) (Obs.Int delta);
          (* [current] is a set view and [dedup] keeps its rows first, so
             [next] differs from it exactly when it has more rows *)
          if delta > 0 then begin
            I.idb_set ctx n next;
            changed := true
          end)
        runs;
      Obs.leave (tracer env) isp
    end
  done;
  List.iter
    (fun (_, id) -> with_actual env.stats id (fun a -> a.Ir.a_iterations <- !iterations))
    dps;
  Obs.set sp "iterations" (Obs.Int !iterations);
  Obs.leave (tracer env) sp

let seminaive_fixpoint env component (dps : (Ir.def_plan * int) list) =
  let ctx = env.ctx in
  let sp = Obs.enter (tracer env) "fixpoint:seminaive" in
  if Obs.enabled (tracer env) then
    Obs.set sp "stratum" (Obs.Str (String.concat "," component));
  let ssp = Obs.enter (tracer env) "seed" in
  List.iter
    (fun (dp, id) ->
      let n = dp.Ir.dname in
      let seed = Relation.dedup (coll_runner env id dp.Ir.dplan ()) in
      I.idb_set ctx n seed;
      I.idb_set ctx (delta_name n) seed;
      with_actual env.stats id (fun a ->
          a.Ir.a_deltas <- Relation.cardinality seed :: a.Ir.a_deltas);
      if Obs.enabled (tracer env) then
        Obs.set ssp ("delta:" ^ n) (Obs.Int (Relation.cardinality seed)))
    dps;
  Obs.leave (tracer env) ssp;
  let iterations = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    incr iterations;
    Gov.tick (gov env);
    if
      (not (Gov.iteration_allowed (gov env) !iterations))
      || Gov.stopped (gov env)
    then continue_ := false
    else begin
      let isp = Obs.enter (tracer env) "iteration" in
      let new_deltas =
        List.map
          (fun (dp, id) ->
            let n = dp.Ir.dname in
            let occurrences = Ir.count_scans_coll component dp.Ir.dplan in
            let derived =
              List.init occurrences (fun i ->
                  (* the substituted plan is shape-identical, so node ids
                     carry over to the delta rewrite *)
                  coll_runner env id (Ir.subst_scan component i dp.Ir.dplan) ())
            in
            let full = Option.get (I.idb_get ctx n) in
            let attrs =
              match dp.Ir.dplan with
              | Ir.Union { head; _ } | Ir.Fallback { head; _ } ->
                  head.head_attrs
            in
            let fresh =
              List.fold_left
                (fun acc r ->
                  Relation.union acc (Relation.minus (Relation.dedup r) full))
                (Relation.empty ~name:n attrs)
                derived
            in
            let fresh = Relation.dedup fresh in
            with_actual env.stats id (fun a ->
                a.Ir.a_deltas <- Relation.cardinality fresh :: a.Ir.a_deltas);
            (n, fresh))
          dps
      in
      List.iter
        (fun (n, fresh) ->
          I.idb_set ctx n
            (Relation.dedup (Relation.union (Option.get (I.idb_get ctx n)) fresh)))
        new_deltas;
      List.iter
        (fun (n, fresh) -> I.idb_set ctx (delta_name n) fresh)
        new_deltas;
      if Obs.enabled (tracer env) then
        List.iter
          (fun (n, fresh) ->
            Obs.set isp ("delta:" ^ n) (Obs.Int (Relation.cardinality fresh)))
          new_deltas;
      Obs.leave (tracer env) isp;
      if List.for_all (fun (_, fresh) -> Relation.is_empty fresh) new_deltas
      then continue_ := false
    end
  done;
  List.iter
    (fun (_, id) -> with_actual env.stats id (fun a -> a.Ir.a_iterations <- !iterations))
    dps;
  Obs.set sp "iterations" (Obs.Int !iterations);
  Obs.leave (tracer env) sp;
  List.iter (fun n -> I.idb_remove ctx (delta_name n)) component

(* The indexed seminaive fixpoint: the same round structure as
   [seminaive_fixpoint], made incremental in four ways. One delta rule
   per component-scan occurrence, restricted to the single disjunct that
   contains the occurrence — the other disjuncts are independent of that
   delta and are skipped instead of re-run every round. Each rule is
   compiled once with its [fix_marks], so its pipeline memoizes every
   component-free subtree and keeps hash-join build tables alive across
   rounds: the stable side of a delta join is built once and only probed
   thereafter. A per-definition seen-set of value keys (the cells in head
   order, equal exactly when the canonical tuple keys are) replaces the
   per-round dedup/minus against the accumulated relation. And the
   accumulated rows grow newest-first by prepending each round's delta;
   the full relation is rebuilt in order and published only where it is
   read: after every round when some delta rule still scans a component
   relation (a nonlinear step such as [a1 in A, a2 in A], or one joining
   two component relations), otherwise once after the loop. So per-round cost tracks the delta, not the closure. Rules run
   on the batched block pipeline; budgets charge at the same points as
   the tuple path (a tick plus a row charge per rule run, iteration
   checks once per round). *)
let indexed_seminaive_fixpoint env component (dps : (Ir.def_plan * int) list)
    =
  let ctx = env.ctx in
  let env = { env with batched = true } in
  let banned = component @ List.map delta_name component in
  let sp = Obs.enter (tracer env) "fixpoint:seminaive" in
  if Obs.enabled (tracer env) then begin
    Obs.set sp "stratum" (Obs.Str (String.concat "," component));
    Obs.set sp "mode" (Obs.Str "indexed")
  end;
  let ssp = Obs.enter (tracer env) "seed" in
  let reads_full = ref false in
  let defs =
    List.map
      (fun (dp, id) ->
        let n = dp.Ir.dname in
        let head, disjuncts =
          match dp.Ir.dplan with
          | Ir.Union { head; disjuncts } -> (head, disjuncts)
          (* Fallback plans never pass [Ir.seminaive_eligible] *)
          | Ir.Fallback { head; _ } -> (head, [])
        in
        let seed = Relation.dedup (coll_runner env id dp.Ir.dplan ()) in
        I.idb_set ctx n seed;
        I.idb_set ctx (delta_name n) seed;
        with_actual env.stats id (fun a ->
            a.Ir.a_deltas <- Relation.cardinality seed :: a.Ir.a_deltas);
        if Obs.enabled (tracer env) then
          Obs.set ssp ("delta:" ^ n) (Obs.Int (Relation.cardinality seed));
        let seen = Key.Tbl.create (max 64 (4 * Relation.cardinality seed)) in
        List.iter
          (fun tp -> Key.Tbl.replace seen (Tuple.cells tp) ())
          (Relation.tuples seed);
        let dids = Ir.coll_child_ids id dp.Ir.dplan in
        let occurrences = Ir.count_scans_coll component dp.Ir.dplan in
        let rules =
          List.init occurrences (fun i ->
              match Ir.subst_scan component i dp.Ir.dplan with
              | Ir.Union { disjuncts = subst; _ } ->
                  (* exactly one disjunct was rewritten: the one holding
                     occurrence [i] *)
                  let rec pick ds ss ids =
                    match (ds, ss, ids) with
                    | d :: _, s :: _, did :: _ when d <> s -> (s, did)
                    | _ :: ds, _ :: ss, _ :: ids -> pick ds ss ids
                    | _ -> assert false
                  in
                  let sd, did = pick disjuncts subst dids in
                  if Ir.count_scans_disjunct component sd > 0 then
                    reads_full := true;
                  let ce =
                    {
                      cx = ctx;
                      cstats = env.stats;
                      marks = Some (make_fix_marks banned did sd);
                    }
                  in
                  compile_disjunct ce did [||] head sd
              | Ir.Fallback _ -> assert false)
        in
        let acc = ref (List.rev (Relation.tuples seed)) in
        (n, id, Schema.make head.head_attrs, rules, seen, acc))
      dps
  in
  let publish (n, _, schema, _, _, acc) =
    I.idb_set ctx n (Relation.make ~name:n schema (List.rev !acc))
  in
  Obs.leave (tracer env) ssp;
  let iterations = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    incr iterations;
    Gov.tick (gov env);
    if
      (not (Gov.iteration_allowed (gov env) !iterations))
      || Gov.stopped (gov env)
    then continue_ := false
    else begin
      let isp = Obs.enter (tracer env) "iteration" in
      let new_deltas =
        List.map
          (fun ((n, id, schema, rules, seen, _) as def) ->
            let fresh = ref [] in
            List.iter
              (fun rule ->
                Gov.tick (gov env);
                if Gov.enter_collection (gov env) then begin
                  let tuples =
                    match rule [||] with
                    | tuples -> tuples
                    | exception Eval_error e ->
                        Gov.leave_collection (gov env);
                        raise (Eval_error (Err.in_collection n e))
                    | exception Err.Guard_error e ->
                        Gov.leave_collection (gov env);
                        raise (Eval_error (Err.in_collection n e))
                    | exception e ->
                        Gov.leave_collection (gov env);
                        raise e
                  in
                  let tuples =
                    if not (Gov.active (gov env)) then tuples
                    else
                      let c = List.length tuples in
                      let allowed = Gov.charge_rows (gov env) c in
                      if allowed >= c then tuples else I.take allowed tuples
                  in
                  Gov.leave_collection (gov env);
                  List.iter
                    (fun tp ->
                      let k = Tuple.cells tp in
                      if not (Key.Tbl.mem seen k) then begin
                        Key.Tbl.add seen k ();
                        fresh := tp :: !fresh
                      end)
                    tuples
                end)
              rules;
            (def, !fresh))
          defs
      in
      List.iter
        (fun (((n, id, schema, _, _, acc) as def), fresh_rev) ->
          let fresh = List.rev fresh_rev in
          let card = List.length fresh in
          with_actual env.stats id (fun a -> a.Ir.a_deltas <- card :: a.Ir.a_deltas);
          if Obs.enabled (tracer env) then
            Obs.set isp ("delta:" ^ n) (Obs.Int card);
          (* [fresh] is disjoint from the accumulated rows by the seen-set,
             so the accumulation stays a set *)
          acc := List.rev_append fresh !acc;
          if !reads_full then publish def;
          I.idb_set ctx (delta_name n) (Relation.make ~name:n schema fresh))
        new_deltas;
      Obs.leave (tracer env) isp;
      if List.for_all (fun (_, f) -> f = []) new_deltas then
        continue_ := false
    end
  done;
  if not !reads_full then List.iter publish defs;
  List.iter
    (fun (_, id, _, _, _, _) ->
      with_actual env.stats id (fun a -> a.Ir.a_iterations <- !iterations))
    defs;
  Obs.set sp "iterations" (Obs.Int !iterations);
  Obs.leave (tracer env) sp;
  List.iter (fun n -> I.idb_remove ctx (delta_name n)) component

(* [base] is the id of the stratum's first definition; consecutive
   definitions follow at offsets of [Ir.size_coll], mirroring
   [Ir.program_ids]. *)
let exec_stratum ?(fixpoint = `Indexed) env base (s : Ir.stratum) =
  let ctx = env.ctx in
  match s with
  | Ir.Nonrecursive dp ->
      I.idb_set ctx dp.dname (coll_runner env base dp.dplan ())
  | Ir.Recursive dps ->
      let component = List.map (fun d -> d.Ir.dname) dps in
      let dps_ids =
        List.rev
          (fst
             (List.fold_left
                (fun (acc, next) dp ->
                  ((dp, next) :: acc, next + Ir.size_coll dp.Ir.dplan))
                ([], base) dps))
      in
      (* stratification check, as in the reference *)
      List.iter
        (fun dp ->
          List.iter
            (fun (m, negative) ->
              if negative && List.mem m component then
                raise_kind
                  (Err.Unstratifiable { name = dp.Ir.dname; dep = m }))
            (Depend.collection_deps dp.Ir.dcoll))
        dps;
      List.iter
        (fun dp ->
          let attrs =
            match dp.Ir.dplan with
            | Ir.Union { head; _ } | Ir.Fallback { head; _ } -> head.head_attrs
          in
          I.idb_set ctx dp.Ir.dname (Relation.empty ~name:dp.Ir.dname attrs))
        dps;
      let strategy =
        match I.strategy ctx with
        | Eval.Seminaive when Ir.seminaive_eligible component dps -> `Seminaive
        | _ -> `Naive
      in
      (match (strategy, fixpoint) with
      | `Naive, _ -> naive_fixpoint env dps_ids
      | `Seminaive, `Indexed -> indexed_seminaive_fixpoint env component dps_ids
      | `Seminaive, `Tuple -> seminaive_fixpoint env component dps_ids)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* Lower and optimize a program against a database: returns the context
   (with abstracts registered, IDB empty), the raw and optimized plans, and
   the per-pass change report. *)
let compile ?conv ?externals ?strategy ?tracer ?guard ~db (prog : program) =
  (* goal-directed recursion: restrict recursive definitions to the
     constants the main query demands (AST-level, before validation, so
     the magic relation is prepared and stratified like any other def) *)
  let prog, magic_changed = Opt.magic_sets prog in
  let ctx, safe = I.prepare ?conv ?externals ?strategy ?tracer ?guard ~db prog in
  let lenv =
    Lower.env_of_db ~db ~defs:(List.map (fun d -> d.def_name) safe)
  in
  let raw = Lower.lower_program lenv ~safe prog in
  let optimized, report = Opt.optimize lenv raw in
  (ctx, raw, optimized, ("magic-sets", magic_changed) :: report)

let exec_program ?stats ?(batched = true) ?(fixpoint = `Indexed) ctx
    (pp : Ir.program_plan) : Eval.outcome =
  let env = { ctx; outer = []; stats; batched } in
  let tracer = I.tracer ctx in
  let counter = ref 0 in
  let stratum_base s =
    let v = !counter in
    let sz =
      match s with
      | Ir.Nonrecursive dp -> Ir.size_coll dp.Ir.dplan
      | Ir.Recursive dps ->
          List.fold_left (fun acc dp -> acc + Ir.size_coll dp.Ir.dplan) 0 dps
    in
    counter := !counter + sz;
    v
  in
  if pp.strata <> [] then begin
    let sp = Obs.enter tracer "definitions" in
    (try
       List.iter (fun s -> exec_stratum ~fixpoint env (stratum_base s) s)
         pp.strata
     with
    | Err.Guard_error e ->
        Obs.leave tracer sp;
        raise (Eval_error e)
    | e ->
        Obs.leave tracer sp;
        raise e);
    Obs.leave tracer sp
  end;
  try
    match pp.main with
    | Ir.Main_coll p -> Eval.Rows (coll_runner env !counter p ())
    | Ir.Main_sentence f -> Eval.Truth (I.eval_formula ctx [] f)
  with
  | Err.Guard_error e -> raise (Eval_error e)
  | V.Type_error m -> raise (Eval_error { Err.kind = Err.Msg ("type error: " ^ m); context = [] })

let run ?conv ?externals ?strategy ?tracer ?guard ?batched ?fixpoint ~db
    (prog : program) =
  try
    let ctx, _, optimized, _ =
      compile ?conv ?externals ?strategy ?tracer ?guard ~db prog
    in
    exec_program ?batched ?fixpoint ctx optimized
  with V.Type_error m -> raise (Eval_error { Err.kind = Err.Msg ("type error: " ^ m); context = [] })

let run_rows ?conv ?externals ?strategy ?tracer ?guard ?batched ?fixpoint ~db
    prog =
  match
    run ?conv ?externals ?strategy ?tracer ?guard ?batched ?fixpoint ~db prog
  with
  | Eval.Rows r -> r
  | Eval.Truth _ ->
      raise_kind (Err.Msg "expected a collection result, got a sentence")

let run_truth ?conv ?externals ?strategy ?tracer ?guard ?batched ?fixpoint ~db
    prog =
  match
    run ?conv ?externals ?strategy ?tracer ?guard ?batched ?fixpoint ~db prog
  with
  | Eval.Truth t -> t
  | Eval.Rows _ ->
      raise_kind (Err.Msg "expected a sentence result, got a collection")

(* ------------------------------------------------------------------ *)
(* Incremental-maintenance hooks (Arc_ivm)                             *)
(* ------------------------------------------------------------------ *)

(* The maintenance layer differentiates pipelines and recomputes fallback
   strata itself; it needs the raw operators on an explicit context, with
   stats off (node ids are irrelevant without a stats table). *)

let exec_pipeline ctx ?(outer = []) (t : Ir.t) : I.benv list =
  exec_rows { ctx; outer; stats = None; batched = false } 0 t

let exec_collection ctx (p : Ir.coll_plan) : Relation.t =
  exec_coll { ctx; outer = []; stats = None; batched = false } 0 p

let exec_stratum_plan ctx (s : Ir.stratum) : unit =
  exec_stratum
    { ctx; outer = []; stats = None; batched = false }
    0 s

(* ------------------------------------------------------------------ *)
(* Metrics export                                                      *)
(* ------------------------------------------------------------------ *)

module Metrics = Arc_obs.Metrics
module Explain = Arc_plan.Explain

(* Aggregates a run's per-node actuals into operator-level series: totals
   as counters, per-node distributions as histograms. This is what
   [arc eval --profile] prints and what [--metrics-out] exports. *)
let export_stats (m : Metrics.t) (pp : Ir.program_plan) (stats : Ir.stats) =
  List.iter
    (fun ni ->
      match ni.Explain.ni_actual with
      | None -> ()
      | Some a ->
          let labels = [ ("op", ni.Explain.ni_op) ] in
          Metrics.inc m ~labels ~by:a.Ir.a_invocations
            "arc_node_invocations_total";
          Metrics.inc m ~labels ~by:a.Ir.a_rows "arc_node_rows_total";
          Metrics.observe m ~labels "arc_node_excl_ns"
            (Int64.to_float ni.Explain.ni_excl_ns);
          Metrics.observe m ~labels "arc_node_rows"
            (Float.of_int a.Ir.a_rows);
          (match ni.Explain.ni_q with
          | Some q -> Metrics.observe m ~labels "arc_node_q_error" q
          | None -> ()))
    (Explain.analyze_info pp ~stats)
