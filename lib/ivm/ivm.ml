open Arc_core.Ast
module V = Arc_value.Value
module B3 = Arc_value.Bool3
module Conventions = Arc_value.Conventions
module Relation = Arc_relation.Relation
module Tuple = Arc_relation.Tuple
module Schema = Arc_relation.Schema
module Database = Arc_relation.Database
module Depend = Arc_core.Depend
module Ir = Arc_plan.Ir
module Eval = Arc_engine.Eval
module Exec = Arc_engine.Exec
module I = Eval.Internal
module Gov = Arc_guard.Gov
module Metrics = Arc_obs.Metrics
module Key = Arc_value.Key
module Aggregate = Arc_value.Aggregate

exception Ivm_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Ivm_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Reserved working relations                                          *)
(* ------------------------------------------------------------------ *)

(* Registered in the per-batch context's IDB under the reserved "__ivm__"
   namespace (Analysis rejects user relations there). Counting strata
   read old/new/pos/neg versions of changed relations; DRed strata use a
   disjoint set so set-level and bag-level views never collide. *)
let nm_old r = "__ivm__old__" ^ r
let nm_new r = "__ivm__new__" ^ r
let nm_pos r = "__ivm__pos__" ^ r
let nm_neg r = "__ivm__neg__" ^ r
let nm_orig r = "__ivm__orig__" ^ r
let nm_mid r = "__ivm__mid__" ^ r
let nm_cur r = "__ivm__cur__" ^ r
let nm_front r = "__ivm__front__" ^ r
let nm_rnew r = "__ivm__rnew__" ^ r
let nm_rpos r = "__ivm__rpos__" ^ r

(* ------------------------------------------------------------------ *)
(* Eligibility: the multilinear pipeline core                          *)
(* ------------------------------------------------------------------ *)

let no_rel_deps f = Depend.formula_deps ~neg:false ~grouped:false [] f = []

(* [None] when the pipeline is safe to differentiate by scan
   substitution; [Some reason] names the first offending node class (the
   fallback matrix in docs/ivm.md). Semi/anti joins and laterals are not
   multilinear in their inputs; subqueries/resolve hide references the
   substitution cannot reach. *)
let rec pipeline_blocker (t : Ir.t) : string option =
  match t with
  | Ir.One -> None
  | Ir.Scan { filters; _ } ->
      if List.for_all (fun p -> no_rel_deps (Pred p)) filters then None
      else Some "scan filter references a relation"
  | Ir.Product { left; right } | Ir.Hash_join { left; right; _ } -> (
      match pipeline_blocker left with
      | Some _ as b -> b
      | None -> pipeline_blocker right)
  | Ir.Filter { input; _ } | Ir.Prune { input; _ } -> pipeline_blocker input
  | Ir.Residual { input; conjs } ->
      if List.for_all no_rel_deps conjs then pipeline_blocker input
      else Some "residual references a relation"
  | Ir.Semi { anti; _ } -> Some (if anti then "anti_join" else "semi_join")
  | Ir.Lateral _ -> Some "lateral"
  | Ir.Subquery _ -> Some "subquery"
  | Ir.Resolve _ -> Some "resolve"
  (* A branch union is affine, not linear, in each branch's occurrences
     (zeroing one branch leaves the others' output), so per-occurrence
     scan substitution would over-count. *)
  | Ir.Append _ -> Some "append"

let disjunct_blocker = function
  | Ir.Project { input; _ } -> pipeline_blocker input
  | Ir.Aggregate { input; post; _ } -> (
      match pipeline_blocker input with
      | Some _ as b -> b
      | None ->
          if List.for_all no_rel_deps post then None
          else Some "aggregate post-condition references a relation")

(* ------------------------------------------------------------------ *)
(* Maintenance state                                                   *)
(* ------------------------------------------------------------------ *)

(* One support row of a group: a node of the group's circular,
   insertion-ordered list. [s_same] links the live copies of one row
   value in a circle, from the newest (which the index holds) to the
   oldest. *)
type slot = {
  s_row : I.benv;
  mutable s_prev : slot;
  mutable s_next : slot;
  mutable s_same : slot;
}

(* Support rows by value: the same variables bound to tuples whose cells
   are canonically equal ([Arc_value.Key]), so rows match exactly when
   their tuple keys do, without building a key per row. *)
module Row_tbl = Hashtbl.Make (struct
  type t = I.benv

  let equal a b =
    List.compare_lengths a b = 0
    && List.for_all
         (fun (v, tp) ->
           match List.assoc_opt v b with
           | Some tp' -> Key.equal_array (Tuple.cells tp) (Tuple.cells tp')
           | None -> false)
         a

  let hash row =
    List.fold_left (fun h (_, tp) -> h + Key.hash_array (Tuple.cells tp)) 0 row
end)

(* Exact running state of one aggregate subterm over a group's live
   support. [a_isum] is modular, so it is exact whatever order rows come
   and go in; [a_abs_hi]/[a_abs_lo] hold the sum of |v| over Int inputs
   below 2^53 in 2^26-sized limbs, so it cannot overflow. *)
type acc = {
  mutable a_nonnull : int;  (* live non-NULL inputs *)
  mutable a_other : int;  (* ... of which are not Int *)
  mutable a_isum : int;  (* sum of the Int inputs, modulo 2^63 *)
  mutable a_big : int;  (* Int inputs with |v| >= 2^53 *)
  mutable a_abs_hi : int;
  mutable a_abs_lo : int;
}

type group = {
  g_rows : slot;  (* sentinel of the support list, oldest row first *)
  mutable g_size : int;
  g_accs : acc array;  (* one per distinct aggregate subterm *)
  mutable g_out : Tuple.t list;  (* emitted tuples *)
}

type agg_state = {
  input : Ir.t;
  keys : grouping;
  scope_vars : var list;
  post : formula list;
  assigns : (attr * term) list;
  aggs : (Aggregate.kind * term) array;  (* distinct Agg subterms *)
  agg_nodes : (term * int) list;  (* each Agg node -> its [aggs] index *)
  groups : group Key.Tbl.t;  (* group key values -> group *)
  index : slot Row_tbl.t;  (* row value -> its newest live slot *)
}

type disj_state =
  | DProj of { assigns : (attr * term) list; input : Ir.t }
  | DAgg of agg_state

type coll_state =
  | CCounting of {
      head : head;
      plan : Ir.coll_plan;  (* kept for state-rebuild recovery *)
      disjs : disj_state list;
      counts : Delta.t;  (* derivation counts, across disjuncts *)
    }
  | CFallback of { plan : Ir.coll_plan; reason : string }

type stratum_state =
  | SNonrec of { sname : rel_name; sdeps : rel_name list; cs : coll_state }
  | SRecursive of {
      component : rel_name list;
      dps : Ir.def_plan list;
      sdeps : rel_name list;  (* non-component inputs *)
      dred : bool;
      dred_reason : string;  (* why not, when [dred] is false *)
    }

type view = {
  v_name : string;
  v_prog : program;
  v_strata : stratum_state list;
  v_main : coll_state;
  v_main_deps : rel_name list;
  mutable v_defs : (rel_name * Relation.t) list;  (* maintained, in order *)
  mutable v_result : Relation.t;
  v_deps : rel_name list;  (* base relations the view reads *)
  mutable v_fallbacks : int;
}

(* Per-base-relation incremental cache: bag multiplicities by value key
   (the cells in the relation's attribute order) plus the visible
   (convention-level) relation. Batches update both in O(|batch|), so
   applying a batch never re-deduplicates or re-diffs a whole base
   relation. *)
type base_cache = {
  bc_counts : int Key.Tbl.t;
  mutable bc_vis : Relation.t;
}

type t = {
  conv : Conventions.t;
  strategy : Eval.recursion_strategy option;
  metrics : Metrics.t option;
  mutable tdb : Database.t;
  mutable tviews : view list;  (* registration order *)
  tbase : (rel_name, base_cache) Hashtbl.t;
}

type batch = (rel_name * (Tuple.t * int) list) list

type view_report = {
  vr_view : string;
  vr_mode : string;
  vr_out_delta : int;
  vr_ns : int64;
  vr_fallbacks : int;
}

(* A changed relation during one maintenance pass: visible (convention-
   level) before/after values plus their signed difference. *)
type change = {
  ch_old : Relation.t;
  ch_new : Relation.t;
  ch_eff : (Tuple.t * int) list;
}

let create ?(conv = Conventions.sql_set) ?strategy ?metrics ~db () =
  { conv; strategy; metrics; tdb = db; tviews = []; tbase = Hashtbl.create 16 }

let conv t = t.conv
let db t = t.tdb
let views t = List.map (fun v -> v.v_name) t.tviews

let find_view t name =
  match List.find_opt (fun v -> v.v_name = name) t.tviews with
  | Some v -> v
  | None -> fail "no view named %S is registered" name

(* v_result is patched in place by deltas (order: survivors then
   appended inserts); sort here to keep the documented contract. *)
let result t name = Relation.sort (find_view t name).v_result

let batch_rows (b : batch) =
  List.fold_left
    (fun acc (_, es) ->
      List.fold_left (fun acc (_, n) -> acc + abs n) acc es)
    0 b

let inverse (b : batch) =
  List.map (fun (r, es) -> (r, List.map (fun (tp, n) -> (tp, -n)) es)) b

let metric_inc t ?labels name =
  match t.metrics with None -> () | Some m -> Metrics.inc m ?labels name

let metric_observe t name v =
  match t.metrics with None -> () | Some m -> Metrics.observe m name v

let metric_gauge t name v =
  match t.metrics with None -> () | Some m -> Metrics.set_gauge m name v

(* ------------------------------------------------------------------ *)
(* Small helpers shared with the executor's semantics                  *)
(* ------------------------------------------------------------------ *)

let visible conv (r : Relation.t) =
  match conv.Conventions.collection with
  | Conventions.Set -> Relation.dedup r
  | Conventions.Bag -> r

(* Cache lookup with lazy seeding from [rel] (the relation's value
   {e before} the current batch, when called from [apply]). Seeding is
   the only whole-relation pass; [register] triggers it for every base
   dependency so later batches stay O(|batch|). *)
let base_cache_for t r (rel : Relation.t) =
  match Hashtbl.find_opt t.tbase r with
  | Some bc -> bc
  | None ->
      let counts = Key.Tbl.create (1 + Relation.cardinality rel) in
      List.iter
        (fun tp ->
          let k = Tuple.cells tp in
          Key.Tbl.replace counts k
            (1 + Option.value ~default:0 (Key.Tbl.find_opt counts k)))
        (Relation.tuples rel);
      let bc = { bc_counts = counts; bc_vis = visible t.conv rel } in
      Hashtbl.add t.tbase r bc;
      bc

let rel_of_rows ~name (like : Relation.t) rows =
  Relation.make ~name (Relation.schema like) rows

let project_tuple ctx schema (head : head) assigns (row : I.benv) =
  Tuple.make schema
    (Array.of_list
       (List.map
          (fun a ->
            match List.assoc_opt a assigns with
            | Some tm -> I.eval_term ctx row tm
            | None ->
                fail "head attribute %s.%s is unassigned" head.head_name a)
          head.head_attrs))

(* ------------------------------------------------------------------ *)
(* Group support and aggregate accumulators                            *)
(* ------------------------------------------------------------------ *)

let group_key ctx (row : I.benv) keys =
  Array.of_list (List.map (fun (v, a) -> I.eval_term ctx row (Attr (v, a))) keys)

(* The distinct [Agg] subterms of the head assignments and the HAVING
   formulas (not inside nested scopes, which aggregate on their own), and
   every Agg node's index among them. *)
let agg_subterms assigns post =
  let distinct = ref [] and nodes = ref [] in
  let rec term = function
    | Agg (k, inner) as node ->
        let rec find i = function
          | [] ->
              distinct := !distinct @ [ (k, inner) ];
              i
          | (k', inner') :: rest ->
              if k = k' && equal_term inner inner' then i else find (i + 1) rest
        in
        nodes := (node, find 0 !distinct) :: !nodes
    | Scalar (_, ts) -> List.iter term ts
    | Const _ | Attr _ -> ()
  and formula = function
    | Pred p -> List.iter term (pred_terms p)
    | And fs | Or fs -> List.iter formula fs
    | Not f -> formula f
    | True | Exists _ -> ()
  in
  List.iter (fun (_, t) -> term t) assigns;
  List.iter formula post;
  (Array.of_list !distinct, !nodes)

let new_group naggs =
  let rec s = { s_row = []; s_prev = s; s_next = s; s_same = s } in
  {
    g_rows = s;
    g_size = 0;
    g_accs =
      Array.init naggs (fun _ ->
          {
            a_nonnull = 0;
            a_other = 0;
            a_isum = 0;
            a_big = 0;
            a_abs_hi = 0;
            a_abs_lo = 0;
          });
    g_out = [];
  }

let limb_bits = 26
let exact_float = 1 lsl 53

(* Fold one input value into [a] with sign [s] (+1 arrives, -1 leaves). *)
let acc_add a s = function
  | V.Null -> ()
  | V.Int x ->
      a.a_nonnull <- a.a_nonnull + s;
      a.a_isum <- a.a_isum + (s * x);
      if x >= exact_float || x <= -exact_float then a.a_big <- a.a_big + s
      else begin
        let m = abs x in
        a.a_abs_hi <- a.a_abs_hi + (s * (m lsr limb_bits));
        a.a_abs_lo <- a.a_abs_lo + (s * (m land ((1 lsl limb_bits) - 1)))
      end
  | _ ->
      a.a_nonnull <- a.a_nonnull + s;
      a.a_other <- a.a_other + s

(* Every partial sum of the group's Int inputs is an integer below 2^53,
   so adding them as floats in any order is exact. *)
let abs_sum_exact a =
  a.a_big = 0
  && a.a_abs_hi < 1 lsl (53 - limb_bits)
  && (a.a_abs_hi lsl limb_bits) + a.a_abs_lo < exact_float

(* The aggregate's value over the group, from the accumulator where that
   is exact: COUNT always; SUM while every input is an Int (modular
   addition is order-free, like the reference fold's); AVG under the same
   condition while the sum of |v| stays below 2^53. Everything else
   re-folds the group's inputs in support order, as the reference does. *)
let agg_value conv k a refold =
  let empty () = Aggregate.apply conv.Conventions.agg_empty k [] in
  match k with
  | Aggregate.Count -> V.Int a.a_nonnull
  | Aggregate.Sum when a.a_other = 0 ->
      if a.a_nonnull = 0 then empty () else V.Int a.a_isum
  | Aggregate.Avg when a.a_other = 0 && abs_sum_exact a ->
      if a.a_nonnull = 0 then empty ()
      else V.Float (float_of_int a.a_isum /. float_of_int a.a_nonnull)
  | _ -> Aggregate.apply conv.Conventions.agg_empty k (refold ())

(* The values of [inner] over the group's live rows, oldest first. *)
let support_values ctx g inner =
  let rec go s acc =
    if s == g.g_rows then acc
    else go s.s_prev (I.eval_term ctx s.s_row inner :: acc)
  in
  go g.g_rows.s_prev []

let rec subst_aggs values nodes = function
  | Agg _ as node -> Const values.(List.assq node nodes)
  | Scalar (op, ts) -> Scalar (op, List.map (subst_aggs values nodes) ts)
  | (Const _ | Attr _) as t -> t

let rec subst_aggs_formula values nodes = function
  | Pred p ->
      let t = subst_aggs values nodes in
      Pred
        (match p with
        | Cmp (op, l, r) -> Cmp (op, t l, t r)
        | Is_null x -> Is_null (t x)
        | Not_null x -> Not_null (t x)
        | Like (x, pat) -> Like (t x, pat))
  | And fs -> And (List.map (subst_aggs_formula values nodes) fs)
  | Or fs -> Or (List.map (subst_aggs_formula values nodes) fs)
  | Not f -> Not (subst_aggs_formula values nodes f)
  | (True | Exists _) as f -> f

(* ------------------------------------------------------------------ *)
(* Scan-substitution runs                                              *)
(* ------------------------------------------------------------------ *)

(* The relations (in traversal order) scanned by occurrences of [rels]. *)
let occurrence_rels_t rels (t : Ir.t) : rel_name list =
  let acc = ref [] in
  ignore
    (Ir.subst_scans_with_t rels
       (fun k rel ->
         acc := (k, rel) :: !acc;
         None)
       t);
  List.map snd (List.sort compare !acc)

let occurrence_rels_coll rels (p : Ir.coll_plan) : rel_name list =
  let acc = ref [] in
  ignore
    (Ir.subst_scans_with rels
       (fun k rel ->
         acc := (k, rel) :: !acc;
         None)
       p);
  List.map snd (List.sort compare !acc)

(* Signed derivation delta of a multilinear pipeline:
   Δf = Σ_j f(new_1…new_{j-1}, Δ_j, old_{j+1}…), each Δ_j split into its
   insertion (+1) and deletion (−1) sides. Changed relations are renamed
   per occurrence, so no scan resolves a changed name directly. *)
let signed_rows ctx (changed : (rel_name, change) Hashtbl.t) (t : Ir.t) :
    (I.benv * int) list =
  let rels = Hashtbl.fold (fun r _ acc -> r :: acc) changed [] in
  let occs = occurrence_rels_t rels t in
  let side sign rj =
    let ch = Hashtbl.find changed rj in
    let nonempty =
      List.exists (fun (_, n) -> if sign > 0 then n > 0 else n < 0) ch.ch_eff
    in
    not nonempty
  in
  List.concat
    (List.mapi
       (fun j rj ->
         let run sign name_j =
           let plan =
             Ir.subst_scans_with_t rels
               (fun k rel ->
                 if k < j then Some (nm_new rel)
                 else if k = j then Some name_j
                 else Some (nm_old rel))
               t
           in
           List.map (fun row -> (row, sign)) (Exec.exec_pipeline ctx plan)
         in
         (if side 1 rj then [] else run 1 (nm_pos rj))
         @ (if side (-1) rj then [] else run (-1) (nm_neg rj)))
       occs)

(* ------------------------------------------------------------------ *)
(* Counting collections                                                *)
(* ------------------------------------------------------------------ *)

let visible_of_counts conv (head : head) counts =
  let schema = Schema.make head.head_attrs in
  let rows =
    List.concat_map
      (fun (tp, n) ->
        if n < 0 then fail "maintenance state underflow: negative count"
        else
          match conv.Conventions.collection with
          | Conventions.Set -> [ tp ]
          | Conventions.Bag -> List.init n (fun _ -> tp))
      (Delta.to_list counts)
  in
  Relation.make ~name:head.head_name schema rows

(* Fold one signed derivation into the count table, accumulating the
   visible-level output delta of the transition into [out] — so the
   materialized result can be patched instead of rebuilt from counts. *)
let fold_count conv counts out tp s =
  let c = Delta.count counts tp in
  let c' = c + s in
  if c' < 0 then fail "maintenance state underflow: negative count";
  Delta.add counts tp s;
  match conv.Conventions.collection with
  | Conventions.Bag -> if s <> 0 then Delta.add out tp s
  | Conventions.Set ->
      if c = 0 && c' > 0 then Delta.add out tp 1
      else if c > 0 && c' = 0 then Delta.add out tp (-1)

let group_for (d : agg_state) gk =
  match Key.Tbl.find_opt d.groups gk with
  | Some g -> g
  | None ->
      let g = new_group (Array.length d.aggs) in
      Key.Tbl.add d.groups gk g;
      g

(* Fold a support row's aggregate inputs into its group's accumulators,
   with sign [sg]. *)
let account ctx (d : agg_state) g row sg =
  Array.iteri
    (fun i (_, inner) -> acc_add g.g_accs.(i) sg (I.eval_term ctx row inner))
    d.aggs

(* Append a support row to its group: O(1) plus one evaluation of each
   aggregate's inner term. *)
let add_support ctx (d : agg_state) row =
  let gk = group_key ctx row d.keys in
  let g = group_for d gk in
  let last = g.g_rows.s_prev in
  let rec s = { s_row = row; s_prev = last; s_next = g.g_rows; s_same = s } in
  last.s_next <- s;
  g.g_rows.s_prev <- s;
  g.g_size <- g.g_size + 1;
  account ctx d g row 1;
  (match Row_tbl.find_opt d.index row with
  | Some newest ->
      s.s_same <- newest.s_same;
      newest.s_same <- s
  | None -> ());
  Row_tbl.replace d.index row s;
  (gk, g)

(* Remove the oldest live copy of [row], as the list-based support did.
   The stored row (not [row], which may differ from it by Int/Float) is
   unlinked, and its inputs leave the accumulators. *)
let remove_support ctx (d : agg_state) row =
  let s =
    match Row_tbl.find_opt d.index row with
    | None -> fail "maintenance state underflow: support row not found"
    | Some newest ->
        let oldest = newest.s_same in
        if oldest == newest then Row_tbl.remove d.index row
        else newest.s_same <- oldest.s_same;
        oldest
  in
  let gk = group_key ctx s.s_row d.keys in
  let g =
    match Key.Tbl.find_opt d.groups gk with
    | Some g -> g
    | None -> fail "maintenance state underflow: support row has no group"
  in
  s.s_prev.s_next <- s.s_next;
  s.s_next.s_prev <- s.s_prev;
  g.g_size <- g.g_size - 1;
  account ctx d g s.s_row (-1);
  (gk, g)

(* The tuple a group emits, when every HAVING formula holds. *)
let group_output ctx (head : head) ~rep ~group ~scope_vars post assigns =
  if
    List.for_all
      (fun f -> I.eval_gformula ctx ~rep ~group ~scope_vars f = B3.True)
      post
  then
    [
      Tuple.make (Schema.make head.head_attrs)
        (Array.of_list
           (List.map
              (fun a ->
                match List.assoc_opt a assigns with
                | Some tm -> I.eval_gterm ctx ~rep ~group ~scope_vars tm
                | None -> fail "head attribute %s.%s is unassigned" head.head_name a)
              head.head_attrs));
    ]
  else []

(* Re-emit a dirty group: retract its old output, add the new one. A
   non-empty group evaluates the head with each aggregate replaced by its
   value and the oldest live row as representative; γ∅ over no rows keeps
   the reference path (the agg-empty convention). *)
let emit_group ctx conv out (head : head) (d : agg_state) counts gk g =
  let new_outs =
    if g.g_size = 0 then
      if d.keys <> [] then []
      else
        group_output ctx head ~rep:[] ~group:[] ~scope_vars:d.scope_vars d.post
          d.assigns
    else
      let values =
        Array.mapi
          (fun i (k, inner) ->
            agg_value conv k g.g_accs.(i) (fun () ->
                support_values ctx g inner))
          d.aggs
      in
      let rep = g.g_rows.s_next.s_row in
      group_output ctx head ~rep ~group:[ rep ] ~scope_vars:d.scope_vars
        (List.map (subst_aggs_formula values d.agg_nodes) d.post)
        (List.map (fun (a, t) -> (a, subst_aggs values d.agg_nodes t)) d.assigns)
  in
  List.iter (fun tp -> fold_count conv counts out tp (-1)) g.g_out;
  List.iter (fun tp -> fold_count conv counts out tp 1) new_outs;
  if d.keys <> [] && g.g_size = 0 then Key.Tbl.remove d.groups gk
  else g.g_out <- new_outs

(* Initial materialization: full pipeline runs establish derivation
   counts (which collection-level dedup would destroy) and group
   support. *)
let seed_counting ctx conv head disjs counts =
  let scratch = Delta.create () in
  List.iter
    (function
      | DProj { assigns; input } ->
          let schema = Schema.make head.head_attrs in
          List.iter
            (fun row ->
              Delta.add counts (project_tuple ctx schema head assigns row) 1)
            (Exec.exec_pipeline ctx input)
      | DAgg d ->
          let dirty = Key.Tbl.create 16 in
          if d.keys = [] then Key.Tbl.replace dirty [||] (group_for d [||]);
          List.iter
            (fun row ->
              let gk, g = add_support ctx d row in
              Key.Tbl.replace dirty gk g)
            (Exec.exec_pipeline ctx d.input);
          Key.Tbl.iter (emit_group ctx conv scratch head d counts) dirty)
    disjs;
  Relation.sort (visible_of_counts conv head counts)

(* Returns the new visible value plus the signed output delta that got
   there: the materialized result is patched with [Relation.apply_delta],
   never rebuilt from the count table, so batch cost scales with the
   delta (plus, for deletions, one cached-key filter pass). *)
let maintain_counting ctx conv head disjs counts changed old_r =
  let out = Delta.create () in
  List.iter
    (function
      | DProj { assigns; input } ->
          let schema = Schema.make head.head_attrs in
          List.iter
            (fun (row, s) ->
              fold_count conv counts out
                (project_tuple ctx schema head assigns row)
                s)
            (signed_rows ctx changed input)
      | DAgg d ->
          let dirty = Key.Tbl.create 16 in
          List.iter
            (fun (row, s) ->
              let gk, g =
                if s > 0 then add_support ctx d row
                else remove_support ctx d row
              in
              Key.Tbl.replace dirty gk g)
            (signed_rows ctx changed d.input);
          Key.Tbl.iter (emit_group ctx conv out head d counts) dirty)
    disjs;
  let eff =
    List.sort
      (fun (a, _) (b, _) -> Tuple.compare a b)
      (Delta.to_list out)
  in
  let new_r = if eff = [] then old_r else Relation.apply_delta old_r eff in
  (new_r, eff)

(* ------------------------------------------------------------------ *)
(* DRed for recursive strata                                           *)
(* ------------------------------------------------------------------ *)

(* Fixpoint relations are sets regardless of the collection convention
   (both engines dedup each round), so DRed works at the set level:
   input changes are projected to distinct-tuple transitions first. *)
let maintain_dred ctx defs component (dps : Ir.def_plan list)
    (stratum_changes : (rel_name * change) list) =
  let gov = I.gov ctx in
  let set_rel = I.idb_set ctx in
  let input_rels = List.map fst stratum_changes in
  let all = component @ input_rels in
  let orig = List.map (fun n -> (n, List.assoc n defs)) component in
  let set_changes =
    List.map
      (fun (r, ch) ->
        let o = Relation.dedup ch.ch_old and n = Relation.dedup ch.ch_new in
        (r, o, n, Relation.diff_signed o n))
      stratum_changes
  in
  List.iter (fun (n, rel) -> set_rel (nm_orig n) rel) orig;
  List.iter (fun (r, o, n, _) ->
      set_rel (nm_orig r) o;
      set_rel (nm_rnew r) n)
    set_changes;
  let exec_subst dp rename =
    Relation.dedup
      (Exec.exec_collection ctx (Ir.subst_scans_with all rename dp.Ir.dplan))
  in
  let remaining = Hashtbl.create 8 in
  let deleted = Hashtbl.create 8 in
  List.iter
    (fun (n, rel) ->
      Hashtbl.replace remaining n rel;
      Hashtbl.replace deleted n (rel_of_rows ~name:n rel []))
    orig;
  let rounds = ref 0 in
  let round_ok () =
    incr rounds;
    Gov.tick gov;
    Gov.iteration_allowed gov !rounds && not (Gov.stopped gov)
  in
  let has_del =
    List.exists
      (fun (_, _, _, eff) -> List.exists (fun (_, n) -> n < 0) eff)
      set_changes
  in
  let has_ins =
    List.exists
      (fun (_, _, _, eff) -> List.exists (fun (_, n) -> n > 0) eff)
      set_changes
  in
  (* --- Phase A: over-delete. One-step consequences of deleted tuples,
     all other positions at their original values, intersected with what
     is still present; iterate until no new deletions. --- *)
  if has_del then begin
    let frontier =
      ref
        (List.filter_map
           (fun (r, o, _, eff) ->
             let rows =
               List.concat_map
                 (fun (tp, n) -> List.init (max 0 (-n)) (fun _ -> tp))
                 eff
             in
             if rows = [] then None else Some (r, rel_of_rows ~name:r o rows))
           set_changes)
    in
    while !frontier <> [] && round_ok () do
      List.iter (fun (r, rel) -> set_rel (nm_front r) rel) !frontier;
      let front_rels = List.map fst !frontier in
      let newdels =
        List.filter_map
          (fun dp ->
            let n = dp.Ir.dname in
            let occs = occurrence_rels_coll all dp.Ir.dplan in
            let candidates =
              List.concat
                (List.mapi
                   (fun j rj ->
                     if not (List.mem rj front_rels) then []
                     else
                       Relation.tuples
                         (exec_subst dp (fun k rel ->
                              if k = j then Some (nm_front rel)
                              else Some (nm_orig rel))))
                   occs)
            in
            let rem = Hashtbl.find remaining n in
            let cand = Relation.dedup (rel_of_rows ~name:n rem candidates) in
            let newdel = Relation.intersect cand rem in
            if Relation.is_empty newdel then None
            else begin
              Hashtbl.replace remaining n (Relation.minus rem newdel);
              Hashtbl.replace deleted n
                (Relation.union (Hashtbl.find deleted n) newdel);
              Some (n, newdel)
            end)
          dps
      in
      frontier := newdels
    done
  end;
  (* --- Phase B: re-derive. Inputs at their deletion-applied value; one
     full rule application re-derives over-deleted tuples that survive,
     then seminaive rounds propagate re-additions. --- *)
  List.iter
    (fun (r, o, _, eff) ->
      let negs =
        List.concat_map
          (fun (tp, n) -> List.init (max 0 (-n)) (fun _ -> tp))
          eff
      in
      set_rel (nm_mid r) (Relation.minus o (rel_of_rows ~name:r o negs)))
    set_changes;
  let set_cur () =
    List.iter (fun (n, _) -> set_rel (nm_cur n) (Hashtbl.find remaining n)) orig
  in
  set_cur ();
  if has_del && List.exists (fun (n, _) -> not (Relation.is_empty (Hashtbl.find deleted n))) orig
  then begin
    let readd_of dp derived =
      let n = dp.Ir.dname in
      let dead = Hashtbl.find deleted n in
      let readd = Relation.intersect derived dead in
      if Relation.is_empty readd then None
      else begin
        Hashtbl.replace remaining n
          (Relation.dedup (Relation.union (Hashtbl.find remaining n) readd));
        Hashtbl.replace deleted n (Relation.minus dead readd);
        Some (n, readd)
      end
    in
    let first =
      List.filter_map
        (fun dp ->
          readd_of dp
            (exec_subst dp (fun _ rel ->
                 if List.mem rel component then Some (nm_cur rel)
                 else Some (nm_mid rel))))
        dps
    in
    set_cur ();
    let frontier = ref first in
    while !frontier <> [] && round_ok () do
      List.iter (fun (r, rel) -> set_rel (nm_front r) rel) !frontier;
      let front_rels = List.map fst !frontier in
      let readds =
        List.filter_map
          (fun dp ->
            let occs = occurrence_rels_coll all dp.Ir.dplan in
            let derived =
              List.concat
                (List.mapi
                   (fun j rj ->
                     if not (List.mem rj front_rels) then []
                     else
                       Relation.tuples
                         (exec_subst dp (fun k rel ->
                              if k = j then Some (nm_front rel)
                              else if List.mem rel component then
                                Some (nm_cur rel)
                              else Some (nm_mid rel))))
                   occs)
            in
            let rem = Hashtbl.find remaining dp.Ir.dname in
            readd_of dp
              (Relation.dedup (rel_of_rows ~name:dp.Ir.dname rem derived)))
          dps
      in
      set_cur ();
      frontier := readds
    done
  end;
  (* --- Phase C: insertions. Differentiate input insertions (inputs mix
     new-before/mid-after, component at current), then run the seminaive
     continuation over component deltas with inputs at new values. --- *)
  if has_ins then begin
    List.iter
      (fun (r, _, _, eff) ->
        let pos =
          List.concat_map
            (fun (tp, n) -> List.init (max 0 n) (fun _ -> tp))
            eff
        in
        set_rel (nm_rpos r)
          (rel_of_rows ~name:r (Hashtbl.find_opt remaining r |> function
            | Some x -> x
            | None ->
                (let (_, o, _, _) =
                   List.find (fun (r', _, _, _) -> r' = r) set_changes
                 in
                 o))
            pos))
      set_changes;
    let fresh_of dp derived =
      let n = dp.Ir.dname in
      let cur = Hashtbl.find remaining n in
      let fresh = Relation.minus derived cur in
      if Relation.is_empty fresh then None
      else begin
        Hashtbl.replace remaining n (Relation.dedup (Relation.union cur fresh));
        Some (n, fresh)
      end
    in
    let seeds =
      List.filter_map
        (fun dp ->
          let occs = occurrence_rels_coll all dp.Ir.dplan in
          let derived =
            List.concat
              (List.mapi
                 (fun j rj ->
                   let is_input = List.mem rj input_rels in
                   let has_pos =
                     is_input
                     && List.exists
                          (fun (r, _, _, eff) ->
                            r = rj && List.exists (fun (_, n) -> n > 0) eff)
                          set_changes
                   in
                   if not has_pos then []
                   else
                     Relation.tuples
                       (exec_subst dp (fun k rel ->
                            if List.mem rel component then Some (nm_cur rel)
                            else if k = j then Some (nm_rpos rel)
                            else if k < j then Some (nm_rnew rel)
                            else Some (nm_mid rel))))
                 occs)
          in
          let rem = Hashtbl.find remaining dp.Ir.dname in
          fresh_of dp
            (Relation.dedup (rel_of_rows ~name:dp.Ir.dname rem derived)))
        dps
    in
    set_cur ();
    let frontier = ref seeds in
    while !frontier <> [] && round_ok () do
      List.iter (fun (r, rel) -> set_rel (nm_front r) rel) !frontier;
      let front_rels = List.map fst !frontier in
      let freshes =
        List.filter_map
          (fun dp ->
            let occs = occurrence_rels_coll all dp.Ir.dplan in
            let derived =
              List.concat
                (List.mapi
                   (fun j rj ->
                     if not (List.mem rj front_rels) then []
                     else
                       Relation.tuples
                         (exec_subst dp (fun k rel ->
                              if k = j then Some (nm_front rel)
                              else if List.mem rel component then
                                Some (nm_cur rel)
                              else Some (nm_rnew rel))))
                   occs)
            in
            let rem = Hashtbl.find remaining dp.Ir.dname in
            fresh_of dp
              (Relation.dedup (rel_of_rows ~name:dp.Ir.dname rem derived)))
          dps
      in
      set_cur ();
      frontier := freshes
    done
  end;
  (* Per-definition results and effective deltas. *)
  List.map
    (fun (n, before) ->
      let after = Relation.sort (Hashtbl.find remaining n) in
      (n, before, after, Relation.diff_signed before after))
    orig

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

let classify_coll (plan : Ir.coll_plan) : coll_state =
  match plan with
  | Ir.Fallback { reason; _ } ->
      CFallback { plan; reason = "lowering_fallback:" ^ reason }
  | Ir.Union { head; disjuncts } -> (
      let rec build acc = function
        | [] -> Ok (List.rev acc)
        | d :: rest -> (
            match disjunct_blocker d with
            | Some why -> Error why
            | None ->
                let st =
                  match d with
                  | Ir.Project { input; assigns } -> DProj { assigns; input }
                  | Ir.Aggregate { input; keys; scope_vars; post; assigns }
                    ->
                      let aggs, agg_nodes = agg_subterms assigns post in
                      DAgg
                        {
                          input;
                          keys;
                          scope_vars;
                          post;
                          assigns;
                          aggs;
                          agg_nodes;
                          groups = Key.Tbl.create 64;
                          index = Row_tbl.create 64;
                        }
                in
                build (st :: acc) rest)
      in
      match build [] disjuncts with
      | Ok disjs ->
          CCounting { head; plan; disjs; counts = Delta.create () }
      | Error why -> CFallback { plan; reason = why })

let coll_plan_blocker = function
  | Ir.Fallback { reason; _ } -> Some ("lowering_fallback:" ^ reason)
  | Ir.Union { disjuncts; _ } ->
      List.fold_left
        (fun acc d ->
          match acc with
          | Some _ -> acc
          | None -> (
              match d with
              | Ir.Project { input; _ } -> pipeline_blocker input
              | Ir.Aggregate _ -> Some "aggregate_in_recursion"))
        None disjuncts

let deps_of_coll (c : collection) =
  List.sort_uniq compare (List.map fst (Depend.collection_deps c))

let classify_stratum (s : Ir.stratum) : stratum_state =
  match s with
  | Ir.Nonrecursive dp ->
      SNonrec
        {
          sname = dp.Ir.dname;
          sdeps = deps_of_coll dp.Ir.dcoll;
          cs = classify_coll dp.Ir.dplan;
        }
  | Ir.Recursive dps ->
      let component = List.map (fun dp -> dp.Ir.dname) dps in
      let sdeps =
        List.filter
          (fun n -> not (List.mem n component))
          (List.sort_uniq compare
             (List.concat_map (fun dp -> deps_of_coll dp.Ir.dcoll) dps))
      in
      let blocker =
        if not (Ir.seminaive_eligible component dps) then
          Some "opaque_recursive_reference"
        else
          List.fold_left
            (fun acc dp ->
              match acc with
              | Some _ -> acc
              | None -> coll_plan_blocker dp.Ir.dplan)
            None dps
      in
      SRecursive
        {
          component;
          dps;
          sdeps;
          dred = blocker = None;
          dred_reason = Option.value ~default:"" blocker;
        }

(* ------------------------------------------------------------------ *)
(* Registration                                                        *)
(* ------------------------------------------------------------------ *)

let note_fallback t v reason =
  v.v_fallbacks <- v.v_fallbacks + 1;
  metric_inc t
    ~labels:[ ("view", v.v_name); ("reason", reason) ]
    "arc_ivm_fallbacks_total"

let eval_coll_state ctx conv (cs : coll_state) : Relation.t =
  match cs with
  | CCounting { head; disjs; counts; _ } ->
      seed_counting ctx conv head disjs counts
  | CFallback { plan; _ } -> Relation.sort (Exec.exec_collection ctx plan)

let register t ~name (prog : program) =
  if Arc_core.Analysis.is_reserved_name name then
    fail
      "view name %S is in the engine's reserved namespace (__delta__…, \
       __ivm__…)"
      name;
  if List.exists (fun v -> v.v_name = name) t.tviews then
    fail "a view named %S is already registered" name;
  (match prog.main with
  | Sentence _ -> fail "sentence queries cannot be maintained as views"
  | Coll _ -> ());
  let ctx, _raw, plan, _report =
    Exec.compile ~conv:t.conv ?strategy:t.strategy ~db:t.tdb prog
  in
  let strata = List.map classify_stratum plan.Ir.strata in
  let main_cs, main_deps =
    match (plan.Ir.main, prog.main) with
    | Ir.Main_coll p, Coll c -> (classify_coll p, deps_of_coll c)
    | _ -> fail "sentence queries cannot be maintained as views"
  in
  (* Materialize strata in order, building the initial maintenance
     state; counting collections are seeded from full pipeline runs so
     derivation counts survive collection-level dedup. *)
  let defs = ref [] in
  List.iter
    (fun ss ->
      match ss with
      | SNonrec { sname; cs; _ } ->
          let r = eval_coll_state ctx t.conv cs in
          I.idb_set ctx sname r;
          defs := !defs @ [ (sname, r) ]
      | SRecursive { component; dps; _ } ->
          Exec.exec_stratum_plan ctx (Ir.Recursive dps);
          List.iter
            (fun n ->
              match I.idb_get ctx n with
              | Some r ->
                  let r = Relation.sort r in
                  I.idb_set ctx n r;
                  defs := !defs @ [ (n, r) ]
              | None -> fail "fixpoint left %S unmaterialized" n)
            component)
    strata;
  let result = eval_coll_state ctx t.conv main_cs in
  let def_names = List.map fst !defs in
  let base_deps =
    List.filter
      (fun n -> not (List.mem n def_names))
      (List.sort_uniq compare
         (main_deps
         @ List.concat_map
             (function
               | SNonrec { sdeps; _ } | SRecursive { sdeps; _ } -> sdeps)
             strata))
  in
  List.iter
    (fun r ->
      match Database.find_opt t.tdb r with
      | Some rel -> ignore (base_cache_for t r rel)
      | None -> ())
    base_deps;
  let v =
    {
      v_name = name;
      v_prog = prog;

      v_strata = strata;
      v_main = main_cs;
      v_main_deps = main_deps;
      v_defs = !defs;
      v_result = result;
      v_deps = base_deps;
      v_fallbacks = 0;
    }
  in
  t.tviews <- t.tviews @ [ v ]

(* ------------------------------------------------------------------ *)
(* Batch application                                                   *)
(* ------------------------------------------------------------------ *)

let register_change ctx (name : rel_name) (ch : change) =
  let set = I.idb_set ctx in
  set (nm_old name) ch.ch_old;
  set (nm_new name) ch.ch_new;
  let mk rows = rel_of_rows ~name ch.ch_new rows in
  set (nm_pos name)
    (mk (Delta.expand (List.filter (fun (_, n) -> n > 0) ch.ch_eff)));
  set (nm_neg name)
    (mk
       (Delta.expand
          (List.filter_map
             (fun (tp, n) -> if n < 0 then Some (tp, -n) else None)
             ch.ch_eff)))

let changed_dep changed deps =
  List.exists (fun d -> Hashtbl.mem changed d) deps

(* Maintain one collection-valued definition (or the main collection);
   returns its new visible value plus, on the counting path, the exact
   signed output delta ([None] means the caller must diff). Counting-state
   violations (e.g. a support row that cannot be found after an
   out-of-band change) trigger a counted state rebuild rather than an
   error. *)
let maintain_coll t v ctx (cs : coll_state) changed old_r :
    Relation.t * (Tuple.t * int) list option =
  match cs with
  | CCounting { head; disjs; counts; _ } -> (
      try
        let new_r, eff =
          maintain_counting ctx t.conv head disjs counts changed old_r
        in
        (new_r, Some eff)
      with Ivm_error _ ->
        note_fallback t v "state_rebuild";
        Delta.to_list counts
        |> List.iter (fun (tp, n) -> Delta.add counts tp (-n));
        List.iter
          (function
            | DProj _ -> ()
            | DAgg d ->
                Key.Tbl.reset d.groups;
                Row_tbl.reset d.index)
          disjs;
        (seed_counting ctx t.conv head disjs counts, None))
  | CFallback { plan; reason } ->
      note_fallback t v reason;
      (Relation.sort (Exec.exec_collection ctx plan), None)

let maintain_view t v guard changed_base =
  let t0 = Metrics.now_ns () in
  let fb0 = v.v_fallbacks in
  if not (changed_dep changed_base v.v_deps) then
    {
      vr_view = v.v_name;
      vr_mode = "unchanged";
      vr_out_delta = 0;
      vr_ns = Int64.sub (Metrics.now_ns ()) t0;
      vr_fallbacks = 0;
    }
  else begin
    let ctx, _ =
      I.prepare ~conv:t.conv ?strategy:t.strategy ?guard ~db:t.tdb v.v_prog
    in
    (* Old derived values under their natural names; as strata are
       maintained these are flipped to the new values, so downstream
       fallback recomputation always reads a consistent new database. *)
    List.iter (fun (n, r) -> I.idb_set ctx n r) v.v_defs;
    let changed = Hashtbl.copy changed_base in
    Hashtbl.iter (fun n ch -> register_change ctx n ch) changed;
    let incremental = ref 0 in
    let record_change ?eff n old_r new_r =
      v.v_defs <-
        List.map (fun (n', r) -> if n' = n then (n', new_r) else (n', r))
          v.v_defs;
      I.idb_set ctx n new_r;
      let eff =
        match eff with
        | Some e -> e
        | None -> Relation.diff_signed old_r new_r
      in
      if eff <> [] then begin
        let ch = { ch_old = old_r; ch_new = new_r; ch_eff = eff } in
        Hashtbl.replace changed n ch;
        register_change ctx n ch
      end
    in
    List.iter
      (fun ss ->
        match ss with
        | SNonrec { sname; sdeps; cs } ->
            if changed_dep changed sdeps then begin
              let old_r = List.assoc sname v.v_defs in
              (match cs with CCounting _ -> incr incremental | _ -> ());
              let new_r, eff = maintain_coll t v ctx cs changed old_r in
              record_change ?eff sname old_r new_r
            end
        | SRecursive { component; dps; sdeps; dred; dred_reason } ->
            if changed_dep changed sdeps then
              if dred then begin
                incr incremental;
                let stratum_changes =
                  List.filter_map
                    (fun d ->
                      Option.map (fun ch -> (d, ch))
                        (Hashtbl.find_opt changed d))
                    sdeps
                in
                let results =
                  maintain_dred ctx v.v_defs component dps stratum_changes
                in
                List.iter
                  (fun (n, before, after, _) ->
                    record_change n before after)
                  results
              end
              else begin
                note_fallback t v
                  (if dred_reason = "" then "recursive_fallback"
                   else dred_reason);
                let olds =
                  List.map (fun n -> (n, List.assoc n v.v_defs)) component
                in
                Exec.exec_stratum_plan ctx (Ir.Recursive dps);
                List.iter
                  (fun (n, old_r) ->
                    match I.idb_get ctx n with
                    | Some r -> record_change n old_r (Relation.sort r)
                    | None -> fail "fixpoint left %S unmaterialized" n)
                  olds
              end)
      v.v_strata;
    let out_delta =
      if changed_dep changed v.v_main_deps then begin
        (match v.v_main with CCounting _ -> incr incremental | _ -> ());
        let old_r = v.v_result in
        let new_r, eff = maintain_coll t v ctx v.v_main changed old_r in
        v.v_result <- new_r;
        let eff =
          match eff with
          | Some e -> e
          | None -> Relation.diff_signed old_r new_r
        in
        List.fold_left (fun acc (_, n) -> acc + abs n) 0 eff
      end
      else 0
    in
    let fb = v.v_fallbacks - fb0 in
    let mode =
      if fb = 0 then "incremental"
      else if !incremental = 0 then "fallback"
      else "mixed"
    in
    let ns = Int64.sub (Metrics.now_ns ()) t0 in
    metric_observe t "arc_ivm_view_delta_rows" (float_of_int out_delta);
    metric_observe t "arc_ivm_propagate_ns" (Int64.to_float ns);
    {
      vr_view = v.v_name;
      vr_mode = mode;
      vr_out_delta = out_delta;
      vr_ns = ns;
      vr_fallbacks = fb;
    }
  end

let state_rows t =
  List.fold_left
    (fun acc v ->
      let coll_rows = function
        | CCounting { counts; disjs; _ } ->
            Delta.cardinality counts
            + List.fold_left
                (fun a -> function
                  | DProj _ -> a
                  | DAgg d ->
                      Key.Tbl.fold (fun _ g a -> a + g.g_size) d.groups a)
                0 disjs
        | CFallback _ -> 0
      in
      let strata_rows =
        List.fold_left
          (fun a -> function
            | SNonrec { cs; _ } -> a + coll_rows cs
            | SRecursive _ -> a)
          0 v.v_strata
      in
      acc + strata_rows + coll_rows v.v_main
      + List.fold_left
          (fun a (_, r) -> a + Relation.cardinality r)
          0 v.v_defs
      + Relation.cardinality v.v_result)
    0 t.tviews

let apply ?guard t (batch : batch) =
  (* Merge per-relation entries, then validate the whole batch against
     the current database before mutating anything (the mli promises
     atomicity on error). *)
  let order = ref [] in
  let merged = Hashtbl.create 8 in
  List.iter
    (fun (r, entries) ->
      match Hashtbl.find_opt merged r with
      | Some d -> List.iter (fun (tp, n) -> Delta.add d tp n) entries
      | None ->
          order := r :: !order;
          Hashtbl.add merged r (Delta.of_list entries))
    batch;
  let updates =
    List.rev_map
      (fun r ->
        let d = Hashtbl.find merged r in
        match Database.find_opt t.tdb r with
        | None -> fail "unknown base relation %S" r
        | Some rel -> (
            try (r, rel, Relation.apply_delta rel (Delta.to_list d))
            with Invalid_argument msg -> raise (Ivm_error msg)))
      !order
  in
  (* Commit, then fold each relation's net delta into its cache to get
     the visible-level change without any whole-relation pass. [add]
     drops the replaced relation's planner statistics; re-attach them
     with the row count patched and finer column detail marked stale, so
     subsequent compiles keep a fresh base cardinality without paying a
     full re-ANALYZE per batch. *)
  t.tdb <-
    List.fold_left
      (fun db (r, _, nr) ->
        let prior = Database.stats db r in
        let db = Database.add db r nr in
        match prior with
        | None -> db
        | Some s ->
            Database.set_stats db r
              (Arc_relation.Stats.patch_rows s (Relation.cardinality nr)))
      t.tdb updates;
  let changed_base : (rel_name, change) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (r, old_rel, new_rel) ->
      let bc = base_cache_for t r old_rel in
      let schema = Relation.schema old_rel in
      (* whether every entry moves one distinct row in or out, so the
         visible-level delta is the batch itself *)
      let unit_moves = ref true in
      let veff =
        List.filter_map
          (fun (tp, n) ->
            let tp = Relation.align_to schema tp in
            let k = Tuple.cells tp in
            let old_c =
              Option.value ~default:0 (Key.Tbl.find_opt bc.bc_counts k)
            in
            let new_c = old_c + n in
            if new_c <= 0 then Key.Tbl.remove bc.bc_counts k
            else Key.Tbl.replace bc.bc_counts k new_c;
            if not ((n = 1 && old_c = 0) || (n = -1 && old_c = 1)) then
              unit_moves := false;
            match t.conv.Conventions.collection with
            | Conventions.Bag -> if n = 0 then None else Some (tp, n)
            | Conventions.Set ->
                if old_c = 0 && new_c > 0 then Some (tp, 1)
                else if old_c > 0 && new_c <= 0 then Some (tp, -1)
                else None)
          (Delta.to_list (Hashtbl.find merged r))
      in
      let ch_old = bc.bc_vis in
      (* Under Set, a visible relation that is the base relation itself
         (the base was distinct) stays so after unit moves: the new base
         relation is already the new visible one, with no second pass. *)
      let ch_new =
        match t.conv.Conventions.collection with
        | Conventions.Bag -> new_rel
        | Conventions.Set ->
            if veff = [] then ch_old
            else if ch_old == old_rel && !unit_moves then new_rel
            else Relation.apply_delta ch_old veff
      in
      bc.bc_vis <- ch_new;
      if veff <> [] then
        let ch_eff =
          List.sort (fun (a, _) (b, _) -> Tuple.compare a b) veff
        in
        Hashtbl.replace changed_base r { ch_old; ch_new; ch_eff })
    updates;
  metric_inc t "arc_ivm_batches_total";
  metric_observe t "arc_ivm_batch_delta_rows" (float_of_int (batch_rows batch));
  let reports =
    List.map (fun v -> maintain_view t v guard changed_base) t.tviews
  in
  (* walking every view's state costs O(state), so only when observed *)
  if t.metrics <> None then
    metric_gauge t "arc_ivm_state_rows" (float_of_int (state_rows t));
  reports

(* ------------------------------------------------------------------ *)
(* Differential oracle                                                 *)
(* ------------------------------------------------------------------ *)

let check t =
  List.filter_map
    (fun v ->
      let ctx, _, plan, _ =
        Exec.compile ~conv:t.conv ?strategy:t.strategy ~db:t.tdb v.v_prog
      in
      match Exec.exec_program ctx plan with
      | Eval.Truth _ -> fail "sentence queries cannot be maintained as views"
      | Eval.Rows fresh ->
          let fresh = Relation.sort fresh in
          if Relation.equal_bag v.v_result fresh then None
          else Some (v.v_name, v.v_result, fresh))
    t.tviews

let fallback_total t =
  List.fold_left (fun acc v -> acc + v.v_fallbacks) 0 t.tviews
