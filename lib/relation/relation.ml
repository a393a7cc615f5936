module Value = Arc_value.Value
module Key = Arc_value.Key

(* [distinct] and [set_view] memoize {!dedup}, filled on its first call:
   [distinct] records that [rows] has no duplicates, [set_view] holds the
   deduplicated relation when it does. Rows never change after
   construction, so the memo stays valid for the record's lifetime; every
   operation builds a fresh record through [mk], which starts unknown. *)
type t = {
  name : string option;
  schema : Schema.t;
  rows : Tuple.t list;
  mutable distinct : bool;
  mutable set_view : t option;
}

let mk name schema rows =
  { name; schema; rows; distinct = false; set_view = None }

let make ?name schema rows =
  List.iter
    (fun tp ->
      if not (Schema.equal (Tuple.schema tp) schema) then
        invalid_arg "Relation.make: tuple schema mismatch")
    rows;
  mk name schema rows

let of_rows ?name attrs rows =
  let schema = Schema.make attrs in
  let mk_row vs =
    if List.length vs <> Schema.arity schema then
      invalid_arg "Relation.of_rows: row arity mismatch";
    Tuple.make schema (Array.of_list vs)
  in
  mk name schema (List.map mk_row rows)

let empty ?name attrs = of_rows ?name attrs []

let name t = t.name
let schema t = t.schema
let tuples t = t.rows
let cardinality t = List.length t.rows
let is_empty t = t.rows = []

let dedup t =
  if t.distinct then t
  else
    match t.set_view with
    | Some v -> v
    | None ->
        (* every row has [t.schema], so value keys over the cells in schema
           order group exactly the rows whose canonical keys agree *)
        let seen = Key.Tbl.create 64 in
        let dups = ref false in
        let rows =
          List.filter
            (fun tp ->
              let k = Tuple.cells tp in
              if Key.Tbl.mem seen k then (
                dups := true;
                false)
              else (
                Key.Tbl.add seen k ();
                true))
            t.rows
        in
        if not !dups then begin
          t.distinct <- true;
          t
        end
        else begin
          let v = mk t.name t.schema rows in
          v.distinct <- true;
          t.set_view <- Some v;
          v
        end

let add t tp =
  if not (Schema.equal (Tuple.schema tp) t.schema) then
    invalid_arg "Relation.add: tuple schema mismatch";
  mk t.name t.schema (t.rows @ [ tp ])

let select p t = mk t.name t.schema (List.filter p t.rows)

let project attrs t =
  mk None (Schema.project t.schema attrs)
    (List.map (fun tp -> Tuple.project tp attrs) t.rows)

let rename mapping t =
  let attrs' =
    List.map
      (fun a -> match List.assoc_opt a mapping with Some b -> b | None -> a)
      (Schema.attrs t.schema)
  in
  let schema' = Schema.make attrs' in
  mk None schema' (List.map (fun tp -> Tuple.rename_schema tp schema') t.rows)

let product t1 t2 =
  let schema = Schema.union t1.schema t2.schema in
  mk None schema
    (List.concat_map
       (fun r1 -> List.map (fun r2 -> Tuple.concat r1 r2) t2.rows)
       t1.rows)

(* Reorders a row to [schema]'s attribute order. Rows of one relation
   share its schema, so once aligned their cells line up position by
   position: the value keys of [minus]/[intersect] rely on it, and
   [union]/[apply_delta]/[diff_signed] use it to keep rows in the
   relation's order. *)
let align_to schema tp =
  if Schema.equal (Tuple.schema tp) schema then tp
  else Tuple.project tp (Schema.attrs schema)

let union t1 t2 =
  if not (Schema.equal_names t1.schema t2.schema) then
    invalid_arg "Relation.union: schema mismatch";
  mk None t1.schema (t1.rows @ List.map (align_to t1.schema) t2.rows)

(* [t1]'s rows, in order, whose bag match in [t2] is [matched]: each
   matched row uses up one copy of its counterpart. [t2]'s rows are
   aligned to [t1]'s attribute order first, so positional value keys
   match by attribute name. *)
let filter_counted ~matched t1 t2 =
  let available = Key.Tbl.create 64 in
  List.iter
    (fun tp ->
      let k = Tuple.cells (align_to t1.schema tp) in
      match Key.Tbl.find_opt available k with
      | Some n -> incr n
      | None -> Key.Tbl.add available k (ref 1))
    t2.rows;
  let rows =
    List.filter
      (fun tp ->
        (match Key.Tbl.find_opt available (Tuple.cells tp) with
        | Some n when !n > 0 ->
            decr n;
            true
        | _ -> false)
        = matched)
      t1.rows
  in
  mk None t1.schema rows

let minus t1 t2 =
  if not (Schema.equal_names t1.schema t2.schema) then
    invalid_arg "Relation.minus: schema mismatch";
  filter_counted ~matched:false t1 t2

let intersect t1 t2 =
  if not (Schema.equal_names t1.schema t2.schema) then
    invalid_arg "Relation.intersect: schema mismatch";
  filter_counted ~matched:true t1 t2

(* Signed deltas. [apply_delta] matches deletions on value keys over the
   aligned cells, as [dedup]/[minus]/[intersect] do, so Null matches Null
   and Int 1 matches Float 1.0 under either null-logic convention; that is
   the grouping of [Tuple.key], the canonical serialization
   [diff_signed] tallies on. *)

let apply_delta t (delta : (Tuple.t * int) list) =
  List.iter
    (fun (tp, _) ->
      if not (Schema.equal_names (Tuple.schema tp) t.schema) then
        invalid_arg "Relation.apply_delta: tuple schema mismatch")
    delta;
  let to_remove = Key.Tbl.create 16 in
  let pending = ref 0 in
  let inserts =
    List.concat_map
      (fun (tp, n) ->
        let tp = align_to t.schema tp in
        if n > 0 then List.init n (fun _ -> tp)
        else begin
          if n < 0 then begin
            let k = Tuple.cells tp in
            (match Key.Tbl.find_opt to_remove k with
            | Some r -> r := !r - n
            | None -> Key.Tbl.add to_remove k (ref (-n)));
            pending := !pending - n
          end;
          []
        end)
      delta
  in
  (* One pass: drop the deleted rows, then append the inserts. Once every
     deletion has found its row, the rest is kept without hashing; with no
     inserts, it is shared. *)
  let[@tail_mod_cons] rec keep = function
    | rows when !pending = 0 -> if inserts = [] then rows else rows @ inserts
    | [] -> inserts
    | tp :: rest -> (
        match Key.Tbl.find_opt to_remove (Tuple.cells tp) with
        | Some r when !r > 0 ->
            decr r;
            decr pending;
            keep rest
        | _ -> tp :: keep rest)
  in
  let rows = keep t.rows in
  if !pending > 0 then
    invalid_arg "Relation.apply_delta: delete exceeds multiplicity";
  mk t.name t.schema rows

let diff_signed t_old t_new =
  if not (Schema.equal_names t_old.schema t_new.schema) then
    invalid_arg "Relation.diff_signed: schema mismatch";
  let reps = Hashtbl.create 64 in
  let tally sign rows =
    List.iter
      (fun tp ->
        let tp = align_to t_old.schema tp in
        let k = Tuple.key tp in
        match Hashtbl.find_opt reps k with
        | Some (rep, n) -> Hashtbl.replace reps k (rep, n + sign)
        | None -> Hashtbl.add reps k (tp, sign))
      rows
  in
  tally 1 t_new.rows;
  tally (-1) t_old.rows;
  Hashtbl.fold
    (fun _ (tp, n) acc -> if n = 0 then acc else (tp, n) :: acc)
    reps []
  |> List.sort (fun (a, _) (b, _) -> Tuple.compare a b)

let join t1 t2 =
  let shared =
    List.filter (fun a -> Schema.mem t2.schema a) (Schema.attrs t1.schema)
  in
  let rest2 =
    List.filter (fun a -> not (Schema.mem t1.schema a)) (Schema.attrs t2.schema)
  in
  let schema = Schema.make (Schema.attrs t1.schema @ rest2) in
  let matches r1 r2 =
    List.for_all
      (fun a ->
        let v1 = Tuple.get r1 a and v2 = Tuple.get r2 a in
        (* SQL-style: null never joins *)
        (not (Value.is_null v1)) && (not (Value.is_null v2)) && Value.equal v1 v2)
      shared
  in
  let rows =
    List.concat_map
      (fun r1 ->
        List.filter_map
          (fun r2 ->
            if matches r1 r2 then
              Some
                (Tuple.make schema
                   (Array.of_list
                      (List.map (Tuple.get r1) (Schema.attrs t1.schema)
                      @ List.map (Tuple.get r2) rest2)))
            else None)
          t2.rows)
      t1.rows
  in
  mk None schema rows

let sort t =
  mk t.name t.schema (List.sort Tuple.compare t.rows)

let equal_set t1 t2 =
  Schema.equal_names t1.schema t2.schema
  &&
  let d1 = sort (dedup t1) and d2 = sort (dedup t2) in
  List.length d1.rows = List.length d2.rows
  && List.for_all2 Tuple.equal d1.rows d2.rows

let equal_bag t1 t2 =
  Schema.equal_names t1.schema t2.schema
  &&
  let s1 = sort t1 and s2 = sort t2 in
  List.length s1.rows = List.length s2.rows
  && List.for_all2 Tuple.equal s1.rows s2.rows

let to_table t =
  let attrs = Schema.attrs t.schema in
  let header = attrs in
  let body =
    List.map
      (fun tp -> List.map (fun a -> Value.to_string (Tuple.get tp a)) attrs)
      t.rows
  in
  let ncols = List.length attrs in
  let widths = Array.make (max ncols 1) 0 in
  List.iteri (fun i c -> widths.(i) <- String.length c) header;
  List.iter
    (List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)))
    body;
  let line =
    "+" ^ String.concat "+" (List.mapi (fun i _ -> String.make (widths.(i) + 2) '-') attrs) ^ "+"
  in
  let render_row cells =
    "|"
    ^ String.concat "|"
        (List.mapi
           (fun i c -> Printf.sprintf " %-*s " widths.(i) c)
           cells)
    ^ "|"
  in
  if ncols = 0 then Printf.sprintf "(%d nullary tuple(s))" (List.length t.rows)
  else
    String.concat "\n"
      ([ line; render_row header; line ]
      @ List.map render_row body
      @ [ line; Printf.sprintf "(%d row(s))" (List.length body) ])

let pp fmt t = Format.pp_print_string fmt (to_table t)
