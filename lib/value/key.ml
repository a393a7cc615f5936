open Value

(* The integral floats that [Value.canonical] writes in the integer form. *)
let as_int f = Float.is_integer f && Float.abs f <= 4.0e18

let equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Int x, Float f | Float f, Int x -> as_int f && int_of_float f = x
  | Float x, Float y ->
      if as_int x || as_int y then as_int x && as_int y && x = y
      else if Float.is_nan x then
        (* "%h" prints every NaN as nan or -nan *)
        Float.is_nan y && Float.sign_bit x = Float.sign_bit y
      else Float.equal x y
  | Str x, Str y -> String.equal x y
  | _ -> false

(* Integers mix inline: join and group keys are mostly ints, and this
   avoids a runtime call per row. *)
let hash_int x =
  let x = x * 0x2545F4914F6CDD1D in
  x lxor (x lsr 29)

let hash = function
  | Null -> 0
  | Bool b -> if b then 1 else 2
  | Int x -> hash_int x
  | Float f -> if as_int f then hash_int (int_of_float f) else Hashtbl.hash f
  | Str s -> Hashtbl.hash s

let rec equal_from a b i =
  i = Array.length a || (equal a.(i) b.(i) && equal_from a b (i + 1))

let equal_array a b = Array.length a = Array.length b && equal_from a b 0

let hash_array a =
  let h = ref 0 in
  for i = 0 to Array.length a - 1 do
    h := (!h * 65599) + hash a.(i)
  done;
  !h land max_int

module Tbl = Hashtbl.Make (struct
  type t = Value.t array

  let equal = equal_array
  let hash = hash_array
end)
