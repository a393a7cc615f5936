(* A growable buffer of float samples. The storage is a Bigarray, outside
   the OCaml heap, so that keeping hundreds of thousands of latencies does
   not show up in the program's measured heap. *)

open Bigarray

type t = { mutable a : (float, float64_elt, c_layout) Array1.t; mutable n : int }

let create () = { a = Array1.create float64 c_layout 1024; n = 0 }

let add s x =
  if s.n = Array1.dim s.a then begin
    let a = Array1.create float64 c_layout (2 * s.n) in
    Array1.blit s.a (Array1.sub a 0 s.n);
    s.a <- a
  end;
  s.a.{s.n} <- x;
  s.n <- s.n + 1

let count s = s.n

let sum s =
  let acc = ref 0. in
  for i = 0 to s.n - 1 do
    acc := !acc +. s.a.{i}
  done;
  !acc

(* linear interpolation between closest ranks; 0 when empty *)
let quantile s q =
  if s.n = 0 then 0.
  else begin
    let a = Array.init s.n (fun i -> s.a.{i}) in
    Array.sort compare a;
    let pos = q *. Float.of_int (s.n - 1) in
    let i = Float.to_int pos in
    let frac = pos -. Float.of_int i in
    if i + 1 >= s.n then a.(i) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
  end

let median s = quantile s 0.5
