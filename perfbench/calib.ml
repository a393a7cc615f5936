(* A machine-speed reference for the timed loop.

   The cores this benchmark runs on may change speed by up to 2× within
   seconds and stay slow or fast for longer than a run (shared hardware:
   CPU time moves with wall time, so it is not preemption). Raw times then
   spread between runs of the same code by far more than the end-to-end
   bounds allow. So the closed loop also times a fixed reference kernel,
   at most every [interval_s] and always just before an operation, and
   every timed operation is reported twice: in milliseconds, and in
   reference units, i.e. divided by the median of the last [window] kernel
   times. The kernel is plain OCaml stdlib code (allocation, polymorphic
   compare, sorting, hashing), independent of the program under test, so a
   change to the program moves the reference units and a change of machine
   speed moves both kernel and operation. *)

let kernel () =
  let a = Array.init 20_000 (fun i -> ((i * 7919) land 65535, string_of_int i)) in
  Array.sort compare a;
  let h = Hashtbl.create 1024 in
  Array.iter (fun (k, s) -> Hashtbl.replace h k s) a;
  Hashtbl.length h

let interval_s = 0.25
let window = 3

let now () = Int64.to_float (Arc_obs.Metrics.now_ns ()) /. 1e9

(* every kernel time of the run, seconds *)
let times = Samples.create ()
let next = ref neg_infinity

(* runs the kernel when [interval_s] has passed since the last run *)
let tick () =
  if now () >= !next then begin
    let t0 = now () in
    ignore (Sys.opaque_identity (kernel ()));
    let t1 = now () in
    Samples.add times (t1 -. t0);
    next := t1 +. interval_s
  end

(* the median of the last [window] kernel times, seconds *)
let current () =
  let n = Samples.count times in
  if n = 0 then invalid_arg "Calib.current: no kernel run yet";
  let last = List.init (min n window) (fun i -> times.a.{n - 1 - i}) in
  List.nth (List.sort compare last) (List.length last / 2)

(* [dt] seconds in reference units *)
let units dt = dt /. current ()

(* The kernel time that defines the reference speed for [setup_s], whose
   unit must be seconds: about a fast phase of a core of the 2-vCPU host
   the bounds were set on. *)
let reference_s = 0.015

(* [dt] seconds as seconds at the reference speed *)
let at_reference dt = units dt *. reference_s
