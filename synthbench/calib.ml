(* A fixed kernel that does not depend on the program: one sequential
   pass over a 32 MB array, then short lists of pairs that die young, as
   the PB solver's allocation does.  The array lives outside the OCaml
   heap and the lists never leave the minor heap, so peak_heap_mb does
   not see the kernel.  Timed right after each measured sample, it tells
   how fast the host ran the process at that moment (see "Stability" in
   NOTES.md). *)

open Bigarray

let ref_s = 0.015
(** About the kernel's time on a 2-core x86-64 container.  Normalised
    samples are reported in seconds at this speed. *)

let stream =
  let a = Array1.create int c_layout (1 lsl 22) in
  Array1.fill a 1;
  a

let work () =
  let s = ref 0 in
  for i = 0 to Array1.dim stream - 1 do
    s := !s + Array1.unsafe_get stream i
  done;
  for i = 1 to 600 do
    let l = List.init 1000 (fun j -> (i, j)) in
    s := List.fold_left (fun a (x, y) -> a + x + y) !s l
  done;
  !s

(* The kernel's time now. *)
let kernel_s () =
  let t0 = Archex_obs.Clock.now () in
  ignore (Sys.opaque_identity (work ()));
  Archex_obs.Clock.elapsed t0

(* A sample of [t] seconds timed just before [k] = [kernel_s ()], in
   seconds at the kernel's reference speed. *)
let normalise (t, k) = t /. k *. ref_s
