open Sg_kernel

let checked = Usage.Read_data Usage.Checked
let returned = Usage.Read_data Usage.Returned
let loop_bound = Usage.Read_data Usage.Loop_bound
let ptr bound_bits = Usage.Read_pointer { bound_bits; escapes = false }
let ptr_escapes bound_bits = Usage.Read_pointer { bound_bits; escapes = true }
let stack red_bits = Usage.Read_stackptr { red_bits }
let w = Usage.Write

let rec repeat n x = if n <= 0 then [] else x :: repeat (n - 1) x

(* The profiles are built when the module loads, not lazily: runs on
   several domains may look up the same profile at once, and two domains
   forcing one lazy value together raise [CamlinternalLazy.Undefined].
   [Usage.cyclic] builds each in time linear in its events. *)

(* Scheduler: short queue operations, deep call chains (wide stack red
   zone), almost every register live; one loop bound over the runqueue. *)
let sched_profile =
  Usage.cyclic ~duration_ns:780 ~stride:60
    [
      (Reg.EAX, [ checked ]);
      (Reg.EBX, [ ptr 17 ]);
      (Reg.ECX, w :: repeat 5 checked);
      (Reg.EDX, loop_bound :: repeat 11 checked);
      (Reg.ESI, [ ptr 17 ]);
      (Reg.EDI, [ checked ]);
      (Reg.ESP, [ stack 14 ]);
      (Reg.EBP, [ stack 14 ]);
    ]

(* Memory manager: pointer-dense mapping-tree walks; two scratch
   registers periodically overwritten; the revocation loop is bounded by
   a subtree count; one computed address escapes on the alias path. *)
let mm_profile =
  Usage.cyclic ~duration_ns:1200 ~stride:40
    [
      (Reg.EAX, [ checked ]);
      (Reg.EBX, [ ptr 18 ]);
      (Reg.ECX, w :: repeat 2 checked);
      (Reg.EDX, [ w; loop_bound ] @ repeat 10 checked);
      (Reg.ESI, ptr_escapes 18 :: repeat 29 (ptr 18));
      (Reg.EDI, [ ptr 18 ]);
      (Reg.ESP, [ stack 9 ]);
      (Reg.EBP, [ stack 9 ]);
    ]

(* RamFS: long data moves through scratch registers; shallow call depth
   so a small stack red zone. *)
let fs_profile =
  Usage.cyclic ~duration_ns:1520 ~stride:80
    [
      (Reg.EAX, [ checked ]);
      (Reg.EBX, [ ptr 19 ]);
      (Reg.ECX, w :: repeat 2 checked);
      (Reg.EDX, w :: repeat 5 checked);
      (Reg.ESI, [ ptr 19 ]);
      (Reg.EDI, [ checked ]);
      (Reg.ESP, [ stack 5 ]);
      (Reg.EBP, [ stack 5 ]);
    ]

(* Lock: the shortest operations of the six; the owner word is returned
   to the caller on the contention path. *)
let lock_profile =
  Usage.cyclic ~duration_ns:440 ~stride:20
    [
      (Reg.EAX, returned :: repeat 21 checked);
      (Reg.EBX, [ ptr 16 ]);
      (Reg.ECX, w :: repeat 2 checked);
      (Reg.EDX, w :: repeat 5 checked);
      (Reg.ESI, [ ptr 16 ]);
      (Reg.EDI, [ checked ]);
      (Reg.ESP, [ stack 9 ]);
      (Reg.EBP, [ stack 9 ]);
    ]

(* Event manager: hash-bucket lookups with scratch churn; the trigger
   count escapes to the caller. *)
let event_profile =
  Usage.cyclic ~duration_ns:840 ~stride:30
    [
      (Reg.EAX, returned :: repeat 27 checked);
      (Reg.EBX, [ ptr 17 ]);
      (Reg.ECX, w :: repeat 2 checked);
      (Reg.EDX, w :: repeat 4 checked);
      (Reg.ESI, [ ptr 17 ]);
      (Reg.EDI, [ checked ]);
      (Reg.ESP, [ stack 4 ]);
      (Reg.EBP, [ stack 4 ]);
    ]

(* Timer manager: wheel arithmetic; moderate stack use, one scratch. *)
let timer_profile =
  Usage.cyclic ~duration_ns:600 ~stride:50
    [
      (Reg.EAX, [ checked ]);
      (Reg.EBX, [ ptr 16 ]);
      (Reg.ECX, w :: repeat 3 checked);
      (Reg.EDX, [ checked ]);
      (Reg.ESI, [ ptr 16 ]);
      (Reg.EDI, [ checked ]);
      (Reg.ESP, [ stack 7 ]);
      (Reg.EBP, [ stack 7 ]);
    ]

(* every invocation dispatches through one of these: no allocation
   ([String.starts_with] allocates a closure per call) *)
let of_prefix profile prefix =
  let some = Some profile and n = String.length prefix in
  let rec from fn i =
    i = n || (String.unsafe_get fn i = String.unsafe_get prefix i && from fn (i + 1))
  in
  fun fn -> if String.length fn >= n && from fn 0 then some else None

let sched = of_prefix sched_profile "sched_"
let mm = of_prefix mm_profile "mman_"
let fs = of_prefix fs_profile "t"
let lock = of_prefix lock_profile "lock_"
let event = of_prefix event_profile "evt_"
let timer = of_prefix timer_profile "timer_"
