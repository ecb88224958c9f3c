(* The [--mode] argument every CLI shares: the converter resolves a name
   of [Sg_harness.Paper.modes] to that list's (name, mode) pair, so no
   command looks the name up again. A mode holds closures, which the
   enum converter's own printer cannot compare, so the pair prints as
   its name. *)

open Cmdliner

let modes = List.map (fun ((name, _) as m) -> (name, m)) Sg_harness.Paper.modes

let conv =
  Arg.conv
    ( Arg.conv_parser (Arg.enum modes),
      fun ppf (name, _) -> Format.pp_print_string ppf name )

let superglue = List.assoc "superglue" modes
let doc = "System configuration: " ^ Arg.doc_alts_enum modes
