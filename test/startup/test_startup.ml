(* What a process pays before [main]. Everything the checked-in sources
   determine is derived at build time (the six builtin artifacts are
   linked as static data, the usage profiles are laid out in linear
   time), so initialising every library compiles nothing and allocates
   a pinned, small number of minor words. Both are deterministic: no
   clock is read. *)

(* the first thing this module does: every library has initialised *)
let words_before_main = Gc.minor_words ()
let compilations_at_start = Superglue.Compiler.compilations ()

(* Minor words allocated before [main]: 16659 under dune runtest, which
   runs it with no arguments; 64305 when every process compiled the six
   builtins and sorted the profiles at start. The runtime copies the
   executable's path and arguments into the heap first, so the ceiling
   leaves 64 words for them. *)
let ceiling = 16659. +. 64.

let failures = ref 0

let check what ok =
  Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") what;
  if not ok then incr failures

let () =
  check
    (Printf.sprintf "library initialisation ran the compiler %d times, expected 0"
       compilations_at_start)
    (compilations_at_start = 0);
  List.iter
    (fun name -> ignore (Superglue.Compiler.builtin name))
    Superglue.Compiler.builtin_names;
  let n = Superglue.Compiler.compilations () in
  check
    (Printf.sprintf "obtaining the %d builtins ran the compiler %d times, expected 0"
       (List.length Superglue.Compiler.builtin_names) n)
    (n = 0);
  check
    (Printf.sprintf "%.0f minor words before main, ceiling %.0f" words_before_main ceiling)
    (words_before_main <= ceiling);
  if !failures > 0 then exit 1
