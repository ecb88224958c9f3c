type cid = int

type value =
  | VUnit
  | VBool of bool
  | VInt of int
  | VStr of string
  | VList of value list

type errno = EINVAL | ENOENT | EAGAIN | ENOMEM | EPERM | EFAULT
type 'a outcome = ('a, errno) result

exception Crash of { cid : cid; detector : string }
exception Diverted of { cid : cid }
exception Sys_segfault of { cid : cid }
exception Sys_hang of { cid : cid }
exception Sys_propagated of { cid : cid }

let errno_to_string = function
  | EINVAL -> "EINVAL"
  | ENOENT -> "ENOENT"
  | EAGAIN -> "EAGAIN"
  | ENOMEM -> "ENOMEM"
  | EPERM -> "EPERM"
  | EFAULT -> "EFAULT"

let rec value_to_string = function
  | VUnit -> "()"
  | VBool b -> string_of_bool b
  | VInt i -> string_of_int i
  | VStr s -> Printf.sprintf "%S" s
  | VList vs -> "[" ^ String.concat "; " (List.map value_to_string vs) ^ "]"

let int_exn = function
  | VInt i -> i
  | v -> invalid_arg ("Comp.int_exn: " ^ value_to_string v)

let str_exn = function
  | VStr s -> s
  | v -> invalid_arg ("Comp.str_exn: " ^ value_to_string v)

let bool_exn = function
  | VBool b -> b
  | v -> invalid_arg ("Comp.bool_exn: " ^ value_to_string v)

let unit_exn = function
  | VUnit -> ()
  | v -> invalid_arg ("Comp.unit_exn: " ^ value_to_string v)

let list_exn = function
  | VList vs -> vs
  | v -> invalid_arg ("Comp.list_exn: " ^ value_to_string v)
