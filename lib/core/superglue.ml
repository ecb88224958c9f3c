(* The library's interface: the compiler front end (library
   sg_frontend) under the names the rest of the system uses, and the
   back ends built on it. *)

module Ast = Ast
module Diag = Diag
module Lexer = Lexer
module Parser = Parser
module Model = Model
module Ir = Ir
module Machine = Machine
module Stubplan = Stubplan
module Compiler = Compiler
module Codegen = Codegen
module Templates = Templates
module Interp = Interp
module Stubset = Stubset
