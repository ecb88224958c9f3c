(* Bring your own service: write a component, describe its interface in
   the SuperGlue IDL, and get interface-driven fault recovery for free.

   The service here is a tiny name registry (register/lookup/advance/
   drop). The IDL below is everything SuperGlue needs: the compiler
   derives the descriptor tracking, the state machine, the shortest
   recovery walks, and the client/server stubs.

     dune exec examples/custom_interface.exe
*)

module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Port = Sg_os.Port
module Cstub = Sg_c3.Cstub
module Serverstub = Sg_c3.Serverstub
module Tracker = Sg_c3.Tracker
module Storage = Sg_storage.Storage
module Compiler = Superglue.Compiler
module Interp = Superglue.Interp
module Codegen = Superglue.Codegen
module Machine = Superglue.Machine

(* -------- 1. the declarative interface specification -------- *)

let idl =
  {|
/* a name registry: descriptors are registration handles; the tracked
   data is the registered name and a generation counter that advances
   with each renewal (accumulated from return values). */
service_global_info = {
        desc_has_parent   = solo,
        desc_close_remove = true,
        desc_is_global    = false,
        desc_block        = false,
        desc_has_data     = true,
        resc_has_data     = false,
        desc_table_cap    = 4
};

sm_transition(reg_register, reg_renew);
sm_transition(reg_renew,    reg_renew);
sm_transition(reg_register, reg_drop);
sm_transition(reg_renew,    reg_drop);

sm_creation(reg_register);
sm_terminal(reg_drop);

desc_data_retval(long, handle)
reg_register(desc_data(char *name));
desc_data_accum(long, generation)
reg_renew(desc(long handle));
int reg_drop(desc(long handle));
|}

(* -------- 2. the component implementation -------- *)

type entry = { e_name : string; mutable e_gen : int }

let registry_spec () =
  let table : (int, entry) Hashtbl.t = Hashtbl.create 16 in
  let next = ref 1 in
  {
    Sim.sc_name = "registry";
    sc_image_kb = 40;
    sc_init =
      (fun _ _ ->
        Hashtbl.reset table;
        next := 1);
    sc_boot_init = (fun _ _ -> ());
    sc_dispatch =
      (fun _ _ fn args ->
        match (fn, args) with
        | "reg_register", [ Comp.VStr name ] ->
            let h = !next in
            incr next;
            Hashtbl.replace table h { e_name = name; e_gen = 0 };
            Ok (Comp.VInt h)
        | "reg_renew", [ Comp.VInt h ] -> (
            match Hashtbl.find_opt table h with
            | None -> Error Comp.EINVAL
            | Some e ->
                e.e_gen <- e.e_gen + 1;
                Ok (Comp.VInt 1))
        | "reg_drop", [ Comp.VInt h ] ->
            if Hashtbl.mem table h then begin
              Hashtbl.remove table h;
              Ok Comp.VUnit
            end
            else Error Comp.EINVAL
        | _ -> Error Comp.ENOENT);
    sc_reflect = (fun _ _ _ _ -> Error Comp.EINVAL);
    sc_usage = (fun _ -> None);
  }

(* -------- 3. compile the IDL and wire the stubs -------- *)

let () =
  let artifact = Compiler.compile ~name:"registry" idl in
  Printf.printf "compiled interface 'registry': mechanisms = %s\n"
    (String.concat " " (Compiler.mechanisms artifact));
  List.iter
    (fun st ->
      if st <> "s0" then begin
        let p = Machine.plan artifact.Compiler.a_machine st in
        Printf.printf "  recovery plan for %-22s = %s%s\n" st
          (String.concat " -> " p.Machine.pl_path)
          (match p.Machine.pl_restore with
          | [] -> ""
          | r -> " ; restore " ^ String.concat " " r)
      end)
    (Machine.states artifact.Compiler.a_machine);

  let sim = Sim.create () in
  let cbufs = Sg_cbuf.Cbuf.create () in
  let storage = Storage.create cbufs in
  let app =
    Sim.register sim
      {
        Sim.sc_name = "app";
        sc_image_kb = 16;
        sc_init = (fun _ _ -> ());
        sc_boot_init = (fun _ _ -> ());
        sc_dispatch = (fun _ _ _ _ -> Error Comp.ENOENT);
        sc_reflect = (fun _ _ _ _ -> Error Comp.EINVAL);
        sc_usage = (fun _ -> None);
      }
  in
  let stubs = Interp.stub artifact ~storage () in
  let registry =
    Sim.register sim
      (Serverstub.wrap ~storage stubs.Sg_components.Sysbuild.server (registry_spec ()))
  in
  Sim.grant sim ~client:app ~server:registry;
  let stub =
    Cstub.make sim ~client:app ~server:registry ~flavor:Tracker.Superglue
      (Lazy.force stubs.Sg_components.Sysbuild.client)
  in
  let port = Cstub.port stub in

  (* -------- 4. crash it mid-flight and keep going -------- *)
  let handle = ref 0 in
  let _ =
    Sim.spawn sim ~name:"client" ~home:app (fun sim ->
        handle := Comp.int_exn (Port.call_exn port sim "reg_register" [ Comp.VStr "svc.web" ]);
        for i = 1 to 3 do
          ignore (Port.call_exn port sim "reg_renew" [ Comp.VInt !handle ]);
          Printf.printf "renewed handle %d (round %d)\n" !handle i
        done;
        Printf.printf ">> transient fault: the registry crashes\n";
        Sim.mark_failed sim registry ~detector:"demo";
        (* the stub reboots the service, replays reg_register with the
           tracked name and re-renews up to the tracked generation *)
        ignore (Port.call_exn port sim "reg_renew" [ Comp.VInt !handle ]);
        Printf.printf "renewed again after the crash - recovery was transparent\n";
        ignore (Port.call_exn port sim "reg_drop" [ Comp.VInt !handle ]))
  in
  (match Sim.run sim with
  | Sim.Completed -> ()
  | r -> Format.printf "run ended: %a@." Sim.pp_run_result r);
  Printf.printf "micro-reboots: %d; descriptor walks: %d\n" (Sim.reboots sim)
    (Cstub.recoveries stub);

  (* -------- 5. or emit the stub module as code -------- *)
  let generated = Codegen.emit artifact in
  Printf.printf
    "\nthe compiler also emits the stub module as OCaml: %d LOC generated\n\
     from %d LOC of IDL (see `sgc compile`)\n"
    (Codegen.loc generated) (Codegen.loc idl)
