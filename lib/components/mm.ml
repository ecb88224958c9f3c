module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Port = Sg_os.Port
module Frames = Sg_kernel.Frames
module Kernel = Sg_kernel.Kernel
module Inttbl = Sg_util.Inttbl

let iface = "mm"
let page_size = 4096

type key = int  (** [Frames.key ~cid ~vaddr] of (component, vaddr) *)

type mrec = {
  m_frame : Frames.frame;
  m_parent : key option;
  mutable m_children : key list;
}

type state = { mutable maps : mrec Inttbl.t }

let frames sim = (Sim.kernel sim).Kernel.frames

let add_child st parent child =
  match Inttbl.find_opt st.maps parent with
  | Some p -> p.m_children <- child :: p.m_children
  | None -> ()

(* Revoke the mapping and its whole subtree: unmap the kernel PTEs, free
   root frames, and drop the manager's records. *)
let rec revoke st sim key =
  match Inttbl.find_opt st.maps key with
  | None -> 0
  | Some r ->
      let n = List.fold_left (fun acc c -> acc + revoke st sim c) 0 r.m_children in
      ignore
        (Frames.unmap (frames sim) ~cid:(Frames.cid_of_key key)
           ~vaddr:(Frames.vaddr_of_key key));
      if r.m_parent = None then Frames.free_frame (frames sim) r.m_frame;
      Inttbl.remove st.maps key;
      n + 1

let dispatch st sim _cid fn args =
  let client = Sim.client_cid sim in
  match (fn, args) with
  | "mman_get_page", [ Comp.VInt vaddr ] -> (
      if vaddr mod page_size <> 0 then Error Comp.EINVAL
      else
        let key = Frames.key ~cid:client ~vaddr in
        if Inttbl.mem st.maps key then Error Comp.EINVAL
        else
          match Frames.lookup (frames sim) ~cid:client ~vaddr with
          | Some frame ->
              (* the PTE survived a micro-reboot: adopt it (reflection on
                 the component-kernel interface) *)
              Inttbl.replace st.maps key
                { m_frame = frame; m_parent = None; m_children = [] };
              Ok (Comp.VInt vaddr)
          | None -> (
              match Frames.alloc_frame (frames sim) with
              | None -> Error Comp.ENOMEM
              | Some frame -> (
                  match Frames.map (frames sim) ~cid:client ~vaddr frame with
                  | Error `Exists -> Error Comp.EINVAL
                  | Ok () ->
                      Inttbl.replace st.maps key
                        { m_frame = frame; m_parent = None; m_children = [] };
                      Ok (Comp.VInt vaddr))))
  | "mman_alias_page", [ Comp.VInt svaddr; Comp.VInt dst; Comp.VInt dvaddr ]
    -> (
      let skey = Frames.key ~cid:client ~vaddr:svaddr
      and dkey = Frames.key ~cid:dst ~vaddr:dvaddr in
      match Inttbl.find_opt st.maps skey with
      | None -> Error Comp.EINVAL  (* source must be recovered first (D1) *)
      | Some src ->
          if Inttbl.mem st.maps dkey then Error Comp.EINVAL
          else begin
            (match Frames.lookup (frames sim) ~cid:dst ~vaddr:dvaddr with
            | Some _ -> ()  (* PTE survived the reboot: adopt *)
            | None ->
                ignore (Frames.map (frames sim) ~cid:dst ~vaddr:dvaddr src.m_frame));
            Inttbl.replace st.maps dkey
              { m_frame = src.m_frame; m_parent = Some skey; m_children = [] };
            add_child st skey dkey;
            Ok (Comp.VInt dvaddr)
          end)
  | "mman_release_page", [ Comp.VInt vaddr ] ->
      let key = Frames.key ~cid:client ~vaddr in
      if not (Inttbl.mem st.maps key) then Error Comp.EINVAL
      else Ok (Comp.VInt (revoke st sim key))
  | ("mman_get_page" | "mman_alias_page" | "mman_release_page"), _ ->
      Error Comp.EINVAL
  | _ -> Error Comp.ENOENT

let reflect sim _cid fn args =
  match (fn, args) with
  | "mappings", [ Comp.VInt cid ] ->
      let ms =
        Frames.mappings_of (frames sim) ~cid
        |> List.map (fun (vaddr, _frame) -> Comp.VInt vaddr)
      in
      Ok (Comp.VList ms)
  | _ -> Error Comp.EINVAL

let image_kb = 96

let spec () =
  let st = { maps = Inttbl.create 4 } in
  {
    Sim.sc_name = iface;
    sc_image_kb = image_kb;
    sc_init = (fun _ _ -> st.maps <- Inttbl.create 4);
    sc_boot_init = (fun _ _ -> ());
    sc_dispatch = (fun sim cid fn args -> dispatch st sim cid fn args);
    sc_reflect = (fun sim cid fn args -> reflect sim cid fn args);
    sc_usage = Profiles.mm;
  }

let get_page port sim ~vaddr =
  ignore (Port.call_exn port sim "mman_get_page" [ Comp.VInt vaddr ])

let alias_page port sim ~svaddr ~dst ~dvaddr =
  ignore
    (Port.call_exn port sim "mman_alias_page"
       [ Comp.VInt svaddr; Comp.VInt dst; Comp.VInt dvaddr ])

let release_page port sim ~vaddr =
  Comp.int_exn (Port.call_exn port sim "mman_release_page" [ Comp.VInt vaddr ])
