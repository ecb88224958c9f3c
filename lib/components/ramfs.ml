module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Port = Sg_os.Port
module Cbuf = Sg_cbuf.Cbuf
module Storage = Sg_storage.Storage
module Inttbl = Sg_util.Inttbl
module Strtbl = Sg_util.Strtbl

let iface = "fs"
let root_fd = 0

let file_id path = Hashtbl.hash path land 0x3FFFFFFF

type file = { mutable content : Bytes.t; mutable size : int }
type fdrec = { fd_path : string; mutable fd_off : int }

type state = {
  mutable files : file Strtbl.t;
  mutable fds : fdrec Inttbl.t;
  mutable next_fd : int;
}

let ensure_capacity f n =
  if Bytes.length f.content < n then begin
    let grown = Bytes.make (max n (2 * Bytes.length f.content + 64)) '\000' in
    Bytes.blit f.content 0 grown 0 f.size;
    f.content <- grown
  end

(* Restore a file's contents from the storage component's slices (G1). *)
let restore_file st cbufs storage sim fscid path =
  let slices = Storage.slices storage sim ~space:iface ~id:(file_id path) in
  match slices with
  | [] -> None
  | _ ->
      let f = { content = Bytes.create 0; size = 0 } in
      List.iter
        (fun (off, len, cbuf) ->
          match Cbuf.read cbufs ~reader:fscid cbuf ~pos:0 ~len with
          | Ok data ->
              ensure_capacity f (off + len);
              Bytes.blit_string data 0 f.content off len;
              f.size <- max f.size (off + len)
          | Error _ -> ())
        slices;
      Strtbl.replace st.files path f;
      Some f

let path_of_parent st parent name =
  if parent = root_fd then Some ("/" ^ name)
  else
    match Inttbl.find_opt st.fds parent with
    | Some r -> Some (r.fd_path ^ "/" ^ name)
    | None -> None

let dispatch st cbufs storage sim cid fn args =
  match (fn, args) with
  | "tsplit", [ Comp.VInt parent; Comp.VStr name ] -> (
      match path_of_parent st parent name with
      | None -> Error Comp.EINVAL
      | Some path ->
          (match Strtbl.find_opt st.files path with
          | Some _ -> ()
          | None -> (
              (* after a micro-reboot the contents may be recoverable
                 from the storage component *)
              match restore_file st cbufs storage sim cid path with
              | Some _ -> ()
              | None ->
                  Strtbl.replace st.files path
                    { content = Bytes.create 0; size = 0 }));
          let fd = st.next_fd in
          st.next_fd <- fd + 1;
          Inttbl.replace st.fds fd { fd_path = path; fd_off = 0 };
          Ok (Comp.VInt fd))
  | "tread", [ Comp.VInt fd; Comp.VInt len ] -> (
      match Inttbl.find_opt st.fds fd with
      | None -> Error Comp.EINVAL
      | Some r -> (
          match Strtbl.find_opt st.files r.fd_path with
          | None -> Error Comp.ENOENT
          | Some f ->
              let avail = max 0 (f.size - r.fd_off) in
              let n = min len avail in
              let data = Bytes.sub_string f.content r.fd_off n in
              r.fd_off <- r.fd_off + n;
              Ok (Comp.VStr data)))
  | "twrite", [ Comp.VInt fd; Comp.VStr data ] -> (
      match Inttbl.find_opt st.fds fd with
      | None -> Error Comp.EINVAL
      | Some r -> (
          match Strtbl.find_opt st.files r.fd_path with
          | None -> Error Comp.ENOENT
          | Some f ->
              let len = String.length data in
              ensure_capacity f (r.fd_off + len);
              Bytes.blit_string data 0 f.content r.fd_off len;
              f.size <- max f.size (r.fd_off + len);
              (* G1 write-through, inside the critical region that
                 mutates the file (paper §III-C): another thread must
                 never observe file data that a crash could lose *)
              let cb = Cbuf.alloc cbufs sim ~owner:cid ~size:len in
              (match Cbuf.write cbufs sim ~writer:cid cb ~pos:0 data with
              | Ok () -> ()
              | Error _ -> ());
              Storage.put_slice storage sim ~space:iface
                ~id:(file_id r.fd_path) ~off:r.fd_off ~len ~cbuf:cb;
              r.fd_off <- r.fd_off + len;
              Ok (Comp.VInt len)))
  | "tlseek", [ Comp.VInt fd; Comp.VInt off ] -> (
      match Inttbl.find_opt st.fds fd with
      | None -> Error Comp.EINVAL
      | Some r ->
          if off < 0 then Error Comp.EINVAL
          else begin
            r.fd_off <- off;
            Ok (Comp.VInt off)
          end)
  | "trelease", [ Comp.VInt fd ] ->
      if Inttbl.mem st.fds fd then begin
        Inttbl.remove st.fds fd;
        Ok Comp.VUnit
      end
      else Error Comp.EINVAL
  | ("tsplit" | "tread" | "twrite" | "tlseek" | "trelease"), _ ->
      Error Comp.EINVAL
  | _ -> Error Comp.ENOENT

let image_kb = 128

let spec ~cbufs ~storage () =
  let st = { files = Strtbl.create 16; fds = Inttbl.create 4; next_fd = 1 } in
  {
    Sim.sc_name = iface;
    sc_image_kb = image_kb;
    sc_init =
      (fun _ _ ->
        st.files <- Strtbl.create 16;
        st.fds <- Inttbl.create 4;
        st.next_fd <- 1);
    sc_boot_init = (fun _ _ -> ());
    sc_dispatch = (fun sim cid fn args -> dispatch st cbufs storage sim cid fn args);
    sc_reflect = (fun _ _ _ _ -> Error Comp.EINVAL);
    sc_usage = Profiles.fs;
  }

let tsplit port sim ~parent ~name =
  Comp.int_exn (Port.call_exn port sim "tsplit" [ Comp.VInt parent; Comp.VStr name ])

let tread port sim ~fd ~len =
  Comp.str_exn (Port.call_exn port sim "tread" [ Comp.VInt fd; Comp.VInt len ])

let twrite port sim ~fd ~data =
  Comp.int_exn (Port.call_exn port sim "twrite" [ Comp.VInt fd; Comp.VStr data ])

let tlseek port sim ~fd ~off =
  Comp.int_exn (Port.call_exn port sim "tlseek" [ Comp.VInt fd; Comp.VInt off ])

let trelease port sim ~fd =
  Comp.unit_exn (Port.call_exn port sim "trelease" [ Comp.VInt fd ])
