module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Sysbuild = Sg_components.Sysbuild
module Lock = Sg_components.Lock
module Event = Sg_components.Event
module Timer = Sg_components.Timer
module Mm = Sg_components.Mm
module Ramfs = Sg_components.Ramfs

type t = {
  ws_http : Comp.cid;
  ws_logger : Comp.cid;
  ws_served : int ref;
  ws_logged : int ref;
  ws_stats_ticks : int ref;
  ws_ready : bool ref;
  ws_stop : bool ref;
  ws_log_evt : int option ref;
  ws_timeline : (int * int) list ref;
}

(* per-request application compute (network stack, parsing, copying)
   outside the system services, calibrated so the fault-free base
   configuration serves about 16 200 requests/second (paper Fig 7) *)
let app_work_ns = 49_000

let index_html = "<html><body>" ^ String.make 1000 'x' ^ "</body></html>"

let strip_leading_slash p =
  if String.length p > 0 && p.[0] = '/' then String.sub p 1 (String.length p - 1)
  else p

(* The request path: parse, serialize on the cache lock, read the
   document through the file system, notify the logger through the
   global event, recycle buffer pages through the memory manager. *)
let make_serve st ~lock_port ~evt_port ~fs_port ~mm_port =
  let lock_id = ref None in
  fun sim req_text ->
    (* per-request application work with small jitter (parsing, copying,
       protocol variance), so repetitions over seeds have real spread *)
    let jitter = Sg_util.Rng.int (Sim.rng sim) (1 + (app_work_ns / 25)) in
    Sim.charge sim (app_work_ns - (app_work_ns / 50) + jitter);
    let response, path =
      match Httpmsg.parse_request req_text with
      | Error _ -> (Httpmsg.not_found, "<malformed>")
      | Ok req ->
          let id =
            match !lock_id with
            | Some id -> id
            | None ->
                let id = Lock.alloc lock_port sim in
                lock_id := Some id;
                id
          in
          Lock.take lock_port sim id;
          let body =
            let name = strip_leading_slash req.Httpmsg.rq_path in
            let name = if name = "" then "index.html" else name in
            let fd = Ramfs.tsplit fs_port sim ~parent:Ramfs.root_fd ~name in
            let data = Ramfs.tread fs_port sim ~fd ~len:4096 in
            Ramfs.trelease fs_port sim ~fd;
            data
          in
          Lock.release lock_port sim id;
          (* asynchronous log notification through the event manager *)
          (match !(st.ws_log_evt) with
          | Some evt -> Event.trigger evt_port sim ~compid:st.ws_http evt
          | None -> ());
          incr st.ws_served;
          (* page recycling through the memory manager *)
          if !(st.ws_served) mod 64 = 0 then begin
            let vaddr = 0x4000_0000 + (4096 * (!(st.ws_served) / 64 mod 8)) in
            Mm.get_page mm_port sim ~vaddr;
            ignore (Mm.release_page mm_port sim ~vaddr)
          end;
          ( (if body = "" then Httpmsg.not_found else Httpmsg.ok ~body),
            req.Httpmsg.rq_path )
    in
    Sim.emit sim
      (Sg_obs.Event.Http
         { cid = st.ws_http; path; status = response.Httpmsg.rs_status });
    Ok (Comp.VStr (Httpmsg.render_response response))

let install sys =
  let sim = sys.Sysbuild.sys_sim in
  let handler = ref (fun _ _ _ _ -> Error Comp.ENOENT) in
  let http =
    Sim.register sim
      {
        (Sysbuild.app_spec "httpd" ~image_kb:48) with
        Sim.sc_dispatch = (fun sim cid fn args -> !handler sim cid fn args);
      }
  in
  let logger = Sim.register sim (Sysbuild.app_spec "weblog" ~image_kb:48) in
  let st =
    {
      ws_http = http;
      ws_logger = logger;
      ws_served = ref 0;
      ws_logged = ref 0;
      ws_stats_ticks = ref 0;
      ws_ready = ref false;
      ws_stop = ref false;
      ws_log_evt = ref None;
      ws_timeline = ref [];
    }
  in
  List.iter
    (fun iface ->
      Sim.grant sim ~client:http ~server:(Sysbuild.cid_of_iface sys iface))
    Sysbuild.boot_order;
  Sim.grant sim ~client:logger ~server:sys.Sysbuild.sys_services.evt;
  let lock_port = sys.Sysbuild.sys_port ~client:http ~iface:"lock" in
  let evt_port = sys.Sysbuild.sys_port ~client:http ~iface:"evt" in
  let fs_port = sys.Sysbuild.sys_port ~client:http ~iface:"fs" in
  let mm_port = sys.Sysbuild.sys_port ~client:http ~iface:"mm" in
  let timer_port = sys.Sysbuild.sys_port ~client:http ~iface:"timer" in
  let logger_evt_port = sys.Sysbuild.sys_port ~client:logger ~iface:"evt" in
  let serve = make_serve st ~lock_port ~evt_port ~fs_port ~mm_port in
  (handler :=
     fun sim _cid fn args ->
       match (fn, args) with
       | "http_get", [ Comp.VStr req_text ] -> serve sim req_text
       | "http_stop", [] ->
           st.ws_stop := true;
           (* nudge the logger out of its wait with a final trigger *)
           (match !(st.ws_log_evt) with
           | Some evt -> Event.trigger evt_port sim ~compid:http evt
           | None -> ());
           Ok Comp.VUnit
       | _ -> Error Comp.EINVAL);
  (* the logger thread owns the (global) log event descriptor *)
  let _ =
    Sim.spawn sim ~prio:5 ~name:"weblogger" ~home:logger (fun sim ->
        let evt =
          Event.split logger_evt_port sim ~compid:logger ~parent:0 ~grp:9
        in
        st.ws_log_evt := Some evt;
        let rec loop () =
          if not !(st.ws_stop) then begin
            Event.wait logger_evt_port sim ~compid:logger evt;
            incr st.ws_logged;
            loop ()
          end
        in
        loop ())
  in
  (* the stats thread ticks on the timer manager *)
  let _ =
    Sim.spawn sim ~prio:5 ~name:"webstats" ~home:http (fun sim ->
        let id = Timer.create timer_port sim ~period_ns:10_000_000 in
        let rec loop () =
          if not !(st.ws_stop) then begin
            ignore (Timer.wait timer_port sim id);
            incr st.ws_stats_ticks;
            st.ws_timeline := (Sim.now sim, !(st.ws_served)) :: !(st.ws_timeline);
            loop ()
          end
        in
        loop ();
        Timer.free timer_port sim id)
  in
  (* seed the document, then open the server *)
  let _ =
    Sim.spawn sim ~prio:5 ~name:"webinit" ~home:http (fun sim ->
        let fd =
          Ramfs.tsplit fs_port sim ~parent:Ramfs.root_fd ~name:"index.html"
        in
        ignore (Ramfs.twrite fs_port sim ~fd ~data:index_html);
        Ramfs.trelease fs_port sim ~fd;
        let rec wait_for_logger () =
          if !(st.ws_log_evt) = None then begin
            Sim.yield sim;
            wait_for_logger ()
          end
        in
        wait_for_logger ();
        st.ws_ready := true)
  in
  st

(* Must be called from within a fiber holding a capability to the http
   component. *)
let stop sys t =
  ignore (Sim.invoke sys.Sysbuild.sys_sim ~server:t.ws_http "http_stop" [])

let wait_ready t sim =
  while not !(t.ws_ready) do
    Sim.yield sim
  done

let crash_rotation sys ~name ~period_ns ~stop ~faults =
  let services = Array.of_list (List.map snd (Sysbuild.services sys)) in
  ignore
    (Sim.spawn sys.Sysbuild.sys_sim ~prio:3 ~name ~home:sys.Sysbuild.sys_app1
       (fun sim ->
         let rec loop i =
           if not (stop ()) then begin
             Sim.sleep_until sim (Sim.now sim + period_ns);
             if not (stop ()) then begin
               Sim.mark_failed sim
                 services.(i mod Array.length services)
                 ~detector:"swifi";
               incr faults;
               loop (i + 1)
             end
           end
         in
         loop 0))
