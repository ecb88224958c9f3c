(* Tests for the web subsystem: HTTP message handling, the componentized
   server, the ab-style generator, and throughput under fault storms. *)

module Sim = Sg_os.Sim
module Sysbuild = Sg_components.Sysbuild
module Httpmsg = Sg_web.Httpmsg
module Server = Sg_web.Server
module Abench = Sg_web.Abench

let test_request_roundtrip () =
  let text = Httpmsg.render_request ~path:"/a/b.html" in
  match Httpmsg.parse_request text with
  | Ok r ->
      Alcotest.(check string) "method" "GET" r.Httpmsg.rq_method;
      Alcotest.(check string) "path" "/a/b.html" r.Httpmsg.rq_path;
      Alcotest.(check string) "version" "HTTP/1.1" r.Httpmsg.rq_version;
      Alcotest.(check (option string)) "host header" (Some "localhost")
        (List.assoc_opt "host" r.Httpmsg.rq_headers)
  | Error e -> Alcotest.fail e

let test_request_malformed () =
  (match Httpmsg.parse_request "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty request accepted");
  match Httpmsg.parse_request "GEThttp nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed request line accepted"

let test_response_roundtrip () =
  let text = Httpmsg.render_response (Httpmsg.ok ~body:"payload") in
  match Httpmsg.parse_response text with
  | Ok r ->
      Alcotest.(check int) "status" 200 r.Httpmsg.rs_status;
      Alcotest.(check string) "body" "payload" r.Httpmsg.rs_body
  | Error e -> Alcotest.fail e

(* the exact bytes of a rendered response: status line, Content-Length
   first, then the response's own headers, a blank line, the body *)
let test_response_bytes () =
  Alcotest.(check string) "200"
    "HTTP/1.1 200 OK\r\nContent-Length: 7\r\nServer: composite-httpd\r\n\
     Content-Type: text/html\r\n\r\npayload"
    (Httpmsg.render_response (Httpmsg.ok ~body:"payload"));
  Alcotest.(check string) "404"
    "HTTP/1.1 404 Not Found\r\nContent-Length: 16\r\n\
     Server: composite-httpd\r\n\r\n<html>404</html>"
    (Httpmsg.render_response Httpmsg.not_found);
  Alcotest.(check string) "empty body, no headers of its own"
    "HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n"
    (Httpmsg.render_response
       { Httpmsg.rs_status = 204; rs_reason = "No Content"; rs_headers = []; rs_body = "" })

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request paths round-trip" ~count:200
    QCheck.(string_gen_of_size (Gen.int_range 1 40) (Gen.char_range 'a' 'z'))
    (fun path ->
      let text = Httpmsg.render_request ~path:("/" ^ path) in
      match Httpmsg.parse_request text with
      | Ok r -> r.Httpmsg.rq_path = "/" ^ path
      | Error _ -> false)

(* Loadgen reads a response's status with [status_of_response], which
   never splits the body; it must answer what [parse_response] answers,
   including its error, on well-formed responses, truncations of them,
   and arbitrary text heavy in the bytes the status line cares about *)
let gen_response_text =
  let open QCheck.Gen in
  let rendered =
    let* status = oneofl [ 200; 404; 503; 0; -1; 99999 ] in
    let* body = string_size ~gen:printable (int_range 0 60) in
    let text =
      Httpmsg.render_response { (Httpmsg.ok ~body) with Httpmsg.rs_status = status }
    in
    let* cut = int_range 0 (String.length text) in
    oneofl [ text; String.sub text 0 cut ]
  in
  let noisy =
    string_size
      ~gen:
        (oneof
           [ oneofl [ 'H'; 'T'; 'P'; '/'; '1'; '.'; ' '; '\r'; '\n'; '2'; '0' ]; char ])
      (int_range 0 40)
  in
  let prefixed =
    let* tail = noisy in
    oneofl [ "HTTP/1.1 " ^ tail; "HTTP/1.1" ^ tail; "HTTP/1.1 200" ^ tail ]
  in
  oneof [ rendered; noisy; prefixed ]

let prop_status_of_response =
  QCheck.Test.make ~name:"status_of_response agrees with parse_response" ~count:1000
    (QCheck.make ~print:String.escaped gen_response_text)
    (fun text ->
      Httpmsg.status_of_response text
      = Result.map (fun r -> r.Httpmsg.rs_status) (Httpmsg.parse_response text))

(* RFC 9112: status-code = 3DIGIT. Any other spelling [int_of_string]
   accepts (hex, a sign, underscores, more or fewer digits) is a bad
   status, for [status_of_response] and [parse_response] alike *)
let test_status_three_digits () =
  List.iter
    (fun (text, expect) ->
      let line = List.hd (String.split_on_char '\r' text) in
      let expect =
        match expect with Some code -> Ok code | None -> Error ("bad status: " ^ line)
      in
      Alcotest.(check (result int string)) text expect (Httpmsg.status_of_response text);
      Alcotest.(check (result int string))
        ("parse_response " ^ text) expect
        (Result.map (fun r -> r.Httpmsg.rs_status) (Httpmsg.parse_response text)))
    [
      ("HTTP/1.1 200 OK\r\n\r\n", Some 200);
      ("HTTP/1.1 404 Not Found", Some 404);
      ("HTTP/1.1 503", Some 503);
      ("HTTP/1.1 000 Zero", Some 0);
      ("HTTP/1.1 0x1F OK", None);
      ("HTTP/1.1 -5 X", None);
      ("HTTP/1.1 1_000 X", None);
      ("HTTP/1.1 +20 X", None);
      ("HTTP/1.1 20 X", None);
      ("HTTP/1.1 2000 X", None);
      ("HTTP/1.1 2a0 X", None);
      ("HTTP/1.1  200 X", None);
      ("HTTP/1.1 ", None);
    ]

(* [parse_request] and [render_response] as they were when they split
   lines into lists and concatenated strings: the differential
   properties below hold the index-based versions to their results,
   error messages and bytes *)
module List_httpmsg = struct
  let split_lines s =
    String.split_on_char '\n' s
    |> List.map (fun l ->
           let n = String.length l in
           if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l)

  let parse_header line =
    match String.index_opt line ':' with
    | None -> Error ("malformed header: " ^ line)
    | Some i ->
        let key = String.sub line 0 i in
        let v = String.sub line (i + 1) (String.length line - i - 1) in
        Ok (String.lowercase_ascii key, String.trim v)

  let parse_request s =
    match split_lines s with
    | [] | [ "" ] -> Error "empty request"
    | first :: rest -> (
        match String.split_on_char ' ' first with
        | [ m; path; version ] ->
            let rec headers acc = function
              | [] | "" :: _ -> Ok (List.rev acc)
              | line :: rest -> (
                  match parse_header line with
                  | Ok kv -> headers (kv :: acc) rest
                  | Error e -> Error e)
            in
            Result.map
              (fun hs ->
                {
                  Httpmsg.rq_method = m;
                  rq_path = path;
                  rq_version = version;
                  rq_headers = hs;
                })
              (headers [] rest)
        | _ -> Error ("malformed request line: " ^ first))

  let render_response (r : Httpmsg.response) =
    let headers =
      List.fold_right
        (fun (k, v) acc -> k :: ": " :: v :: "\r\n" :: acc)
        (("Content-Length", string_of_int (String.length r.rs_body)) :: r.rs_headers)
        [ "\r\n"; r.rs_body ]
    in
    String.concat ""
      ("HTTP/1.1 " :: string_of_int r.rs_status :: " " :: r.rs_reason :: "\r\n"
     :: headers)
end

(* request texts: rendered requests, lines joined by CRLF or LF at
   random (mixed within one text), headers with and without ':', extra
   and missing spaces, stray '\r' and whitespace around values, empty
   text, and bodies empty or 4 KB after the blank line *)
let gen_request_text =
  let open QCheck.Gen in
  let token = string_size ~gen:(oneofl [ 'a'; 'Z'; '/'; '.'; '-'; '1' ]) (int_range 0 8) in
  let padding = oneofl [ ""; ""; " "; "  "; "\t"; " \r"; "\012" ] in
  let request_line =
    oneof
      [
        map3 (fun m p v -> m ^ " " ^ p ^ " " ^ v) (oneofl [ "GET"; "POST"; "get" ]) token
          (oneofl [ "HTTP/1.1"; "HTTP/1.0" ]);
        map2 (fun a b -> a ^ " " ^ b) token token;
        map3 (fun a b c -> a ^ "  " ^ b ^ " " ^ c) token token token;
        map (fun l -> String.concat " " l) (list_size (int_range 0 5) token);
      ]
  in
  let header =
    frequency
      [
        ( 6,
          let* key = string_size ~gen:(oneofl [ 'H'; 'o'; 's'; 'T'; '-'; 'x' ]) (int_range 0 10) in
          let* pre = padding and* post = padding in
          let* value = string_size ~gen:(oneofl [ 'a'; ' '; ':'; 'B'; '9' ]) (int_range 0 12) in
          return (key ^ ":" ^ pre ^ value ^ post) );
        (1, token);
        (1, return " ");
      ]
  in
  let body = oneof [ return ""; return (String.make 4096 'b'); string_size (int_range 0 40) ] in
  let* first = request_line in
  let* headers = list_size (int_range 0 6) header in
  let* blank = bool in
  let* body = body in
  let lines = (first :: headers) @ if blank then [ ""; body ] else [] in
  let* ends = list_repeat (List.length lines) (oneofl [ "\r\n"; "\n" ]) in
  let* terminated = bool in
  let text =
    String.concat "" (List.map2 (fun l e -> l ^ e) lines ends)
  in
  let text =
    if terminated || text = "" then text
    else String.sub text 0 (String.length text - String.length (List.nth ends (List.length ends - 1)))
  in
  oneof [ return text; return ""; return "\r"; return "\n"; return ("  " ^ text) ]

let prop_parse_request_differential =
  QCheck.Test.make ~name:"parse_request = the line-list parser" ~count:2000
    (QCheck.make ~print:String.escaped gen_request_text)
    (fun text -> Httpmsg.parse_request text = List_httpmsg.parse_request text)

let gen_response =
  let open QCheck.Gen in
  let text = string_size ~gen:printable (int_range 0 16) in
  let* status = oneof [ oneofl [ 200; 404; 503; 0; -1; 99999; max_int; min_int ]; int ] in
  let* reason = text in
  let* headers = list_size (int_range 0 5) (pair text text) in
  let* body = oneof [ return ""; return (String.make 4096 'x'); string_size (int_range 0 300) ] in
  return { Httpmsg.rs_status = status; rs_reason = reason; rs_headers = headers; rs_body = body }

let prop_render_response_differential =
  QCheck.Test.make ~name:"render_response = the concatenating renderer" ~count:1000
    (QCheck.make gen_response)
    (fun r -> String.equal (Httpmsg.render_response r) (List_httpmsg.render_response r))

let run_server mode ~fault_period_ns ~requests =
  let sys = Sysbuild.build mode in
  let server = Server.install sys in
  let r = Abench.run ?fault_period_ns ~requests sys server in
  (sys, server, r)

let test_server_serves () =
  let _, server, r =
    run_server Sysbuild.Base ~fault_period_ns:None ~requests:500
  in
  Alcotest.(check int) "no errors" 0 r.Abench.ab_errors;
  Alcotest.(check int) "all served" 500 !(server.Server.ws_served);
  Alcotest.(check bool) "logger kept up" true (!(server.Server.ws_logged) >= 500);
  Alcotest.(check bool) "throughput positive" true (r.Abench.ab_rps > 0.0)

(* a SWIFI thread that sleeps a non-positive period wakes at once and
   starves the clients below it, so the run refuses such a period *)
let test_abench_period_positive () =
  List.iter
    (fun period ->
      match
        run_server Superglue.Stubset.mode ~fault_period_ns:(Some period)
          ~requests:10
      with
      | _ -> Alcotest.failf "Abench.run accepted fault period %d" period
      | exception Invalid_argument _ -> ())
    [ 0; -1 ]

let test_server_survives_fault_storm () =
  let sys, _, r =
    run_server Superglue.Stubset.mode
      ~fault_period_ns:(Some 3_000_000) ~requests:2_000
  in
  Alcotest.(check int) "no errors despite crashes" 0 r.Abench.ab_errors;
  Alcotest.(check bool) "several crashes injected" true (r.Abench.ab_faults >= 5);
  Alcotest.(check bool) "micro-reboots happened" true
    (Sim.reboots sys.Sysbuild.sys_sim >= r.Abench.ab_faults)

let test_base_dies_under_faults () =
  match
    run_server Sysbuild.Base ~fault_period_ns:(Some 3_000_000) ~requests:2_000
  with
  | _ -> Alcotest.fail "base system should not survive service crashes"
  | exception Failure _ -> ()

let test_stub_modes_cost_more () =
  let rps mode =
    let _, _, r = run_server mode ~fault_period_ns:None ~requests:2_000 in
    r.Abench.ab_rps
  in
  let base = rps Sysbuild.Base in
  let c3 = rps (Sysbuild.Stubbed Sysbuild.c3_stubset) in
  let sg = rps Superglue.Stubset.mode in
  if not (base > c3 && c3 > sg) then
    Alcotest.failf "expected base > c3 > superglue, got %.0f / %.0f / %.0f" base
      c3 sg

let test_apache_reference () =
  let r = Abench.apache_reference ~requests:1000 in
  Alcotest.(check bool) "around the paper's 17600" true
    (r.Abench.ab_rps > 17_000.0 && r.Abench.ab_rps < 18_500.0)

let test_timeline_coalesce () =
  let sys = Sysbuild.build Superglue.Stubset.mode in
  let server = Server.install sys in
  let r = Abench.run ~fault_period_ns:3_000_000 ~requests:3_000 sys server in
  let b0 = Abench.timeline sys server in
  Alcotest.(check bool) "has buckets" true (List.length b0 > 0);
  let bucketed =
    List.fold_left (fun acc b -> acc + b.Abench.b_crashes) 0 b0
  in
  Alcotest.(check bool) "crashes attributed to buckets" true
    (bucketed > 0 && bucketed <= r.Abench.ab_faults);
  (* an equal-timestamp sample pair coalesces to the last (cumulative)
     count — the old pass silently dropped both, skewing the buckets *)
  (match List.rev !(server.Server.ws_timeline) with
  | (t0, _) :: _ ->
      (* stored newest-first: appending puts the stale duplicate
         chronologically before the real first sample *)
      server.Server.ws_timeline := !(server.Server.ws_timeline) @ [ (t0, 0) ]
  | [] -> Alcotest.fail "empty timeline");
  let b1 = Abench.timeline sys server in
  Alcotest.(check bool) "buckets unchanged after coalescing" true (b0 = b1)

(* Far more crashes than the 512-event recovery ring the timeline once
   read its markers from: every crash between the first and the last
   stats sample must show up as one marker. *)
let test_timeline_marks_every_crash () =
  let sys = Sysbuild.build Superglue.Stubset.mode in
  let server = Server.install sys in
  ignore (Abench.run ~fault_period_ns:1_000_000 ~requests:6_000 sys server);
  let samples = List.rev !(server.Server.ws_timeline) in
  let first = fst (List.hd samples) and last = fst (List.hd (List.rev samples)) in
  let crashes =
    List.filter
      (fun (e : Sg_obs.Event.t) ->
        match e.kind with
        | Sg_obs.Event.Crash _ -> e.at_ns >= first && e.at_ns < last
        | _ -> false)
      (Sg_obs.Sink.events (Sim.obs sys.Sysbuild.sys_sim))
  in
  Alcotest.(check bool) "more than 256 crashes" true (List.length crashes > 256);
  let rows =
    match String.split_on_char '\n' (Abench.render_timeline (Abench.timeline sys server)) with
    | _header :: rows -> rows
    | [] -> []
  in
  let markers =
    List.fold_left
      (fun acc row -> acc + List.length (String.split_on_char 'x' row) - 1)
      0 rows
  in
  Alcotest.(check int) "one marker per crash" (List.length crashes) markers

(* ---------- open-loop load generation ---------- *)

module Loadgen = Sg_web.Loadgen
module Reqjoin = Sg_obs.Reqjoin
module Hist = Sg_obs.Hist

let small_cfg =
  { Loadgen.default with Loadgen.lg_requests = 1_500; lg_seed = 11 }

let test_open_loop_fault_free () =
  let o = Loadgen.run_open ~mode:Superglue.Stubset.mode small_cfg in
  let t = o.Loadgen.oc_join in
  Alcotest.(check int) "offered = requests" small_cfg.Loadgen.lg_requests
    t.Reqjoin.tj_offered;
  Alcotest.(check int) "all served" t.Reqjoin.tj_offered t.Reqjoin.tj_served;
  Alcotest.(check int) "no episodes" 0 (List.length t.Reqjoin.tj_episodes);
  Alcotest.(check int) "clean population is everything"
    (Hist.n t.Reqjoin.tj_all)
    (Hist.n t.Reqjoin.tj_clean);
  Alcotest.(check int) "no shadowed requests" 0 (Hist.n t.Reqjoin.tj_shadowed);
  Alcotest.(check int) "no reboots" 0 o.Loadgen.oc_reboots;
  Alcotest.(check bool) "latency is positive" true
    (Hist.percentile t.Reqjoin.tj_all 0.5 > 0)

let test_open_loop_under_faults () =
  let o =
    Loadgen.run_open ~mode:Superglue.Stubset.mode
      ~fault_period_ns:2_000_000 small_cfg
  in
  let t = o.Loadgen.oc_join in
  Alcotest.(check bool) "faults injected" true
    (o.Loadgen.oc_result.Loadgen.lr_faults > 0);
  Alcotest.(check bool) "reboots happened" true (o.Loadgen.oc_reboots > 0);
  Alcotest.(check bool) "episodes stitched" true
    (List.length t.Reqjoin.tj_episodes > 0);
  Alcotest.(check bool) "some requests fault-shadowed" true
    (Hist.n t.Reqjoin.tj_shadowed > 0);
  Alcotest.(check int) "populations partition all"
    (Hist.n t.Reqjoin.tj_all)
    (Hist.n t.Reqjoin.tj_clean + Hist.n t.Reqjoin.tj_shadowed);
  Alcotest.(check int) "outcome counts partition offered" t.Reqjoin.tj_offered
    (t.Reqjoin.tj_served + t.Reqjoin.tj_errors + t.Reqjoin.tj_dropped
   + t.Reqjoin.tj_failed);
  Alcotest.(check bool) "some episode saw requests" true
    (List.exists (fun e -> e.Reqjoin.ei_requests > 0) t.Reqjoin.tj_episodes)

(* [run_open] stitches its episodes as the run emits them, so the span
   end that completes an episode reaches the stitcher even though the
   sink's [Recovery] log does not keep it. *)
let test_open_loop_episodes_complete () =
  let o =
    Loadgen.run_open ~mode:Superglue.Stubset.mode
      ~fault_period_ns:2_000_000 small_cfg
  in
  Alcotest.(check bool) "some episode completed" true
    (List.exists (fun e -> e.Reqjoin.ei_complete) o.Loadgen.oc_join.Reqjoin.tj_episodes)

let test_open_loop_determinism () =
  let periods = [ None; Some 3_000_000 ] in
  let s1 =
    Loadgen.sweep ~jobs:1 ~mode:Superglue.Stubset.mode ~periods small_cfg
  in
  let s2 =
    Loadgen.sweep ~jobs:2 ~mode:Superglue.Stubset.mode ~periods small_cfg
  in
  Alcotest.(check bool) "outcomes identical at -j 1 and -j 2" true (s1 = s2);
  let render os =
    String.concat "\n"
      (List.map (fun o -> Sg_util.Json.to_string (Reqjoin.to_json o.Loadgen.oc_join)) os)
  in
  Alcotest.(check string) "reports byte-identical" (render s1) (render s2)

let test_validate () =
  let rejects name cfg =
    match Loadgen.validate cfg with
    | Ok () -> Alcotest.failf "%s: accepted" name
    | Error _ -> ()
  in
  Alcotest.(check bool) "default accepted" true (Loadgen.validate Loadgen.default = Ok ());
  let poisson rate_rps = { small_cfg with Loadgen.lg_arrival = Loadgen.Poisson { rate_rps } } in
  rejects "rate 0" (poisson 0.0);
  rejects "rate nan" (poisson Float.nan);
  rejects "rate infinity" (poisson Float.infinity);
  rejects "workers 0" { small_cfg with Loadgen.lg_workers = 0 };
  rejects "keepalive 1.5" { small_cfg with Loadgen.lg_keepalive = 1.5 };
  rejects "burst dwell nan"
    {
      small_cfg with
      Loadgen.lg_arrival =
        Loadgen.Bursty
          { base_rps = 1_000.0; burst_rps = 5_000.0; quiet_ms = 10.0; burst_ms = Float.nan };
    };
  match Loadgen.run_open ~mode:Sysbuild.Base (poisson 0.0) with
  | _ -> Alcotest.fail "run accepted rate 0"
  | exception Invalid_argument _ -> ()

let test_loadgen_period_positive () =
  List.iter
    (fun period ->
      match
        Loadgen.run_open ~mode:Superglue.Stubset.mode ~fault_period_ns:period
          small_cfg
      with
      | _ -> Alcotest.failf "Loadgen.run accepted fault period %d" period
      | exception Invalid_argument _ -> ())
    [ 0; -1 ]

(* A faulted open-loop run's stream, written with [Jsonl.dump] and read
   back with [Jsonl.load], joins with [Reqjoin.of_events] to the bytes
   of [Loadgen.run_open]'s own join. The dumped run makes [run_open]'s
   calls one by one on a sink that keeps every event, as [sgtrace dump]
   does; retention does not change the simulation. *)
let test_replayed_join () =
  let sys = Sysbuild.build ~seed:small_cfg.Loadgen.lg_seed Superglue.Stubset.mode in
  let sim = sys.Sysbuild.sys_sim in
  Sg_obs.Sink.set_retention (Sim.obs sim) Sg_obs.Sink.All;
  let server = Server.install sys in
  ignore (Loadgen.run ~fault_period_ns:2_000_000 small_cfg sys server);
  let events = Sg_obs.Sink.events (Sim.obs sim) in
  let live =
    (Loadgen.run_open ~mode:Superglue.Stubset.mode ~fault_period_ns:2_000_000
       small_cfg)
      .Loadgen.oc_join
  in
  let path = Filename.temp_file "replayed_join" ".jsonl" in
  let replayed =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_text path (fun oc -> Sg_obs.Jsonl.dump oc events);
        In_channel.with_open_text path Sg_obs.Jsonl.load)
  in
  Alcotest.(check bool) "some episode completed" true
    (List.exists (fun e -> e.Reqjoin.ei_complete) live.Reqjoin.tj_episodes);
  let render t = Sg_util.Json.to_string (Reqjoin.to_json t) in
  Alcotest.(check string) "replayed join renders the live bytes" (render live)
    (render (Reqjoin.of_events replayed))

(* Minor words per request over the calls one open-loop run makes
   ([Loadgen.run_open]'s, one by one): build, install, 250 Poisson
   requests at 6000 req/s with a fault every ms, live episode stitching
   and the join. Minor words do not depend on host speed; the ceiling
   sits at what the run allocates now. *)
let test_request_budget () =
  let cfg =
    {
      Loadgen.default with
      Loadgen.lg_arrival = Loadgen.Poisson { rate_rps = 6_000.0 };
      lg_requests = 250;
      lg_seed = 7;
    }
  in
  let run () =
    let sys = Sysbuild.build ~seed:cfg.Loadgen.lg_seed Superglue.Stubset.mode in
    let server = Server.install sys in
    let epb = Sg_obs.Episode.builder () in
    Sg_obs.Episode.attach epb (Sim.obs sys.Sysbuild.sys_sim);
    let res = Loadgen.run ~fault_period_ns:1_000_000 cfg sys server in
    Reqjoin.join ~episodes:(Sg_obs.Episode.finish epb) res.Loadgen.lr_reqs
  in
  (* the first run also fills the compiled-interface caches *)
  ignore (run ());
  let before = Gc.minor_words () in
  let join = run () in
  let words = (Gc.minor_words () -. before) /. float_of_int cfg.Loadgen.lg_requests in
  Alcotest.(check int) "every request offered" 250 join.Reqjoin.tj_offered;
  let ceiling = 1114. in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per request, ceiling %.0f" words ceiling)
    true (words <= ceiling)

let prop_interarrival_poisson =
  QCheck.Test.make ~name:"poisson interarrival mean tracks the rate" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rate_rps = 10_000.0 in
      let n = 2_000 in
      let gaps =
        Loadgen.interarrivals (Loadgen.Poisson { rate_rps }) ~seed ~n
      in
      let mean =
        float_of_int (Array.fold_left ( + ) 0 gaps) /. float_of_int n
      in
      let expect = 1e9 /. rate_rps in
      (* the sample mean of 2000 exponential draws is within a few
         percent of the true mean; 20% bounds never flake *)
      mean > 0.8 *. expect && mean < 1.2 *. expect)

let prop_interarrival_bursty =
  QCheck.Test.make ~name:"bursty interarrival mean between the state rates"
    ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let base_rps = 5_000.0 and burst_rps = 50_000.0 in
      let n = 2_000 in
      let gaps =
        Loadgen.interarrivals
          (Loadgen.Bursty { base_rps; burst_rps; quiet_ms = 10.0; burst_ms = 5.0 })
          ~seed ~n
      in
      let mean =
        float_of_int (Array.fold_left ( + ) 0 gaps) /. float_of_int n
      in
      Array.for_all (fun g -> g >= 1) gaps
      && mean < 1.2 *. (1e9 /. base_rps)
      && mean > 0.8 *. (1e9 /. burst_rps))

let () =
  Alcotest.run "sg_web"
    [
      ( "httpmsg",
        [
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_request_malformed;
          Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
          Alcotest.test_case "response bytes" `Quick test_response_bytes;
          QCheck_alcotest.to_alcotest prop_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_status_of_response;
          Alcotest.test_case "status code is three digits" `Quick
            test_status_three_digits;
          QCheck_alcotest.to_alcotest prop_parse_request_differential;
          QCheck_alcotest.to_alcotest prop_render_response_differential;
        ] );
      ( "server",
        [
          Alcotest.test_case "serves requests" `Quick test_server_serves;
          Alcotest.test_case "survives fault storm" `Quick test_server_survives_fault_storm;
          Alcotest.test_case "base dies under faults" `Quick test_base_dies_under_faults;
          Alcotest.test_case "stub cost ordering" `Quick test_stub_modes_cost_more;
          Alcotest.test_case "apache reference" `Quick test_apache_reference;
          Alcotest.test_case "rejects a non-positive fault period" `Quick
            test_abench_period_positive;
          Alcotest.test_case "timeline coalesces equal timestamps" `Quick
            test_timeline_coalesce;
          Alcotest.test_case "timeline marks every crash" `Quick
            test_timeline_marks_every_crash;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "fault-free open loop" `Quick
            test_open_loop_fault_free;
          Alcotest.test_case "tail attribution under faults" `Quick
            test_open_loop_under_faults;
          Alcotest.test_case "sweep deterministic across jobs" `Quick
            test_open_loop_determinism;
          Alcotest.test_case "validate rejects bad configs" `Quick test_validate;
          Alcotest.test_case "rejects a non-positive fault period" `Quick
            test_loadgen_period_positive;
          Alcotest.test_case "faulted run completes episodes" `Quick
            test_open_loop_episodes_complete;
          Alcotest.test_case "replayed stream joins to the live bytes" `Quick
            test_replayed_join;
          Alcotest.test_case "allocation budget per request" `Quick test_request_budget;
          QCheck_alcotest.to_alcotest prop_interarrival_poisson;
          QCheck_alcotest.to_alcotest prop_interarrival_bursty;
        ] );
    ]
