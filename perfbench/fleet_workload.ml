(* fleet-replay: `sofia_cli fleet --stdin --children 2`, fed over one
   pipe. Each round sends, per program and fresh key, the registry
   make-up of protect/verify/attest/simulate twice (see [Gen]), so ten
   requests in fourteen repeat a content key and the router's replay
   cache and in-flight coalescing serve them. The run alternates
   closed-loop blocks of two requests outstanding (the end-to-end
   figures) with open-loop rounds at [offered_rate]/s, each request
   timed from when it was due (report and traced metrics); see
   [Common.cycles]. One thread drives both ends of the pipe through
   select. *)

open Sofia
module J = Obs.Json
module Job = Service.Job

(* About a sixth of the closed-loop capacity on the reference host
   (2 vCPUs). A constant: never derived from a measurement at run time. *)
let offered_rate = 200.0

(* Closed-loop jobs/s at nominal host speed, which sizes the closed-loop
   blocks (see [Common.closed_rounds]). *)
let capacity = 1200.0

(* Fleet spawns whose median is [setup_s]. *)
let setup_spawns = 25

type fleet = {
  pid : int;
  to_fleet : Unix.file_descr;
  from_fleet : Unix.file_descr;
  partial : Buffer.t;
  lines : string Queue.t;
  dir : string;
}

let run_dir = Printf.sprintf ".perfbench/run-%d" (Unix.getpid ())

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o700
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let write_line f line =
  let s = line ^ "\n" in
  let rec go off =
    if off < String.length s then go (off + Unix.write_substring f.to_fleet s off (String.length s - off))
  in
  go 0

(* Wait up to [timeout] seconds for output; queue every complete line.
   Negative [timeout] waits indefinitely. *)
let poll f timeout =
  match Unix.select [ f.from_fleet ] [] [] timeout with
  | [], _, _ -> ()
  | _ ->
    let chunk = Bytes.create 65536 in
    let n = Unix.read f.from_fleet chunk 0 65536 in
    if n = 0 then raise End_of_file;
    for i = 0 to n - 1 do
      let c = Bytes.get chunk i in
      if c = '\n' then begin
        Queue.push (Buffer.contents f.partial) f.lines;
        Buffer.clear f.partial
      end
      else Buffer.add_char f.partial c
    done
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let rec next_line f =
  if Queue.is_empty f.lines then (poll f (-1.0); next_line f) else Queue.pop f.lines

(* Spawn the fleet and wait for its answer to a Ping. *)
let spawn ~cli k =
  let dir = Printf.sprintf "%s/fleet-%d" run_dir k in
  mkdir_p dir;
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile (dir ^ "/stderr") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o600 in
  let argv =
    [| cli; "fleet"; "--stdin"; "--children"; "2"; "--socket-dir"; dir; "--json"; dir ^ "/fleet.json" |]
  in
  let pid = Unix.create_process cli argv in_r out_w err in
  List.iter Unix.close [ in_r; out_w; err ];
  let f = { pid; to_fleet = in_w; from_fleet = out_r; partial = Buffer.create 4096; lines = Queue.create (); dir } in
  write_line f (Gen.ping_line "ping");
  let pong = J.parse (next_line f) in
  Common.check (J.member "status" pong = Some (J.Str "done")) "fleet did not answer its Ping";
  f

(* Close the client end, drain, and reap the fleet; its metrics
   document (written at exit). *)
let stop f =
  Unix.close f.to_fleet;
  (try
     while true do
       poll f (-1.0)
     done
   with End_of_file -> ());
  Unix.close f.from_fleet;
  let _, status = Unix.waitpid [] f.pid in
  Common.check (status = Unix.WEXITED 0) "fleet exited abnormally";
  let doc = try Some (J.parse (In_channel.with_open_bin (f.dir ^ "/fleet.json") In_channel.input_all)) with _ -> None in
  Common.check (doc <> None) "fleet wrote no metrics document";
  doc

type got = { line : string; t_done : int64 }

let id_of line = match J.member "id" (J.parse line) with Some (J.Str s) -> s | _ -> ""

(* Closed loop over [rounds] whole rounds, [outstanding] requests in
   flight. Returns the items sent, the responses, the block's duration
   and each request's latency (ms) from issue to response. *)
let closed_loop f gen ~rounds ~outstanding =
  let t0 = Common.now_s () in
  let pending = ref (List.concat (List.init rounds (fun _ -> Gen.round gen))) in
  let sent = ref [] and in_flight = ref 0 and got = ref [] and lats = ref [] in
  let issued = Hashtbl.create 1024 in
  let rec fill () =
    match !pending with
    | (it : Gen.item) :: rest when !in_flight < outstanding ->
      pending := rest;
      Hashtbl.replace issued it.Gen.req.Job.id (Common.now_ns ());
      write_line f it.Gen.line;
      sent := Gen.sent it :: !sent;
      incr in_flight;
      fill ()
    | _ -> ()
  in
  fill ();
  while !in_flight > 0 do
    let line = next_line f in
    let t_done = Common.now_ns () in
    got := { line; t_done } :: !got;
    lats := (Int64.to_float (Int64.sub t_done (Hashtbl.find issued (id_of line))) *. 1e-6) :: !lats;
    decr in_flight;
    fill ()
  done;
  (List.rev !sent, !got, Common.now_s () -. t0, !lats)

(* One open-loop block: send each of [items] when due at [rate]/s,
   reading responses in between. *)
let open_loop f items ~rate =
  let items = Array.of_list items in
  let n = Array.length items in
  let t0 = Common.now_ns () in
  let due i = Int64.add t0 (Int64.of_float (float_of_int i /. rate *. 1e9)) in
  let got = ref [] and n_got = ref 0 and late = ref [] and i = ref 0 in
  let collect () =
    while not (Queue.is_empty f.lines) do
      got := { line = Queue.pop f.lines; t_done = Common.now_ns () } :: !got;
      incr n_got
    done
  in
  while !n_got < n do
    if !i < n then begin
      let wait = Int64.to_float (Int64.sub (due !i) (Common.now_ns ())) *. 1e-9 in
      if wait > 0.0 then poll f wait
      else begin
        write_line f items.(!i).Gen.line;
        late := (Int64.to_float (Int64.sub (Common.now_ns ()) (due !i)) *. 1e-6) :: !late;
        incr i
      end
    end
    else poll f (-1.0);
    collect ()
  done;
  (Array.to_list (Array.mapi (fun k it -> (Gen.sent it, due k)) items), !got, !late)

let int_field path doc =
  match List.fold_left (fun j k -> Option.bind j (J.member k)) (Some doc) path with
  | Some (J.Int n) -> n
  | _ -> 0

(* Every payload equals Engine.execute_oneshot of the same request, once
   the scheduling fields and the id are set aside; simulate outputs
   equal the program's reference outputs. *)
let check_payloads items got =
  let by_id = Hashtbl.create 4096 in
  List.iter (fun g -> Hashtbl.replace by_id (id_of g.line) g) got;
  let expected = Hashtbl.create 1024 in
  let without_id = function J.Obj fs -> J.Obj (List.remove_assoc "id" fs) | j -> j in
  List.iter
    (fun (it : Gen.item) ->
      let id = it.Gen.req.Job.id in
      let ck = Fleet.Shard.content_key it.Gen.req in
      let want =
        match Hashtbl.find_opt expected ck with
        | Some w -> w
        | None ->
          let w = without_id (Common.expected_response it.Gen.req) in
          (match (it.Gen.op, J.member "outputs" w) with
           | Gen.Simulate, Some (J.List os) ->
             Common.check
               (List.map (function J.Int v -> v | _ -> -1) os = Gen.suite.(it.Gen.program).expected_outputs)
               "%s: one-shot simulate outputs differ from the reference" id
           | Gen.Simulate, _ -> Common.check false "%s: one-shot simulate has no outputs" id
           | _ -> ());
          Hashtbl.replace expected ck w;
          w
      in
      match Hashtbl.find_opt by_id id with
      | None -> Common.check false "%s: no response" id
      | Some g ->
        let j = J.parse g.line in
        Common.check (J.member "status" j = Some (J.Str "done")) "%s: not done" id;
        (* compared in wire form: floats travel with 9 digits *)
        let have = J.to_string (without_id (Common.strip_scheduling j)) in
        Common.check (have = J.to_string want) "%s: payload differs from execute_oneshot: %s" id have)
    items

let workload ~cli ~seed ~seconds ~traced =
  if not (Sys.file_exists cli) then failwith ("no sofia_cli at " ^ cli);
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Fun.protect
    ~finally:(fun () ->
      rm_rf run_dir;
      try Unix.rmdir (Filename.dirname run_dir) with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* set-up: the router and both children spawned and answering a Ping.
     Not scaled by the host's speed: a start is mostly process creation,
     wake-ups and the router's 5-ms connect polls, which the reference
     kernel does not follow (over ten runs the scaled median had a
     quartile spread of 0.21 of the median, the raw one 0.03). *)
  let host = Host.create () in
  let setups =
    List.init setup_spawns (fun k ->
        let f, dt = Common.timed (fun () -> spawn ~cli k) in
        if k < setup_spawns - 1 then ignore (stop f);
        (f, dt))
  in
  let setup_s = Common.median (List.map snd setups) in
  let f = fst (List.nth setups (setup_spawns - 1)) in
  let sp = if traced then Spans.create () else Spans.off in
  let round_size = Gen.round_size `Fleet in
  let cycles = Common.cycles ~seconds ~rate:offered_rate ~round_size in
  let rounds = Common.closed_rounds ~seconds ~cycles ~capacity ~round_size in
  let gen_open = Gen.create `Fleet ~seed ~phase:2 and gen_closed = Gen.create `Fleet ~seed ~phase:1 in
  let blocks =
    List.init cycles (fun _ ->
        Host.sample ~both:true host;
        let o = open_loop f (Gen.round gen_open) ~rate:offered_rate in
        Host.sample ~both:true host;
        let c = closed_loop f gen_closed ~rounds ~outstanding:2 in
        (o, c))
  in
  (* so that samples lie on both sides of every closed-loop block *)
  Host.sample ~both:true host;
  let rss = Common.rss_peak_mb (string_of_int f.pid) in
  let open_items = List.concat_map (fun ((i, _, _), _) -> i) blocks in
  let open_got = List.concat_map (fun ((_, g, _), _) -> g) blocks in
  let late = List.concat_map (fun ((_, _, l), _) -> l) blocks in
  let closed_items = List.concat_map (fun (_, (s, _, _, _)) -> s) blocks in
  let closed_got = List.concat_map (fun (_, (_, g, _, _)) -> g) blocks in
  let closed_s = Common.sum (List.map (fun (_, (_, _, t, _)) -> t) blocks) in
  let closed_lat = Array.of_list (List.concat_map (fun (_, (_, _, _, l)) -> l) blocks) in
  let cp q = Common.percentile q closed_lat in
  let doc = stop f in
  let items = closed_items @ List.map fst open_items in
  let got = closed_got @ open_got in
  let attempted = List.length items in
  let failed =
    List.length (List.filter (fun g -> J.member "status" (J.parse g.line) <> Some (J.Str "done")) got)
  in
  check_payloads items got;
  let doc = Option.value doc ~default:(J.Obj []) in
  let router k = int_field [ "router"; k ] doc in
  Common.check (J.member "router" doc |> Option.map (J.member "conserved") = Some (Some (J.Bool true)))
    "router stats not conserved";
  Common.check (router "received" = attempted + 1) "router received %d lines, %d sent" (router "received") (attempted + 1);
  Common.check (router "replays" > 0) "no replays";
  let due = Hashtbl.create 4096 in
  List.iter (fun ((it : Gen.item), d) -> Hashtbl.replace due it.Gen.req.Job.id (it, d)) open_items;
  let lat_of g =
    let it, d = Hashtbl.find due (id_of g.line) in
    (it, Int64.to_float (Int64.sub g.t_done d) *. 1e-6)
  in
  (* in send order *)
  let lats =
    let by_id = Hashtbl.create 4096 in
    List.iter (fun g -> Hashtbl.replace by_id (id_of g.line) g) open_got;
    List.map (fun ((it : Gen.item), _) -> lat_of (Hashtbl.find by_id it.Gen.req.Job.id)) open_items
  in
  List.iter
    (fun g ->
      let (it : Gen.item), d = Hashtbl.find due (id_of g.line) in
      Spans.add sp ~req:(Hashtbl.hash it.Gen.req.Job.id) "fleet.request" ~start_ns:d ~stop_ns:g.t_done)
    open_got;
  let lat = Array.of_list (List.map snd lats) in
  let p q = Common.percentile q lat in
  let late = Array.of_list late in
  let insns =
    List.fold_left
      (fun a g -> match J.member "instructions" (J.parse g.line) with Some (J.Int n) -> a + n | _ -> a)
      0 closed_got
  in
  Common.report "fleet-replay: %d jobs attempted, %d failed, in %d cycles of one open-loop round and one closed-loop block"
    attempted failed cycles;
  Common.report "  closed loop (2 outstanding): %d jobs in %.2f s" (List.length closed_items) closed_s;
  Common.report "  router: %d replays, %d coalesced, %d audits" (router "replays") (router "coalesced") (router "audits");
  Common.report "  open loop: %d jobs at %.0f/s offered; generator late p50 %.3f ms, max %.3f ms" (List.length open_got)
    offered_rate (Common.percentile 50.0 late) (Common.percentile 100.0 late);
  Common.report "  open-loop latency over %d samples (reference): p50 %.3f ms  p90 %.3f ms  p99 %.3f ms"
    (Array.length lat) (p 50.0) (p 90.0) (p 99.0);
  Common.report "  closed-loop latency over %d samples: p50 %.3f ms  p90 %.3f ms  p99 %.3f ms (reference)"
    (Array.length closed_lat) (cp 50.0) (cp 90.0) (cp 99.0);
  let e2e =
    Host.adjust ~run:host
    [
      Common.metric "setup_s" "s" setup_s;
      Common.metric "minsn_per_s" "Minsn/s" (float_of_int insns /. closed_s /. 1e6);
      Common.metric "jobs_per_s" "1/s" (float_of_int (List.length closed_items) /. closed_s);
      Common.metric "p50_ms" "ms" (cp 50.0);
      Common.metric "p90_ms" "ms" (cp 90.0);
      Common.metric "rss_peak_mb" "MB" rss;
    ]
  in
  let layers =
    if not traced then []
    else begin
      let split first = Array.of_list (List.filter_map (fun ((it : Gen.item), l) -> if it.Gen.first = first then Some l else None) lats) in
      let shard_p50 =
        match J.member "shards" doc with
        | Some (J.List ss) ->
          Common.median (List.filter_map (fun s -> match J.member "p50_ms" s with Some (J.Float x) -> Some x | Some (J.Int x) -> Some (float_of_int x) | _ -> None) ss)
        | _ -> 0.0
      in
      (* the first round's distinct requests, re-issued to single layers *)
      let firsts = List.filter (fun (it : Gen.item) -> it.Gen.first) (List.filteri (fun i _ -> i < Gen.round_size `Fleet) closed_items) in
      let cpu, keys = Serve_workload.reissue sp Cpu.Run_config.{ default with ks_cache_slots = Service.Engine.default_config.Service.Engine.ks_cache_slots } firsts in
      let lines = Array.of_list (List.map (fun (it : Gen.item) -> J.to_string (Job.request_to_json it.Gen.req)) firsts) in
      let reqs = Array.of_list (List.map (fun (it : Gen.item) -> it.Gen.req) firsts) in
      let responses =
        Array.map (fun (r : Job.request) ->
            { Job.id = r.Job.id; op = Job.op_name r.Job.spec; seq = 0; completion = 0; attempts = 1; worker = 0;
              latency_ms = 1.0; ts = 0.0; status = Service.Engine.execute_oneshot r }) reqs
      in
      let pick a i = a.(i mod Array.length a) in
      cpu
      @ Layers.crypto_metrics ~keys
      @ Layers.toolchain_metrics sp
      @ [
          Common.metric "service.parse_us" "us" (Layers.ns_per_call (fun i -> Job.request_of_line (pick lines i)) /. 1e3);
          Common.metric "service.render_us" "us" (Layers.ns_per_call (fun i -> Job.response_to_line (pick responses i)) /. 1e3);
          Common.metric "fleet.replay_ratio" "ratio" (float_of_int (router "replays") /. float_of_int (router "received"));
          Common.metric "fleet.coalesced" "count" (float_of_int (router "coalesced"));
          Common.metric "fleet.audits" "count" (float_of_int (router "audits"));
          Common.metric "fleet.first_p50_ms" "ms" (Common.percentile 50.0 (split true));
          Common.metric "fleet.repeat_p50_ms" "ms" (Common.percentile 50.0 (split false));
          Common.metric "fleet.child_p50_ms" "ms" shard_p50;
          Common.metric "fleet.route_us" "us" (Layers.ns_per_call (fun i -> Fleet.Shard.route ~shards:2 (pick reqs i)) /. 1e3);
          Common.metric "trace.spans" "count" (float_of_int (Spans.length sp));
        ]
    end
  in
  (attempted, failed, e2e, layers)
