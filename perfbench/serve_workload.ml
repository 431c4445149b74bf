(* serve-distinct: an in-process Service.Engine with the default config
   (one worker domain on a two-core host), fed NDJSON lines through
   Job.request_of_line. Every request is a distinct (program, key seed,
   nonce) triple over protect, verify and attest, so every store lookup
   misses and the simulator stays idle.

   The run alternates closed-loop blocks of two requests outstanding
   (jobs_per_s, minsn_per_s, p50_ms, p90_ms) with open-loop rounds at
   [offered_rate] requests per second, evenly spaced, each request timed
   from when it was due to be sent (report and traced metrics); see
   [Common.cycles]. *)

open Sofia
module Engine = Service.Engine
module Job = Service.Job
module M = Cpu.Machine

(* About a seventh of the closed-loop capacity on the reference host
   (2 vCPUs). A constant: never derived from a measurement at run time. *)
let offered_rate = 100.0

(* Closed-loop jobs/s at nominal host speed, which sizes the closed-loop
   blocks (see [Common.closed_rounds]). *)
let capacity = 750.0

type done_ = { resp : Job.response; t_done : int64; render_ns : int64 }

(* Responses arrive on the worker domain; the main thread takes them
   from here. *)
type mailbox = { m : Mutex.t; c : Condition.t; q : done_ Queue.t }

let mailbox () = { m = Mutex.create (); c = Condition.create (); q = Queue.create () }

let post mb d =
  Mutex.lock mb.m;
  Queue.push d mb.q;
  Condition.signal mb.c;
  Mutex.unlock mb.m

let take mb =
  Mutex.lock mb.m;
  while Queue.is_empty mb.q do
    Condition.wait mb.c mb.m
  done;
  let d = Queue.pop mb.q in
  Mutex.unlock mb.m;
  d

let on_response mb (r : Job.response) =
  let t0 = Common.now_ns () in
  (* rendered as wire mode would, then dropped *)
  ignore (Sys.opaque_identity (Job.response_to_line r));
  let t1 = Common.now_ns () in
  post mb { resp = r; t_done = t1; render_ns = Int64.sub t1 t0 }

(* Dispatch times, seen through the config's per-attempt hook. *)
let dispatched : (string, int64) Hashtbl.t = Hashtbl.create 4096
let dispatched_m = Mutex.create ()

let hook (req : Job.request) ~attempt:_ =
  let t = Common.now_ns () in
  Mutex.lock dispatched_m;
  Hashtbl.replace dispatched req.Job.id t;
  Mutex.unlock dispatched_m

let parse sp (it : Gen.item) =
  Spans.span sp ~req:(Hashtbl.hash it.Gen.req.Job.id) "service.parse" (fun _ ->
      match Job.request_of_line it.Gen.line with
      | Ok r -> r
      | Error e -> failwith ("generated request does not parse: " ^ e))

(* Start an engine and wait for its answer to a Ping. *)
let start_engine config =
  let mb = mailbox () in
  let e = Engine.create ~on_response:(on_response mb) config in
  Engine.start e;
  (match Job.request_of_line (Gen.ping_line "ping") with
   | Ok r -> Engine.submit e r
   | Error e -> failwith e);
  let d = take mb in
  Common.check (match d.resp.Job.status with Job.Done (Job.Ponged _) -> true | _ -> false) "ping unanswered";
  (e, mb)

(* Closed loop over [rounds] whole rounds, [outstanding] requests in
   flight. Returns the items sent, the responses, the block's duration
   and each job's latency (ms) from issue to rendered response. *)
let closed_loop sp e mb gen ~rounds ~outstanding =
  let t0 = Common.now_s () in
  let pending = ref (List.concat (List.init rounds (fun _ -> Gen.round gen))) in
  let sent = ref [] and in_flight = ref 0 and got = ref [] and lats = ref [] in
  let issued = Hashtbl.create 1024 in
  let rec fill () =
    match !pending with
    | it :: rest when !in_flight < outstanding ->
      pending := rest;
      Hashtbl.replace issued it.Gen.req.Job.id (Common.now_ns ());
      Engine.submit e (parse sp it);
      sent := Gen.sent it :: !sent;
      incr in_flight;
      fill ()
    | _ -> ()
  in
  fill ();
  while !in_flight > 0 do
    let d = take mb in
    decr in_flight;
    got := d :: !got;
    lats := (Int64.to_float (Int64.sub d.t_done (Hashtbl.find issued d.resp.Job.id)) *. 1e-6) :: !lats;
    fill ()
  done;
  (List.rev !sent, !got, Common.now_s () -. t0, !lats)

(* One open-loop block: [items] at [rate]/s, evenly spaced. Records each
   request's submit time in [submitted]; returns the items with their due
   times, the responses, and the generator's lateness per request. *)
let open_loop sp e mb items ~rate ~submitted =
  let t0 = Common.now_ns () in
  let due i = Int64.add t0 (Int64.of_float (float_of_int i /. rate *. 1e9)) in
  let late = ref [] in
  List.iteri
    (fun i (it : Gen.item) ->
      let d = due i in
      let wait = Int64.to_float (Int64.sub d (Common.now_ns ())) *. 1e-9 in
      if wait > 0.0 then Unix.sleepf wait;
      let req = parse sp it in
      let t = Common.now_ns () in
      Engine.submit e req;
      Hashtbl.replace submitted it.Gen.req.Job.id t;
      late := (Int64.to_float (Int64.sub t d) *. 1e-6) :: !late)
    items;
  let got = List.init (List.length items) (fun _ -> take mb) in
  (List.mapi (fun i it -> (Gen.sent it, due i)) items, got, !late)

(* Instructions each suite program retires on the SOFIA core (they do
   not depend on the keys), from one run per program outside the timed
   phase, checked against the reference outputs. They turn served jobs
   into [minsn_per_s]: no job of this workload simulates. *)
let program_insns () =
  Array.map
    (fun (w : Workloads.Workload.t) ->
      let r = Sofia.Run.sofia (Sofia.Protect.protect_source_exn ~key_seed:1L ~nonce:1 w.source) in
      Common.check (r.M.outputs = w.expected_outputs) "%s: SOFIA outputs differ from the reference" w.name;
      r.M.stats.M.instructions)
    Gen.suite

(* Output checks on every response, and on sampled requests an image
   built through Sofia.Protect directly. *)
let check_responses items got =
  let by_id = Hashtbl.create 4096 in
  List.iter (fun d -> Hashtbl.replace by_id d.resp.Job.id d) got;
  let sampled = Hashtbl.create 32 in
  List.iter
    (fun (it : Gen.item) ->
      let id = it.Gen.req.Job.id in
      match Hashtbl.find_opt by_id id with
      | None -> Common.check false "%s: no response" id
      | Some d -> (
        let w = Gen.suite.(it.Gen.program) in
        match d.resp.Job.status with
        | Job.Done p -> (
          (* the first protect/attest of each program is rebuilt *)
          let sample = not (Hashtbl.mem sampled (it.Gen.program, it.Gen.op)) in
          if sample then Hashtbl.replace sampled (it.Gen.program, it.Gen.op) ();
          let direct () =
            let r = it.Gen.req in
            let p = Sofia.Protect.protect_source_exn ~key_seed:r.Job.key_seed ~nonce:r.Job.nonce w.source in
            let digest = Service.Store.fingerprint (Transform.Binary_format.serialize p.Sofia.Protect.image) in
            let keys = p.Sofia.Protect.keys in
            let mac =
              Printf.sprintf "%016Lx"
                (Crypto.Cbc_mac.mac_words keys.Crypto.Keys.k2
                   (Transform.Image.authenticated_words p.Sofia.Protect.image))
            in
            let run = Sofia.Run.sofia p in
            Common.check (run.M.outputs = w.expected_outputs) "%s: direct image outputs differ" id;
            (digest, mac)
          in
          match p with
          | Job.Protected { digest; _ } ->
            if sample then Common.check (fst (direct ()) = digest) "%s: digest differs from Sofia.Protect" id
          | Job.Verified { issues; _ } -> Common.check (issues = 0) "%s: verify reports %d issues" id issues
          | Job.Attested { digest; mac; issues; _ } ->
            Common.check (issues = 0) "%s: attest reports %d issues" id issues;
            if sample then Common.check (direct () = (digest, mac)) "%s: digest/MAC differ from Sofia.Protect" id
          | _ -> Common.check false "%s: unexpected payload" id)
        | s -> Common.check false "%s: status %s" id (Job.status_name s)))
    items

(* The toolchain and the simulator re-issued on the first round of
   requests: per-request toolchain spans, and one run per simulate
   request with its pipeline counters (no cpu.* metrics when the round
   has no simulate request). Also returns the first request's keys. *)
let reissue sp config (items : Gen.item list) =
  let runs =
    List.filter_map
      (fun (it : Gen.item) ->
        let r = it.Gen.req in
        let keys = Crypto.Keys.generate ~seed:r.Job.key_seed in
        let _, image, _ =
          Layers.toolchain sp ~req:(Hashtbl.hash r.Job.id) ~backend:r.Job.backend ~keys ~nonce:r.Job.nonce
            Gen.suite.(it.Gen.program).source
        in
        if it.Gen.op <> Gen.Simulate then None
        else
          let m = Obs.Metrics.create () in
          let res, dt =
            Common.timed (fun () ->
                Cpu.Sofia_runner.run ~config ~obs:(Obs.Obs.create ~metrics:m ()) ~keys image)
          in
          Some
            ( {
                Layers.stats = res.M.stats;
                counters = m;
                protected = Some (keys, image);
                rerun = (fun config obs -> ignore (Cpu.Sofia_runner.run ~config ~obs ~keys image));
              },
              dt ))
      items
  in
  let run_s = Common.sum (List.map snd runs) in
  ( (if runs = [] then [] else Layers.cpu_metrics ~config ~run_s (List.map fst runs)),
    Crypto.Keys.generate ~seed:(List.hd items).Gen.req.Job.key_seed )

let ms_of_ns x = Int64.to_float x *. 1e-6

(* Engine starts whose median is [setup_s]. *)
let setup_starts = 401

let workload ~seed ~seconds ~traced =
  let config =
    { Engine.default_config with Engine.fault = (if traced then Some hook else None) }
  in
  (* set-up: the engine started and answering a Ping, many times (one
     start takes about 0.1 ms). Not scaled by the host's speed: a start
     is mostly thread creation and wake-ups, which the reference kernel
     does not follow (over ten runs the scaled median spread twice as
     far as the raw one). *)
  let host = Host.create () in
  let setup_s =
    Common.median
      (List.init setup_starts (fun _ ->
           let (e, _), dt = Common.timed (fun () -> start_engine config) in
           Engine.shutdown e;
           dt))
  in
  let insns_of = program_insns () in
  let e, mb = start_engine config in
  let sp = if traced then Spans.create () else Spans.off in
  let round_size = Gen.round_size `Distinct in
  let cycles = Common.cycles ~seconds ~rate:offered_rate ~round_size in
  let rounds = Common.closed_rounds ~seconds ~cycles ~capacity ~round_size in
  let gen_open = Gen.create `Distinct ~seed ~phase:2 and gen_closed = Gen.create `Distinct ~seed ~phase:1 in
  let submitted = Hashtbl.create 4096 in
  let blocks, _, majors =
    Layers.gc_delta (fun () ->
        List.init cycles (fun _ ->
            Host.sample ~both:true host;
            let o = open_loop sp e mb (Gen.round gen_open) ~rate:offered_rate ~submitted in
            Host.sample ~both:true host;
            (o, closed_loop sp e mb gen_closed ~rounds ~outstanding:2)))
  in
  (* so that samples lie on both sides of every closed-loop block *)
  Host.sample ~both:true host;
  let rss = Common.rss_peak_mb "self" in
  Engine.shutdown e;
  let open_items = List.concat_map (fun ((i, _, _), _) -> i) blocks in
  let open_got = List.concat_map (fun ((_, g, _), _) -> g) blocks in
  let late = List.concat_map (fun ((_, _, l), _) -> l) blocks in
  let closed_items = List.concat_map (fun (_, (s, _, _, _)) -> s) blocks in
  let closed_got = List.concat_map (fun (_, (_, g, _, _)) -> g) blocks in
  let closed_s = Common.sum (List.map (fun (_, (_, _, t, _)) -> t) blocks) in
  let closed_lat = Array.of_list (List.concat_map (fun (_, (_, _, _, l)) -> l) blocks) in
  let cp q = Common.percentile q closed_lat in
  let items = closed_items @ List.map fst open_items in
  let got = closed_got @ open_got in
  let attempted = List.length items in
  let failed = List.length (List.filter (fun d -> match d.resp.Job.status with Job.Done _ -> false | _ -> true) got) in
  (* latency from the due time to the rendered response *)
  let done_at = Hashtbl.create 4096 in
  List.iter (fun d -> Hashtbl.replace done_at d.resp.Job.id d.t_done) open_got;
  let lat =
    Array.of_list
      (List.map (fun ((it : Gen.item), due) -> ms_of_ns (Int64.sub (Hashtbl.find done_at it.Gen.req.Job.id) due)) open_items)
  in
  let p q = Common.percentile q lat in
  let late = Array.of_list late in
  let svc = Engine.metrics e and store = Engine.store e in
  check_responses items got;
  (* the set-up Ping is the one submission the generator did not make *)
  Common.check (svc.Service.Svc_metrics.submitted = attempted + 1) "engine saw %d submissions, %d sent"
    svc.Service.Svc_metrics.submitted (attempted + 1);
  Common.check (Service.Svc_metrics.terminal_sum svc = svc.Service.Svc_metrics.submitted) "conservation law broken";
  Common.check (Service.Store.hits store = 0) "store served %d hits on distinct keys" (Service.Store.hits store);
  let insns = List.fold_left (fun a (it : Gen.item) -> a + insns_of.(it.Gen.program)) 0 closed_items in
  Common.report "serve-distinct: %d jobs attempted, %d failed, in %d cycles of one open-loop round and one closed-loop block"
    attempted failed cycles;
  Common.report "  closed loop (2 outstanding): %d jobs in %.2f s" (List.length closed_items) closed_s;
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
      (* queue wait and compute of the open-loop phase, from the hook *)
      let waits, computes =
        List.fold_left
          (fun (w, c) d ->
            let id = d.resp.Job.id in
            match (Hashtbl.find_opt submitted id, Hashtbl.find_opt dispatched id) with
            | Some s, Some t -> (ms_of_ns (Int64.sub t s) :: w, ms_of_ns (Int64.sub d.t_done t) :: c)
            | _ -> (w, c))
          ([], []) open_got
      in
      List.iter (fun d -> Spans.add sp ~req:(Hashtbl.hash d.resp.Job.id) "service.render" ~start_ns:0L ~stop_ns:d.render_ns) got;
      let first_round = List.filteri (fun i _ -> i < Gen.round_size `Distinct) closed_items in
      (* the engine's simulate configuration *)
      let run_config = { Cpu.Run_config.default with Cpu.Run_config.ks_cache_slots = config.Engine.ks_cache_slots } in
      let cpu, keys = reissue sp run_config first_round in
      let mean = function [] -> 0.0 | xs -> Common.sum xs /. float_of_int (List.length xs) in
      let route_us = Layers.ns_per_call (fun i -> Fleet.Shard.route ~shards:2 (List.nth first_round (i mod 16)).Gen.req) /. 1e3 in
      let hits = Service.Store.hits store and misses = Service.Store.misses store in
      cpu
      @ Layers.crypto_metrics ~keys
      @ Layers.toolchain_metrics sp
      @ [
          Common.metric "service.parse_us" "us" (Spans.mean_s sp "service.parse" *. 1e6);
          Common.metric "service.render_us" "us" (Spans.mean_s sp "service.render" *. 1e6);
          Common.metric "service.queue_wait_ms" "ms" (mean waits);
          Common.metric "service.compute_ms" "ms" (mean computes);
          Common.metric "service.store_hit_ratio" "ratio"
            (if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses));
          Common.metric "service.queue_depth_max" "count" (float_of_int (Engine.queue_depth_max e));
          Common.metric "fleet.first_p50_ms" "ms" (p 50.0);
          Common.metric "fleet.route_us" "us" route_us;
          Common.metric "gc.major_collections" "count" (float_of_int majors);
          Common.metric "trace.spans" "count" (float_of_int (Spans.length sp));
        ]
    end
  in
  (attempted, failed, e2e, layers)
