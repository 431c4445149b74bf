(* Shared helpers: clocks, order statistics, resident-set readings, the
   scheduling-field filter for payload comparison, and the result line. *)

module J = Sofia.Obs.Json

let now_s () = Sofia.Util.Clock.mono_s ()
let now_ns () = Sofia.Util.Clock.mono_ns ()

(* Time [f ()] in seconds. *)
let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* Nearest-rank percentile over an unsorted array ([p] in 0..100). *)
let percentile p (xs : float array) =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let i = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) i))
  end

let median xs = percentile 50.0 (Array.of_list xs)

let sum = List.fold_left ( +. ) 0.0

(* Peak resident set of a live process, in MB, from /proc ([VmHWM]). *)
let rss_peak_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* Response fields that depend on scheduling, not on the request: two
   correct servings of one request differ only in these. *)
let scheduling_fields = [ "seq"; "completion"; "attempts"; "worker"; "latency_ms"; "ts_unix"; "cached" ]

let strip_scheduling = function
  | J.Obj fields -> J.Obj (List.filter (fun (k, _) -> not (List.mem k scheduling_fields)) fields)
  | j -> j

(* The wire form a correct serving of [req] must have once the
   scheduling fields are removed, from the one-shot executor. *)
let expected_response (req : Sofia.Service.Job.request) =
  let module Job = Sofia.Service.Job in
  strip_scheduling
    (Job.response_to_json
       {
         Job.id = req.Job.id;
         op = Job.op_name req.Job.spec;
         seq = 0;
         completion = 0;
         attempts = 0;
         worker = 0;
         latency_ms = 0.0;
         ts = 0.0;
         status = Sofia.Service.Engine.execute_oneshot req;
       })

(* A failed output check: recorded, printed in the report, and turns the
   run's [correct] flag false. *)
let problems : string list ref = ref []

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then problems := msg :: !problems) fmt

let report fmt = Printf.printf (fmt ^^ "\n%!")

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

(* The result line: the last line of standard output. Values carry all
   their digits. *)
let print_result ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let ms =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num m.value) m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!problems = []) attempted failed (String.concat ", " ms)

(* Every per-layer metric, in report order, with its unit. A traced run
   prints all of them; one whose layer the workload does not exercise
   reads 0 and is listed as not exercised in the report. *)
let per_layer =
  [
    ("cpu.run_s", "s"); ("cpu.fetch_block_us", "us"); ("cpu.exec_ns_per_insn", "ns");
    ("cpu.memo_hit_ratio", "ratio"); ("cpu.engine_hit_ratio", "ratio"); ("cpu.instructions", "count");
    ("cpu.cycles", "count"); ("cpu.blocks_entered", "count"); ("cpu.mac_words_fetched", "count");
    ("crypto.rectangle_ns", "ns"); ("crypto.keystream_ns", "ns"); ("crypto.mac_verify_ns", "ns");
    ("crypto.sponge_absorb_ns", "ns"); ("crypto.words_decrypted", "count"); ("crypto.mac_verifies", "count");
    ("asm.assemble_ms", "ms"); ("cfg.build_ms", "ms"); ("transform.layout_ms", "ms");
    ("transform.encrypt_ms", "ms"); ("transform.serialize_ms", "ms"); ("transform.verify_ms", "ms");
    ("service.parse_us", "us"); ("service.render_us", "us"); ("service.queue_wait_ms", "ms");
    ("service.compute_ms", "ms"); ("service.store_hit_ratio", "ratio"); ("service.queue_depth_max", "count");
    ("fleet.replay_ratio", "ratio"); ("fleet.coalesced", "count"); ("fleet.audits", "count");
    ("fleet.first_p50_ms", "ms"); ("fleet.repeat_p50_ms", "ms"); ("fleet.child_p50_ms", "ms");
    ("fleet.route_us", "us"); ("gc.minor_words_per_insn", "words"); ("gc.major_collections", "count");
    ("trace.spans", "count");
  ]

let complete measured =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> String.equal m.name name) measured with
      | Some m ->
        assert (String.equal m.unit_ unit_);
        m
      | None ->
        report "  %s: not exercised by this workload" name;
        metric name unit_ 0.0)
    per_layer

(* The serving workloads alternate an open-loop round with a closed-loop
   block, [cycles] times, so that both phases sample the whole run. The
   closed loop, which gives the gated throughput and latency, gets two
   thirds of the run; the open loop sends [seconds] x 1/3 x [rate]
   requests in whole rounds. Each closed-loop block is a fixed number of
   whole rounds, sized so that the blocks take the other two thirds of
   the run at [capacity] requests/s (the closed-loop rate at nominal
   host speed): the work, and with it the resident set, does not depend
   on how fast the host ran. *)
let open_share = 1.0 /. 3.0

let cycles ~seconds ~rate ~round_size =
  max 1 (int_of_float (Float.ceil (float_of_int seconds *. open_share *. rate /. float_of_int round_size)))

let closed_rounds ~seconds ~cycles ~capacity ~round_size =
  max 1
    (int_of_float
       (Float.round
          (float_of_int seconds *. (1.0 -. open_share) /. float_of_int cycles *. capacity /. float_of_int round_size)))
