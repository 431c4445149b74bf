(* sim-warm and sim-cold: every program of the suite protected under
   SOFIA and SCFP and also run on the vanilla core, in whole passes over
   the 33 images. sim-warm runs Run_config.default (fast engine, edge
   memo on); sim-cold turns the edge memo off, so every block entry
   decrypts and MAC-verifies (SOFIA) or absorbs the sponge (SCFP). *)

open Sofia
module Backend_id = Transform.Backend_id
module M = Cpu.Machine

type target = Vanilla of Asm.Program.t | Protected of Crypto.Keys.t * Transform.Image.t

type image = {
  name : string;  (** program/backend *)
  target : target;
  expected : int list;
  mutable stats : M.run_stats option;  (** from the Ref-engine reference run *)
}

let backends = [ Backend_id.Sofia; Backend_id.Scfp ]

(* Device keys and ω for a seed. *)
let keys_of_seed seed =
  let rng = Util.Prng.create ~seed:(Int64.of_int (0x51B0 + seed)) in
  (Util.Prng.next64 rng, 1 + Util.Prng.int_below rng 255)

(* Assemble and protect every image. Traced, the protection goes through
   the toolchain's layers one by one (same images). *)
let build sp ~seed =
  let key_seed, nonce = keys_of_seed seed in
  let keys = Crypto.Keys.generate ~seed:key_seed in
  List.concat
    (List.mapi
       (fun i (w : Workloads.Workload.t) ->
         let protect backend =
           if sp.Spans.on then
             let _, image, _ = Layers.toolchain sp ~req:i ~backend ~keys ~nonce w.source in
             image
           else
             Transform.Transform.protect_exn ~backend ~keys ~nonce (Workloads.Workload.assemble w)
         in
         let image name target = { name = w.name ^ "/" ^ name; target; expected = w.expected_outputs; stats = None } in
         image "vanilla" (Vanilla (Workloads.Workload.assemble w))
         :: List.map
              (fun b -> image (Backend_id.name b) (Protected (keys, protect b)))
              backends)
       (Array.to_list Gen.suite))

let run ?obs config img =
  match img.target with
  | Vanilla p -> Cpu.Vanilla.run ~config ?obs p
  | Protected (keys, image) -> Cpu.Sofia_runner.run ~config ?obs ~keys image

(* Output checks, outside the timed phase: reference outputs and stats
   from one Ref-engine run; under sim-cold, the warm fast engine's stats
   too; and one flipped ciphertext word per protected image must end in
   a reset. *)
let reference_checks ~config images =
  List.iter
    (fun img ->
      let r = run { config with Cpu.Run_config.engine = Cpu.Run_config.Ref } img in
      Common.check (r.M.outputs = img.expected) "%s: Ref-engine outputs differ from the reference" img.name;
      img.stats <- Some r.M.stats;
      if not config.Cpu.Run_config.edge_memo then begin
        let w = run Cpu.Run_config.default img in
        Common.check (w.M.stats = r.M.stats) "%s: cold stats differ from warm stats" img.name
      end;
      match img.target with
      | Vanilla _ -> ()
      | Protected (keys, image) ->
        let base = Cpu.Sofia_runner.block_base ~image image.Transform.Image.entry in
        let address = base + 12 in
        let word = Option.get (Transform.Image.fetch image address) in
        let tampered = Transform.Image.with_tampered_word image ~address ~value:(word lxor 1) in
        let t = Cpu.Sofia_runner.run ~config ~keys tampered in
        Common.check
          (match t.M.outcome with M.Cpu_reset _ -> true | _ -> false)
          "%s: a flipped ciphertext word did not reset the core" img.name)
    images

let workload ~cold ~seed ~seconds ~traced =
  let config = { Cpu.Run_config.default with Cpu.Run_config.edge_memo = not cold } in
  (* set-up: assembling and protecting every image, many times *)
  let setup_host = Host.create () and host = Host.create () in
  let setup_s =
    Common.median
      (List.init 41 (fun k ->
           if k mod 4 = 0 then Host.sample setup_host;
           snd (Common.timed (fun () -> build Spans.off ~seed))))
  in
  let sp = if traced then Spans.create () else Spans.off in
  let images = build sp ~seed in
  reference_checks ~config images;
  (* traced: pipeline counters per image, reset before each run *)
  let counters = List.map (fun img -> (img, Obs.Metrics.create ())) images in
  let attempted = ref 0 and lat = ref [] and passes = ref [] in
  let one_pass () =
    let insns =
      List.fold_left
        (fun acc (img, m) ->
          let obs = if traced then (Obs.Metrics.reset m; Some (Obs.Obs.create ~metrics:m ())) else None in
          let r, dt =
            Common.timed (fun () -> Spans.span sp ~req:!attempted "cpu.run" (fun _ -> run ?obs config img))
          in
          incr attempted;
          Host.sample_every host 0.25;
          lat := dt :: !lat;
          Common.check (r.M.outputs = img.expected) "%s: outputs differ from the reference" img.name;
          Common.check (Some r.M.stats = img.stats) "%s: run_stats differ from the Ref engine's" img.name;
          acc + r.M.stats.M.instructions)
        0 counters
    in
    passes := insns :: !passes
  in
  let t0 = Common.now_s () in
  let (), minor_words, majors =
    Layers.gc_delta (fun () ->
        while Common.now_s () -. t0 < float_of_int seconds do
          one_pass ()
        done)
  in
  (* so that samples lie on both sides of the last runs *)
  Host.sample host;
  let n_images = List.length images in
  (* whole-run rates over the time inside the runs: the host's speed
     drifts over seconds, and a mean over the run follows it less than
     the median pass does *)
  let run_s = Common.sum !lat in
  let n_passes = float_of_int (List.length !passes) in
  let lat = Array.of_list !lat in
  let p q = 1e3 *. Common.percentile q lat in
  let insns = List.hd !passes in
  Common.report "sim-%s: %d passes x %d images, %d runs, %d failed" (if cold then "cold" else "warm")
    (List.length !passes) n_images !attempted 0;
  Common.report "  per-run latency over %d samples: p50 %.3f ms  p90 %.3f ms  p99 %.3f ms (reference)"
    (Array.length lat) (p 50.0) (p 90.0) (p 99.0);
  let e2e =
    Host.adjust ~setup:setup_host ~run:host
    [
      Common.metric "setup_s" "s" setup_s;
      Common.metric "minsn_per_s" "Minsn/s" (n_passes *. float_of_int insns /. run_s /. 1e6);
      Common.metric "jobs_per_s" "1/s" (n_passes *. float_of_int n_images /. run_s);
      Common.metric "p50_ms" "ms" (p 50.0);
      Common.metric "p90_ms" "ms" (p 90.0);
      Common.metric "rss_peak_mb" "MB" (Common.rss_peak_mb "self");
    ]
  in
  (* exact per-pass counts; equal in traced and untraced runs *)
  let stats = List.filter_map (fun img -> img.stats) images in
  let total f = float_of_int (List.fold_left (fun a s -> a + f s) 0 stats) in
  let counts =
    [
      Common.metric "cpu.instructions" "count" (total (fun s -> s.M.instructions));
      Common.metric "cpu.cycles" "count" (total (fun s -> s.M.cycles));
      Common.metric "cpu.blocks_entered" "count" (total (fun s -> s.M.blocks_entered));
      Common.metric "cpu.mac_words_fetched" "count" (total (fun s -> s.M.mac_words_fetched));
    ]
  in
  Common.check (float_of_int insns = (List.hd counts).Common.value) "pass instructions differ from the reference";
  let layers =
    if not traced then []
    else begin
      let cpu_run_s = Spans.total_s sp "cpu.run" /. float_of_int (List.length !passes) in
      let runs =
        List.map
          (fun (img, m) ->
            {
              Layers.stats = Option.get img.stats;
              counters = m;
              protected = (match img.target with Protected (k, i) -> Some (k, i) | Vanilla _ -> None);
              rerun = (fun config obs -> ignore (run ~obs config img));
            })
          counters
      in
      let keys = match (List.nth images 1).target with Protected (k, _) -> k | Vanilla _ -> assert false in
      Layers.cpu_metrics ~config ~run_s:cpu_run_s runs
      @ Layers.crypto_metrics ~keys
      @ Layers.toolchain_metrics sp
      @ [
          Common.metric "gc.minor_words_per_insn" "words" (minor_words /. float_of_int (List.length !passes * insns));
          Common.metric "gc.major_collections" "count" (float_of_int majors);
          Common.metric "trace.spans" "count" (float_of_int (Spans.length sp));
        ]
    end
  in
  if not traced then
    List.iter (fun m -> Common.report "  %s = %.0f %s" m.Common.name m.Common.value m.Common.unit_) counts;
  (!attempted, 0, e2e, layers)

(* Reference figures for the README: Ref-engine cycles and instructions
   of every program under each core. Layouts do not depend on keys, so
   neither do these. *)
let figures () =
  let images = build Spans.off ~seed:1 in
  Common.report "| image | instructions | cycles | blocks entered | MAC words fetched |";
  Common.report "|---|---:|---:|---:|---:|";
  List.iter
    (fun img ->
      let r = run { Cpu.Run_config.default with Cpu.Run_config.engine = Cpu.Run_config.Ref } img in
      let s = r.M.stats in
      Common.report "| %s | %d | %d | %d | %d |" img.name s.M.instructions s.M.cycles s.M.blocks_entered
        s.M.mac_words_fetched)
    images
