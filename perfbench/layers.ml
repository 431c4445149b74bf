(* Calls into single layers, re-issued with a workload's own inputs.

   Where one public call hides several layers (Transform.protect runs the
   CFG build, the layout and the encryption; Sofia_runner.run fetches and
   executes), the traced run calls each layer's own public function on
   the same inputs and takes self time by subtraction. *)

open Sofia
module Backend_id = Transform.Backend_id

(* Assemble, lay out, encrypt, serialise and verify one program as the
   toolchain would, one span per layer under a [toolchain] parent. *)
let toolchain sp ~req ~backend ~keys ~nonce source =
  Spans.span sp ~req "toolchain" (fun parent ->
      let span name f = Spans.span sp ~parent ~req name (fun _ -> f ()) in
      let program = span "asm.assemble" (fun () -> Asm.Assembler.assemble source) in
      (* Layout.layout builds the CFG itself; the separate build gives
         the CFG's share of the layout span *)
      ignore (span "cfg.build" (fun () -> Cfg.Cfg.build program));
      let layout = span "transform.layout" (fun () -> Transform.Layout.layout_exn ~backend program) in
      let image =
        span "transform.encrypt" (fun () ->
            match backend with
            | Backend_id.Sofia -> Transform.Transform.encrypt_layout ~keys ~nonce layout
            | Backend_id.Scfp -> Transform.Transform.scfp_encrypt_layout ~keys ~nonce layout)
      in
      ignore (span "transform.serialize" (fun () -> Transform.Binary_format.serialize image));
      let b = Protection.Registry.find backend in
      let issues =
        span "transform.verify" (fun () ->
            b.Protection.Backend.verify_against_source ~keys program image)
      in
      (program, image, issues))

let ms x = x *. 1e3

(* Per-request toolchain metrics, in ms, from the spans [toolchain]
   recorded. The layout span includes the CFG build, so its self time
   is the difference of the two means. *)
let toolchain_metrics sp =
  let m name = ms (Spans.mean_s sp name) in
  [
    Common.metric "asm.assemble_ms" "ms" (m "asm.assemble");
    Common.metric "cfg.build_ms" "ms" (m "cfg.build");
    Common.metric "transform.layout_ms" "ms" (m "transform.layout" -. m "cfg.build");
    Common.metric "transform.encrypt_ms" "ms" (m "transform.encrypt");
    Common.metric "transform.serialize_ms" "ms" (m "transform.serialize");
    Common.metric "transform.verify_ms" "ms" (m "transform.verify");
  ]

(* Nanoseconds per call of [f i], over at least [min_s] seconds. *)
let ns_per_call ?(min_s = 0.05) f =
  let calls = ref 0 in
  let t0 = Common.now_s () in
  let elapsed () = Common.now_s () -. t0 in
  while elapsed () < min_s do
    for i = 1 to 1000 do
      ignore (Sys.opaque_identity (f (!calls + i)))
    done;
    calls := !calls + 1000
  done;
  elapsed () *. 1e9 /. float_of_int !calls

(* The four crypto primitives on the fetch path, timed on [keys]. *)
let crypto_metrics ~(keys : Crypto.Keys.t) =
  let words = [| 0x11; 0x2233; 0x445566; 0x778899AA; 0x0BADF00D; 0x13579BDF |] in
  let m1, m2 = Crypto.Cbc_mac.split_tag (Crypto.Cbc_mac.mac_words keys.Crypto.Keys.k2 words) in
  [
    Common.metric "crypto.rectangle_ns" "ns"
      (ns_per_call (fun i -> Crypto.Rectangle.encrypt keys.Crypto.Keys.k1 (Int64.of_int i)));
    Common.metric "crypto.keystream_ns" "ns"
      (ns_per_call (fun i ->
           Crypto.Ctr.keystream32 keys.Crypto.Keys.k1 ~nonce:1
             ~prev_pc:(4 * (i land 0xFFFF))
             ~pc:(4 * ((i + 1) land 0xFFFF))));
    Common.metric "crypto.mac_verify_ns" "ns"
      (ns_per_call (fun i ->
           words.(0) <- i land 0xFF;
           Crypto.Cbc_mac.verify_words keys.Crypto.Keys.k2 words ~m1 ~m2));
    Common.metric "crypto.sponge_absorb_ns" "ns"
      (ns_per_call (fun i -> Crypto.Sponge.absorb (Int64.of_int i) i));
  ]

(* The edges one run of [image] enters, with how often it enters each:
   a second run with a trace ring large enough to keep every event. *)
let entered_edges ~config ~keys image =
  let trace = Obs.Trace.create ~capacity:(1 lsl 21) () in
  ignore (Cpu.Sofia_runner.run ~config ~obs:(Obs.Obs.create ~trace ()) ~keys image);
  let edges = Hashtbl.create 256 in
  Obs.Trace.iteri trace (fun _ -> function
    | Obs.Event.Block_fetch { target; prev_pc } ->
      let n = Option.value ~default:0 (Hashtbl.find_opt edges (target, prev_pc)) in
      Hashtbl.replace edges (target, prev_pc) (n + 1)
    | _ -> ());
  (edges, Obs.Trace.dropped trace)

(* Mean seconds per [Sofia_runner.fetch_block] call over [edges]:
   [`Distinct] weighs each edge once (a memoising frontend decrypts each
   edge once), [`Entered] by how often the run entered it (a cold
   frontend decrypts on every entry). *)
let fetch_block_s ~keys image edges =
  let sweeps = 5 in
  let per_edge =
    Hashtbl.fold
      (fun (target, prev_pc) n acc ->
        let t0 = Common.now_s () in
        for _ = 1 to sweeps do
          ignore (Sys.opaque_identity (Cpu.Sofia_runner.fetch_block ~keys ~image ~target ~prev_pc))
        done;
        ((Common.now_s () -. t0) /. float_of_int sweeps, n) :: acc)
      edges []
  in
  let mean weigh =
    let w = List.fold_left (fun a (_, n) -> a +. weigh n) 0.0 per_edge in
    if w = 0.0 then 0.0 else List.fold_left (fun a (t, n) -> a +. (t *. weigh n)) 0.0 per_edge /. w
  in
  function `Distinct -> mean (fun _ -> 1.0) | `Entered -> mean float_of_int

(* One image the cpu.* metrics cover: the stats and pipeline counters of
   its run with the workload's config, its keys and image if protected,
   and a way to run it again under another config. *)
type image_run = {
  stats : Cpu.Machine.run_stats;
  counters : Obs.Metrics.t;
  protected : (Crypto.Keys.t * Transform.Image.t) option;
  rerun : Cpu.Run_config.t -> Obs.Obs.t -> unit;
}

(* The cpu.* metrics and the crypto counts of a set of runs. [run_s] is
   the host time inside the runs.

   [cpu.fetch_block_us] replays the public [fetch_block] over the edges
   each run entered. In a run the fast engine fetches for less (on an
   engine hit it reuses the pre-decoded body instead of decoding), so
   the in-run fetch cost behind [cpu.exec_ns_per_insn] is derived
   apart: each protected image runs once with the edge memo on and once
   with it off, back to back, and the time difference over the
   difference in decrypting fetches (memo misses with the memo on,
   every block fetch with it off) is its cost per fetch. Execution is
   the run time minus decrypting fetches x that cost. *)
let cpu_metrics ~config ~run_s runs =
  let module Mt = Obs.Metrics in
  let module M = Cpu.Machine in
  let memo = config.Cpu.Run_config.edge_memo in
  let decrypting memo (m : Mt.t) = if memo then m.Mt.memo_misses else m.Mt.block_fetches in
  let replay_s, replayed =
    List.fold_left
      (fun (s, n) r ->
        match r.protected with
        | None -> (s, n)
        | Some (keys, image) ->
          let edges, dropped = entered_edges ~config ~keys image in
          Common.check (dropped = 0) "trace ring dropped %d events" dropped;
          let per = fetch_block_s ~keys image edges in
          let k = decrypting memo r.counters in
          (s +. (float_of_int k *. per (if memo then `Distinct else `Entered)), n + k))
      (0.0, 0) runs
  in
  let timed_run cfg r =
    let m = Mt.create () in
    let (), dt = Common.timed (fun () -> r.rerun cfg (Obs.Obs.create ~metrics:m ())) in
    (dt, decrypting cfg.Cpu.Run_config.edge_memo m)
  in
  let other = { config with Cpu.Run_config.edge_memo = not memo } in
  let attributed_s, fetch_s =
    List.fold_left
      (fun (t, f) r ->
        let t_cfg, f_cfg = timed_run config r in
        match r.protected with
        | None -> (t +. t_cfg, f)
        | Some _ ->
          let t_oth, f_oth = timed_run other r in
          let per = if f_cfg = f_oth then 0.0 else (t_cfg -. t_oth) /. float_of_int (f_cfg - f_oth) in
          (t +. t_cfg, f +. (float_of_int f_cfg *. Float.max 0.0 per)))
      (0.0, 0.0) runs
  in
  let sum f = List.fold_left (fun a r -> a + f r.stats r.counters) 0 runs in
  let count name f = Common.metric name "count" (float_of_int (sum f)) in
  let ratio name hits misses =
    let h = sum hits and m = sum misses in
    Common.metric name "ratio" (if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m))
  in
  let insns = sum (fun st _ -> st.M.instructions) in
  [
    Common.metric "cpu.run_s" "s" run_s;
    Common.metric "cpu.fetch_block_us" "us" (if replayed = 0 then 0.0 else replay_s /. float_of_int replayed *. 1e6);
    Common.metric "cpu.exec_ns_per_insn" "ns"
      (if insns = 0 then 0.0 else (attributed_s -. fetch_s) /. float_of_int insns *. 1e9);
    ratio "cpu.memo_hit_ratio" (fun _ m -> m.Mt.memo_hits) (fun _ m -> m.Mt.memo_misses);
    ratio "cpu.engine_hit_ratio" (fun _ m -> m.Mt.engine_hits) (fun _ m -> m.Mt.engine_misses);
    count "cpu.instructions" (fun st _ -> st.M.instructions);
    count "cpu.cycles" (fun st _ -> st.M.cycles);
    count "cpu.blocks_entered" (fun st _ -> st.M.blocks_entered);
    count "cpu.mac_words_fetched" (fun st _ -> st.M.mac_words_fetched);
    count "crypto.words_decrypted" (fun _ m -> m.Mt.words_decrypted);
    count "crypto.mac_verifies" (fun _ m -> m.Mt.mac_verifies);
  ]

(* Allocation and collection counts around [f ()]. *)
let gc_delta f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  (r, s1.Gc.minor_words -. s0.Gc.minor_words, s1.Gc.major_collections - s0.Gc.major_collections)
