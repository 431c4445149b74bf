(* Host-speed adjustment.

   The benchmark host is a shared 2-vCPU virtual machine whose speed
   drifts by ±10-20 % over tens of seconds (neighbours on the same
   cores; the guest sees no steal time for it). A run samples a fixed
   reference kernel between its timed blocks, and every end-to-end time
   is scaled to the speed at which the kernel takes [nominal_s]: a
   duration is divided by [factor], a rate multiplied by it. The kernel
   is pure OCaml in this file, allocation-free and independent of the
   repository's code, so a change to the program cannot move it. The
   report prints the raw figures and the factor. *)

(* Seconds [sample] reads on the reference host at its typical speed. *)
let nominal_s = 0.009

(* The kernel's tables, one per domain that samples (see [sample]),
   allocated once: a sample allocates nothing, so the program's heap and
   collector cannot slow it. *)
let tables = [| Array.make 32768 0; Array.make 32768 0 |]

(* Integer arithmetic over a 256 KiB table: the mix of ALU work and
   cache-resident loads the simulator and toolchain do. *)
let kernel a =
  let t0 = Common.now_s () in
  Array.fill a 0 32768 0;
  let acc = ref 0 in
  for i = 0 to 1_000_000 do
    let j = (i * 7919) land 32767 in
    a.(j) <- a.(j) + i;
    acc := !acc + (a.(j) lxor i)
  done;
  ignore (Sys.opaque_identity !acc);
  Common.now_s () -. t0

type t = { mutable samples : float list; mutable last : float }

let create () = { samples = []; last = 0.0 }

(* The fastest of three short kernel runs (a process of the benchmark's
   own that is still busy, such as a fleet child finishing an audit,
   slows one run, rarely all three), scaled to three runs. *)
let best_of_three a = 3.0 *. Float.min (kernel a) (Float.min (kernel a) (kernel a))

(* One sample. [both] runs the kernel on a second domain at the same
   time and takes the mean: the serving workloads keep both vCPUs busy,
   and the two can run at different speeds. *)
let sample ?(both = false) t =
  let s =
    if both then begin
      let d = Domain.spawn (fun () -> best_of_three tables.(1)) in
      let here = best_of_three tables.(0) in
      (here +. Domain.join d) /. 2.0
    end
    else best_of_three tables.(0)
  in
  t.samples <- s :: t.samples;
  t.last <- Common.now_s ()

(* Sample if [every] seconds have passed since the last sample. *)
let sample_every t every = if Common.now_s () -. t.last >= every then sample t

(* Mean sample over [nominal_s]: above 1 when the host ran slower than
   nominal. *)
let factor t =
  match t.samples with
  | [] -> 1.0
  | xs -> Common.sum xs /. float_of_int (List.length xs) /. nominal_s

(* Scale the end-to-end metrics to nominal host speed: [setup_s] by the
   samples taken during set-up, if there are any, the rest by those of
   the timed phase. The resident set is not a time and stays as
   measured. *)
let adjust ?setup ~run (metrics : Common.metric list) =
  let fs = Option.fold ~none:1.0 ~some:factor setup and fr = factor run in
  Common.report "  host speed factor: set-up %.4f (%d samples), timed phase %.4f (%d samples)" fs
    (Option.fold ~none:0 ~some:(fun s -> List.length s.samples) setup)
    fr (List.length run.samples);
  List.map
    (fun (m : Common.metric) ->
      Common.report "  raw %s = %.6g %s" m.Common.name m.Common.value m.Common.unit_;
      match m.Common.name with
      | "setup_s" -> { m with Common.value = m.Common.value /. fs }
      | "p50_ms" | "p90_ms" -> { m with Common.value = m.Common.value /. fr }
      | "minsn_per_s" | "jobs_per_s" -> { m with Common.value = m.Common.value *. fr }
      | _ -> m)
    metrics
