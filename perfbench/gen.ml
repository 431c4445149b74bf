(* Request generator for the serving workloads.

   Inputs are a pure function of the seed: the programs are the eleven
   of [Registry.benchmark_suite]; the seed picks each request's device
   key seed and nonce ω and the order of requests within a round. Every
   round has the same make-up (programs x ops), so two seeds load the
   engine with the same work and differ only in keys and order.

   The per-program op make-up is that of the repository's standard
   serving load, [Sofia.Service_load.registry_jobs] (which drives
   [sofia_cli batch @registry] and the service bench rows): four protect
   requests (clients asking for the same release image), one verify,
   one attest and one simulate on the SOFIA core.

   serve-distinct: per program a round holds that make-up without the
   simulate request, each request with its own fresh (key seed, nonce),
   so no two requests share a [Shard.content_key], every store lookup
   misses and the simulator stays idle.

   fleet-replay: per program a round draws one fresh (key seed, nonce)
   and sends the whole make-up [fleet_copies] times, as two front-ends
   provisioning the same release would: 14 requests over 4 content keys,
   so 10 in 14 (about 71 %) repeat an earlier request of the same round.
   Of the requests, 8 in 14 are protects and 2 in 14 each verify, attest
   and simulate. *)

module Job = Sofia.Service.Job
module Prng = Sofia.Util.Prng

type op = Protect | Verify | Attest | Simulate

let op_name = function
  | Protect -> "protect"
  | Verify -> "verify"
  | Attest -> "attest"
  | Simulate -> "simulate"

type item = {
  line : string;  (** the NDJSON request line *)
  req : Job.request;  (** the same request, for the output checks *)
  program : int;  (** index into {!suite} *)
  op : op;
  first : bool;  (** first request of its content key in the stream *)
}

let suite = Array.of_list (Sofia.Workloads.Registry.benchmark_suite ())

(* Per program and round: the make-up of [Service_load.registry_jobs]
   (clients = 4). *)
let registry_mix = [ (Protect, 4); (Verify, 1); (Attest, 1); (Simulate, 1) ]

(* serve-distinct: the same without simulate. *)
let distinct_mix = List.filter (fun (op, _) -> op <> Simulate) registry_mix

(* Copies of the registry make-up per (program, key) and round, in
   fleet-replay. *)
let fleet_copies = 2

let mix_size mix = List.fold_left (fun a (_, n) -> a + n) 0 mix

let round_size = function
  | `Distinct -> Array.length suite * mix_size distinct_mix
  | `Fleet -> Array.length suite * mix_size registry_mix * fleet_copies

type t = {
  kind : [ `Distinct | `Fleet ];
  rng : Prng.t;
  tag : string;
  mutable next_id : int;
  used : (int64, unit) Hashtbl.t;  (** key seeds handed out so far *)
}

(* [phase] separates the key spaces of one run's phases. *)
let create kind ~seed ~phase =
  let rng = Prng.create ~seed:(Int64.add (Int64.mul (Int64.of_int seed) 1_000_003L) (Int64.of_int phase)) in
  let tag = Printf.sprintf "%c%d" (match kind with `Distinct -> 'd' | `Fleet -> 'f') phase in
  { kind; rng; tag; next_id = 0; used = Hashtbl.create 1024 }

let rec fresh_key t =
  let k = Prng.next64 t.rng in
  if Hashtbl.mem t.used k then fresh_key t
  else begin
    Hashtbl.replace t.used k ();
    (k, 1 + Prng.int_below t.rng 255)
  end

let spec op source =
  match op with
  | Protect -> Job.Protect { source }
  | Verify -> Job.Verify { source }
  | Attest -> Job.Attest { source }
  | Simulate -> Job.Simulate { source; sofia = true }

let make t ~program ~op ~key:(key_seed, nonce) =
  let id = Printf.sprintf "%s-%d" t.tag t.next_id in
  t.next_id <- t.next_id + 1;
  let req =
    Job.make ~key_seed ~nonce ~id (spec op suite.(program).Sofia.Workloads.Workload.source)
  in
  { line = Sofia.Obs.Json.to_string (Job.request_to_json req); req; program; op; first = true }

(* The next round of requests, in send order. *)
let round t =
  let slots_of program mix key = List.concat_map (fun (op, n) -> List.init n (fun _ -> (program, op, key))) mix in
  let slots =
    List.concat
      (List.init (Array.length suite) (fun program ->
           match t.kind with
           | `Distinct -> slots_of program distinct_mix None
           | `Fleet ->
             let key = Some (fresh_key t) in
             List.concat (List.init fleet_copies (fun _ -> slots_of program registry_mix key))))
    |> Array.of_list
  in
  Prng.shuffle t.rng slots;
  let seen = Hashtbl.create 64 in
  Array.to_list slots
  |> List.map (fun (program, op, key) ->
         let key = match key with Some k -> k | None -> fresh_key t in
         let it = make t ~program ~op ~key in
         let ck = Sofia.Fleet.Shard.content_key it.req in
         let first = not (Hashtbl.mem seen ck) in
         Hashtbl.replace seen ck ();
         { it with first })

(* What is kept of a sent item for the output checks: its line is
   dropped, so a run's memory does not grow with the wire text. *)
let sent it = { it with line = "" }

(* The liveness probe that ends each set-up. *)
let ping_line id = Sofia.Obs.Json.to_string (Job.request_to_json (Job.make ~id Job.Ping))
