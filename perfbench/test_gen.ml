(* Tests of the benchmark's request generator: the same seed gives the
   same lines, serve-distinct never repeats a content key and has the
   registry make-up without simulate, and fleet-replay has its stated
   shares of repeats and of each op. *)

open Perfbench_lib

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

let rounds kind ~seed ~phase n =
  let g = Gen.create kind ~seed ~phase in
  List.concat (List.init n (fun _ -> Gen.round g))

let lines items = List.map (fun (it : Gen.item) -> it.Gen.line) items
let content_key (it : Gen.item) = Sofia.Fleet.Shard.content_key it.Gen.req

let () =
  List.iter
    (fun kind ->
      let a = rounds kind ~seed:7 ~phase:1 3 and b = rounds kind ~seed:7 ~phase:1 3 in
      if lines a <> lines b then fail "same seed, different lines";
      if lines a = lines (rounds kind ~seed:8 ~phase:1 3) then fail "seeds 7 and 8 give the same lines";
      if List.length a <> 3 * Gen.round_size kind then fail "round size";
      (* every line parses back to the request it was made from *)
      List.iter
        (fun (it : Gen.item) ->
          match Sofia.Service.Job.request_of_line it.Gen.line with
          | Ok r when r = it.Gen.req -> ()
          | _ -> fail "line %s does not parse back" it.Gen.req.Sofia.Service.Job.id)
        a)
    [ `Distinct; `Fleet ];
  (* serve-distinct: no content key twice, across both phases *)
  let d = rounds `Distinct ~seed:3 ~phase:1 20 @ rounds `Distinct ~seed:3 ~phase:2 20 in
  let seen = Hashtbl.create 8192 in
  List.iter
    (fun it ->
      let k = content_key it in
      if Hashtbl.mem seen k then fail "serve-distinct repeats a content key";
      Hashtbl.replace seen k ())
    d;
  if List.exists (fun (it : Gen.item) -> not it.Gen.first) d then fail "serve-distinct item not first";
  (* serve-distinct: the registry make-up without simulate *)
  let share items op = List.length (List.filter (fun (it : Gen.item) -> it.Gen.op = op) items) in
  let nd = List.length d in
  List.iter
    (fun (op, want) -> if 6 * share d op <> want * nd then fail "serve-distinct %s share %d/%d, want %d/6" (Gen.op_name op) (share d op) nd want)
    [ (Gen.Protect, 4); (Gen.Verify, 1); (Gen.Attest, 1); (Gen.Simulate, 0) ];
  (* fleet-replay: 10 of 14 requests repeat; per 14, protect 8 and
     verify, attest, simulate 2 each; fresh keys per phase *)
  let f1 = rounds `Fleet ~seed:3 ~phase:1 10 and f2 = rounds `Fleet ~seed:3 ~phase:2 10 in
  let n = List.length f1 in
  let repeats = List.length (List.filter (fun (it : Gen.item) -> not it.Gen.first) f1) in
  if 14 * repeats <> 10 * n then fail "repeat share %d/%d, want 10/14" repeats n;
  let firsts = Hashtbl.create 1024 in
  List.iter (fun (it : Gen.item) -> if it.Gen.first then Hashtbl.replace firsts (content_key it) ()) f1;
  if 14 * Hashtbl.length firsts <> 4 * n then fail "distinct keys %d, want %d" (Hashtbl.length firsts) (4 * n / 14);
  List.iter
    (fun (op, want) -> if 14 * share f1 op <> want * n then fail "fleet-replay %s share %d/%d, want %d/14" (Gen.op_name op) (share f1 op) n want)
    [ (Gen.Protect, 8); (Gen.Verify, 2); (Gen.Attest, 2); (Gen.Simulate, 2) ];
  if List.exists (fun it -> Hashtbl.mem firsts (content_key it)) f2 then fail "phase 2 reuses a phase-1 key";
  print_endline "generator tests: ok"
