(* In-memory span recorder for the traced run.

   A span is one call into a layer's public function, timed from the
   benchmark's own code: name, start, end, the span that caused it and
   the request it served. Spans stay in memory until the run ends; the
   per-layer metrics are aggregated from them. Untraced runs use
   [off], where [span] is a plain call. *)

type span = {
  id : int;
  name : string;
  start_ns : int64;
  stop_ns : int64;
  parent : int;  (** id of the enclosing span, -1 at the top *)
  req : int;  (** request (or program run) the span served, -1 if none *)
}

type t = { on : bool; mutable spans : span list; mutable next : int }

let off = { on = false; spans = []; next = 0 }
let create () = { on = true; spans = []; next = 0 }

(* Record [f ()] as span [name]; [f] receives the span's id so nested
   calls can name it as their parent. *)
let span t ?(parent = -1) ?(req = -1) name f =
  if not t.on then f (-1)
  else begin
    let id = t.next in
    t.next <- id + 1;
    let start_ns = Common.now_ns () in
    let r = f id in
    let stop_ns = Common.now_ns () in
    t.spans <- { id; name; start_ns; stop_ns; parent; req } :: t.spans;
    r
  end

(* Record a span whose interval was measured elsewhere (e.g. by a
   callback on another domain). *)
let add t ?(parent = -1) ?(req = -1) name ~start_ns ~stop_ns =
  if t.on then begin
    let id = t.next in
    t.next <- id + 1;
    t.spans <- { id; name; start_ns; stop_ns; parent; req } :: t.spans
  end

let dur s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) *. 1e-9

let named t name = List.filter (fun s -> String.equal s.name name) t.spans

let count t name = List.length (named t name)
let total_s t name = Common.sum (List.map dur (named t name))

let mean_s t name =
  let n = count t name in
  if n = 0 then 0.0 else total_s t name /. float_of_int n

let length t = List.length t.spans
