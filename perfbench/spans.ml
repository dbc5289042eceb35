(* In-memory span buffer for the traced run, and its reduction to
   per-name self times.

   A span has a name, a start and an end (wall-clock ns), the id of the
   span that caused it and the request it belongs to (-1 for spans that
   cover many requests).  Two kinds of children exist:

   - live children ran inside their parent's interval (engine phases
     inside an engine call, kernel jobs inside the solve phase); the
     parent's self time loses the part of its interval they cover;
   - replayed children re-ran a step of the parent on the same input
     after the measured window (parse and canonicalize a chunk's
     requests again, decode a request line again); their interval lies
     outside the parent, so the parent loses their duration instead.

   Spans are recorded with ids reserved up front, so a parent can be
   named before it has finished. *)

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

type span = {
  name : string;
  start_ns : int;
  end_ns : int;
  parent : int;  (** -1 for a root *)
  req : int;  (** request index, -1 when the span covers many *)
  replay : bool;
}

let placeholder =
  { name = ""; start_ns = 0; end_ns = 0; parent = -1; req = -1; replay = false }

type t = { mutable buf : span array; mutable len : int }

let create () = { buf = Array.make 1024 placeholder; len = 0 }

let reserve t =
  if t.len = Array.length t.buf then begin
    let bigger = Array.make (2 * t.len) placeholder in
    Array.blit t.buf 0 bigger 0 t.len;
    t.buf <- bigger
  end;
  let id = t.len in
  t.len <- t.len + 1;
  id

let set t id span = t.buf.(id) <- span

let add t ?(parent = -1) ?(req = -1) ?(replay = false) name ~start_ns ~end_ns =
  let id = reserve t in
  set t id { name; start_ns; end_ns; parent; req; replay };
  id

let length t = t.len
let get t id = t.buf.(id)
let dur s = s.end_ns - s.start_ns

let iter t f =
  for i = 0 to t.len - 1 do
    f i t.buf.(i)
  done

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, max cb b))
            else (total + (cb - ca), Some (a, b)))
      (0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

(* Self time of every span: its duration minus the part of its interval
   live children cover, minus the durations of its replayed children. *)
let self_times t =
  let live = Array.make t.len [] and replayed = Array.make t.len 0 in
  iter t (fun _ s ->
      if s.parent >= 0 then
        if s.replay then replayed.(s.parent) <- replayed.(s.parent) + dur s
        else live.(s.parent) <- (s.start_ns, s.end_ns) :: live.(s.parent));
  Array.init t.len (fun i ->
      let s = t.buf.(i) in
      dur s
      - covered ~lo:s.start_ns ~hi:s.end_ns live.(i)
      - replayed.(i))

(* Sum of self times and of durations, and the number of spans, per
   name. *)
type totals = { self_ns : int; total_ns : int; count : int }

let by_name t =
  let selfs = self_times t in
  let tbl = Hashtbl.create 32 in
  iter t (fun i s ->
      let prev =
        Option.value
          (Hashtbl.find_opt tbl s.name)
          ~default:{ self_ns = 0; total_ns = 0; count = 0 }
      in
      Hashtbl.replace tbl s.name
        {
          self_ns = prev.self_ns + selfs.(i);
          total_ns = prev.total_ns + dur s;
          count = prev.count + 1;
        });
  tbl

let durations t name =
  let acc = ref [] in
  iter t (fun _ s -> if String.equal s.name name then acc := dur s :: !acc);
  Array.of_list !acc

let write_jsonl t path =
  Out_channel.with_open_text path (fun oc ->
      iter t (fun i s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d,\"replay\":%b}\n"
            i s.name s.start_ns s.end_ns s.parent s.req s.replay))
