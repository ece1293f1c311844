(* Spans recorded by the benchmark around its calls into each layer —
   never inside lib/. Each span has a name, start, end, parent and unit
   id; spans stay in memory and are aggregated when the run ends. A
   layer's self time is its duration minus the time its child spans
   cover. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root *)
  unit_id : int;
  t0 : float;
  t1 : float;
}

let on = ref false
let spans : span list ref = ref []
let next = ref 0
let stack : int list ref = ref []  (* open spans, innermost first *)
let unit_id = ref 0

(* Run [f] inside a span nested under the innermost open span. Spans are
   only recorded from the benchmark's main thread. *)
let span name f =
  if not !on then f ()
  else begin
    let id = !next in
    incr next;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let u = !unit_id in
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        stack := List.tl !stack;
        spans := { id; name; parent; unit_id = u; t0; t1 } :: !spans)
      f
  end

(* Total length of the union of [intervals]. *)
let union_length intervals =
  let sorted = List.sort compare intervals in
  let total, cur =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (acc, Some (ca, Float.max cb b))
          else (acc +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match cur with None -> total | Some (a, b) -> total +. (b -. a)

(* (span, self seconds) for every recorded span. *)
let self_times () =
  let all = !spans in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.t0, s.t1)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    all;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      let clipped =
        List.map (fun (a, b) -> (Float.max a s.t0, Float.min b s.t1)) kids
      in
      (s, s.t1 -. s.t0 -. union_length clipped))
    all
