(* Shared helpers: sample statistics, process memory, the result a
   workload hands back, and scratch-directory handling. *)

(* Linear-interpolation quantile; [q] in [0, 1]. 0 on no samples. *)
let quantile xs q =
  match List.sort Float.compare xs with
  | [] -> 0.
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0. xs
let mean xs = match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)
let ratio a b = if b = 0. then 0. else a /. b

(* Units per second: the median over rounds of [units] / round time. *)
let throughput ~units round_times =
  median (List.map (fun t -> units /. t) round_times)

(* Peak resident set of this process so far, MB, less [minus_mb] (the
   host-speed kernel's buffers, which are not etap's memory). Read once,
   after the first timed round or cycle: later rounds only add allocator
   reuse, and how many of them a run gets depends on host speed. *)
let peak_rss_mb ?(minus_mb = 0.) () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | exception End_of_file -> 0.
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find -. minus_mb

(* Words allocated so far by this domain (minor + direct major). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let minor_gcs () = (Gc.quick_stat ()).Gc.minor_collections

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type result = {
  attempted : int;
  failed : int;
  end_to_end : metric list;
  per_layer : metric list;
  counters : (string * int) list;
      (* deterministic work counters of the first timed round: simulated
         instructions, allocated words, minor GCs, checkpoint resumes,
         memo hits/trials run — equal between runs of one build and
         seed *)
  notes : string list;  (* human-readable lines *)
}

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun c -> rm_rf (Filename.concat path c)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path

let rec files_under path =
  match Sys.is_directory path with
  | exception Sys_error _ -> []
  | true ->
    List.concat_map
      (fun c -> files_under (Filename.concat path c))
      (Array.to_list (Sys.readdir path))
  | false -> [ path ]

(* Scratch directory under the source tree's root, removed when the
   run ends. *)
let scratch = ".perfbench_tmp"

let scratch_dir name =
  let d = Filename.concat scratch name in
  rm_rf d;
  (try Sys.mkdir scratch 0o755 with Sys_error _ -> ());
  d

(* A permutation of [xs] drawn from [rng]. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let ms s = s *. 1000.

(* Bit-exactness fingerprint of one trial record; fidelity travels as
   hexfloat so equality is exact. *)
let fingerprint (t : Core.Campaign.trial) =
  Printf.sprintf "%d/%s/%d/%d/%d/%s" t.Core.Campaign.index
    (Core.Outcome.describe t.Core.Campaign.outcome)
    t.Core.Campaign.dyn_count t.Core.Campaign.faults_planned
    t.Core.Campaign.faults_landed
    (match t.Core.Campaign.fidelity with
     | None -> "-"
     | Some f -> Printf.sprintf "%h" f)

let digest_trials trials =
  Digest.to_hex
    (Digest.string (String.concat ";" (List.map fingerprint trials)))
