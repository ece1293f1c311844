(* The per-layer ledger: every per-layer metric the benchmark reports,
   with its unit, and the aggregation of traced spans into layer self
   times. A workload sets the metrics of the layers it runs; the rest
   read 0 (the layer does no work there). *)

let names =
  [
    ("load.build_ms", "ms");
    ("load.target_ms", "ms");
    ("load.golden_minstr", "Minstr");
    ("prepare.ms", "ms");
    ("prepare.checkpoints", "count");
    ("trial.ms_p50", "ms");
    ("trial.ms_p90", "ms");
    ("trial.minstr_per_s", "Minstr/s");
    ("trial.minstr", "Minstr");
    ("trial.alloc_words", "words");
    ("trial.minor_gcs", "count");
    ("trial.resumed_ratio", "ratio");
    ("trial.skipped_minstr", "Minstr");
    ("score.ms", "ms");
    ("memo.ms", "ms");
    ("memo.hit_ratio", "ratio");
    ("memo.trials_run", "count");
    ("memo.trials_reused", "count");
    ("memo.store_bytes", "bytes");
    ("taint.trial_ms_p50", "ms");
    ("taint.minstr_per_s", "Minstr/s");
    ("taint.alloc_words", "words");
    ("taint.resumed_ratio", "ratio");
    ("serve.warm_ms_p50", "ms");
    ("serve.cold_ms_p50", "ms");
    ("serve.executor_busy_frac", "ratio");
    ("serve.queued_max", "count");
    ("serve.coalesced", "count");
    ("report.ms", "ms");
    ("load.self_share", "ratio");
    ("prepare.self_share", "ratio");
    ("trial.self_share", "ratio");
    ("score.self_share", "ratio");
    ("memo.self_share", "ratio");
    ("taint.self_share", "ratio");
    ("host.calib_ms", "ms");
    ("host.raw_throughput_per_s", "1/s");
    ("trace.overhead_frac", "ratio");
  ]

type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 64

let set (t : t) name v =
  if not (List.mem_assoc name names) then
    invalid_arg ("Ledger.set: unknown metric " ^ name);
  Hashtbl.replace t name v

let metrics (t : t) =
  List.map
    (fun (name, unit_) ->
      Util.metric name unit_ (Option.value ~default:0. (Hashtbl.find_opt t name)))
    names

(* Host-speed factor of each measured unit, by unit id. *)
let factors : (int, float) Hashtbl.t = Hashtbl.create 64

let factor u = Option.value ~default:1. (Hashtbl.find_opt factors u)

(* Run [f] as unit [id] of the trace, recording its host-speed factor. *)
let unit_ meter ~id f =
  Tracer.unit_id := id;
  let r, tm = Calib.time meter f in
  Hashtbl.replace factors id tm.Calib.factor;
  (r, tm)

(* Run [setup] [reps] times fresh, as units [ids ()], and keep only the
   last result: a full major GC before each repetition (untimed) frees
   the previous one, so memory holds one set-up. Returns the last result
   and the median normalized set-up time. *)
let repeat_setup meter ~reps ~ids setup =
  let last = ref None and times = ref [] in
  for _ = 1 to reps do
    last := None;
    Gc.full_major ();
    let r, tm = unit_ meter ~id:(ids ()) setup in
    last := Some r;
    times := Calib.norm tm :: !times
  done;
  (Option.get !last, Util.median !times)

(* Normalized self seconds of every span named [name]. *)
let selves name =
  List.filter_map
    (fun ((s : Tracer.span), self) ->
      if s.Tracer.name = name then Some (self *. factor s.Tracer.unit_id)
      else None)
    (Tracer.self_times ())

let layer_of name =
  match name with
  | "load.build" | "load.target" -> "load"
  | "prepare" -> "prepare"
  | "trial" -> "trial"
  | "score" -> "score"
  | "memo" -> "memo"
  | "taint.trial" -> "taint"
  | _ -> "other"

(* Each layer's share of the self time recorded inside [units]. *)
let set_shares (t : t) ~units =
  let tbl = Hashtbl.create 8 in
  let total = ref 0. in
  List.iter
    (fun ((s : Tracer.span), self) ->
      if List.mem s.Tracer.unit_id units then begin
        let v = self *. factor s.Tracer.unit_id in
        total := !total +. v;
        let l = layer_of s.Tracer.name in
        Hashtbl.replace tbl l
          (v +. Option.value ~default:0. (Hashtbl.find_opt tbl l))
      end)
    (Tracer.self_times ());
  List.iter
    (fun l ->
      set t (l ^ ".self_share")
        (Util.ratio
           (Option.value ~default:0. (Hashtbl.find_opt tbl l))
           !total))
    [ "load"; "prepare"; "trial"; "score"; "memo"; "taint" ]

(* Set-up layers, from the spans of the set-up repetitions. *)
let set_load_prepare (t : t) =
  let ms xs = Util.ms (Util.mean xs) in
  set t "load.build_ms" (ms (selves "load.build"));
  set t "load.target_ms" (ms (selves "load.target"));
  set t "prepare.ms" (ms (selves "prepare"))

(* Diagnostics every workload reports. The tracing overhead compares the
   traced rounds (cycles) of a [--trace 1] run with its untraced ones. *)
let set_host (t : t) cal ~raw_throughput ~traced ~untraced =
  set t "host.calib_ms" (Util.median cal.Calib.samples);
  set t "host.raw_throughput_per_s" raw_throughput;
  set t "trace.overhead_frac"
    (if traced = [] then 0. else Util.median traced /. Util.median untraced -. 1.)

(* Per-trial samples of traced trial calls. *)
type trial_sample = { dyn : int; skipped : int; alloc : float; gcs : int }

let samples : trial_sample list ref = ref []

(* Run one trial call inside a span named [span_name], taking GC deltas
   around the call itself. *)
let trial ~span_name f =
  let ((t, sk) as r), alloc, gcs =
    Tracer.span span_name (fun () ->
        let a0 = Util.alloc_words () and g0 = Util.minor_gcs () in
        let r = f () in
        (r, Util.alloc_words () -. a0, Util.minor_gcs () - g0))
  in
  samples := { dyn = t.Core.Campaign.dyn_count; skipped = sk; alloc; gcs } :: !samples;
  r

(* Trial-layer metrics ([trial.*] or [taint.*]) from the samples. *)
let set_trial (t : t) ~span_name =
  let ss = !samples in
  let n = float_of_int (max 1 (List.length ss)) in
  let fsum f = List.fold_left (fun a s -> a +. f s) 0. ss in
  let self = selves span_name in
  let minstr_per_s =
    Util.ratio (fsum (fun s -> float_of_int s.dyn) /. 1e6) (Util.sum self)
  in
  let resumed = fsum (fun s -> if s.skipped > 0 then 1. else 0.) /. n in
  let alloc = fsum (fun s -> s.alloc) /. n in
  match span_name with
  | "taint.trial" ->
    set t "taint.trial_ms_p50" (Util.ms (Util.quantile self 0.5));
    set t "taint.minstr_per_s" minstr_per_s;
    set t "taint.alloc_words" alloc;
    set t "taint.resumed_ratio" resumed
  | _ ->
    set t "trial.ms_p50" (Util.ms (Util.quantile self 0.5));
    set t "trial.ms_p90" (Util.ms (Util.quantile self 0.9));
    set t "trial.minstr_per_s" minstr_per_s;
    set t "trial.minstr" (fsum (fun s -> float_of_int s.dyn) /. n /. 1e6);
    set t "trial.alloc_words" alloc;
    set t "trial.minor_gcs" (fsum (fun s -> float_of_int s.gcs) /. n);
    set t "trial.resumed_ratio" resumed;
    set t "trial.skipped_minstr" (fsum (fun s -> float_of_int s.skipped) /. n /. 1e6);
    set t "score.ms" (Util.ms (Util.mean (selves "score")))
