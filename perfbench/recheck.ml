(* The [recheck] workload: a set-up populates the result store for gsm
   and mpeg; each timed unit is one re-check after a one-function edit
   ([Analysis.Section.dead_pad]): [Campaign.of_prog] + [prepare] +
   [Memo.run] for both policies, exactly what `etap inject
   --incremental` does. Every unit starts from the same store state:
   entries a unit writes are removed, untimed, after it.

   The edits of a cycle are fixed; the seed orders them. Four edits
   leave every section group a hit (no trial runs) and two miss (the
   trials whose first fault lands in the edited function's section
   rerun, 6-7 of 20, and [Store.save] writes), so p50 falls inside the
   hit mode and p90 inside the miss mode, and the trial layer stays a
   small share of the time. *)

let errors = 5
let trials = 10
let campaign_seed = 101
let setup_reps = 5
let policies = [ Core.Policy.Protect_control; Core.Policy.Protect_nothing ]

let edits =
  [
    ("gsm", "hist_d");
    ("gsm", "decode");
    ("mpeg", "decode_block");
    ("mpeg", "decode");
    ("mpeg", "mm_tmp_t");
    ("mpeg", "clamp255");
  ]

let apps = [ "gsm"; "mpeg" ]

type totals = { hits : int; misses : int; run : int; reused : int }

let no_totals = { hits = 0; misses = 0; run = 0; reused = 0 }

let add a b =
  { hits = a.hits + b.hits; misses = a.misses + b.misses; run = a.run + b.run;
    reused = a.reused + b.reused }

let of_stats (s : Core.Memo.stats) =
  { hits = s.Core.Memo.hits; misses = s.Core.Memo.misses;
    run = s.Core.Memo.trials_run; reused = s.Core.Memo.trials_reused }

(* One incremental re-check of [prog]: summaries per policy and the
   memo totals. [traced] routes the cache misses through a sequential
   fan-out that spans each trial. *)
let recheck ~store ~traced (b : Apps.App.built) prog =
  let target =
    Tracer.span "load.target" (fun () ->
        Core.Campaign.of_prog ~protect_addresses:true prog)
  in
  let golden = target.Core.Campaign.baseline in
  let score r =
    if traced then Tracer.span "score" (fun () -> b.Apps.App.score ~golden r)
    else b.Apps.App.score ~golden r
  in
  let fanout =
    if traced then
      Some
        (fun exec idxs ->
          List.map (fun i -> Ledger.trial ~span_name:"trial" (fun () -> exec i)) idxs)
    else None
  in
  List.fold_left
    (fun (sums, tot) policy ->
      let p = Tracer.span "prepare" (fun () -> Core.Campaign.prepare target policy) in
      let s, st =
        Tracer.span "memo" (fun () ->
            Core.Memo.run ~jobs:1 ?fanout ~score ~salt:b.Apps.App.app_name ~store
              p ~errors ~trials ~seed:campaign_seed)
      in
      (sums @ [ Util.digest_trials s.Core.Campaign.trials ], add tot (of_stats st)))
    ([], no_totals) policies

(* The monolithic campaign of the same edited program: the reference
   every incremental summary must equal bit for bit. *)
let reference (b : Apps.App.built) prog =
  let target = Core.Campaign.of_prog ~protect_addresses:true prog in
  let golden = target.Core.Campaign.baseline in
  List.map
    (fun policy ->
      let p = Core.Campaign.prepare target policy in
      let s =
        Core.Campaign.run ~jobs:1 ~score:(fun r -> b.Apps.App.score ~golden r) p
          ~errors ~trials ~seed:campaign_seed
      in
      Util.digest_trials s.Core.Campaign.trials)
    policies

let run ~seed ~seconds ~trace : Util.result =
  let cal = Calib.create ~domains:1 in
  let meter = Calib.meter cal ~reps:2 in
  let ledger = Ledger.create () in
  let next_id = ref 0 in
  let fresh () = incr next_id; !next_id in
  let dir = Util.scratch_dir "recheck_store" in
  Tracer.on := trace;
  (* Set-up: build both apps and populate a fresh store with their
     unedited campaigns. *)
  let setup () =
    Util.rm_rf dir;
    let store = Core.Memo.Store.open_ dir in
    let built =
      List.map
        (fun name ->
          let app = Option.get (Apps.Registry.find name) in
          let b = Tracer.span "load.build" (fun () -> app.Apps.App.build ~seed:1) in
          ignore (recheck ~store ~traced:false b b.Apps.App.prog);
          (name, b))
        apps
    in
    (store, built)
  in
  let (store, built), setup_s =
    Ledger.repeat_setup meter ~reps:setup_reps ~ids:fresh setup
  in
  Tracer.on := false;
  let baseline_files = Util.files_under dir in
  let store_bytes =
    List.fold_left (fun a (_, sz, _) -> a + sz) 0 (Core.Memo.Store.scan store)
  in
  let variants =
    List.map
      (fun (app, func) ->
        let b = List.assoc app built in
        let prog = Analysis.Section.dead_pad ~func b.Apps.App.prog in
        ((app, func), b, prog, reference b prog))
      edits
  in
  let attempted = ref 0 and failed = ref 0 in
  let notes = ref [] in
  let cycles = ref [] and raw_cycles = ref [] and traced_cycles = ref [] in
  let latencies = ref [] in
  let traced_units = ref [] and traced_totals = ref no_totals in
  let first = ref None in
  let rss = ref None in
  let t_start = Unix.gettimeofday () in
  let cycle = ref 0 in
  let enough () =
    Unix.gettimeofday () -. t_start >= seconds
    && List.length !cycles >= 3
    && ((not trace) || List.length !traced_cycles >= 2)
  in
  while not (enough ()) do
    let traced = trace && !cycle mod 2 = 1 in
    Tracer.on := traced;
    Gc.minor ();
    let a0 = Util.alloc_words () and g0 = Util.minor_gcs () in
    let tot = ref no_totals in
    let raws = ref [] and ids = ref [] in
    List.iter
      (fun ((app, func), b, prog, expect) ->
        let id = fresh () in
        Tracer.unit_id := id;
        ids := id :: !ids;
        if traced then traced_units := id :: !traced_units;
        let t0 = Unix.gettimeofday () in
        let got, t = Tracer.span "recheck" (fun () -> recheck ~store ~traced b prog) in
        raws := (Unix.gettimeofday () -. t0) :: !raws;
        tot := add !tot t;
        incr attempted;
        if got <> expect then begin
          incr failed;
          notes :=
            Printf.sprintf "MISMATCH recheck %s/%s: incremental <> monolithic" app func
            :: !notes
        end;
        List.iter
          (fun f -> if not (List.mem f baseline_files) then Sys.remove f)
          (Util.files_under dir))
      (Util.shuffle (Random.State.make [| seed; !cycle |]) variants);
    (* One host-speed factor per cycle: the kernel brackets the cycle,
       the store clean-ups between units stay untimed. *)
    let f = Calib.next_factor meter in
    List.iter (fun id -> Hashtbl.replace Ledger.factors id f) !ids;
    let lat = List.map (fun r -> r *. f) !raws in
    let work = (!tot, Util.alloc_words () -. a0, Util.minor_gcs () - g0) in
    (match !first with
     | None -> first := Some work
     | Some (t0, _, _) ->
       if t0 <> !tot then begin
         failed := !failed + List.length variants;
         notes := Printf.sprintf "cycle %d: memo work differs from cycle 0" !cycle :: !notes
       end);
    if traced then begin
      traced_cycles := Util.sum lat :: !traced_cycles;
      traced_totals := add !traced_totals !tot
    end
    else begin
      cycles := Util.sum lat :: !cycles;
      raw_cycles := Util.sum !raws :: !raw_cycles;
      latencies := lat @ !latencies
    end;
    if !rss = None then rss := Some (Calib.peak_rss_mb cal.Calib.domains);
    incr cycle
  done;
  Tracer.on := false;
  Calib.stop cal;
  Util.rm_rf dir;
  let per_cycle = float_of_int (List.length variants) in
  let thr = Util.throughput ~units:per_cycle in
  Ledger.set_load_prepare ledger;
  Ledger.set_trial ledger ~span_name:"trial";
  let tt = !traced_totals in
  let units = float_of_int (max 1 (List.length !traced_units)) in
  Ledger.set ledger "memo.ms" (Util.ms (Util.mean (Ledger.selves "memo")));
  Ledger.set ledger "memo.hit_ratio"
    (Util.ratio (float_of_int tt.hits) (float_of_int (tt.hits + tt.misses)));
  Ledger.set ledger "memo.trials_run" (float_of_int tt.run /. units);
  Ledger.set ledger "memo.trials_reused" (float_of_int tt.reused /. units);
  Ledger.set ledger "memo.store_bytes" (float_of_int store_bytes);
  Ledger.set_shares ledger ~units:!traced_units;
  Ledger.set_host ledger cal ~raw_throughput:(thr !raw_cycles)
    ~traced:!traced_cycles ~untraced:!cycles;
  let t0, alloc, gcs = Option.get !first in
  {
    Util.attempted = !attempted;
    failed = !failed;
    end_to_end =
      [
        Util.metric "throughput_per_s" "1/s" (thr !cycles);
        Util.metric "latency_ms_p50" "ms" (Util.ms (Util.quantile !latencies 0.5));
        Util.metric "latency_ms_p90" "ms" (Util.ms (Util.quantile !latencies 0.9));
        Util.metric "setup_s" "s" setup_s;
        Util.metric "peak_rss_mb" "MB" (Option.get !rss);
      ];
    per_layer = Ledger.metrics ledger;
    counters =
      [
        ("cycle.rechecks", List.length variants);
        ("cycle.memo_hits", t0.hits);
        ("cycle.memo_misses", t0.misses);
        ("cycle.trials_run", t0.run);
        ("cycle.trials_reused", t0.reused);
        ("cycle.alloc_words", int_of_float alloc);
        ("cycle.minor_gcs", gcs);
      ];
    notes =
      List.rev !notes
      @ [
          Printf.sprintf "recheck: %d untraced cycles of %d re-checks; %d latency samples"
            (List.length !cycles) (List.length variants) (List.length !latencies);
        ];
  }
