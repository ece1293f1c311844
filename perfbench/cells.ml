(* The [campaign] and [audit] workloads: a cold campaign, or the taint
   audit, over susan, mcf, gsm and adpcm under protect-nothing and
   protect-control, in Full tagging mode on the fast engine with
   default checkpoints, no result cache and one domain.

   A round runs every (app, policy) cell once; the seed orders the
   cells of each round. The trial set of a cell is fixed (campaign seed
   101), so every round does the same simulated work whatever the seed,
   and each cell's output digest is checked against the committed
   expected digests. *)

let apps = [ "susan"; "mcf"; "gsm"; "adpcm" ]
let policies = [ Core.Policy.Protect_nothing; Core.Policy.Protect_control ]
let errors = 10
let campaign_seed = 101
let setup_reps = 10

type kind = Campaign | Audit

let kind_name = function Campaign -> "campaign" | Audit -> "audit"
let trials_of = function Campaign -> 20 | Audit -> 10

type cell = {
  app : string;
  prepared : Core.Campaign.prepared;
  score : Sim.Interp.result -> float;
}

let cell_key kind c =
  Printf.sprintf "%s %s %s" (kind_name kind) c.app
    (Core.Policy.to_string c.prepared.Core.Campaign.policy)

(* One fresh set-up: build, tag + golden run, prepare both policies. *)
let setup () =
  List.concat_map
    (fun name ->
      let app = Option.get (Apps.Registry.find name) in
      let b = Tracer.span "load.build" (fun () -> app.Apps.App.build ~seed:1) in
      let target =
        Tracer.span "load.target" (fun () ->
            Core.Campaign.of_prog ~protect_addresses:true b.Apps.App.prog)
      in
      let golden = target.Core.Campaign.baseline in
      List.map
        (fun policy ->
          let prepared =
            Tracer.span "prepare" (fun () -> Core.Campaign.prepare target policy)
          in
          { app = name; prepared; score = (fun r -> b.Apps.App.score ~golden r) })
        policies)
    apps

(* A trial run directly through [Campaign.run_trial_skip], with a span
   around the call and GC deltas taken around it. *)
let traced_trial ~span_name ?score ?taint (c : cell) ~trials =
  List.init trials (fun i ->
      let rng =
        Core.Campaign.trial_rng ~seed:campaign_seed ~errors
          ~policy:c.prepared.Core.Campaign.policy i
      in
      Ledger.trial ~span_name (fun () ->
          Core.Campaign.run_trial_skip ?score ?taint c.prepared ~errors ~rng
            ~index:i))

(* [Core.Audit.run]'s aggregation over trial records, so a traced audit
   cell (trials run one by one) yields the same report. *)
let audit_of_trials (p : Core.Campaign.prepared) ~trials
    (ts : Core.Campaign.trial list) : Core.Audit.report =
  let sum f =
    List.fold_left
      (fun acc (t : Core.Campaign.trial) ->
        match t.Core.Campaign.fault_flow with
        | Some s -> acc + f s
        | None -> acc)
      0 ts
  in
  let stats =
    List.fold_left
      (fun acc (t : Core.Campaign.trial) ->
        let flow =
          Option.map (fun (s : Sim.Taint.summary) -> s.Sim.Taint.flow)
            t.Core.Campaign.fault_flow
        in
        Core.Stats.observe ?flow acc t.Core.Campaign.outcome
          ~fidelity:t.Core.Campaign.fidelity)
      Core.Stats.empty ts
  in
  let violations =
    List.filter_map
      (fun (t : Core.Campaign.trial) ->
        match t.Core.Campaign.fault_flow with
        | None -> None
        | Some f ->
          let broken =
            match p.Core.Campaign.policy with
            | Core.Policy.Protect_control -> f.Sim.Taint.control_free > 0
            | Core.Policy.Protect_all -> f.Sim.Taint.flow <> Sim.Taint.Vanished
            | Core.Policy.Protect_nothing -> false
          in
          if broken then
            Some
              {
                Core.Audit.trial = t.Core.Campaign.index;
                site = f.Sim.Taint.first_control;
              }
          else None)
      ts
  in
  {
    Core.Audit.policy = p.Core.Campaign.policy;
    errors;
    errors_planned =
      Core.Fault_model.planned ~injectable_total:p.Core.Campaign.injectable_total
        ~errors;
    trials;
    seed = campaign_seed;
    injectable_total = p.Core.Campaign.injectable_total;
    stats;
    control_free = sum (fun s -> s.Sim.Taint.control_free);
    control_via_memory = sum (fun s -> s.Sim.Taint.control_via_memory);
    address_hits = sum (fun s -> s.Sim.Taint.address_hits);
    trap_operand_hits = sum (fun s -> s.Sim.Taint.trap_operand_hits);
    memory_hits = sum (fun s -> s.Sim.Taint.memory_hits);
    violations;
  }

let digest_audit (r : Core.Audit.report) =
  let s = r.Core.Audit.stats in
  let f = s.Core.Stats.flows in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s %d %d %d %d %d %d|%d %d %d %d %d|%d %d %d %d %d|%s|%b"
          (Core.Policy.to_string r.Core.Audit.policy)
          r.Core.Audit.errors_planned r.Core.Audit.injectable_total
          s.Core.Stats.n s.Core.Stats.crashes s.Core.Stats.infinite
          s.Core.Stats.completed f.Core.Stats.vanished f.Core.Stats.data_only
          f.Core.Stats.reached_memory f.Core.Stats.reached_address
          f.Core.Stats.reached_control r.Core.Audit.control_free
          r.Core.Audit.control_via_memory r.Core.Audit.address_hits
          r.Core.Audit.trap_operand_hits r.Core.Audit.memory_hits
          (String.concat ","
             (List.map
                (fun (v : Core.Audit.violation) ->
                  Printf.sprintf "%d@%s" v.Core.Audit.trial
                    (match v.Core.Audit.site with
                     | Some (fn, pc) -> Printf.sprintf "%s:%d" fn pc
                     | None -> "-"))
                r.Core.Audit.violations))
          (Core.Audit.sound r)))

(* Deterministic work of one cell. *)
type work = {
  minstr_dyn : int;  (* simulated instructions; campaign only *)
  resumed : int;
  skipped_dyn : int;
  flows : int;  (* audit: trials whose fault reached control *)
  alloc_w : float;
  minor : int;
}

let zero_work =
  { minstr_dyn = 0; resumed = 0; skipped_dyn = 0; flows = 0; alloc_w = 0.; minor = 0 }

let add_work a b =
  {
    minstr_dyn = a.minstr_dyn + b.minstr_dyn;
    resumed = a.resumed + b.resumed;
    skipped_dyn = a.skipped_dyn + b.skipped_dyn;
    flows = a.flows + b.flows;
    alloc_w = a.alloc_w +. b.alloc_w;
    minor = a.minor + b.minor;
  }

let summary_work (s : Core.Campaign.summary) =
  {
    zero_work with
    minstr_dyn =
      List.fold_left (fun a t -> a + t.Core.Campaign.dyn_count) 0 s.Core.Campaign.trials;
    resumed = s.Core.Campaign.resumed_trials;
    skipped_dyn = s.Core.Campaign.skipped_dyn;
  }

(* Run one cell; returns its output digest and work. *)
let run_cell kind ~traced (c : cell) =
  let trials = trials_of kind in
  let a0 = Util.alloc_words () and g0 = Util.minor_gcs () in
  let digest, w =
    match (kind, traced) with
    | Campaign, false ->
      let s =
        Core.Campaign.run ~jobs:1 ~score:c.score c.prepared ~errors ~trials
          ~seed:campaign_seed
      in
      (Util.digest_trials s.Core.Campaign.trials, summary_work s)
    | Campaign, true ->
      let score r = Tracer.span "score" (fun () -> c.score r) in
      let res = traced_trial ~span_name:"trial" ~score c ~trials in
      let ts = List.map fst res in
      ( Util.digest_trials ts,
        {
          zero_work with
          minstr_dyn = List.fold_left (fun a t -> a + t.Core.Campaign.dyn_count) 0 ts;
          resumed = List.length (List.filter (fun (_, sk) -> sk > 0) res);
          skipped_dyn = List.fold_left (fun a (_, sk) -> a + sk) 0 res;
        } )
    | Audit, false ->
      let r =
        Core.Audit.run ~jobs:1 c.prepared ~errors ~trials ~seed:campaign_seed
      in
      ( digest_audit r,
        { zero_work with flows = r.Core.Audit.stats.Core.Stats.flows.Core.Stats.reached_control } )
    | Audit, true ->
      let ts = List.map fst (traced_trial ~span_name:"taint.trial" ~taint:true c ~trials) in
      let r = audit_of_trials c.prepared ~trials ts in
      ( digest_audit r,
        { zero_work with flows = r.Core.Audit.stats.Core.Stats.flows.Core.Stats.reached_control } )
  in
  ( digest,
    { w with alloc_w = Util.alloc_words () -. a0; minor = Util.minor_gcs () - g0 } )

let read_expected path =
  let tbl = Hashtbl.create 16 in
  (match open_in path with
   | exception Sys_error _ -> ()
   | ic ->
     (try
        while true do
          let l = input_line ic in
          match String.rindex_opt l ' ' with
          | Some i ->
            Hashtbl.replace tbl (String.sub l 0 i)
              (String.sub l (i + 1) (String.length l - i - 1))
          | None -> ()
        done
      with End_of_file -> ());
     close_in ic);
  tbl

(* Committed expected digests, relative to the source tree's root. *)
let expected = "perfbench/expected_digests.txt"

let run kind ~seed ~seconds ~trace : Util.result =
  let cal = Calib.create ~domains:1 in
  let meter = Calib.meter cal ~reps:1 in
  let ledger = Ledger.create () in
  let next_id = ref 0 in
  let fresh () = incr next_id; !next_id in
  Tracer.on := trace;
  let cells, setup_s = Ledger.repeat_setup meter ~reps:setup_reps ~ids:fresh setup in
  let expected_tbl = read_expected expected in
  let trials = trials_of kind in
  let attempted = ref 0 and failed = ref 0 in
  let notes = ref [] in
  let untraced_rounds = ref [] and traced_rounds = ref [] in
  let raw_rounds = ref [] in
  let traced_units = ref [] in
  let first_work = ref None in
  let rss = ref None in
  let t_start = Unix.gettimeofday () in
  let round = ref 0 in
  let enough () =
    Unix.gettimeofday () -. t_start >= seconds
    && List.length !untraced_rounds >= 3
    && ((not trace) || List.length !traced_rounds >= 2)
  in
  while not (enough ()) do
    let traced = trace && !round mod 2 = 1 in
    Tracer.on := traced;
    let order = Util.shuffle (Random.State.make [| seed; !round |]) cells in
    Gc.minor ();
    (* Each cell is a unit between kernel measurements; the round's time
       is the sum of its cells'. *)
    let outs, work, norm, raw =
      List.fold_left
        (fun (outs, work, norm, raw) c ->
          let id = fresh () in
          if traced then traced_units := id :: !traced_units;
          let (d, w), tm =
            Ledger.unit_ meter ~id (fun () ->
                Tracer.span "cell" (fun () -> run_cell kind ~traced c))
          in
          ((c, d) :: outs, add_work work w, norm +. Calib.norm tm, raw +. tm.Calib.raw_s))
        ([], zero_work, 0., 0.) order
    in
    List.iter
      (fun (c, digest) ->
        attempted := !attempted + trials;
        let key = cell_key kind c in
        if Hashtbl.find_opt expected_tbl key <> Some digest then begin
          failed := !failed + trials;
          notes := Printf.sprintf "MISMATCH %s: digest %s" key digest :: !notes
        end)
      outs;
    (match !first_work with
     | None -> first_work := Some work
     | Some w0 ->
       if
         w0.minstr_dyn <> work.minstr_dyn
         || w0.resumed <> work.resumed
         || w0.skipped_dyn <> work.skipped_dyn
         || w0.flows <> work.flows
       then begin
         failed := !failed + (trials * List.length cells);
         notes := Printf.sprintf "round %d: simulated work differs from round 0" !round :: !notes
       end);
    if traced then traced_rounds := norm :: !traced_rounds
    else begin
      untraced_rounds := norm :: !untraced_rounds;
      raw_rounds := raw :: !raw_rounds
    end;
    if !rss = None then rss := Some (Calib.peak_rss_mb cal.Calib.domains);
    incr round
  done;
  Tracer.on := false;
  Calib.stop cal;
  let per_round = float_of_int (trials * List.length cells) in
  let thr = Util.throughput ~units:per_round in
  (* Per-layer ledger. *)
  Ledger.set_load_prepare ledger;
  let targets = List.filteri (fun i _ -> i mod 2 = 0) cells in
  Ledger.set ledger "load.golden_minstr"
    (Util.mean
       (List.map
          (fun c ->
            float_of_int
              c.prepared.Core.Campaign.target.Core.Campaign.baseline
                .Sim.Interp.dyn_count
            /. 1e6)
          targets));
  Ledger.set ledger "prepare.checkpoints"
    (Util.mean
       (List.map
          (fun c ->
            match c.prepared.Core.Campaign.snapshots with
            | Some s -> float_of_int (Sim.Snapshot.count s)
            | None -> 0.)
          cells));
  (match kind with
   | Campaign -> Ledger.set_trial ledger ~span_name:"trial"
   | Audit -> Ledger.set_trial ledger ~span_name:"taint.trial");
  Ledger.set_shares ledger ~units:!traced_units;
  Ledger.set_host ledger cal
    ~raw_throughput:(thr !raw_rounds) ~traced:!traced_rounds
    ~untraced:!untraced_rounds;
  let w = Option.get !first_work in
  let rounds = List.length !untraced_rounds in
  {
    Util.attempted = !attempted;
    failed = !failed;
    end_to_end =
      [
        Util.metric "throughput_per_s" "1/s" (thr !untraced_rounds);
        Util.metric "latency_ms_p50" "ms" (Util.ms (Util.quantile !untraced_rounds 0.5));
        Util.metric "latency_ms_p90" "ms" (Util.ms (Util.quantile !untraced_rounds 0.9));
        Util.metric "setup_s" "s" setup_s;
        Util.metric "peak_rss_mb" "MB" (Option.get !rss);
      ];
    per_layer = Ledger.metrics ledger;
    counters =
      (("round.trials", trials * List.length cells)
       ::
       (match kind with
        | Campaign ->
          [
            ("round.sim_instructions", w.minstr_dyn);
            ("round.checkpoint_resumes", w.resumed);
            ("round.skipped_instructions", w.skipped_dyn);
          ]
        | Audit -> [ ("round.reached_control", w.flows) ]))
      @ [
          ("round.alloc_words", int_of_float w.alloc_w);
          ("round.minor_gcs", w.minor);
        ];
    notes =
      List.rev !notes
      @ [
          Printf.sprintf
            "%s: %d untraced rounds of %d cells x %d trials; latency unit = one round, \
             the reciprocal of throughput, not separate evidence; traced rounds call \
             trials one by one, so trace.overhead_frac includes that path change"
            (kind_name kind) rounds (List.length cells) trials;
        ];
  }
