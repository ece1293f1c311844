(* The [serve] workload: one in-process [Harness.Serve] daemon with 2
   executor workers, driven in a closed loop by one client with two
   connections, each sending its next request only after its reply.

   A cycle starts a fresh daemon on a fresh result store and warms it
   with one inject (the set-up), then plays a fixed request script: the
   first connection repeats the warm-up request (registry and cache
   hits) and polls [stats], the second sends fresh (app, seed) injects
   that run trials, and both send one identical pair at once (coalesced:
   a gate holds the winner until the waiter has attached). The seed
   picks which app seed takes which role. Every cycle does the same
   work, so the daemon's state, and its memory, stay bounded. *)

module J = Report.Json

let app = "gsm"
let errors = 3
let trials = 8
let fresh_injects = 6
let stats_polls = 2

type req = Warm | Fresh of int | Pair | Stats

let inject_line ~id s =
  J.to_compact_string
    (J.Obj
       [
         ("id", J.Int id);
         ("cmd", J.Str "inject");
         ("app", J.Str app);
         ("errors", J.Int errors);
         ("trials", J.Int trials);
         ("seed", J.Int s);
       ])

let stats_line ~id = J.to_compact_string (J.Obj [ ("id", J.Int id); ("cmd", J.Str "stats") ])

(* The report builders called directly: the same campaigns the daemon
   runs for an inject request, without the daemon, cache or executor. *)
let direct_tables s =
  let a = Option.get (Apps.Registry.find app) in
  let b = a.Apps.App.build ~seed:s in
  let target = Core.Campaign.of_prog ~protect_addresses:true b.Apps.App.prog in
  let golden = target.Core.Campaign.baseline in
  let summaries =
    List.map
      (fun policy ->
        let p = Core.Campaign.prepare target policy in
        ( policy,
          Core.Campaign.run ~jobs:1 ~score:(fun r -> b.Apps.App.score ~golden r) p
            ~errors ~trials ~seed:(s + 100) ))
      [ Core.Policy.Protect_control; Core.Policy.Protect_nothing ]
  in
  Tracer.span "report" (fun () ->
      let rep =
        Harness.Serve.inject_report ~app ~errors ~trials ~seed:s ~literal:false
          ~engine:Sim.Interp.Fast ~jobs:None ~checkpoint_stride:None
          ~fidelity_units:b.Apps.App.fidelity_units ~cache:None summaries
      in
      match J.member "tables" (J.of_string (J.to_compact_string (Report.to_json rep)) |> Result.get_ok) with
      | Some t -> J.to_compact_string t
      | None -> failwith "report without tables")

let reply_tables line =
  match Harness.Proto.reply_of_line line with
  | Ok r when r.Harness.Proto.ok -> (
    match r.Harness.Proto.report with
    | Some rep -> (
      match J.member "tables" rep with
      | Some t -> Some (J.to_compact_string t)
      | None -> None)
    | None -> None)
  | _ -> None

let stats_doc line =
  match Harness.Proto.reply_of_line line with
  | Ok r when r.Harness.Proto.ok -> J.member "stats" r.Harness.Proto.body
  | _ -> None

let path_int doc path =
  match
    List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some doc) path
  with
  | Some (J.Int i) -> Some i
  | _ -> None

(* One connection: a socket pair, the daemon's handler thread on one
   end and the client on the other. *)
type conn = { ic : in_channel; oc : out_channel; handler : Thread.t }

let connect t =
  let srv, cli = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let handler =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr srv and oc = Unix.out_channel_of_descr srv in
        ignore (Harness.Serve.serve_connection t ~ic ~oc);
        (try close_out oc with Sys_error _ -> ()))
      ()
  in
  { ic = Unix.in_channel_of_descr cli; oc = Unix.out_channel_of_descr cli; handler }

let exchange c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let close c =
  (try close_out c.oc with Sys_error _ -> ());
  Thread.join c.handler

(* A two-party barrier for the coalesced pair. *)
type barrier = { bm : Mutex.t; bc : Condition.t; mutable arrived : int }

let await b =
  Mutex.lock b.bm;
  b.arrived <- b.arrived + 1;
  Condition.broadcast b.bc;
  while b.arrived < 2 do
    Condition.wait b.bc b.bm
  done;
  Mutex.unlock b.bm

type sample = { kind : req; raw_s : float; ok : bool; doc : J.t option }

let run ~seed ~seconds ~trace : Util.result =
  (* Eight app seeds, one per role (warm, six fresh, the pair). The
     seed and the cycle number rotate the roles, so over a run every app
     seed takes every role and the run's medians do not hinge on which
     input happened to be warm. *)
  let role = function
    | Warm | Stats -> 0
    | Fresh i -> i
    | Pair -> fresh_injects + 1
  in
  let roles = fresh_injects + 2 in
  let seed_of ~rot r = 1 + ((role r + rot) mod roles) in
  (* The first connection sends the warm repeats and the stats polls,
     the second the fresh injects, so every warm request runs alongside
     a cold one and its latency has one mode; both send the pair. The
     order is fixed, so that overlap does not change with the seed. *)
  let warm n = List.init n (fun _ -> Warm) in
  let scripts =
    [
      warm 7 @ [ Stats ] @ warm 6 @ [ Pair ] @ warm 7 @ [ Stats ] @ warm 6;
      List.init 3 (fun i -> Fresh (i + 1)) @ [ Pair ]
      @ List.init 3 (fun i -> Fresh (i + 4));
    ]
  in
  let per_cycle = List.length (List.concat scripts) in
  let ledger = Ledger.create () in
  let cal = Calib.create ~domains:2 in
  let meter = Calib.meter cal ~reps:2 in
  (* Each direct build is a calibrated unit, so its [report] span is
     scaled to host speed like every other time. *)
  Tracer.on := trace;
  let expected =
    List.map
      (fun s -> (s, fst (Ledger.unit_ meter ~id:s (fun () -> direct_tables s))))
      (List.init roles (fun i -> i + 1))
  in
  Tracer.on := false;
  Gc.full_major ();
  let cache = Util.scratch_dir "serve_cache" in
  let attempted = ref 0 and failed = ref 0 in
  let notes = ref [] in
  let setups = ref [] and cycles = ref [] and raw_cycles = ref [] and traced_cycles = ref [] in
  let latencies = ref [] and warm_lat = ref [] and cold_lat = ref [] in
  let busy = ref [] and queued_max = ref 0 in
  let memo_self = ref [] and trial_durs = ref [] and load_durs = ref [] and prep_durs = ref [] in
  let first_counters = Hashtbl.create 8 in
  let finals = ref [] in  (* each cycle's closing stats document *)
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
    let rot = (abs seed + !cycle) mod roles in
    let seed_of = seed_of ~rot in
    let pair_key =
      Harness.Proto.group_key
        (Harness.Proto.Inject
           { Harness.Proto.app; errors; trials; seed = seed_of Pair; literal = false })
    in
    let sink = if traced then Some (Obs.make ()) else None in
    Option.iter Obs.install sink;
    (* Set-up: fresh store, daemon start, two connections, warm-up. The
       previous cycle's store is removed untimed. *)
    Util.rm_rf cache;
    let (t, conns), setup_tm =
      Calib.time meter (fun () ->
          let tref = ref None in
          let gate key =
            if key = pair_key then begin
              let deadline = Unix.gettimeofday () +. 10. in
              let rec wait () =
                match !tref with
                | Some t when Harness.Serve.inflight_waiters t ~key >= 1 -> ()
                | _ ->
                  if Unix.gettimeofday () < deadline then begin
                    Thread.delay 0.0005;
                    wait ()
                  end
              in
              wait ()
            end
          in
          let t =
            Harness.Serve.create
              ~config:
                { Harness.Serve.default_config with jobs = Some 2; cache_dir = cache; gate = Some gate }
              ()
          in
          tref := Some t;
          let conns = List.map (fun _ -> connect t) scripts in
          let warm = exchange (List.hd conns) (inject_line ~id:0 (seed_of Warm)) in
          if reply_tables warm <> List.assoc_opt (seed_of Warm) expected then
            failwith "serve: warm-up reply differs from the direct report";
          (t, conns))
    in
    setups := Calib.norm setup_tm :: !setups;
    Gc.full_major ();
    (* The timed script. *)
    let barrier = { bm = Mutex.create (); bc = Condition.create (); arrived = 0 } in
    let results = Array.make (List.length scripts) [] in
    let (), tm =
      Calib.time meter (fun () ->
          let threads =
            List.mapi
              (fun ci (c, reqs) ->
                Thread.create
                  (fun () ->
                    List.iteri
                      (fun i r ->
                        if r = Pair then await barrier;
                        let id = ((ci + 1) * 1000) + i in
                        let line =
                          match r with
                          | Stats -> stats_line ~id
                          | _ -> inject_line ~id (seed_of r)
                        in
                        let t0 = Unix.gettimeofday () in
                        let reply = exchange c line in
                        let t1 = Unix.gettimeofday () in
                        let ok, doc =
                          match r with
                          | Stats -> (
                            match stats_doc reply with
                            | Some d -> (true, Some d)
                            | None -> (false, None))
                          | _ ->
                            (reply_tables reply = List.assoc_opt (seed_of r) expected, None)
                        in
                        results.(ci) <- { kind = r; raw_s = t1 -. t0; ok; doc } :: results.(ci))
                      reqs)
                  ())
              (List.combine conns scripts)
          in
          List.iter Thread.join threads)
    in
    (* Teardown: a final stats poll, then close. *)
    let final = stats_doc (exchange (List.hd conns) (stats_line ~id:9999)) in
    List.iter close conns;
    Harness.Serve.shutdown t;
    (* Free this daemon before the next starts (untimed), so peak memory
       holds one cycle's daemon. *)
    Gc.full_major ();
    let samples = List.concat (Array.to_list results) in
    List.iter
      (fun s ->
        incr attempted;
        if not s.ok then begin
          incr failed;
          notes := Printf.sprintf "cycle %d: failed or mismatched reply" !cycle :: !notes
        end;
        match s.doc with
        | Some d ->
          (match (path_int d [ "executor"; "busy" ], path_int d [ "executor"; "workers" ]) with
           | Some b, Some w when w > 0 -> busy := (float_of_int b /. float_of_int w) :: !busy
           | _ -> ());
          (match path_int d [ "executor"; "queued_jobs" ] with
           | Some q -> queued_max := max !queued_max q
           | None -> ())
        | None -> ())
      samples;
    Option.iter (fun d -> finals := d :: !finals) final;
    let counters =
      match final with
      | None -> []
      | Some d ->
        List.filter_map
          (fun k ->
            Option.map (fun v -> ("cycle." ^ k, v)) (path_int d [ "totals"; "counters"; k ]))
          [ "serve.requests"; "serve.coalesced"; "serve.warm_hit"; "serve.warm_miss";
            "campaign.trials"; "memo.hits"; "memo.misses"; "memo.trials_run" ]
    in
    (match Hashtbl.find_opt first_counters rot with
     | None -> Hashtbl.replace first_counters rot counters
     | Some c0 ->
       if c0 <> counters then begin
         failed := !failed + per_cycle;
         notes :=
           Printf.sprintf "cycle %d: daemon work counters differ from the same roles' first cycle" !cycle
           :: !notes
       end);
    let f = tm.Calib.factor in
    let norm_of s = s.raw_s *. f in
    if traced then begin
      traced_cycles := Calib.norm tm :: !traced_cycles;
      let v = Obs.view (Option.get sink) in
      Obs.install Obs.disabled;
      let spans name =
        List.filter (fun (s : Obs.span_ev) -> s.Obs.sp_name = name) v.Obs.spans
      in
      let trials = spans "trial" in
      List.iter
        (fun (m : Obs.span_ev) ->
          let a = m.Obs.sp_ts_us and b = m.Obs.sp_ts_us +. m.Obs.sp_dur_us in
          let inside =
            List.filter_map
              (fun (s : Obs.span_ev) ->
                if s.Obs.sp_ts_us >= a && s.Obs.sp_ts_us <= b then
                  Some (s.Obs.sp_ts_us, Float.min b (s.Obs.sp_ts_us +. s.Obs.sp_dur_us))
                else None)
              trials
          in
          memo_self :=
            ((m.Obs.sp_dur_us -. Tracer.union_length inside) /. 1e6 *. f) :: !memo_self)
        (spans "memo.run");
      let durs name = List.map (fun (s : Obs.span_ev) -> s.Obs.sp_dur_us /. 1e6 *. f) (spans name) in
      trial_durs := durs "trial" @ !trial_durs;
      load_durs := durs "serve.load" @ !load_durs;
      prep_durs := durs "serve.prepare" @ !prep_durs
    end
    else begin
      cycles := Calib.norm tm :: !cycles;
      raw_cycles := tm.Calib.raw_s :: !raw_cycles;
      latencies := List.map norm_of samples @ !latencies
    end;
    List.iter
      (fun s ->
        match s.kind with
        | Warm -> warm_lat := norm_of s :: !warm_lat
        | Fresh _ | Pair -> cold_lat := norm_of s :: !cold_lat
        | Stats -> ())
      samples;
    if !rss = None then rss := Some (Calib.peak_rss_mb cal.Calib.domains);
    incr cycle
  done;
  Calib.stop cal;
  Util.rm_rf cache;
  let thr = Util.throughput ~units:(float_of_int per_cycle) in
  let ms_p q xs = Util.ms (Util.quantile xs q) in
  Ledger.set ledger "serve.warm_ms_p50" (ms_p 0.5 !warm_lat);
  Ledger.set ledger "serve.cold_ms_p50" (ms_p 0.5 !cold_lat);
  Ledger.set ledger "serve.executor_busy_frac" (Util.mean !busy);
  Ledger.set ledger "serve.queued_max" (float_of_int !queued_max);
  (* Per-cycle means of the daemon's own accounting. *)
  let avg path =
    Util.mean
      (List.map (fun d -> float_of_int (Option.value ~default:0 (path_int d path))) !finals)
  in
  let counter k = avg [ "totals"; "counters"; k ] in
  let inject_requests = float_of_int (per_cycle + 1 - stats_polls) in
  Ledger.set ledger "serve.coalesced" (avg [ "requests"; "coalesced" ]);
  Ledger.set ledger "memo.ms" (Util.ms (Util.mean !memo_self));
  Ledger.set ledger "memo.hit_ratio"
    (Util.ratio (counter "memo.hits") (counter "memo.hits" +. counter "memo.misses"));
  Ledger.set ledger "memo.trials_run" (counter "memo.trials_run" /. inject_requests);
  Ledger.set ledger "memo.trials_reused" (counter "memo.trials_reused" /. inject_requests);
  Ledger.set ledger "memo.store_bytes" (avg [ "store"; "bytes" ]);
  Ledger.set ledger "trial.ms_p50" (ms_p 0.5 !trial_durs);
  Ledger.set ledger "trial.ms_p90" (ms_p 0.9 !trial_durs);
  Ledger.set ledger "load.build_ms" (Util.ms (Util.mean !load_durs));
  Ledger.set ledger "prepare.ms" (Util.ms (Util.mean !prep_durs));
  Ledger.set ledger "report.ms" (Util.ms (Util.mean (Ledger.selves "report")));
  Ledger.set_host ledger cal ~raw_throughput:(thr !raw_cycles)
    ~traced:!traced_cycles ~untraced:!cycles;
  {
    Util.attempted = !attempted;
    failed = !failed;
    end_to_end =
      [
        Util.metric "throughput_per_s" "1/s" (thr !cycles);
        Util.metric "latency_ms_p50" "ms" (ms_p 0.5 !latencies);
        Util.metric "latency_ms_p90" "ms" (ms_p 0.9 !latencies);
        Util.metric "setup_s" "s" (Util.median !setups);
        Util.metric "peak_rss_mb" "MB" (Option.get !rss);
      ];
    per_layer = Ledger.metrics ledger;
    counters =
      Option.value ~default:[]
        (Hashtbl.find_opt first_counters (abs seed mod roles));
    notes =
      List.rev !notes
      @ [
          Printf.sprintf
            "serve: %d untraced cycles of %d requests on 2 connections; %d latency samples"
            (List.length !cycles) per_cycle (List.length !latencies);
        ];
  }
