(* Cross-engine differential suite: the threaded-closure fast engine
   (Sim.Interp.compile + image machines) versus the reference
   match-dispatch loop must be bit-identical on every observable —
   outcome, dynamic and injectable counters, trap provenance,
   landed-site attribution, the full memory image, campaign records
   and fault flows — over random Mlang programs, random fault plans,
   and pause/capture/resume at random ordinal boundaries.

   The generator exercises every instruction class the compiler emits:
   integer arithmetic and logic (including div/rem made golden-safe by
   [|! 1] but fault-fragile), shifts, comparisons, if/while/for
   control, word and byte loads/stores, float arithmetic with both
   conversions, calls and recursion. Traps, timeouts and stack
   overflow are reachable under injection (and directly, in the
   directed cases below). *)

open Mlang.Dsl

(* ------------------------------------------------------------------ *)
(* Random program generator.                                           *)

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let rec gen_expr rng vars depth =
  if depth = 0 then
    match Random.State.int rng 4 with
    | 0 -> i (Random.State.int rng 201 - 100)
    | 1 | 2 -> v (pick rng vars)
    | _ -> "buf".%(v (pick rng vars) &! i 7)
  else
    let a = gen_expr rng vars (depth - 1)
    and b = gen_expr rng vars (depth - 1) in
    match Random.State.int rng 12 with
    | 0 -> a +! b
    | 1 -> a -! b
    | 2 -> a *! b
    | 3 -> a /! (b |! i 1) (* odd divisor: golden-safe, fault-fragile *)
    | 4 -> a %! (b |! i 1)
    | 5 -> a &! b
    | 6 -> a |! b
    | 7 -> a ^! b
    | 8 -> a <<! i (Random.State.int rng 8)
    | 9 -> a >>>! i (Random.State.int rng 8)
    | 10 -> a <! b
    | _ -> neg a

let gen_prog seed =
  let rng = Random.State.make [| 0x9e3; seed |] in
  let e vars d = gen_expr rng vars d in
  let iters = 3 + Random.State.int rng 6 in
  program
    [
      garray "out" 4;
      garray "buf" 8;
      garray_b "bytes" 8;
      garray_f "fout" 2;
    ]
    [
      fn "mix" [ p_int "a"; p_int "b" ] ~ret:(Some Mlang.Ast.TInt)
        [
          let_ "t0" (e [ "a"; "b" ] 2);
          let_ "t1" (e [ "a"; "b"; "t0" ] 2);
          when_ (v "t1" >! v "t0") [ sto "buf" (v "t0" &! i 7) (v "t1") ];
          if_
            (v "t0" <>! i 0)
            [ ret (v "t1" %! v "t0") ]
            [ ret (v "t1" +! v "a") ];
        ];
      fn "rdown" [ p_int "n" ] ~ret:(Some Mlang.Ast.TInt)
        [
          if_
            (v "n" <=! i 0)
            [ ret (i 0) ]
            [ ret (i 1 +! call "rdown" [ v "n" -! i 1 ]) ];
        ];
      fn "main" [] ~ret:(Some Mlang.Ast.TInt)
        [
          let_ "x" (i (1 + Random.State.int rng 50));
          let_ "y" (i (1 + Random.State.int rng 50));
          for_ "k" (i 0) (i iters)
            [
              set "x" (call "mix" [ v "x" +! v "k"; v "y" ]);
              sto "buf" (v "k" &! i 7) (v "x" ^! v "k");
              sto "bytes" (v "k" &! i 7) (v "x");
              set "y" (v "y" +! "bytes".%(v "k" &! i 7));
            ];
          let_ "n" (i (2 + Random.State.int rng 5));
          while_ (v "n" >! i 0)
            [
              set "y" (e [ "x"; "y"; "n" ] 2);
              set "n" (v "n" -! i 1);
            ];
          let_ "fx" (i2f (v "x") /!. f 3.5);
          let_ "fy" ((v "fx" *!. f 0.25) -!. i2f (v "n"));
          sto "fout" (i 0) (v "fx" +!. v "fy");
          sto "fout" (i 1) (v "fy" *!. f 4.0);
          set "y" (v "y" +! f2i (v "fx") +! (v "fy" <! f 1000.0));
          let_ "r" (call "rdown" [ i (3 + Random.State.int rng 5) ]);
          sto "out" (i 0) (v "x");
          sto "out" (i 1) (v "y");
          sto "out" (i 2) (v "r");
          sto "out" (i 3) ("buf".%(i 3) +! "buf".%(i 5));
          ret (v "x" +! v "y");
        ];
    ]

(* ------------------------------------------------------------------ *)
(* Per-program context: compiled code, densest tag mask, fast-engine
   image, fault-free baseline (reference loop) and the campaign's
   timeout budget. Cached per generator seed so the qcheck properties
   do not recompile on every case. *)

type ctx = {
  prog : Ir.Prog.t;
  code : Sim.Code.t;
  tags : bool array array;
  image : Sim.Interp.image;
  total : int;  (* injectable pool size *)
  budget : int;
}

let ctx_cache : (int, ctx) Hashtbl.t = Hashtbl.create 16

let ctx_of_seed seed =
  match Hashtbl.find_opt ctx_cache seed with
  | Some c -> c
  | None ->
    let prog = Mlang.Compile.to_ir (gen_prog seed) in
    let code = Sim.Code.of_prog prog in
    let tagging = Core.Tagging.compute prog in
    let tags = Core.Tagging.mask tagging Core.Policy.Protect_nothing in
    let image = Sim.Interp.compile ~tags code in
    let baseline =
      Sim.Interp.run
        ~injection:(Core.Fault_model.profiling_injection ~tags)
        ~lenient:true code
    in
    let c =
      {
        prog;
        code;
        tags;
        image;
        total = baseline.Sim.Interp.injectable_seen;
        budget =
          Core.Campaign.timeout_factor * baseline.Sim.Interp.dyn_count;
      }
    in
    Hashtbl.replace ctx_cache seed c;
    c

let outcome_str (r : Sim.Interp.result) =
  match r.Sim.Interp.outcome with
  | Sim.Interp.Done x ->
    "done:" ^ Option.fold ~none:"()" ~some:Sim.Value.to_string x
  | Sim.Interp.Trapped t ->
    "trap:" ^ Sim.Trap.to_string t
    ^ (match r.Sim.Interp.trap_site with
       | Some (fname, pc) -> Printf.sprintf "@%s+%d" fname pc
       | None -> "@?")
  | Sim.Interp.Timeout -> "timeout"

(* Full-result fingerprint: every observable the engines must agree
   on, the memory image (word, byte and float globals) included. *)
let fingerprint ctx (r : Sim.Interp.result) =
  let ints name =
    String.concat ","
      (Array.to_list
         (Array.map string_of_int
            (Sim.Memory.read_global_ints r.Sim.Interp.memory ctx.prog name)))
  in
  let flts name =
    String.concat ","
      (Array.to_list
         (Array.map (Printf.sprintf "%h")
            (Sim.Memory.read_global_flts r.Sim.Interp.memory ctx.prog name)))
  in
  Printf.sprintf "%s/%d/%d/%d/[%s]/out=%s/buf=%s/bytes=%s/fout=%s"
    (outcome_str r) r.Sim.Interp.dyn_count r.Sim.Interp.injectable_seen
    r.Sim.Interp.faults_landed
    (String.concat ";"
       (Array.to_list
          (Array.map
             (fun (fname, pc) -> Printf.sprintf "%s+%d" fname pc)
             r.Sim.Interp.landed_sites)))
    (ints "out") (ints "buf") (ints "bytes") (flts "fout")

let run_engine ctx ~engine plan =
  let injection = Sim.Interp.injection ~tags:ctx.tags ~plan in
  let image =
    match engine with Sim.Interp.Fast -> Some ctx.image | Sim.Interp.Ref -> None
  in
  Sim.Interp.run ?image ~injection ~lenient:true ~budget:ctx.budget ctx.code

let plan_of ctx ~seed ~errors =
  let rng = Random.State.make [| 0x51de; seed; errors |] in
  Hashtbl.fold
    (fun o b acc -> (o, b) :: acc)
    (Core.Fault_model.make_plan ~rng ~injectable_total:ctx.total ~errors)
    []

(* ------------------------------------------------------------------ *)
(* Property: raw runs agree on random programs x random plans.         *)

let run_differential =
  QCheck.Test.make ~name:"fast == ref on random programs x random plans"
    ~count:120
    QCheck.(triple (int_bound 15) (int_bound 10_000) (int_range 0 12))
    (fun (pseed, fseed, errors) ->
      let ctx = ctx_of_seed pseed in
      let plan = plan_of ctx ~seed:fseed ~errors in
      fingerprint ctx (run_engine ctx ~engine:Sim.Interp.Ref plan)
      = fingerprint ctx (run_engine ctx ~engine:Sim.Interp.Fast plan))

(* Property: pause/capture/resume at a random ordinal boundary, in all
   four engine pairings (snapshots carry no engine state, so a capture
   under one engine resumes under the other). The plan is restricted
   to ordinals at or past the pause point — capture is only legal on a
   fault-free prefix. *)

let pause_resume_cross =
  QCheck.Test.make
    ~name:"capture/resume at random boundaries, all engine pairings"
    ~count:60
    QCheck.(triple (int_bound 15) (int_bound 10_000) (int_range 0 8))
    (fun (pseed, fseed, errors) ->
      let ctx = ctx_of_seed pseed in
      let p = Random.State.int (Random.State.make [| fseed |]) (ctx.total + 1) in
      let plan =
        List.filter (fun (o, _) -> o >= p) (plan_of ctx ~seed:fseed ~errors)
      in
      let injection = Sim.Interp.injection ~tags:ctx.tags ~plan in
      let golden = fingerprint ctx (run_engine ctx ~engine:Sim.Interp.Ref plan) in
      let image_of = function
        | Sim.Interp.Fast -> Some ctx.image
        | Sim.Interp.Ref -> None
      in
      List.for_all
        (fun (cap_e, res_e) ->
          let m =
            Sim.Interp.machine ?image:(image_of cap_e) ~injection
              ~lenient:true ~budget:ctx.budget ctx.code
          in
          let r =
            match Sim.Interp.advance m ~pause_at:p with
            | `Halted -> Sim.Interp.finish m
            | `Paused ->
              let s = Sim.Interp.capture m in
              assert (Sim.Interp.snapshot_ordinal s = p);
              Sim.Interp.finish
                (Sim.Interp.resume ?image:(image_of res_e) ~injection s)
          in
          fingerprint ctx r = golden)
        Sim.Interp.
          [ (Ref, Ref); (Ref, Fast); (Fast, Ref); (Fast, Fast) ])

(* ------------------------------------------------------------------ *)
(* Campaign level: trial records — outcome, counters, landed faults,
   fidelity, fault flow — identical between engine targets, for every
   jobs x checkpoint-stride combination. *)

let flow_str = function
  | None -> "-"
  | Some (s : Sim.Taint.summary) ->
    Printf.sprintf "%s:%d:%d:%d:%d:%d:%s"
      (Sim.Taint.flow_to_string s.Sim.Taint.flow)
      s.Sim.Taint.control_free s.Sim.Taint.control_via_memory
      s.Sim.Taint.address_hits s.Sim.Taint.trap_operand_hits
      s.Sim.Taint.memory_hits
      (match s.Sim.Taint.first_control with
       | None -> "-"
       | Some (fname, pc) -> Printf.sprintf "%s+%d" fname pc)

let record_str (t : Core.Campaign.trial) =
  Printf.sprintf "%d/%s/%d/%d/%d/%s/%s" t.Core.Campaign.index
    (Core.Outcome.describe t.Core.Campaign.outcome)
    t.Core.Campaign.dyn_count t.Core.Campaign.faults_planned
    t.Core.Campaign.faults_landed
    (match t.Core.Campaign.fidelity with
     | None -> "-"
     | Some x -> Printf.sprintf "%h" x)
    (flow_str t.Core.Campaign.fault_flow)

let campaign_records ?taint target ~stride ~jobs =
  let p =
    Core.Campaign.prepare ~checkpoint_stride:stride target
      Core.Policy.Protect_nothing
  in
  let s = Core.Campaign.run ?taint ~jobs p ~errors:3 ~trials:8 ~seed:11 in
  String.concat "|" (List.map record_str s.Core.Campaign.trials)

let test_campaign_grid () =
  let prog = (ctx_of_seed 3).prog in
  let fast = Core.Campaign.of_prog ~engine:Sim.Interp.Fast prog in
  let ref_ = Core.Campaign.of_prog ~engine:Sim.Interp.Ref prog in
  let canonical = campaign_records ref_ ~stride:0 ~jobs:1 in
  List.iter
    (fun jobs ->
      List.iter
        (fun stride ->
          Alcotest.(check string)
            (Printf.sprintf "ref jobs=%d stride=%d" jobs stride)
            canonical
            (campaign_records ref_ ~stride ~jobs);
          Alcotest.(check string)
            (Printf.sprintf "fast jobs=%d stride=%d" jobs stride)
            canonical
            (campaign_records fast ~stride ~jobs))
        [ 0; 1; 3; 5 ])
    [ 1; 2; 4 ]

(* Taint trials always execute on the reference loop (the shadow twin
   is not compiled), but a fast-engine target must still produce the
   identical records and fault flows. *)
let test_campaign_taint_flows () =
  let prog = (ctx_of_seed 5).prog in
  let fast = Core.Campaign.of_prog ~engine:Sim.Interp.Fast prog in
  let ref_ = Core.Campaign.of_prog ~engine:Sim.Interp.Ref prog in
  Alcotest.(check string)
    "taint records agree across engine targets"
    (campaign_records ~taint:true ref_ ~stride:0 ~jobs:2)
    (campaign_records ~taint:true fast ~stride:0 ~jobs:2)

(* ------------------------------------------------------------------ *)
(* Directed trap/timeout parity: each abnormal-outcome class, with its
   provenance, agrees between engines without any injection.           *)

let check_parity name prog =
  let code = Sim.Code.of_prog (Mlang.Compile.to_ir prog) in
  let image = Sim.Interp.compile code in
  let ctx_like r = (outcome_str r, r.Sim.Interp.dyn_count) in
  let run image = Sim.Interp.run ?image ~lenient:true ~budget:2_000 code in
  Alcotest.(check (pair string int))
    name
    (ctx_like (run None))
    (ctx_like (run (Some image)))

let test_abnormal_parity () =
  check_parity "div by zero"
    (program
       [ garray "out" 1 ]
       [
         fn "main" [] ~ret:(Some Mlang.Ast.TInt)
           [ let_ "z" (i 0); ret (i 7 /! v "z") ];
       ]);
  check_parity "out-of-bounds store"
    (program
       [ garray "out" 2 ]
       [
         fn "main" [] ~ret:(Some Mlang.Ast.TInt)
           [ let_ "k" (i 9); sto "out" (v "k") (i 1); ret (i 0) ];
       ]);
  check_parity "timeout"
    (program
       [ garray "out" 1 ]
       [
         fn "main" [] ~ret:(Some Mlang.Ast.TInt)
           [
             let_ "x" (i 1);
             while_ (v "x" >! i 0) [ set "x" (v "x" +! i 1) ];
             ret (i 0);
           ];
       ]);
  check_parity "stack overflow"
    (program
       [ garray "out" 1 ]
       [
         fn "deep" [ p_int "n" ] ~ret:(Some Mlang.Ast.TInt)
           [ ret (call "deep" [ v "n" +! i 1 ]) ];
         fn "main" [] ~ret:(Some Mlang.Ast.TInt)
           [ ret (call "deep" [ i 0 ]) ];
       ])

(* ------------------------------------------------------------------ *)
(* Ordinal window: fused traces run tagged micro-ops and are entered
   only when no planned fault and no pause can fall among the ordinals
   they may consume. These directed programs put planned ordinals and
   pause points on every side of every trace boundary — first, last
   and only tagged micro; a pause one past a trace's last tagged micro;
   a trap at a tagged load, a timeout and a deviating-branch exit
   inside tagged traces — and require the engines to agree on every
   observable, including where each fault landed and the exact dyn and
   ordinal of every pause. [trace_shape] pins that each program really
   compiles to the trace shape its case is about.                      *)

let code_of prog = Sim.Code.of_prog (Mlang.Compile.to_ir prog)

let fid_of code name = Option.get (Sim.Code.fid code name)

(* Tag mask over [code]: [pick fname pc d] decides each slot; only
   value-producing slots ever consume an ordinal. *)
let mask_of code pick =
  Array.map
    (fun (df : Sim.Code.dfunc) ->
      Array.mapi (fun pc d -> pick df.Sim.Code.name pc d) df.Sim.Code.dbody)
    code.Sim.Code.funcs

let all_tags _ _ _ = true

(* Every fused trace of [fname], as (head pc, micros, tagged). *)
let traces_of code image fname =
  let fid = fid_of code fname in
  List.filter_map
    (fun pc ->
      Option.map
        (fun (k, t) -> (pc, k, t))
        (Sim.Interp.trace_shape image ~fid ~pc))
    (List.init (Array.length (Sim.Code.func code fid).Sim.Code.dbody) Fun.id)

let result_fp (r : Sim.Interp.result) =
  Printf.sprintf "%s/dyn=%d/inj=%d/landed=%d/[%s]/mem=%s" (outcome_str r)
    r.Sim.Interp.dyn_count r.Sim.Interp.injectable_seen
    r.Sim.Interp.faults_landed
    (String.concat ";"
       (Array.to_list
          (Array.map
             (fun (fname, pc) -> Printf.sprintf "%s+%d" fname pc)
             r.Sim.Interp.landed_sites)))
    (Sim.Memory.digest r.Sim.Interp.memory)

(* Both engines, one plan: full result fingerprints must match. *)
let agree ?(lenient = true) ~budget code tags image name plan =
  let run image =
    Sim.Interp.run ?image
      ~injection:(Sim.Interp.injection ~tags ~plan)
      ~lenient ~budget code
  in
  let r = run None in
  Alcotest.(check string) name (result_fp r) (result_fp (run (Some image)));
  r

(* Pause both engines at ordinal [p]: the paused state (digest, dyn,
   ordinal, frame) and the finished run must match. *)
let agree_pause ?(lenient = true) ~budget code tags image name p =
  let injection = Sim.Interp.injection ~tags ~plan:[] in
  let paused image =
    let m = Sim.Interp.machine ?image ~injection ~lenient ~budget code in
    match Sim.Interp.advance m ~pause_at:p with
    | `Halted -> "halted:" ^ result_fp (Sim.Interp.finish m)
    | `Paused ->
      let s = Sim.Interp.capture m in
      Printf.sprintf "paused:%d/%d/%d/%s/%s" (Sim.Interp.snapshot_ordinal s)
        (Sim.Interp.snapshot_dyn s) (Sim.Interp.machine_fid m)
        (Sim.Interp.snapshot_digest ~fid_key:string_of_int s)
        (result_fp (Sim.Interp.finish m))
  in
  Alcotest.(check string) name (paused None) (paused (Some image))

(* Single-fault plans at every ordinal and pauses at every ordinal
   boundary — so every trace run's first, last and only tagged micro,
   and the pause one past each run's last tagged micro, are all hit. *)
let sweep ?lenient ?(bit = 3) ~budget code tags image name =
  let golden = agree ?lenient ~budget code tags image (name ^ " golden") [] in
  let total = golden.Sim.Interp.injectable_seen in
  for o = 0 to total - 1 do
    ignore
      (agree ?lenient ~budget code tags image
         (Printf.sprintf "%s fault@%d" name o)
         [ (o, bit) ])
  done;
  for p = 0 to total do
    agree_pause ?lenient ~budget code tags image
      (Printf.sprintf "%s pause@%d" name p)
      p
  done;
  golden

let straight_line =
  program
    [ garray_init "buf" [| 7l; 11l; 13l; 17l; 19l; 23l; 29l; 31l |]; garray "out" 4 ]
    [
      fn "main" [] ~ret:(Some Mlang.Ast.TInt)
        [
          let_ "a" "buf".%(i 1);
          let_ "b" (v "a" *! "buf".%(i 2));
          let_ "c" ((v "b" +! v "a") ^! "buf".%(i 3));
          sto "out" (i 0) (v "c" -! v "b");
          sto "out" (i 1) (v "c" &! i 255);
          ret (v "c");
        ];
    ]

let test_window_straight_line () =
  let code = code_of straight_line in
  let budget = 10_000 in
  (* Only one value-producing slot tagged: a trace whose only tagged
     micro carries ordinal 0. *)
  let only_pc =
    let body = (Sim.Code.func code (fid_of code "main")).Sim.Code.dbody in
    let rec find pc =
      match body.(pc) with
      | Sim.Code.DBin (Ir.Instr.Mul, _, _, _) -> pc
      | _ -> find (pc + 1)
    in
    find 0
  in
  let only = mask_of code (fun f pc _ -> f = "main" && pc = only_pc) in
  let image = Sim.Interp.compile ~tags:only code in
  Alcotest.(check bool) "a trace with a single tagged micro" true
    (List.exists (fun (_, _, t) -> t = 1) (traces_of code image "main"));
  let r = sweep ~budget code only image "only" in
  Alcotest.(check int) "one ordinal" 1 r.Sim.Interp.injectable_seen;
  (* Dense mask: the same trace now starts and ends on tagged micros. *)
  let dense = mask_of code all_tags in
  let image = Sim.Interp.compile ~tags:dense code in
  Alcotest.(check bool) "a trace with several tagged micros" true
    (List.exists (fun (_, _, t) -> t > 2) (traces_of code image "main"));
  ignore (sweep ~budget code dense image "dense")

(* Data-dependent forward branch inside an unrolled loop: traces
   assume fall-through and exit on deviation after tagged micros. *)
let branchy_loop =
  program
    [ garray_init "buf" [| 70l; 10l; 90l; 20l; 30l; 80l; 60l; 5l |]; garray "out" 2 ]
    [
      fn "main" [] ~ret:(Some Mlang.Ast.TInt)
        [
          let_ "s" (i 0);
          let_ "t" (i 1);
          for_ "k" (i 0) (i 24)
            [
              if_
                ("buf".%(v "k" &! i 7) >! i 50)
                [ set "s" (v "s" +! v "k") ]
                [ set "t" (v "t" *! i 3 +! v "s") ];
            ];
          sto "out" (i 0) (v "s");
          sto "out" (i 1) (v "t");
          ret (v "s" +! v "t");
        ];
    ]

let test_window_deviation () =
  let code = code_of branchy_loop in
  let tags = mask_of code all_tags in
  let image = Sim.Interp.compile ~tags code in
  Alcotest.(check bool) "the loop runs in tagged traces" true
    (List.exists (fun (_, k, t) -> k > 8 && t > 4) (traces_of code image "main"));
  ignore (sweep ~budget:50_000 code tags image "deviation")

(* Strict memory: the loop walks off the end of [buf], trapping at a
   tagged load in the middle of a fused trace. The engines must agree
   on the trap site, dyn and the ordinals consumed before the trap —
   the trapping load's own write-back never happened. *)
let trapping_loop =
  program
    [ garray "buf" 8; garray "out" 1 ]
    [
      fn "main" [] ~ret:(Some Mlang.Ast.TInt)
        [
          let_ "s" (i 0);
          let_ "k" (i 0);
          while_ (v "k" <! i 1000)
            [
              set "s" (v "s" +! (v "k" *! i 5));
              set "s" (v "s" ^! "buf".%(v "k"));
              set "k" (v "k" +! i 1);
            ];
          sto "out" (i 0) (v "s");
          ret (v "s");
        ];
    ]

let test_window_trap () =
  let code = code_of trapping_loop in
  let tags = mask_of code all_tags in
  let image = Sim.Interp.compile ~tags code in
  let r = sweep ~lenient:false ~budget:50_000 code tags image "trap" in
  (match (r.Sim.Interp.outcome, r.Sim.Interp.trap_site) with
   | Sim.Interp.Trapped _, Some ("main", pc) ->
     Alcotest.(check bool) "trap at a tagged load" true
       (match (Sim.Code.func code (fid_of code "main")).Sim.Code.dbody.(pc) with
        | Sim.Code.DLw _ -> true
        | _ -> false);
     Alcotest.(check bool) "inside a trace, not at its head" true
       (not (List.exists (fun (h, _, _) -> h = pc) (traces_of code image "main")))
   | _ -> Alcotest.fail "expected a trap in main");
  Alcotest.(check bool) "ordinals were consumed before the trap" true
    (r.Sim.Interp.injectable_seen > 8)

(* An endless tagged loop under a budget: fused traces run until the
   worst case could overrun, then the classic chain steps to exactly
   dyn = budget + 1. Budgets around every residue of the trace length
   are swept, with a planned fault and a pause inside the loop too. *)
let endless_loop =
  program
    [ garray_init "buf" [| 3l; 1l; 4l; 1l; 5l; 9l; 2l; 6l |]; garray "out" 1 ]
    [
      fn "main" [] ~ret:(Some Mlang.Ast.TInt)
        [
          let_ "s" (i 1);
          let_ "k" (i 0);
          while_ (v "s" >! i 0)
            [
              set "s" ((v "s" +! "buf".%(v "k" &! i 7)) |! i 1);
              set "k" (v "k" +! i 1);
            ];
          sto "out" (i 0) (v "k");
          ret (v "s");
        ];
    ]

let test_window_timeout () =
  let code = code_of endless_loop in
  let tags = mask_of code all_tags in
  let image = Sim.Interp.compile ~tags code in
  let klen =
    List.fold_left (fun acc (_, k, _) -> max acc k) 0 (traces_of code image "main")
  in
  Alcotest.(check bool) "a long tagged loop trace" true (klen > 100);
  for budget = 2_000 to 2_000 + klen do
    let r =
      agree ~budget code tags image (Printf.sprintf "timeout budget=%d" budget) []
    in
    if r.Sim.Interp.outcome <> Sim.Interp.Timeout then
      Alcotest.fail "expected a timeout";
    ignore
      (agree ~budget code tags image
         (Printf.sprintf "timeout budget=%d with fault" budget)
         [ (r.Sim.Interp.injectable_seen - 2, 0) ]);
    agree_pause ~budget code tags image
      (Printf.sprintf "timeout budget=%d pause" budget)
      (r.Sim.Interp.injectable_seen - 1)
  done

(* ------------------------------------------------------------------ *)
(* Call-heavy programs under the densest mask: different functions
   called at the same depth (one reused frame slot, different banks),
   int, float and void returns, recursion up to and past
   [max_call_depth], and capture/resume in the middle of a call chain
   across all four engine pairings.                                     *)

let gen_call_prog seed =
  let rng = Random.State.make [| 0xca11; seed |] in
  let iters = 3 + Random.State.int rng 10 in
  let depth =
    match Random.State.int rng 4 with
    | 0 -> Random.State.int rng 40
    | 1 -> Sim.Interp.max_call_depth - 1 - Random.State.int rng 3
    | 2 -> Sim.Interp.max_call_depth + Random.State.int rng 3
    | _ -> 1 + Random.State.int rng 200
  in
  let c1 = Random.State.int rng 50 and c2 = 1 + Random.State.int rng 9 in
  program
    [ garray "buf" 8; garray "out" 4; garray_f "fout" 1 ]
    [
      fn "leaf" [ p_int "a" ] ~ret:(Some Mlang.Ast.TInt)
        [ ret ((v "a" *! i 3) +! "buf".%(v "a" &! i 7)) ];
      fn "fa" [ p_int "a"; p_int "b" ] ~ret:(Some Mlang.Ast.TInt)
        [ ret (call "leaf" [ v "a" ] +! call "leaf" [ v "b" ] -! i 1) ];
      fn "fb" [ p_int "a" ] ~ret:(Some Mlang.Ast.TInt)
        [
          if_
            (v "a" >! i c1)
            [ ret (call "leaf" [ v "a" -! i c2 ]) ]
            [ ret (call "fa" [ v "a"; i c2 ] ^! v "a") ];
        ];
      fn "ff" [ p_flt "x"; p_int "k" ] ~ret:(Some Mlang.Ast.TFlt)
        [ ret ((v "x" *!. f 0.5) +!. i2f (v "k")) ];
      proc "fv" [ p_int "a"; p_int "k" ]
        [ sto "buf" (v "k" &! i 7) (v "a" &! i 1023) ];
      fn "rdeep" [ p_int "n" ] ~ret:(Some Mlang.Ast.TInt)
        [
          if_
            (v "n" <=! i 0)
            [ ret (i 0) ]
            [ ret (i 1 +! call "rdeep" [ v "n" -! i 1 ]) ];
        ];
      fn "main" [] ~ret:(Some Mlang.Ast.TInt)
        [
          let_ "x" (i (Random.State.int rng 30));
          let_ "y" (i (Random.State.int rng 90));
          let_ "z" (f 1.0);
          for_ "k" (i 0) (i iters)
            [
              set "x" (call "fa" [ v "x" &! i 255; v "k" ]);
              set "y" (call "fb" [ (v "y" +! v "k") &! i 127 ]);
              call_ "fv" [ v "x" +! v "y"; v "k" ];
              set "z" (call "ff" [ v "z"; v "k" ]);
            ];
          let_ "r" (call "rdeep" [ i depth ]);
          sto "out" (i 0) (v "x");
          sto "out" (i 1) (v "y");
          sto "out" (i 2) (v "r");
          sto "fout" (i 0) (v "z");
          ret (v "x" +! v "r");
        ];
    ]

let call_ctx_cache : (int, ctx) Hashtbl.t = Hashtbl.create 16

let call_ctx seed =
  match Hashtbl.find_opt call_ctx_cache seed with
  | Some c -> c
  | None ->
    let prog = Mlang.Compile.to_ir (gen_call_prog seed) in
    let code = Sim.Code.of_prog prog in
    let tags = mask_of code all_tags in
    let image = Sim.Interp.compile ~tags code in
    let golden =
      Sim.Interp.run
        ~injection:(Sim.Interp.injection ~tags ~plan:[])
        ~lenient:true code
    in
    let c =
      {
        prog;
        code;
        tags;
        image;
        total = golden.Sim.Interp.injectable_seen;
        budget = Core.Campaign.timeout_factor * golden.Sim.Interp.dyn_count;
      }
    in
    Hashtbl.replace call_ctx_cache seed c;
    c

let call_fp ctx r =
  result_fp r ^ "/"
  ^ String.concat ","
      (Array.to_list
         (Array.map string_of_int
            (Sim.Memory.read_global_ints r.Sim.Interp.memory ctx.prog "out")))

let call_differential =
  QCheck.Test.make ~name:"call-heavy dense-tag programs: fast == ref"
    ~count:60
    QCheck.(triple (int_bound 23) (int_bound 10_000) (int_range 0 6))
    (fun (pseed, fseed, errors) ->
      let ctx = call_ctx pseed in
      let plan = plan_of ctx ~seed:fseed ~errors in
      call_fp ctx (run_engine ctx ~engine:Sim.Interp.Ref plan)
      = call_fp ctx (run_engine ctx ~engine:Sim.Interp.Fast plan))

(* From a random start, the first ordinal boundary where the machine
   is inside a callee (not the entry function) — a pause mid call
   chain. *)
let mid_chain_pause ctx start =
  let main = fid_of ctx.code "main" in
  let injection = Sim.Interp.injection ~tags:ctx.tags ~plan:[] in
  let rec find p =
    if p > ctx.total then None
    else
      let m =
        Sim.Interp.machine ~injection ~lenient:true ~budget:ctx.budget ctx.code
      in
      match Sim.Interp.advance m ~pause_at:p with
      | `Paused when Sim.Interp.machine_fid m <> main -> Some p
      | _ -> find (p + 1)
  in
  find start

let call_pause_resume =
  QCheck.Test.make
    ~name:"call-heavy: capture/resume mid call chain, all engine pairings"
    ~count:40
    QCheck.(triple (int_bound 23) (int_bound 10_000) (int_range 0 6))
    (fun (pseed, fseed, errors) ->
      let ctx = call_ctx pseed in
      let start =
        Random.State.int (Random.State.make [| fseed |]) (ctx.total + 1)
      in
      match mid_chain_pause ctx start with
      | None -> true
      | Some p ->
        let plan =
          List.filter (fun (o, _) -> o >= p) (plan_of ctx ~seed:fseed ~errors)
        in
        let injection = Sim.Interp.injection ~tags:ctx.tags ~plan in
        let golden = call_fp ctx (run_engine ctx ~engine:Sim.Interp.Ref plan) in
        let image_of = function
          | Sim.Interp.Fast -> Some ctx.image
          | Sim.Interp.Ref -> None
        in
        List.for_all
          (fun (cap_e, res_e) ->
            let m =
              Sim.Interp.machine ?image:(image_of cap_e) ~injection
                ~lenient:true ~budget:ctx.budget ctx.code
            in
            match Sim.Interp.advance m ~pause_at:p with
            | `Halted -> false
            | `Paused ->
              let s = Sim.Interp.capture m in
              call_fp ctx
                (Sim.Interp.finish
                   (Sim.Interp.resume ?image:(image_of res_e) ~injection s))
              = golden)
          Sim.Interp.[ (Ref, Ref); (Ref, Fast); (Fast, Ref); (Fast, Fast) ])

(* Both sides of the recursion limit are generated: some programs
   return from exactly [max_call_depth] frames, others overflow. *)
let test_call_depth_coverage () =
  let outcomes =
    List.init 24 (fun seed ->
        let ctx = call_ctx seed in
        match (run_engine ctx ~engine:Sim.Interp.Fast []).Sim.Interp.outcome with
        | Sim.Interp.Trapped (Sim.Trap.Call_stack_overflow _) -> `Overflow
        | Sim.Interp.Done _ -> `Done
        | _ -> `Other)
  in
  Alcotest.(check bool) "some programs overflow" true (List.mem `Overflow outcomes);
  Alcotest.(check bool) "some programs complete" true (List.mem `Done outcomes)

(* Calls allocate nothing: a trial of a call-in-loop program allocates
   the same minor words for n and 2n iterations. *)
let call_loop n =
  program
    [ garray "out" 1 ]
    [
      fn "step" [ p_int "a"; p_int "k" ] ~ret:(Some Mlang.Ast.TInt)
        [ ret ((v "a" *! i 3) +! v "k" &! i 0xFFFF) ];
      fn "main" [] ~ret:(Some Mlang.Ast.TInt)
        [
          let_ "s" (i 1);
          for_ "k" (i 0) (i n) [ set "s" (call "step" [ v "s"; v "k" ]) ];
          sto "out" (i 0) (v "s");
          ret (v "s");
        ];
    ]

let test_call_alloc () =
  let trial_words n =
    let code = code_of (call_loop n) in
    let tags = mask_of code all_tags in
    let image = Sim.Interp.compile ~tags code in
    let injection = Sim.Interp.injection ~tags ~plan:[ (n, 5) ] in
    let run () =
      let w0 = Gc.minor_words () in
      let r = Sim.Interp.run ~image ~injection ~lenient:true code in
      let w = Gc.minor_words () -. w0 in
      (r, w)
    in
    ignore (run ());
    let r, w = run () in
    Alcotest.(check bool) "ran to completion" true
      (match r.Sim.Interp.outcome with Sim.Interp.Done _ -> true | _ -> false);
    w
  in
  let w1 = trial_words 2_000 and w2 = trial_words 4_000 in
  if w2 > w1 +. 16. then
    Alcotest.failf "minor words grow with calls: %.0f for n, %.0f for 2n" w1 w2

(* ------------------------------------------------------------------ *)
(* Cache compatibility: [snapshot_digest] keys existing _etap_cache
   entries, so its bytes are frozen. This is the digest of a fixed gsm
   pause point, mid call chain, as computed before frame slots existed;
   both engines must still produce it.                                 *)

let test_digest_pinned () =
  let app = Option.get (Apps.Registry.find "gsm") in
  let prog = (app.Apps.App.build ~seed:1).Apps.App.prog in
  let code = Sim.Code.of_prog prog in
  let tags =
    Core.Tagging.mask (Core.Tagging.compute prog) Core.Policy.Protect_nothing
  in
  let image = Sim.Interp.compile ~tags code in
  let injection = Sim.Interp.injection ~tags ~plan:[] in
  let fid_key fid = (Sim.Code.func code fid).Sim.Code.name in
  List.iter
    (fun (label, image) ->
      let m = Sim.Interp.machine ?image ~injection ~lenient:true code in
      match Sim.Interp.advance m ~pause_at:54_321 with
      | `Halted -> Alcotest.fail "gsm halted before the pause point"
      | `Paused ->
        let s = Sim.Interp.capture m in
        Alcotest.(check string) (label ^ ": paused in encode") "encode"
          (fid_key (Sim.Interp.machine_fid m));
        Alcotest.(check int) (label ^ ": dyn") 69_063 (Sim.Interp.snapshot_dyn s);
        Alcotest.(check string) (label ^ ": digest")
          "c1ec299b23d63f8b10a952df2e745e6e"
          (Sim.Interp.snapshot_digest ~fid_key s))
    [ ("ref", None); ("fast", Some image) ]

(* ------------------------------------------------------------------ *)
(* Guards: the fast engine's compile-time binding is enforced.         *)

let test_engine_guards () =
  let ctx = ctx_of_seed 0 in
  Alcotest.(check string) "engine names" "fast,ref"
    (String.concat ","
       (List.map Sim.Interp.engine_name [ Sim.Interp.Fast; Sim.Interp.Ref ]));
  (* The injection's tag mask must be the compiled one (physical
     equality): a structurally equal copy is rejected. *)
  let copy = Array.map Array.copy ctx.tags in
  Alcotest.(check bool) "foreign tag mask rejected" true
    (try
       ignore
         (Sim.Interp.machine ~image:ctx.image
            ~injection:(Sim.Interp.injection ~tags:copy ~plan:[])
            ~lenient:true ctx.code);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "count_exec stays on the reference loop" true
    (try
       ignore
         (Sim.Interp.machine ~image:ctx.image ~count_exec:true ~lenient:true
            ctx.code);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "taint stays on the reference loop" true
    (try
       ignore (Sim.Interp.run ~image:ctx.image ~taint:true ctx.code);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "engine"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest run_differential;
          QCheck_alcotest.to_alcotest pause_resume_cross;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "records over jobs x strides" `Quick
            test_campaign_grid;
          Alcotest.test_case "taint fault flows" `Quick
            test_campaign_taint_flows;
        ] );
      ( "directed",
        [
          Alcotest.test_case "abnormal outcome parity" `Quick
            test_abnormal_parity;
          Alcotest.test_case "engine guards" `Quick test_engine_guards;
        ] );
      ( "window",
        [
          Alcotest.test_case "first, last and only tagged micro" `Quick
            test_window_straight_line;
          Alcotest.test_case "deviating exit after tagged micros" `Quick
            test_window_deviation;
          Alcotest.test_case "trap at a tagged load in a trace" `Quick
            test_window_trap;
          Alcotest.test_case "timeout inside a tagged trace" `Quick
            test_window_timeout;
        ] );
      ( "calls",
        [
          QCheck_alcotest.to_alcotest call_differential;
          QCheck_alcotest.to_alcotest call_pause_resume;
          Alcotest.test_case "recursion on both sides of the limit" `Quick
            test_call_depth_coverage;
          Alcotest.test_case "calls allocate nothing" `Quick test_call_alloc;
          Alcotest.test_case "snapshot digest pinned" `Quick
            test_digest_pinned;
        ] );
    ]
