(* Functional simulator.

   Executes a decoded [Code.t] image: no timing model, exact
   architectural state, faithful trap semantics — the SimpleScalar
   "sim-safe" role in the paper's methodology. The interpreter exposes
   the paper's fault-injection hook: an [injection] carries a
   per-instruction injectability mask (the tagging analysis output) and
   a plan mapping ordinals *among dynamic executions of injectable
   instructions* to bit positions. When execution reaches a planned
   ordinal, the bit is flipped in the just-computed destination value
   before write-back, and the corruption then propagates
   architecturally.

   The plan is kept as a pair of parallel arrays sorted by ordinal and
   consumed with a monotone cursor: ordinals are assigned in increasing
   order, so "is this ordinal planned?" is a single integer compare
   against the next pending entry instead of a hash probe on every
   injectable execution.

   Execution is an *explicit machine* (see Machine): a stack of frame
   slots {fid; pc; iregs; fregs} plus the dynamic counters, so the full
   architectural state is a first-class value — execution can pause at
   any injectable-ordinal boundary, be captured into an immutable
   [snapshot], and resume later, the basis of checkpointed
   fork-from-prefix campaigns (see Snapshot and Core.Campaign).

   Two engines drive that machine:
   - the *reference* engine is the match-dispatch loop below ([exec]):
     one [Code.d] match per dynamic instruction, easy to audit against
     the semantics;
   - the *fast* engine (Threaded) pre-compiles each function body into
     a flat array of specialized closures with direct threading, and is
     selected by building the machine from a compiled [image].
   Both engines produce bit-identical results — trial records,
   outcomes, trap sites, landed-fault attribution, snapshots — which
   the differential suite in test_engine pins on random programs.

   Taint mode keeps the original recursive twin ([call_t] below): it
   threads per-frame shadow state through the host stack, is engine-
   independent and not snapshotable — audit campaigns run from
   scratch. *)

open Machine

type injection = Machine.injection = {
  tags : bool array array;  (* fid -> body index -> injectable *)
  plan_ords : int array;    (* planned ordinals, strictly increasing *)
  plan_bits : int array;    (* bit to flip, parallel to [plan_ords] *)
}

let injection ~tags ~plan : injection =
  let plan = List.sort (fun (a, _) (b, _) -> Int.compare a b) plan in
  let n = List.length plan in
  let ords = Array.make n 0 and bits = Array.make n 0 in
  List.iteri
    (fun i (o, b) ->
      if o < 0 then invalid_arg "Interp.injection: negative ordinal";
      if i > 0 && ords.(i - 1) = o then
        invalid_arg "Interp.injection: duplicate ordinal";
      ords.(i) <- o;
      bits.(i) <- b)
    plan;
  { tags; plan_ords = ords; plan_bits = bits }

type outcome =
  | Done of Value.t option
  | Trapped of Trap.t
  | Timeout

type result = {
  outcome : outcome;
  dyn_count : int;          (* dynamic instructions executed *)
  injectable_seen : int;    (* dynamic executions of injectable instructions *)
  faults_landed : int;      (* plan entries actually applied *)
  memory : Memory.t;
  exec_counts : int array array;  (* fid -> body index -> executions *)
  trap_site : (string * int) option;
      (* (function name, body index) of the trapping instruction when
         [outcome] is [Trapped]; [None] otherwise *)
  landed_sites : (string * int) array;
      (* (function name, body index) of each landed fault, in landing
         order; length [faults_landed]. The raw material of the obs
         fault-site attribution profile. *)
  fault_flow : Taint.summary option;
      (* [Some] iff [taint] was set: the shadow-taint fault-flow
         classification of this run *)
}

exception Timeout_exn = Machine.Timeout_exn

let max_call_depth = Machine.max_call_depth

(* ---------------------------- engines ---------------------------- *)

type engine =
  | Fast
  | Ref

let engine_name = function Fast -> "fast" | Ref -> "ref"

type image = Machine.image

let compile = Threaded.compile

let trace_shape (img : image) ~fid ~pc =
  match img.ishapes.(fid).(pc) with
  | -1 -> None
  | v -> Some (v lsr 20, v land 0xFFFFF)

type machine = Machine.t

let machine ?image ?injection ?lenient ?budget ?count_exec ?memory code :
    machine =
  Machine.make ?image ?injection ?lenient ?budget ?count_exec ?memory code

(* The reference dispatch loop. Executes until the machine halts, or
   pauses as soon as [m.pause_at] injectable ordinals have been seen —
   the pause check sits at the top of dispatch and ordinals advance by
   at most one per dispatched instruction, so a pause lands exactly at
   ordinal [pause_at] (before any ordinal >= pause_at is consumed).

   The outer loop re-caches per-frame state (body, registers, tag row,
   counter row) whenever a call or return switches the head frame; the
   inner [loop] is a tail-recursive hot path over one frame. *)
let exec m =
  let funcs = m.code.Code.funcs in
  let memory = m.memory in
  let pause_at = m.pause_at in
  while is_running m do
    let fr = m.frames.(m.depth) in
    let df = Array.unsafe_get funcs fr.fid in
    let body = df.Code.dbody in
    let len = Array.length body in
    let iregs = fr.iregs and fregs = fr.fregs in
    let counts = if m.count_exec then m.exec_counts.(fr.fid) else no_counts in
    let ftags = if m.has_injection then m.all_tags.(fr.fid) else no_tags in
    m.cur_fid <- fr.fid;
    (* Returns unit when the head frame changed (call or return) or the
       machine halted; the outer loop then re-enters. *)
    let rec loop pc =
      fr.pc <- pc;
      if m.inj_seen >= pause_at then raise Pause_exn;
      if pc >= len then
        (* The validator guarantees terminators, so this is only
           reachable through interpreter bugs; fail loudly. *)
        invalid_arg (Printf.sprintf "pc past end of %s" df.Code.name);
      let d = Array.unsafe_get body pc in
      (match d with
       | Code.DNop -> ()
       | _ ->
         m.dyn <- m.dyn + 1;
         if m.dyn > m.budget then raise Timeout_exn;
         if m.count_exec then counts.(pc) <- counts.(pc) + 1);
      match d with
      | Code.DNop -> loop (pc + 1)
      | Code.DLi (d, v) ->
        iregs.(d) <- inject_i m ftags pc v;
        loop (pc + 1)
      | Code.DLf (d, x) ->
        fregs.(d) <- inject_f m ftags pc x;
        loop (pc + 1)
      | Code.DLa (d, addr) ->
        iregs.(d) <- inject_i m ftags pc addr;
        loop (pc + 1)
      | Code.DMovI (d, s) ->
        iregs.(d) <- inject_i m ftags pc iregs.(s);
        loop (pc + 1)
      | Code.DMovF (d, s) ->
        fregs.(d) <- inject_f m ftags pc fregs.(s);
        loop (pc + 1)
      | Code.DBin (op, d, a, b) ->
        iregs.(d) <- inject_i m ftags pc (binop_i op iregs.(a) iregs.(b));
        loop (pc + 1)
      | Code.DBini (op, d, a, n) ->
        iregs.(d) <- inject_i m ftags pc (binop_i op iregs.(a) n);
        loop (pc + 1)
      | Code.DCmp (op, d, a, b) ->
        iregs.(d) <-
          inject_i m ftags pc (if cmp_i op iregs.(a) iregs.(b) then 1 else 0);
        loop (pc + 1)
      | Code.DFbin (op, d, a, b) ->
        fregs.(d) <- inject_f m ftags pc (binop_f op fregs.(a) fregs.(b));
        loop (pc + 1)
      | Code.DFun (op, d, s) ->
        fregs.(d) <- inject_f m ftags pc (unop_f op fregs.(s));
        loop (pc + 1)
      | Code.DFcmp (op, d, a, b) ->
        iregs.(d) <-
          inject_i m ftags pc (if cmp_f op fregs.(a) fregs.(b) then 1 else 0);
        loop (pc + 1)
      | Code.DI2f (d, s) ->
        fregs.(d) <- inject_f m ftags pc (float_of_int iregs.(s));
        loop (pc + 1)
      | Code.DF2i (d, s) ->
        iregs.(d) <- inject_i m ftags pc (f2i fregs.(s));
        loop (pc + 1)
      | Code.DLw (d, b, o) ->
        iregs.(d) <- inject_i m ftags pc (Memory.load_int memory (iregs.(b) + o));
        loop (pc + 1)
      | Code.DSw (v, b, o) ->
        Memory.store_int memory (iregs.(b) + o) iregs.(v);
        loop (pc + 1)
      | Code.DLb (d, b, o) ->
        iregs.(d) <-
          inject_i m ftags pc (Memory.load_byte memory (iregs.(b) + o));
        loop (pc + 1)
      | Code.DSb (v, b, o) ->
        Memory.store_byte memory (iregs.(b) + o) iregs.(v);
        loop (pc + 1)
      | Code.DLwf (d, b, o) ->
        fregs.(d) <- inject_f m ftags pc (Memory.load_flt memory (iregs.(b) + o));
        loop (pc + 1)
      | Code.DSwf (v, b, o) ->
        Memory.store_flt memory (iregs.(b) + o) fregs.(v);
        loop (pc + 1)
      | Code.DBr (op, a, b, target) ->
        if cmp_i op iregs.(a) iregs.(b) then loop target else loop (pc + 1)
      | Code.DBrz (op, a, target) ->
        if cmp_i op iregs.(a) 0 then loop target else loop (pc + 1)
      | Code.DJmp target -> loop target
      | Code.DCall c ->
        (* Depth check before the push: the overflow is attributed to
           this call site (the head frame's pc is parked here), with
           the callee's would-be depth as payload — same as the
           recursive interpreter's entry check seen from its caller. *)
        let callee_depth = m.depth + 1 in
        if callee_depth > max_call_depth then
          raise (Trap.Error (Trap.Call_stack_overflow callee_depth));
        let callee = Array.unsafe_get funcs c.Code.fid in
        let nf =
          enter m c.Code.fid (max callee.Code.n_int 1) (max callee.Code.n_flt 1)
        in
        Array.iter
          (fun (src, dst) -> nf.iregs.(dst) <- iregs.(src))
          c.Code.iargs;
        Array.iter
          (fun (src, dst) -> nf.fregs.(dst) <- fregs.(src))
          c.Code.fargs
        (* head frame changed: fall out to the outer loop *)
      | Code.DRetI r -> return_i m iregs.(r)
      | Code.DRetF r -> return_f m fregs.(r)
      | Code.DRetV -> return_v m
    in
    loop fr.pc
  done

let advance m ~pause_at : [ `Paused | `Halted ] =
  match m.status with
  | Running -> (
    m.pause_at <- pause_at;
    try
      (if Array.length m.fast > 0 then Threaded.exec m else exec m);
      `Halted
    with
    | Pause_exn -> `Paused
    | Trap.Error t ->
      (* The head frame's pc is synced at every observable point, so it
         points at the trapping instruction; traps raised inside a
         callee are attributed innermost (the callee is the head
         frame). *)
      let fr = m.frames.(m.depth) in
      let site = Some (fr.fid, fr.pc) in
      m.status <- Trapped_ (t, site);
      `Halted
    | Timeout_exn ->
      m.status <- Timeout_;
      `Halted)
  | _ -> `Halted

(* Telemetry for one finished run. Cold path (once per run) and
   guarded by [Obs.enabled], so the dispatch loop stays oblivious to
   observability. Counter totals depend only on what the run executed,
   never on scheduling or engine — the jobs-invariance contract of
   lib/obs extends to engine-invariance. *)
let obs_run_counters ~dyn ~inj_seen ~landed ~outcome ~trap_site =
  if Obs.enabled () then begin
    Obs.count "sim.runs" 1;
    Obs.count "sim.instructions" dyn;
    Obs.count "sim.injectable_seen" inj_seen;
    if landed > 0 then Obs.count "sim.faults_landed" landed;
    (match outcome with
     | Trapped t ->
       Obs.count ("sim.trap." ^ Trap.kind t) 1;
       (match trap_site with
        | Some (func, pc) ->
          Obs.count (Printf.sprintf "sim.trap_site.%s+%d" func pc) 1
        | None -> ())
     | Timeout -> Obs.count "sim.timeouts" 1
     | Done _ -> ())
  end

let finish m : result =
  (match advance m ~pause_at:max_int with
   | `Halted -> ()
   | `Paused -> assert false);
  let outcome, trap_site =
    match m.status with
    | Running -> assert false
    | Done_ v -> (Done v, None)
    | Timeout_ -> (Timeout, None)
    | Trapped_ (t, site) ->
      ( Trapped t,
        match site with
        | Some (fid, pc) -> Some (m.code.Code.funcs.(fid).Code.name, pc)
        | None -> None )
  in
  obs_run_counters ~dyn:m.dyn ~inj_seen:m.inj_seen ~landed:m.landed ~outcome
    ~trap_site;
  {
    outcome;
    dyn_count = m.dyn;
    injectable_seen = m.inj_seen;
    faults_landed = m.landed;
    memory = m.memory;
    exec_counts = m.exec_counts;
    trap_site;
    landed_sites =
      Array.init m.landed (fun i ->
          (m.code.Code.funcs.(m.land_fids.(i)).Code.name, m.land_pcs.(i)));
    fault_flow = None;
  }

(* --------------------------- snapshots --------------------------- *)

type snapshot = Machine.snapshot

let capture = Machine.capture
let snapshot_ordinal = Machine.snapshot_ordinal
let snapshot_dyn = Machine.snapshot_dyn
let snapshot_digest = Machine.snapshot_digest
let machine_fid = Machine.machine_fid

let resume ?image ?injection (s : snapshot) : machine =
  Machine.restore ?image ?injection s

(* ------------------------- taint twin run ------------------------- *)

(* Taint mode is a second, fully separate interpreter loop ([call_t]
   below) rather than hooks in the plain one: the plain loop is the
   campaign hot path and must not pay even a predictable branch per
   instruction for an audit-only feature. The two loops share every
   value-level helper ([binop_i], [f2i], the plan cursor, the trap
   bookkeeping), execute instructions in the same order and call the
   injection hook at the same write-back points, so ordinals — and
   therefore where a plan's faults land — are identical in both modes;
   test_taint pins that equivalence with a property test. It stays
   host-stack recursive (per-frame shadow state lives in the recursion)
   and is therefore not snapshotable: audit trials run from scratch. *)
let run_taint ?injection ?lenient ~budget ~count_exec ?memory (code : Code.t) :
    result =
  let memory =
    match memory with
    | Some mem -> mem
    | None -> Memory.of_prog ?lenient code.Code.prog
  in
  let dyn = ref 0 in
  let inj_seen = ref 0 in
  let landed = ref 0 in
  (* Trap provenance: (fid, pc) of the instruction whose evaluation
     raised. Written once, by the innermost handler (the call arm sees
     traps propagating out of callees and must not overwrite the
     callee's record). Cold path: only touched when a trap fires. *)
  let trap_fid = ref (-1) in
  let trap_pc = ref (-1) in
  let trap_at fid pc e =
    if !trap_fid < 0 then begin
      trap_fid := fid;
      trap_pc := pc
    end;
    raise e
  in
  let exec_counts =
    if count_exec then
      Array.map
        (fun (df : Code.dfunc) -> Array.make (Array.length df.Code.dbody) 0)
        code.Code.funcs
    else [||]
  in
  let plan_ords, plan_bits =
    match (injection : injection option) with
    | Some { plan_ords; plan_bits; _ } -> (plan_ords, plan_bits)
    | None -> (no_counts, no_counts)
  in
  let plan_len = Array.length plan_ords in
  let land_fids = Array.make plan_len 0 in
  let land_pcs = Array.make plan_len 0 in
  let cursor = ref 0 in
  let next_planned = ref (if plan_len > 0 then plan_ords.(0) else max_int) in
  let advance_plan () =
    let c = !cursor + 1 in
    cursor := c;
    next_planned :=
      (if c < plan_len then Array.unsafe_get plan_ords c else max_int);
    incr landed;
    Array.unsafe_get plan_bits (c - 1)
  in
  let all_tags =
    match (injection : injection option) with
    | Some { tags; _ } -> tags
    | None -> [||]
  in
  let has_injection = Array.length all_tags > 0 in
  let tr = Taint.make ~cells:(Memory.size_bytes memory / 4) in
  (* Returns the function's result together with the taint of the
     returned value, so contamination survives call boundaries. *)
  let rec call_t depth fid set_args : Value.t option * Taint.mask =
    if depth > max_call_depth then
      raise (Trap.Error (Trap.Call_stack_overflow depth));
    let df = code.Code.funcs.(fid) in
    let iregs = Array.make (max df.Code.n_int 1) 0 in
    let fregs = Array.make (max df.Code.n_flt 1) 0.0 in
    let itn = Array.make (max df.Code.n_int 1) Taint.none in
    let ftn = Array.make (max df.Code.n_flt 1) Taint.none in
    set_args iregs fregs itn ftn;
    let body = df.Code.dbody in
    let len = Array.length body in
    let counts = if count_exec then exec_counts.(fid) else no_counts in
    let ftags = if has_injection then all_tags.(fid) else [||] in
    let inject_i pc v =
      if has_injection && Array.unsafe_get ftags pc then begin
        let ord = !inj_seen in
        incr inj_seen;
        if ord = !next_planned then begin
          let bit = advance_plan () in
          land_fids.(!landed - 1) <- fid;
          land_pcs.(!landed - 1) <- pc;
          Value.flip_int ~bit:(bit land 31) v
        end
        else v
      end
      else v
    in
    let inject_f pc x =
      if has_injection && Array.unsafe_get ftags pc then begin
        let ord = !inj_seen in
        incr inj_seen;
        if ord = !next_planned then begin
          let bit = advance_plan () in
          land_fids.(!landed - 1) <- fid;
          land_pcs.(!landed - 1) <- pc;
          Value.flip_float ~bit:(bit land 63) x
        end
        else x
      end
      else x
    in
    (* Write-back with shadow taint: record operand taint [tv] flowing
       into the destination, run the injection hook at exactly the same
       point as the plain loop, and seed fresh (memory-free) taint when
       a fault lands here. *)
    let set_i d pc tv v =
      Taint.propagate tr tv;
      let l0 = !landed in
      iregs.(d) <- inject_i pc v;
      itn.(d) <- (if !landed > l0 then tv lor Taint.fresh else tv)
    in
    let set_f d pc tv x =
      Taint.propagate tr tv;
      let l0 = !landed in
      fregs.(d) <- inject_f pc x;
      ftn.(d) <- (if !landed > l0 then tv lor Taint.fresh else tv)
    in
    let rec loop pc : Value.t option * Taint.mask =
      if pc >= len then
        invalid_arg (Printf.sprintf "pc past end of %s" df.Code.name);
      let d = Array.unsafe_get body pc in
      (match d with
       | Code.DNop -> ()
       | _ ->
         incr dyn;
         if !dyn > budget then raise Timeout_exn;
         if count_exec then counts.(pc) <- counts.(pc) + 1);
      match d with
      | Code.DNop -> loop (pc + 1)
      | Code.DLi (d, v) ->
        set_i d pc Taint.none v;
        loop (pc + 1)
      | Code.DLf (d, x) ->
        set_f d pc Taint.none x;
        loop (pc + 1)
      | Code.DLa (d, addr) ->
        set_i d pc Taint.none addr;
        loop (pc + 1)
      | Code.DMovI (d, s) ->
        set_i d pc itn.(s) iregs.(s);
        loop (pc + 1)
      | Code.DMovF (d, s) ->
        set_f d pc ftn.(s) fregs.(s);
        loop (pc + 1)
      | Code.DBin (op, d, a, b) ->
        (match op with
         | Ir.Instr.Div | Ir.Instr.Rem -> Taint.sink_trap_operand tr itn.(b)
         | _ -> ());
        let v =
          try binop_i op iregs.(a) iregs.(b)
          with Trap.Error _ as e -> trap_at fid pc e
        in
        set_i d pc (itn.(a) lor itn.(b)) v;
        loop (pc + 1)
      | Code.DBini (op, d, a, n) ->
        let v =
          try binop_i op iregs.(a) n
          with Trap.Error _ as e -> trap_at fid pc e
        in
        set_i d pc itn.(a) v;
        loop (pc + 1)
      | Code.DCmp (op, d, a, b) ->
        set_i d pc (itn.(a) lor itn.(b))
          (if cmp_i op iregs.(a) iregs.(b) then 1 else 0);
        loop (pc + 1)
      | Code.DFbin (op, d, a, b) ->
        set_f d pc (ftn.(a) lor ftn.(b)) (binop_f op fregs.(a) fregs.(b));
        loop (pc + 1)
      | Code.DFun (op, d, s) ->
        set_f d pc ftn.(s) (unop_f op fregs.(s));
        loop (pc + 1)
      | Code.DFcmp (op, d, a, b) ->
        set_i d pc (ftn.(a) lor ftn.(b))
          (if cmp_f op fregs.(a) fregs.(b) then 1 else 0);
        loop (pc + 1)
      | Code.DI2f (d, s) ->
        set_f d pc itn.(s) (float_of_int iregs.(s));
        loop (pc + 1)
      | Code.DF2i (d, s) ->
        Taint.sink_trap_operand tr ftn.(s);
        let v =
          try f2i fregs.(s) with Trap.Error _ as e -> trap_at fid pc e
        in
        set_i d pc ftn.(s) v;
        loop (pc + 1)
      | Code.DLw (d, b, o) ->
        Taint.sink_address tr itn.(b);
        let addr = iregs.(b) + o in
        let v =
          try Memory.load_int memory addr
          with Trap.Error _ as e -> trap_at fid pc e
        in
        let c = Memory.cell_index memory addr in
        set_i d pc
          (Taint.loaded
             ~cell:(if c >= 0 then Taint.mem_get tr c else Taint.none)
             ~base:itn.(b))
          v;
        loop (pc + 1)
      | Code.DSw (v, b, o) ->
        Taint.sink_address tr itn.(b);
        Taint.sink_memory tr itn.(v);
        let addr = iregs.(b) + o in
        (try Memory.store_int memory addr iregs.(v)
         with Trap.Error _ as e -> trap_at fid pc e);
        let c = Memory.cell_index memory addr in
        if c >= 0 then Taint.mem_set tr c (Taint.stored (itn.(v) lor itn.(b)));
        loop (pc + 1)
      | Code.DLb (d, b, o) ->
        Taint.sink_address tr itn.(b);
        let addr = iregs.(b) + o in
        let v =
          try Memory.load_byte memory addr
          with Trap.Error _ as e -> trap_at fid pc e
        in
        let c = Memory.byte_cell_index memory addr in
        set_i d pc
          (Taint.loaded
             ~cell:(if c >= 0 then Taint.mem_get tr c else Taint.none)
             ~base:itn.(b))
          v;
        loop (pc + 1)
      | Code.DSb (v, b, o) ->
        Taint.sink_address tr itn.(b);
        Taint.sink_memory tr itn.(v);
        let addr = iregs.(b) + o in
        (try Memory.store_byte memory addr iregs.(v)
         with Trap.Error _ as e -> trap_at fid pc e);
        let c = Memory.byte_cell_index memory addr in
        if c >= 0 then Taint.mem_union tr c (Taint.stored (itn.(v) lor itn.(b)));
        loop (pc + 1)
      | Code.DLwf (d, b, o) ->
        Taint.sink_address tr itn.(b);
        let addr = iregs.(b) + o in
        let x =
          try Memory.load_flt memory addr
          with Trap.Error _ as e -> trap_at fid pc e
        in
        let c = Memory.cell_index memory addr in
        set_f d pc
          (Taint.loaded
             ~cell:(if c >= 0 then Taint.mem_get tr c else Taint.none)
             ~base:itn.(b))
          x;
        loop (pc + 1)
      | Code.DSwf (v, b, o) ->
        Taint.sink_address tr itn.(b);
        Taint.sink_memory tr ftn.(v);
        let addr = iregs.(b) + o in
        (try Memory.store_flt memory addr fregs.(v)
         with Trap.Error _ as e -> trap_at fid pc e);
        let c = Memory.cell_index memory addr in
        if c >= 0 then Taint.mem_set tr c (Taint.stored (ftn.(v) lor itn.(b)));
        loop (pc + 1)
      | Code.DBr (op, a, b, target) ->
        Taint.sink_control tr ~fid ~pc (itn.(a) lor itn.(b));
        if cmp_i op iregs.(a) iregs.(b) then loop target else loop (pc + 1)
      | Code.DBrz (op, a, target) ->
        Taint.sink_control tr ~fid ~pc itn.(a);
        if cmp_i op iregs.(a) 0 then loop target else loop (pc + 1)
      | Code.DJmp target -> loop target
      | Code.DCall c ->
        let set callee_i callee_f callee_it callee_ft =
          Array.iter
            (fun (src, dst) ->
              callee_i.(dst) <- iregs.(src);
              callee_it.(dst) <- itn.(src))
            c.Code.iargs;
          Array.iter
            (fun (src, dst) ->
              callee_f.(dst) <- fregs.(src);
              callee_ft.(dst) <- ftn.(src))
            c.Code.fargs
        in
        let ret, rt =
          try call_t (depth + 1) c.Code.fid set
          with Trap.Error _ as e -> trap_at fid pc e
        in
        (if c.Code.dst >= 0 then
           match ret with
           | Some (Value.I v) when not c.Code.dst_flt -> set_i c.Code.dst pc rt v
           | Some (Value.F x) when c.Code.dst_flt -> set_f c.Code.dst pc rt x
           | _ -> invalid_arg "return bank mismatch at runtime");
        loop (pc + 1)
      | Code.DRetI r -> (Some (Value.I iregs.(r)), itn.(r))
      | Code.DRetF r -> (Some (Value.F fregs.(r)), ftn.(r))
      | Code.DRetV -> (None, Taint.none)
    in
    loop 0
  in
  let outcome =
    try
      let ret, rt = call_t 0 code.Code.entry_fid (fun _ _ _ _ -> ()) in
      (* A tainted entry return value is program output contamination
         even though no frame survives to hold it. *)
      Taint.propagate tr rt;
      Done ret
    with
    | Trap.Error t -> Trapped t
    | Timeout_exn -> Timeout
  in
  let trap_site =
    match outcome with
    | Trapped _ when !trap_fid >= 0 ->
      Some (code.Code.funcs.(!trap_fid).Code.name, !trap_pc)
    | _ -> None
  in
  obs_run_counters ~dyn:!dyn ~inj_seen:!inj_seen ~landed:!landed ~outcome
    ~trap_site;
  {
    outcome;
    dyn_count = !dyn;
    injectable_seen = !inj_seen;
    faults_landed = !landed;
    memory;
    exec_counts;
    trap_site;
    landed_sites =
      Array.init !landed (fun i ->
          (code.Code.funcs.(land_fids.(i)).Code.name, land_pcs.(i)));
    fault_flow =
      Some
        (Taint.summarize tr ~func_name:(fun f -> code.Code.funcs.(f).Code.name));
  }

let run ?image ?injection ?lenient ?(budget = Machine.default_budget)
    ?(count_exec = false) ?(taint = false) ?memory (code : Code.t) : result =
  if taint then begin
    (match image with
     | Some _ -> invalid_arg "Interp.run: taint mode requires the reference engine"
     | None -> ());
    run_taint ?injection ?lenient ~budget ~count_exec ?memory code
  end
  else finish (machine ?image ?injection ?lenient ~budget ~count_exec ?memory code)

(* Fault-free execution, trusting the program: raises on trap/timeout. *)
let run_exn ?image ?lenient ?budget ?count_exec code =
  let r = run ?image ?lenient ?budget ?count_exec code in
  match r.outcome with
  | Done _ -> r
  | Trapped t -> failwith ("fault-free run trapped: " ^ Trap.to_string t)
  | Timeout -> failwith "fault-free run exceeded budget"
