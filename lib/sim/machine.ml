(* Execution-state substrate shared by the two engines.

   Both the reference match-dispatch loop (Interp) and the
   threaded-closure engine (Threaded) drive the same explicit machine:
   a stack of frame slots {fid; pc; iregs; fregs}, one per call depth,
   plus the dynamic counters and the plan cursor. Everything observable
   about a run — ordinals, landed faults and their sites, trap
   provenance, pause/capture/resume — is defined here once, so the
   engines can only differ in how they dispatch instructions, never in
   what a dispatched instruction does.

   Calls and returns allocate no frame, register array, list cell or
   [Value.t] in either engine: a frame slot is created the first time a
   depth is reached and reused by every later call at that depth (its
   register banks are sized for the program's widest function and
   zeroed on entry), and returns write the callee's result straight
   into the caller's destination register through typed [return_i] /
   [return_f] / [return_v] instead of boxing a [Value.t]. The fast
   engine's calls therefore allocate nothing at all; the reference
   engine still builds its per-frame dispatch closure at every frame
   switch (Interp.exec).

   The [fast] field selects the engine: a machine built from a
   compiled [image] carries the closure table and is driven by
   Threaded.exec; an empty table means reference dispatch. The image is
   compiled against one (code, tags) pair, and [make]/[restore]
   validate both by physical equality — campaigns pass the same tag
   mask to every trial of a prepared target, so the check is free and
   catches any mix-up between policies. *)

type injection = {
  tags : bool array array;  (* fid -> body index -> injectable *)
  plan_ords : int array;    (* planned ordinals, strictly increasing *)
  plan_bits : int array;    (* bit to flip, parallel to [plan_ords] *)
}

exception Timeout_exn
exception Pause_exn

let max_call_depth = 4096
let default_budget = 100_000_000

let sx32 = Value.sx32

let binop_i (op : Ir.Instr.binop) a b =
  match op with
  | Add -> sx32 (a + b)
  | Sub -> sx32 (a - b)
  | Mul -> sx32 (a * b)
  | Div ->
    if b = 0 then raise (Trap.Error Trap.Division_by_zero) else sx32 (a / b)
  | Rem ->
    if b = 0 then raise (Trap.Error Trap.Division_by_zero) else sx32 (a mod b)
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Sll -> sx32 (a lsl (b land 31))
  | Srl -> sx32 ((a land 0xFFFFFFFF) lsr (b land 31))
  | Sra -> a asr (b land 31)

let cmp_i (op : Ir.Instr.cmpop) a b =
  match op with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

let binop_f (op : Ir.Instr.fbinop) a b =
  match op with
  | Fadd -> a +. b
  | Fsub -> a -. b
  | Fmul -> a *. b
  | Fdiv -> a /. b  (* IEEE: yields inf/nan, no trap *)

let unop_f (op : Ir.Instr.funop) a =
  match op with Fneg -> -.a | Fabs -> Float.abs a | Fsqrt -> Float.sqrt a

let cmp_f (op : Ir.Instr.cmpop) (a : float) (b : float) =
  match op with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

let f2i (x : float) =
  if Float.is_nan x || x >= 2147483648.0 || x < -2147483648.0 then
    raise (Trap.Error (Trap.Float_to_int_overflow x));
  int_of_float (Float.trunc x)

let no_counts : int array = [||]
let no_tags : bool array = [||]
let no_ops : bool array array = [||]

(* One activation record, living in the machine's slot for its call
   depth. [pc] always holds the body index of the instruction currently
   (or next) being dispatched whenever the machine is observable
   (paused, trapped, or at a frame switch), so trap provenance and
   snapshot/resume both read it directly. While a callee runs, the
   caller's [pc] stays parked on its DCall — return write-back and the
   post-call resume point are recovered from it.

   The banks are sized for the program's widest function
   ([Code.max_int_regs]/[max_flt_regs]) so one slot serves whichever
   function is called at its depth; only the first [max n 1] entries
   belong to the running function — the rest are never read. *)
type frame = {
  mutable fid : int;
  mutable pc : int;
  iregs : int array;
  fregs : float array;
}

type status =
  | Running
  | Done_ of Value.t option
  | Trapped_ of Trap.t * (int * int) option  (* trap, (fid, pc) site *)
  | Timeout_

type t = {
  code : Code.t;
  memory : Memory.t;
  budget : int;
  count_exec : bool;
  exec_counts : int array array;
  all_tags : bool array array;
  has_injection : bool;
  plan_ords : int array;
  plan_bits : int array;
  mutable cursor : int;
  mutable next_planned : int;  (* smallest pending ordinal, max_int when done *)
  mutable dyn : int;
  mutable inj_seen : int;
  mutable landed : int;
  land_fids : int array;  (* fid of landing [i], parallel to the plan *)
  land_pcs : int array;
  mutable cur_fid : int;
      (* fid of the frame the dispatch loop is executing in — the
         landing-site attribution for the next fault. Synced when the
         head frame changes and on return write-back. *)
  mutable frames : frame array;
      (* slot per call depth, [frames.(depth)] is the head frame; slots
         above [depth] are kept for reuse by later calls, unallocated
         ones hold [no_frame] *)
  mutable depth : int;         (* depth of the head frame; entry frame is 0 *)
  mutable status : status;
  fast : op array array;
      (* per-function closure tables from the compiled image; [||]
         selects the reference match-dispatch loop *)
  mutable pause_at : int;
      (* the live [advance ~pause_at] bound; both engines read it so
         mid-chain ordinal bumps can pause without re-entering the
         driver *)
  mutable run_fr : frame;
      (* the head frame, cached for the fast engine: ops are unary
         closures over the machine (a unary unknown application is a
         bare code-pointer jump in ocamlopt — no caml_apply arity
         check), so the frame rides in this field, set at every call,
         return and [advance] entry. Unused by the reference engine. *)
}

and op = t -> unit
(* One compiled instruction: executes against the machine ([run_fr]
   holds the head frame), then tail-calls its successor closure —
   across calls and returns too — and returns unit only when the
   machine halts. *)

type image = {
  icode : Code.t;
  itags : bool array array;
  iops : op array array;
  ishapes : int array array;
      (* fid -> pc -> [micros lsl 20 lor tagged micros] of the fused
         trace at that pc, or -1 where it dispatches per instruction;
         diagnostics only (Interp.trace_shape) *)
  (* Pristine memory prototypes, one per access model: a machine built
     from an image deep-copies one of these (a handful of memcpys)
     instead of replaying the global-initialization walk of
     [Memory.of_prog] on every run. *)
  imem_strict : Memory.t;
  imem_lenient : Memory.t;
}

(* Placeholder for a slot no call has reached yet; never mutated. *)
let no_frame = { fid = -1; pc = 0; iregs = [||]; fregs = [||] }

let new_slot (code : Code.t) fid =
  {
    fid;
    pc = 0;
    iregs = Array.make code.Code.max_int_regs 0;
    fregs = Array.make code.Code.max_flt_regs 0.0;
  }

(* Slot table for a stack [depth] deep: capacity at least 8 and a
   power of two, so deep recursion grows it O(log depth) times. *)
let slot_table depth =
  let rec cap c = if c > depth then c else cap (2 * c) in
  Array.make (cap 8) no_frame

(* An image is valid for exactly the (code, tags) pair it was compiled
   against: tag rows are baked into the closures, so running it under
   any other mask would silently miscount ordinals. Campaigns reuse one
   tags array across every trial of a prepared target, so physical
   equality is the precise check, not an approximation. *)
let check_image ~count_exec (image : image option)
    (injection : injection option) (code : Code.t) =
  match image with
  | None -> ()
  | Some img ->
    if img.icode != code then
      invalid_arg "Interp: image was compiled from a different program";
    if count_exec then
      invalid_arg "Interp: count_exec requires the reference engine";
    let tags = match injection with Some { tags; _ } -> tags | None -> no_ops in
    if
      not
        (img.itags == tags
        || (Array.length img.itags = 0 && Array.length tags = 0))
    then invalid_arg "Interp: image was compiled with a different tag mask"

let make ?image ?injection ?lenient ?(budget = default_budget)
    ?(count_exec = false) ?memory (code : Code.t) : t =
  check_image ~count_exec image injection code;
  let memory =
    match memory with
    | Some mem -> mem
    | None -> (
      match image with
      | Some img ->
        Memory.copy
          (if lenient = Some true then img.imem_lenient else img.imem_strict)
      | None -> Memory.of_prog ?lenient code.Code.prog)
  in
  (* Per-function execution counters are only materialized when
     requested: campaigns run hundreds of trials per prepared target
     and none of them profiles. *)
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
  let all_tags =
    match (injection : injection option) with
    | Some { tags; _ } -> tags
    | None -> [||]
  in
  let entry = new_slot code code.Code.entry_fid in
  let frames = slot_table 0 in
  frames.(0) <- entry;
  {
    code;
    memory;
    budget;
    count_exec;
    exec_counts;
    all_tags;
    has_injection = Array.length all_tags > 0;
    plan_ords;
    plan_bits;
    cursor = 0;
    next_planned =
      (if Array.length plan_ords > 0 then plan_ords.(0) else max_int);
    dyn = 0;
    inj_seen = 0;
    landed = 0;
    land_fids = Array.make (Array.length plan_ords) 0;
    land_pcs = Array.make (Array.length plan_ords) 0;
    cur_fid = code.Code.entry_fid;
    frames;
    depth = 0;
    status = Running;
    fast = (match image with Some img -> img.iops | None -> [||]);
    pause_at = max_int;
    run_fr = entry;
  }

let advance_plan m =
  let c = m.cursor + 1 in
  m.cursor <- c;
  m.next_planned <-
    (if c < Array.length m.plan_ords then Array.unsafe_get m.plan_ords c
     else max_int);
  m.landed <- m.landed + 1;
  Array.unsafe_get m.plan_bits (c - 1)

(* Landing-site record: (fid, pc) per plan entry, written into arrays
   preallocated at plan length — no allocation on the landing path, and
   plans hold only a handful of entries. *)
let record_land m pc =
  m.land_fids.(m.landed - 1) <- m.cur_fid;
  m.land_pcs.(m.landed - 1) <- pc

(* Fault hooks: called with the body index of the defining instruction
   and the freshly computed value, on every value-producing write-back
   (including call-return write-back, attributed to the DCall). *)
let inject_i m ftags pc v =
  if m.has_injection && Array.unsafe_get ftags pc then begin
    let ord = m.inj_seen in
    m.inj_seen <- ord + 1;
    if ord = m.next_planned then begin
      let bit = advance_plan m in
      record_land m pc;
      Value.flip_int ~bit:(bit land 31) v
    end
    else v
  end
  else v

let inject_f m ftags pc x =
  if m.has_injection && Array.unsafe_get ftags pc then begin
    let ord = m.inj_seen in
    m.inj_seen <- ord + 1;
    if ord = m.next_planned then begin
      let bit = advance_plan m in
      record_land m pc;
      Value.flip_float ~bit:(bit land 63) x
    end
    else x
  end
  else x

(* Push a frame for [fid] at depth [m.depth + 1] and return it, its
   first [ni]/[nf] registers zeroed ([max n 1] of the callee's banks:
   everything the callee can read). The caller has already checked the
   depth bound, so the overflow trap is attributed to its DCall. The
   engines copy the arguments in and switch dispatch themselves. *)
let enter m fid ni nf =
  let k = m.depth + 1 in
  if k >= Array.length m.frames then begin
    let t = slot_table k in
    Array.blit m.frames 0 t 0 (Array.length m.frames);
    m.frames <- t
  end;
  let fr = Array.unsafe_get m.frames k in
  let fr =
    if fr == no_frame then begin
      let s = new_slot m.code fid in
      m.frames.(k) <- s;
      s
    end
    else begin
      fr.fid <- fid;
      fr.pc <- 0;
      let r = fr.iregs in
      for i = 0 to ni - 1 do
        Array.unsafe_set r i 0
      done;
      let f = fr.fregs in
      for i = 0 to nf - 1 do
        Array.unsafe_set f i 0.0
      done;
      fr
    end
  in
  m.depth <- k;
  fr

(* Pop the head frame and return the caller's, with [cur_fid] synced
   to it. Typed return write-back (below) then runs the injection hook
   at the caller's DCall, exactly where the recursive interpreter ran
   it, and steps the caller past the call. Returning from the entry
   frame halts instead. *)
let pop m =
  let k = m.depth - 1 in
  m.depth <- k;
  let caller = Array.unsafe_get m.frames k in
  m.cur_fid <- caller.fid;
  caller

let call_site m (caller : frame) =
  match m.code.Code.funcs.(caller.fid).Code.dbody.(caller.pc) with
  | Code.DCall c -> c
  | _ -> assert false

let bank_mismatch () = invalid_arg "return bank mismatch at runtime"

let caller_tags m (caller : frame) =
  if m.has_injection then m.all_tags.(caller.fid) else no_tags

let return_i m x =
  if m.depth = 0 then m.status <- Done_ (Some (Value.I x))
  else begin
    let caller = pop m in
    let c = call_site m caller in
    if c.Code.dst >= 0 then begin
      if c.Code.dst_flt then bank_mismatch ();
      caller.iregs.(c.Code.dst) <- inject_i m (caller_tags m caller) caller.pc x
    end;
    caller.pc <- caller.pc + 1
  end

let return_f m x =
  if m.depth = 0 then m.status <- Done_ (Some (Value.F x))
  else begin
    let caller = pop m in
    let c = call_site m caller in
    if c.Code.dst >= 0 then begin
      if not c.Code.dst_flt then bank_mismatch ();
      caller.fregs.(c.Code.dst) <- inject_f m (caller_tags m caller) caller.pc x
    end;
    caller.pc <- caller.pc + 1
  end

let return_v m =
  if m.depth = 0 then m.status <- Done_ None
  else begin
    let caller = pop m in
    if (call_site m caller).Code.dst >= 0 then bank_mismatch ();
    caller.pc <- caller.pc + 1
  end

let is_running m = match m.status with Running -> true | _ -> false

(* --------------------------- snapshots --------------------------- *)

(* An immutable copy of a paused machine's full architectural state.
   Snapshots are taken during a fault-free pass (no landed faults, no
   partially consumed plan), so they carry no plan bookkeeping: resume
   installs a fresh plan whose ordinals must all lie at or after the
   snapshot's ordinal. Restore copies everything mutable, so one
   snapshot can seed any number of trials concurrently — including
   read-only sharing across domains. A snapshot carries no engine
   state: it can be captured under one engine and resumed under the
   other, which the cross-engine differential suite exercises. *)
type snapshot = {
  s_code : Code.t;
  s_budget : int;
  s_memory : Memory.t;
  s_frames : frame array;
      (* the live frames, innermost first, each bank trimmed to its
         function's [max n 1] registers *)
  s_depth : int;
  s_dyn : int;
  s_inj_seen : int;
}

let trimmed_copy (code : Code.t) fr =
  let df = code.Code.funcs.(fr.fid) in
  {
    fid = fr.fid;
    pc = fr.pc;
    iregs = Array.sub fr.iregs 0 (max df.Code.n_int 1);
    fregs = Array.sub fr.fregs 0 (max df.Code.n_flt 1);
  }

let capture m : snapshot =
  (match m.status with
   | Running -> ()
   | _ -> invalid_arg "Interp.capture: machine has halted");
  if m.count_exec then
    invalid_arg "Interp.capture: profiling machines are not snapshotable";
  if m.landed > 0 then
    invalid_arg "Interp.capture: snapshots must be fault-free";
  {
    s_code = m.code;
    s_budget = m.budget;
    s_memory = Memory.copy m.memory;
    s_frames =
      Array.init (m.depth + 1) (fun i ->
          trimmed_copy m.code m.frames.(m.depth - i));
    s_depth = m.depth;
    s_dyn = m.dyn;
    s_inj_seen = m.inj_seen;
  }

let snapshot_ordinal s = s.s_inj_seen
let snapshot_dyn s = s.s_dyn

let restore ?image ?injection (s : snapshot) : t =
  check_image ~count_exec:false image injection s.s_code;
  let plan_ords, plan_bits =
    match (injection : injection option) with
    | Some { plan_ords; plan_bits; _ } -> (plan_ords, plan_bits)
    | None -> (no_counts, no_counts)
  in
  if Array.length plan_ords > 0 && plan_ords.(0) < s.s_inj_seen then
    invalid_arg "Interp.resume: plan ordinal precedes snapshot";
  let all_tags =
    match (injection : injection option) with
    | Some { tags; _ } -> tags
    | None -> [||]
  in
  let depth = s.s_depth in
  let frames = slot_table depth in
  for k = 0 to depth do
    let sf = s.s_frames.(depth - k) in
    let fr = new_slot s.s_code sf.fid in
    fr.pc <- sf.pc;
    Array.blit sf.iregs 0 fr.iregs 0 (Array.length sf.iregs);
    Array.blit sf.fregs 0 fr.fregs 0 (Array.length sf.fregs);
    frames.(k) <- fr
  done;
  let head = frames.(depth) in
  {
    code = s.s_code;
    memory = Memory.copy s.s_memory;
    budget = s.s_budget;
    count_exec = false;
    exec_counts = [||];
    all_tags;
    has_injection = Array.length all_tags > 0;
    plan_ords;
    plan_bits;
    cursor = 0;
    next_planned =
      (if Array.length plan_ords > 0 then plan_ords.(0) else max_int);
    dyn = s.s_dyn;
    inj_seen = s.s_inj_seen;
    landed = 0;
    land_fids = Array.make (Array.length plan_ords) 0;
    land_pcs = Array.make (Array.length plan_ords) 0;
    cur_fid = head.fid;
    frames;
    depth;
    status = Running;
    fast = (match image with Some img -> img.iops | None -> [||]);
    pause_at = max_int;
    run_fr = head;
  }

(* Fid of the frame the dispatch loop is executing in. At a pause this
   is exactly the frame that consumed the most recent injectable
   ordinal: the hook bumps [inj_seen] at write-back (with [cur_fid]
   already synced — [return] re-syncs it before the call-return
   write-back hook runs) and the pause check sits at the top of
   dispatch, before any frame switch can follow. Compositional
   campaigns read it to attribute an ordinal to its owning section. *)
let machine_fid m = m.cur_fid

(* Content digest of a snapshot's full architectural state. [fid_key]
   names each stack frame's function with a rename-stable identity
   (section local hashes in compositional campaigns) so the digest
   survives renames/reorders but changes with any frame code, register,
   pc, counter or memory difference. *)
let snapshot_digest ~fid_key (s : snapshot) : string =
  let b = Buffer.create 1024 in
  Buffer.add_int64_le b (Int64.of_int s.s_budget);
  Buffer.add_int64_le b (Int64.of_int s.s_dyn);
  Buffer.add_int64_le b (Int64.of_int s.s_inj_seen);
  Buffer.add_int64_le b (Int64.of_int s.s_depth);
  Array.iter
    (fun fr ->
      Buffer.add_string b (fid_key fr.fid);
      Buffer.add_int64_le b (Int64.of_int fr.pc);
      Array.iter (fun v -> Buffer.add_int64_le b (Int64.of_int v)) fr.iregs;
      Array.iter
        (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x))
        fr.fregs;
      Buffer.add_char b ';')
    s.s_frames;
  Buffer.add_string b (Memory.digest s.s_memory);
  Digest.to_hex (Digest.string (Buffer.contents b))
