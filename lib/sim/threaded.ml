(* Threaded-closure execution engine — the "fast" engine.

   [compile] lowers each decoded function body into a flat array of
   specialized closures, one per instruction. Operand bank indices,
   immediates, branch targets and the per-instruction injectability tag
   are all resolved at compile time and captured in the closure, so the
   hot path never re-matches a boxed [Code.d] variant, never consults
   the tag mask, and touches the register banks only through
   [Array.unsafe_get]/[unsafe_set] (indices were validated at decode).
   Control transfer is direct threading: every closure fetches its
   successor from the shared [ops] array and tail-calls it — across
   calls and returns too, which switch the head frame slot and keep
   threading — so a whole run executes without returning to the [exec]
   loop below, which is entered once per [advance].

   On top of the per-instruction closures, [trace fusion] (below)
   overlays a closure at every trace head that runs a whole straight-
   line trace of packed micro-ops — tagged instructions included —
   under one budget and ordinal-window pre-check.

   Ops are *unary* closures over the machine; the head frame rides in
   [m.run_fr]. A unary unknown application compiles to a bare
   code-pointer load and jump in ocamlopt — no caml_apply arity check —
   and gives each instruction-class body its own indirect branch site,
   so the BTB sees one dispatch point per opcode instead of a single
   mega-morphic one.

   Equivalence contract with the reference loop (see Interp.exec; the
   differential suite in test_engine pins all of it):
   - dyn/budget: every non-DNop closure counts [dyn] against the budget
     before executing, so a timeout fires with [dyn = budget + 1] in
     both engines.
   - ordinals: [inj_seen] advances exactly on tagged write-backs (and
     call-return write-back via Machine.return_i/return_f), compiled
     statically into the closures and traces from the same tag mask the
     reference engine reads dynamically.
   - pause: the reference engine checks [inj_seen >= pause_at] before
     every dispatch, but ordinals only move on tagged write-backs and
     return write-backs — so checking right after each of those (here:
     [wbi]/[wbf], [resume_caller]) and at [exec] entry is
     state-identical: the pause lands at the same pc, dyn and ordinal.
     Traces never cross a pause (their ordinal window).
   - trap provenance: closures park [fr.pc] before any operation that
     can raise [Trap.Error] (division, float-to-int, memory access,
     call-depth check), so Interp.advance attributes the trap to the
     same (fid, pc) site as the reference engine.

   OCaml guarantees tail calls for exact-arity applications in native
   code, so closure-to-closure chaining runs in constant stack. *)

open Machine

let[@inline] ig (r : int array) i = Array.unsafe_get r i
let[@inline] is_ (r : int array) i v = Array.unsafe_set r i v
let[@inline] fg (r : float array) i : float = Array.unsafe_get r i
let[@inline] fs (r : float array) i (x : float) = Array.unsafe_set r i x

(* Bind the incremented count before storing it so the budget compare
   uses the register value — re-reading [m.dyn] after the store would
   put a store-to-load forward on the critical path of every single
   instruction. *)
let[@inline] bump m =
  let d = m.dyn + 1 in
  m.dyn <- d;
  if d > m.budget then raise Timeout_exn

let[@inline] next (ops : op array) pc m = (Array.unsafe_get ops (pc + 1)) m

(* Planned-fault landing: cold path, one call per plan entry. *)
let land_i m pc v =
  let bit = advance_plan m in
  record_land m pc;
  Value.flip_int ~bit:(bit land 31) v

let land_f m pc x =
  let bit = advance_plan m in
  record_land m pc;
  Value.flip_float ~bit:(bit land 63) x

(* Write-back for a tagged (injectable) destination: advance the
   ordinal, apply a planned flip, then honor a pending pause exactly
   where the reference engine would — at the next dispatch boundary,
   with [fr.pc] on the successor instruction. *)
let wbi (ops : op array) pc d m (fr : frame) v =
  let ord = m.inj_seen in
  m.inj_seen <- ord + 1;
  let v = if ord = m.next_planned then land_i m pc v else v in
  is_ fr.iregs d v;
  if ord + 1 >= m.pause_at then begin
    fr.pc <- pc + 1;
    raise Pause_exn
  end;
  next ops pc m

let wbf (ops : op array) pc d m (fr : frame) x =
  let ord = m.inj_seen in
  m.inj_seen <- ord + 1;
  let x = if ord = m.next_planned then land_f m pc x else x in
  fs fr.fregs d x;
  if ord + 1 >= m.pause_at then begin
    fr.pc <- pc + 1;
    raise Pause_exn
  end;
  next ops pc m

(* Specialized write-back dispatch: [tg] is the instruction's
   compile-time injectability. The untagged branch is a register store
   plus the threaded jump; the predictable [if tg] costs nothing
   against eliminating the tag-row load and hook call of the reference
   engine. *)
let[@inline] seti (ops : op array) tg pc d m (fr : frame) v =
  if tg then wbi ops pc d m fr v
  else begin
    is_ fr.iregs d v;
    next ops pc m
  end

let[@inline] setf (ops : op array) tg pc d m (fr : frame) x =
  if tg then wbf ops pc d m fr x
  else begin
    fs fr.fregs d x;
    next ops pc m
  end

let div_by_zero (fr : frame) pc =
  fr.pc <- pc;
  raise (Trap.Error Trap.Division_by_zero)

(* Continue the caller's chain after a return: the return write-back
   may have consumed an ordinal, so honor a pending pause first — the
   reference engine checks it at the caller's next dispatch. Returns
   unit when the entry frame returned (the machine halted). *)
let resume_caller m =
  if is_running m then begin
    let fr = Array.unsafe_get m.frames m.depth in
    m.run_fr <- fr;
    if m.inj_seen >= m.pause_at then raise Pause_exn;
    (Array.unsafe_get (Array.unsafe_get m.fast fr.fid) fr.pc) m
  end

let compile_instr (code : Code.t) (ops : op array) tg pc (ins : Code.d) : op =
  match ins with
  | Code.DNop -> fun m -> next ops pc m
  | Code.DLi (d, v) ->
    fun m ->
      bump m;
      seti ops tg pc d m m.run_fr v
  | Code.DLf (d, x) ->
    fun m ->
      bump m;
      setf ops tg pc d m m.run_fr x
  | Code.DLa (d, addr) ->
    fun m ->
      bump m;
      seti ops tg pc d m m.run_fr addr
  | Code.DMovI (d, s) ->
    fun m ->
      bump m;
      let fr = m.run_fr in
      seti ops tg pc d m fr (ig fr.iregs s)
  | Code.DMovF (d, s) ->
    fun m ->
      bump m;
      let fr = m.run_fr in
      setf ops tg pc d m fr (fg fr.fregs s)
  | Code.DBin (op, d, a, b) -> (
    match op with
    | Ir.Instr.Add ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (sx32 (ig r a + ig r b))
    | Ir.Instr.Sub ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (sx32 (ig r a - ig r b))
    | Ir.Instr.Mul ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (sx32 (ig r a * ig r b))
    | Ir.Instr.Div ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        let bv = ig r b in
        if bv = 0 then div_by_zero fr pc;
        seti ops tg pc d m fr (sx32 (ig r a / bv))
    | Ir.Instr.Rem ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        let bv = ig r b in
        if bv = 0 then div_by_zero fr pc;
        seti ops tg pc d m fr (sx32 (ig r a mod bv))
    | Ir.Instr.And ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (ig r a land ig r b)
    | Ir.Instr.Or ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (ig r a lor ig r b)
    | Ir.Instr.Xor ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (ig r a lxor ig r b)
    | Ir.Instr.Sll ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (sx32 (ig r a lsl (ig r b land 31)))
    | Ir.Instr.Srl ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr
          (sx32 ((ig r a land 0xFFFFFFFF) lsr (ig r b land 31)))
    | Ir.Instr.Sra ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (ig r a asr (ig r b land 31)))
  | Code.DBini (op, d, a, n) -> (
    match op with
    | Ir.Instr.Add ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        seti ops tg pc d m fr (sx32 (ig fr.iregs a + n))
    | Ir.Instr.Sub ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        seti ops tg pc d m fr (sx32 (ig fr.iregs a - n))
    | Ir.Instr.Mul ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        seti ops tg pc d m fr (sx32 (ig fr.iregs a * n))
    | Ir.Instr.Div ->
      (* The divisor is a compile-time immediate, so the zero check
         resolves now: either every execution traps or none does. The
         trapping closure still counts the instruction first, like the
         reference loop. *)
      if n = 0 then
        fun m ->
          bump m;
          div_by_zero m.run_fr pc
      else
        fun m ->
          bump m;
          let fr = m.run_fr in
          seti ops tg pc d m fr (sx32 (ig fr.iregs a / n))
    | Ir.Instr.Rem ->
      if n = 0 then
        fun m ->
          bump m;
          div_by_zero m.run_fr pc
      else
        fun m ->
          bump m;
          let fr = m.run_fr in
          seti ops tg pc d m fr (sx32 (ig fr.iregs a mod n))
    | Ir.Instr.And ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        seti ops tg pc d m fr (ig fr.iregs a land n)
    | Ir.Instr.Or ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        seti ops tg pc d m fr (ig fr.iregs a lor n)
    | Ir.Instr.Xor ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        seti ops tg pc d m fr (ig fr.iregs a lxor n)
    | Ir.Instr.Sll ->
      let sh = n land 31 in
      fun m ->
        bump m;
        let fr = m.run_fr in
        seti ops tg pc d m fr (sx32 (ig fr.iregs a lsl sh))
    | Ir.Instr.Srl ->
      let sh = n land 31 in
      fun m ->
        bump m;
        let fr = m.run_fr in
        seti ops tg pc d m fr (sx32 ((ig fr.iregs a land 0xFFFFFFFF) lsr sh))
    | Ir.Instr.Sra ->
      let sh = n land 31 in
      fun m ->
        bump m;
        let fr = m.run_fr in
        seti ops tg pc d m fr (ig fr.iregs a asr sh))
  | Code.DCmp (op, d, a, b) -> (
    match op with
    | Ir.Instr.Eq ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (if ig r a = ig r b then 1 else 0)
    | Ir.Instr.Ne ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (if ig r a <> ig r b then 1 else 0)
    | Ir.Instr.Lt ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (if ig r a < ig r b then 1 else 0)
    | Ir.Instr.Le ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (if ig r a <= ig r b then 1 else 0)
    | Ir.Instr.Gt ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (if ig r a > ig r b then 1 else 0)
    | Ir.Instr.Ge ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (if ig r a >= ig r b then 1 else 0))
  | Code.DFbin (op, d, a, b) -> (
    match op with
    | Ir.Instr.Fadd ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.fregs in
        setf ops tg pc d m fr (fg r a +. fg r b)
    | Ir.Instr.Fsub ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.fregs in
        setf ops tg pc d m fr (fg r a -. fg r b)
    | Ir.Instr.Fmul ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.fregs in
        setf ops tg pc d m fr (fg r a *. fg r b)
    | Ir.Instr.Fdiv ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.fregs in
        setf ops tg pc d m fr (fg r a /. fg r b))
  | Code.DFun (op, d, s) -> (
    match op with
    | Ir.Instr.Fneg ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        setf ops tg pc d m fr (-.fg fr.fregs s)
    | Ir.Instr.Fabs ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        setf ops tg pc d m fr (Float.abs (fg fr.fregs s))
    | Ir.Instr.Fsqrt ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        setf ops tg pc d m fr (Float.sqrt (fg fr.fregs s)))
  | Code.DFcmp (op, d, a, b) -> (
    match op with
    | Ir.Instr.Eq ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.fregs in
        seti ops tg pc d m fr (if fg r a = fg r b then 1 else 0)
    | Ir.Instr.Ne ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.fregs in
        seti ops tg pc d m fr (if fg r a <> fg r b then 1 else 0)
    | Ir.Instr.Lt ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.fregs in
        seti ops tg pc d m fr (if fg r a < fg r b then 1 else 0)
    | Ir.Instr.Le ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.fregs in
        seti ops tg pc d m fr (if fg r a <= fg r b then 1 else 0)
    | Ir.Instr.Gt ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.fregs in
        seti ops tg pc d m fr (if fg r a > fg r b then 1 else 0)
    | Ir.Instr.Ge ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.fregs in
        seti ops tg pc d m fr (if fg r a >= fg r b then 1 else 0))
  | Code.DI2f (d, s) ->
    fun m ->
      bump m;
      let fr = m.run_fr in
      setf ops tg pc d m fr (float_of_int (ig fr.iregs s))
  | Code.DF2i (d, s) ->
    fun m ->
      bump m;
      let fr = m.run_fr in
      fr.pc <- pc;
      seti ops tg pc d m fr (f2i (fg fr.fregs s))
  | Code.DLw (d, b, o) ->
    fun m ->
      bump m;
      let fr = m.run_fr in
      (* park pc for strict-model trap provenance; one image serves
         both memory models, so the store is unconditional *)
      fr.pc <- pc;
      seti ops tg pc d m fr (Memory.load_int m.memory (ig fr.iregs b + o))
  | Code.DSw (v, b, o) ->
    fun m ->
      bump m;
      let fr = m.run_fr in
      fr.pc <- pc;
      let r = fr.iregs in
      Memory.store_int m.memory (ig r b + o) (ig r v);
      next ops pc m
  | Code.DLb (d, b, o) ->
    fun m ->
      bump m;
      let fr = m.run_fr in
      fr.pc <- pc;
      seti ops tg pc d m fr (Memory.load_byte m.memory (ig fr.iregs b + o))
  | Code.DSb (v, b, o) ->
    fun m ->
      bump m;
      let fr = m.run_fr in
      fr.pc <- pc;
      let r = fr.iregs in
      Memory.store_byte m.memory (ig r b + o) (ig r v);
      next ops pc m
  | Code.DLwf (d, b, o) ->
    fun m ->
      bump m;
      let fr = m.run_fr in
      fr.pc <- pc;
      setf ops tg pc d m fr (Memory.load_flt m.memory (ig fr.iregs b + o))
  | Code.DSwf (v, b, o) ->
    fun m ->
      bump m;
      let fr = m.run_fr in
      fr.pc <- pc;
      Memory.store_flt m.memory (ig fr.iregs b + o) (fg fr.fregs v);
      next ops pc m
  | Code.DBr (op, a, b, t) -> (
    match op with
    | Ir.Instr.Eq ->
      fun m ->
        bump m;
        let r = m.run_fr.iregs in
        (Array.unsafe_get ops (if ig r a = ig r b then t else pc + 1)) m
    | Ir.Instr.Ne ->
      fun m ->
        bump m;
        let r = m.run_fr.iregs in
        (Array.unsafe_get ops (if ig r a <> ig r b then t else pc + 1)) m
    | Ir.Instr.Lt ->
      fun m ->
        bump m;
        let r = m.run_fr.iregs in
        (Array.unsafe_get ops (if ig r a < ig r b then t else pc + 1)) m
    | Ir.Instr.Le ->
      fun m ->
        bump m;
        let r = m.run_fr.iregs in
        (Array.unsafe_get ops (if ig r a <= ig r b then t else pc + 1)) m
    | Ir.Instr.Gt ->
      fun m ->
        bump m;
        let r = m.run_fr.iregs in
        (Array.unsafe_get ops (if ig r a > ig r b then t else pc + 1)) m
    | Ir.Instr.Ge ->
      fun m ->
        bump m;
        let r = m.run_fr.iregs in
        (Array.unsafe_get ops (if ig r a >= ig r b then t else pc + 1)) m)
  | Code.DBrz (op, a, t) -> (
    match op with
    | Ir.Instr.Eq ->
      fun m ->
        bump m;
        (Array.unsafe_get ops (if ig m.run_fr.iregs a = 0 then t else pc + 1)) m
    | Ir.Instr.Ne ->
      fun m ->
        bump m;
        (Array.unsafe_get ops (if ig m.run_fr.iregs a <> 0 then t else pc + 1))
          m
    | Ir.Instr.Lt ->
      fun m ->
        bump m;
        (Array.unsafe_get ops (if ig m.run_fr.iregs a < 0 then t else pc + 1)) m
    | Ir.Instr.Le ->
      fun m ->
        bump m;
        (Array.unsafe_get ops (if ig m.run_fr.iregs a <= 0 then t else pc + 1))
          m
    | Ir.Instr.Gt ->
      fun m ->
        bump m;
        (Array.unsafe_get ops (if ig m.run_fr.iregs a > 0 then t else pc + 1)) m
    | Ir.Instr.Ge ->
      fun m ->
        bump m;
        (Array.unsafe_get ops (if ig m.run_fr.iregs a >= 0 then t else pc + 1))
          m)
  | Code.DJmp t ->
    fun m ->
      bump m;
      (Array.unsafe_get ops t) m
  | Code.DCall c ->
    let callee = code.Code.funcs.(c.Code.fid) in
    let ni = max callee.Code.n_int 1 and nf = max callee.Code.n_flt 1 in
    let iargs = c.Code.iargs and fargs = c.Code.fargs in
    let cfid = c.Code.fid in
    fun m ->
      bump m;
      let fr = m.run_fr in
      (* park pc: the caller resumes past this DCall, the overflow trap
         is attributed here, and return write-back reads it *)
      fr.pc <- pc;
      let callee_depth = m.depth + 1 in
      if callee_depth > max_call_depth then
        raise (Trap.Error (Trap.Call_stack_overflow callee_depth));
      let nfr = enter m cfid ni nf in
      let src_i = fr.iregs and dst_i = nfr.iregs in
      for k = 0 to Array.length iargs - 1 do
        let src, dst = Array.unsafe_get iargs k in
        Array.unsafe_set dst_i dst (Array.unsafe_get src_i src)
      done;
      let src_f = fr.fregs and dst_f = nfr.fregs in
      for k = 0 to Array.length fargs - 1 do
        let src, dst = Array.unsafe_get fargs k in
        Array.unsafe_set dst_f dst (Array.unsafe_get src_f src)
      done;
      (* A call moves no ordinal, so no pause can be due: switch the
         head frame and keep threading into the callee. *)
      m.cur_fid <- cfid;
      m.run_fr <- nfr;
      (Array.unsafe_get (Array.unsafe_get m.fast cfid) 0) m
  | Code.DRetI r ->
    fun m ->
      bump m;
      return_i m (ig m.run_fr.iregs r);
      resume_caller m
  | Code.DRetF r ->
    fun m ->
      bump m;
      return_f m (fg m.run_fr.fregs r);
      resume_caller m
  | Code.DRetV ->
    fun m ->
      bump m;
      return_v m;
      resume_caller m

(* ------------------------------------------------------------------ *)
(* Trace fusion.

   A per-instruction closure chain still pays a fixed toll per simulated
   instruction: GC poll, dyn load/store, budget compare, closure-env
   loads and an indirect jump. On a ~2 GHz core that floor is ~10
   cycles, which caps the whole engine at ~5 ns/instr no matter how
   tight the arms are. To go materially faster we amortize that toll:
   [build_trace] walks the decoded body from a pc, following fall-
   through, unconditional jumps and the *predicted* direction of
   conditional branches (backward = loop = taken), and flattens up to
   [trace_cap] instructions into parallel int arrays of micro-ops. A
   single closure then interprets the whole trace with [dyn] carried in
   a register, one budget pre-check for the worst case, and no closure
   dispatch between micro-ops — the micro loop is a tail-recursive
   top-level function whose match compiles to one jump table.

   Traces are built only at trace heads — the entry, branch and jump
   targets, conditional fall-throughs, post-call pcs and the pcs where
   other traces end (see [static_heads]) — so compiling an image costs
   time linear in a function's block count. Elsewhere the classic
   closure chain runs until it reaches a head.

   Equivalence with the per-instruction engines:
   - Traces stop before calls, returns and always-trapping immediates;
     the classic closure at the stop pc handles those.
   - Tagged (injectable) instructions run inside traces under their
     untagged micro-op codes — so pair and multi-wide fusion apply to
     them too — and are only counted: [ktag] per trace and a tagged-
     prefix table per micro index. The trace is entered only when its
     ordinal window [inj_seen, inj_seen + ktag) holds no planned fault
     ([inj_seen + ktag <= next_planned]) and cannot reach a pause
     ([inj_seen + ktag < pause_at]); otherwise the classic chain runs,
     exactly as for the budget pre-check below, and lands the flip or
     pauses where the reference engine does. Inside a trace no flip is
     due and no pause can fire, so tagged write-backs are plain stores.
   - [m.dyn] is committed at every exit (deviated branch, trace end)
     and before any micro-op that can trap, after adding the trapping
     instruction itself — matching the reference loop's bump-then-
     execute order, so trap provenance and dyn counts are identical.
     Every micro-op adds exactly one to dyn, so the committed dyn
     locates the exit or trapping micro, and [mk_trace] commits
     [inj_seen] from the prefix table next to it: at an exit every
     counted micro has written back, at a trap the trapping one has
     not.
   - The budget pre-check [dyn + klen > budget] falls back to the
     classic closure chain when a timeout *could* occur inside the
     trace; the classic chain then steps one instruction at a time (re-
     checking at each trace head it meets) so the timeout fires at
     exactly [dyn = budget + 1], like the reference engine.
   - A conditional branch whose actual direction differs from the
     trace's assumption commits and dispatches the target's closure;
     branch targets always re-enter through the shared ops table, so a
     deviation costs one extra dispatch, never wrong state.

   Loops shorter than the cap unroll inside a single trace (the walk
   may revisit a pc), so a hot loop executes dozens of iterations per
   closure entry. *)

(* Micro-op words pack [code lsl 40 lor (a lsl 20) lor b] — register
   indices are far below 2^20 and codes below 2^12 — so the hot loop
   reads one int per micro-op plus, when present, the full-width third
   operand (immediate / offset / branch target) from [tc]. The arrays
   ride in parameters of the tail recursion, keeping their base
   pointers in registers; rarely-touched data (parked pcs, the float
   pool) hides behind one [aux] record so it costs nothing per step. *)

type aux = {
  xpc : int array;  (* original pc per micro-op, for parking *)
  xfp : float array;  (* float-immediate pool *)
}

type trace = {
  tcab : int array;  (* packed code/a/b micro-op words, see [go] *)
  ttc : int array;  (* third operand: src2 / imm / offset / target *)
  taux : aux;  (* cold per-trace data: parked pcs, float pool *)
  tklen : int;  (* worst-case dyn contribution (= micro count) *)
  tktag : int;  (* tagged micros: the ordinals a full run consumes *)
  ttpre : int array;
      (* [ttpre.(k)] = tagged micros among the first [k]; length
         [tklen + 1]. Every micro adds exactly one to dyn, so the dyn a
         trace has committed locates its exit or trap micro and this
         table turns that into the ordinals consumed. *)
  tend : int;  (* pc the walk stopped at: where the end micro exits *)
}

(* Micro opcode map (keep [go], [build_trace] and this table in sync;
   the cross-engine differential suite exercises every row):
     0  end          a=dispatch pc
     1  jmp          (dyn bump only; control folded into the walk)
     2  li    a=d c=imm          3  la   a=d c=addr
     4  lf    a=d b=fpool        5  movi a=d b=s       6  movf a=d b=s
     7  i2f   a=d b=s            8  f2i  a=d b=s         (parks)
     9  lw   10 lb   11 lwf      a=d b=base c=off        (park)
    12  sw   13 sb   14 swf      a=v b=base c=off        (park)
    15..25  bin  Add..Sra        a=d b=ra c=rb   (Div/Rem park on 0)
    26..36  bini Add..Sra        a=d b=ra c=imm  (shift counts masked)
    37..42  cmp  Eq..Ge          a=d b=ra c=rb
    43..48  fcmp Eq..Ge          a=d b=ra c=rb
    49..52  fbin Fadd..Fdiv      a=d b=ra c=rb
    53..55  fun  Fneg/Fabs/Fsqrt a=d b=s
    56..61  br  assume-fallthrough  a=ra b=rb c=taken target
    62..67  br  assume-taken        a=ra b=rb c=fallthrough pc
    68..73  brz assume-fallthrough  a=ra c=taken target
    74..79  brz assume-taken        a=ra c=fallthrough pc *)

let ibin : Ir.Instr.binop -> int = function
  | Ir.Instr.Add -> 0
  | Ir.Instr.Sub -> 1
  | Ir.Instr.Mul -> 2
  | Ir.Instr.Div -> 3
  | Ir.Instr.Rem -> 4
  | Ir.Instr.And -> 5
  | Ir.Instr.Or -> 6
  | Ir.Instr.Xor -> 7
  | Ir.Instr.Sll -> 8
  | Ir.Instr.Srl -> 9
  | Ir.Instr.Sra -> 10

let icmp : Ir.Instr.cmpop -> int = function
  | Ir.Instr.Eq -> 0
  | Ir.Instr.Ne -> 1
  | Ir.Instr.Lt -> 2
  | Ir.Instr.Le -> 3
  | Ir.Instr.Gt -> 4
  | Ir.Instr.Ge -> 5

let ifbin : Ir.Instr.fbinop -> int = function
  | Ir.Instr.Fadd -> 0
  | Ir.Instr.Fsub -> 1
  | Ir.Instr.Fmul -> 2
  | Ir.Instr.Fdiv -> 3

let ifun : Ir.Instr.funop -> int = function
  | Ir.Instr.Fneg -> 0
  | Ir.Instr.Fabs -> 1
  | Ir.Instr.Fsqrt -> 2

let[@inline] pA v = (v lsr 20) land 0xFFFFF
let[@inline] pB v = v land 0xFFFFF

(* Run one trace to its exit and return the pc to dispatch next. The
   micro loop keeps its cursor [j], the running dyn count [d] and the
   exit pc [t] in local refs that ocamlopt unboxes into registers — a
   tail-recursive formulation re-enters the function per micro-op and
   respills every parameter. [d] is committed to [m.dyn] only at exits
   and trap points; the budget was pre-checked for the whole trace, so
   no timeout test is needed per micro-op. The caller tail-dispatches
   the returned pc, keeping the dispatch chain's stack constant. *)
let run_trace (m : t) (fr : frame) (r : int array) (f : float array)
    (cab : int array) (tc : int array) (aux : aux) : int =
  let j = ref 0 in
  let d = ref m.dyn in
  let t = ref (-1) in
  while !t < 0 do
    let j0 = !j in
    let v = Array.unsafe_get cab j0 in
    match v lsr 40 with
  | 0 ->
    m.dyn <- !d;
    t := pA v
  | 1 ->
    incr d;
    j := j0 + 1
  | 2 ->
    is_ r (pA v) (Array.unsafe_get tc j0);
    incr d;
    j := j0 + 1
  | 3 ->
    is_ r (pA v) (Array.unsafe_get tc j0);
    incr d;
    j := j0 + 1
  | 4 ->
    fs f (pA v) (Array.unsafe_get aux.xfp (pB v));
    incr d;
    j := j0 + 1
  | 5 ->
    is_ r (pA v) (ig r (pB v));
    incr d;
    j := j0 + 1
  | 6 ->
    fs f (pA v) (fg f (pB v));
    incr d;
    j := j0 + 1
  | 7 ->
    fs f (pA v) (float_of_int (ig r (pB v)));
    incr d;
    j := j0 + 1
  | 8 ->
    let dd = !d + 1 in
    fr.pc <- Array.unsafe_get aux.xpc j0;
    m.dyn <- dd;
    is_ r (pA v) (f2i (fg f (pB v)));
    d := dd;
    j := j0 + 1
  | 9 ->
    let dd = !d + 1 in
    fr.pc <- Array.unsafe_get aux.xpc j0;
    m.dyn <- dd;
    is_ r (pA v) (Memory.load_int m.memory (ig r (pB v) + Array.unsafe_get tc j0));
    d := dd;
    j := j0 + 1
  | 10 ->
    let dd = !d + 1 in
    fr.pc <- Array.unsafe_get aux.xpc j0;
    m.dyn <- dd;
    is_ r (pA v) (Memory.load_byte m.memory (ig r (pB v) + Array.unsafe_get tc j0));
    d := dd;
    j := j0 + 1
  | 11 ->
    let dd = !d + 1 in
    fr.pc <- Array.unsafe_get aux.xpc j0;
    m.dyn <- dd;
    fs f (pA v) (Memory.load_flt m.memory (ig r (pB v) + Array.unsafe_get tc j0));
    d := dd;
    j := j0 + 1
  | 12 ->
    let dd = !d + 1 in
    fr.pc <- Array.unsafe_get aux.xpc j0;
    m.dyn <- dd;
    Memory.store_int m.memory (ig r (pB v) + Array.unsafe_get tc j0) (ig r (pA v));
    d := dd;
    j := j0 + 1
  | 13 ->
    let dd = !d + 1 in
    fr.pc <- Array.unsafe_get aux.xpc j0;
    m.dyn <- dd;
    Memory.store_byte m.memory (ig r (pB v) + Array.unsafe_get tc j0) (ig r (pA v));
    d := dd;
    j := j0 + 1
  | 14 ->
    let dd = !d + 1 in
    fr.pc <- Array.unsafe_get aux.xpc j0;
    m.dyn <- dd;
    Memory.store_flt m.memory (ig r (pB v) + Array.unsafe_get tc j0) (fg f (pA v));
    d := dd;
    j := j0 + 1
  | 15 ->
    is_ r (pA v) (sx32 (ig r (pB v) + ig r (Array.unsafe_get tc j0)));
    incr d;
    j := j0 + 1
  | 16 ->
    is_ r (pA v) (sx32 (ig r (pB v) - ig r (Array.unsafe_get tc j0)));
    incr d;
    j := j0 + 1
  | 17 ->
    is_ r (pA v) (sx32 (ig r (pB v) * ig r (Array.unsafe_get tc j0)));
    incr d;
    j := j0 + 1
  | 18 ->
    let dd = !d + 1 in
    let bv = ig r (Array.unsafe_get tc j0) in
    if bv = 0 then begin
      m.dyn <- dd;
      div_by_zero fr (Array.unsafe_get aux.xpc j0)
    end;
    is_ r (pA v) (sx32 (ig r (pB v) / bv));
    d := dd;
    j := j0 + 1
  | 19 ->
    let dd = !d + 1 in
    let bv = ig r (Array.unsafe_get tc j0) in
    if bv = 0 then begin
      m.dyn <- dd;
      div_by_zero fr (Array.unsafe_get aux.xpc j0)
    end;
    is_ r (pA v) (sx32 (ig r (pB v) mod bv));
    d := dd;
    j := j0 + 1
  | 20 ->
    is_ r (pA v) (ig r (pB v) land ig r (Array.unsafe_get tc j0));
    incr d;
    j := j0 + 1
  | 21 ->
    is_ r (pA v) (ig r (pB v) lor ig r (Array.unsafe_get tc j0));
    incr d;
    j := j0 + 1
  | 22 ->
    is_ r (pA v) (ig r (pB v) lxor ig r (Array.unsafe_get tc j0));
    incr d;
    j := j0 + 1
  | 23 ->
    is_ r (pA v) (sx32 (ig r (pB v) lsl (ig r (Array.unsafe_get tc j0) land 31)));
    incr d;
    j := j0 + 1
  | 24 ->
    is_ r (pA v)
      (sx32 ((ig r (pB v) land 0xFFFFFFFF) lsr (ig r (Array.unsafe_get tc j0) land 31)));
    incr d;
    j := j0 + 1
  | 25 ->
    is_ r (pA v) (ig r (pB v) asr (ig r (Array.unsafe_get tc j0) land 31));
    incr d;
    j := j0 + 1
  | 26 ->
    is_ r (pA v) (sx32 (ig r (pB v) + Array.unsafe_get tc j0));
    incr d;
    j := j0 + 1
  | 27 ->
    is_ r (pA v) (sx32 (ig r (pB v) - Array.unsafe_get tc j0));
    incr d;
    j := j0 + 1
  | 28 ->
    is_ r (pA v) (sx32 (ig r (pB v) * Array.unsafe_get tc j0));
    incr d;
    j := j0 + 1
  | 29 ->
    (* imm divisor, nonzero by construction (zero stops the trace) *)
    is_ r (pA v) (sx32 (ig r (pB v) / Array.unsafe_get tc j0));
    incr d;
    j := j0 + 1
  | 30 ->
    is_ r (pA v) (sx32 (ig r (pB v) mod Array.unsafe_get tc j0));
    incr d;
    j := j0 + 1
  | 31 ->
    is_ r (pA v) (ig r (pB v) land Array.unsafe_get tc j0);
    incr d;
    j := j0 + 1
  | 32 ->
    is_ r (pA v) (ig r (pB v) lor Array.unsafe_get tc j0);
    incr d;
    j := j0 + 1
  | 33 ->
    is_ r (pA v) (ig r (pB v) lxor Array.unsafe_get tc j0);
    incr d;
    j := j0 + 1
  | 34 ->
    is_ r (pA v) (sx32 (ig r (pB v) lsl Array.unsafe_get tc j0));
    incr d;
    j := j0 + 1
  | 35 ->
    is_ r (pA v) (sx32 ((ig r (pB v) land 0xFFFFFFFF) lsr Array.unsafe_get tc j0));
    incr d;
    j := j0 + 1
  | 36 ->
    is_ r (pA v) (ig r (pB v) asr Array.unsafe_get tc j0);
    incr d;
    j := j0 + 1
  | 37 ->
    is_ r (pA v) (if ig r (pB v) = ig r (Array.unsafe_get tc j0) then 1 else 0);
    incr d;
    j := j0 + 1
  | 38 ->
    is_ r (pA v) (if ig r (pB v) <> ig r (Array.unsafe_get tc j0) then 1 else 0);
    incr d;
    j := j0 + 1
  | 39 ->
    is_ r (pA v) (if ig r (pB v) < ig r (Array.unsafe_get tc j0) then 1 else 0);
    incr d;
    j := j0 + 1
  | 40 ->
    is_ r (pA v) (if ig r (pB v) <= ig r (Array.unsafe_get tc j0) then 1 else 0);
    incr d;
    j := j0 + 1
  | 41 ->
    is_ r (pA v) (if ig r (pB v) > ig r (Array.unsafe_get tc j0) then 1 else 0);
    incr d;
    j := j0 + 1
  | 42 ->
    is_ r (pA v) (if ig r (pB v) >= ig r (Array.unsafe_get tc j0) then 1 else 0);
    incr d;
    j := j0 + 1
  | 43 ->
    is_ r (pA v) (if fg f (pB v) = fg f (Array.unsafe_get tc j0) then 1 else 0);
    incr d;
    j := j0 + 1
  | 44 ->
    is_ r (pA v) (if fg f (pB v) <> fg f (Array.unsafe_get tc j0) then 1 else 0);
    incr d;
    j := j0 + 1
  | 45 ->
    is_ r (pA v) (if fg f (pB v) < fg f (Array.unsafe_get tc j0) then 1 else 0);
    incr d;
    j := j0 + 1
  | 46 ->
    is_ r (pA v) (if fg f (pB v) <= fg f (Array.unsafe_get tc j0) then 1 else 0);
    incr d;
    j := j0 + 1
  | 47 ->
    is_ r (pA v) (if fg f (pB v) > fg f (Array.unsafe_get tc j0) then 1 else 0);
    incr d;
    j := j0 + 1
  | 48 ->
    is_ r (pA v) (if fg f (pB v) >= fg f (Array.unsafe_get tc j0) then 1 else 0);
    incr d;
    j := j0 + 1
  | 49 ->
    fs f (pA v) (fg f (pB v) +. fg f (Array.unsafe_get tc j0));
    incr d;
    j := j0 + 1
  | 50 ->
    fs f (pA v) (fg f (pB v) -. fg f (Array.unsafe_get tc j0));
    incr d;
    j := j0 + 1
  | 51 ->
    fs f (pA v) (fg f (pB v) *. fg f (Array.unsafe_get tc j0));
    incr d;
    j := j0 + 1
  | 52 ->
    fs f (pA v) (fg f (pB v) /. fg f (Array.unsafe_get tc j0));
    incr d;
    j := j0 + 1
  | 53 ->
    fs f (pA v) (-.fg f (pB v));
    incr d;
    j := j0 + 1
  | 54 ->
    fs f (pA v) (Float.abs (fg f (pB v)));
    incr d;
    j := j0 + 1
  | 55 ->
    fs f (pA v) (Float.sqrt (fg f (pB v)));
    incr d;
    j := j0 + 1
  | 56 ->
    let dd = !d + 1 in
    if ig r (pA v) = ig r (pB v) then begin
      m.dyn <- dd;
      t := Array.unsafe_get tc j0
    end
    else begin
      d := dd;
      j := j0 + 1
    end
  | 57 ->
    let dd = !d + 1 in
    if ig r (pA v) <> ig r (pB v) then begin
      m.dyn <- dd;
      t := Array.unsafe_get tc j0
    end
    else begin
      d := dd;
      j := j0 + 1
    end
  | 58 ->
    let dd = !d + 1 in
    if ig r (pA v) < ig r (pB v) then begin
      m.dyn <- dd;
      t := Array.unsafe_get tc j0
    end
    else begin
      d := dd;
      j := j0 + 1
    end
  | 59 ->
    let dd = !d + 1 in
    if ig r (pA v) <= ig r (pB v) then begin
      m.dyn <- dd;
      t := Array.unsafe_get tc j0
    end
    else begin
      d := dd;
      j := j0 + 1
    end
  | 60 ->
    let dd = !d + 1 in
    if ig r (pA v) > ig r (pB v) then begin
      m.dyn <- dd;
      t := Array.unsafe_get tc j0
    end
    else begin
      d := dd;
      j := j0 + 1
    end
  | 61 ->
    let dd = !d + 1 in
    if ig r (pA v) >= ig r (pB v) then begin
      m.dyn <- dd;
      t := Array.unsafe_get tc j0
    end
    else begin
      d := dd;
      j := j0 + 1
    end
  | 62 ->
    let dd = !d + 1 in
    if ig r (pA v) = ig r (pB v) then begin
      d := dd;
      j := j0 + 1
    end
    else begin
      m.dyn <- dd;
      t := Array.unsafe_get tc j0
    end
  | 63 ->
    let dd = !d + 1 in
    if ig r (pA v) <> ig r (pB v) then begin
      d := dd;
      j := j0 + 1
    end
    else begin
      m.dyn <- dd;
      t := Array.unsafe_get tc j0
    end
  | 64 ->
    let dd = !d + 1 in
    if ig r (pA v) < ig r (pB v) then begin
      d := dd;
      j := j0 + 1
    end
    else begin
      m.dyn <- dd;
      t := Array.unsafe_get tc j0
    end
  | 65 ->
    let dd = !d + 1 in
    if ig r (pA v) <= ig r (pB v) then begin
      d := dd;
      j := j0 + 1
    end
    else begin
      m.dyn <- dd;
      t := Array.unsafe_get tc j0
    end
  | 66 ->
    let dd = !d + 1 in
    if ig r (pA v) > ig r (pB v) then begin
      d := dd;
      j := j0 + 1
    end
    else begin
      m.dyn <- dd;
      t := Array.unsafe_get tc j0
    end
  | 67 ->
    let dd = !d + 1 in
    if ig r (pA v) >= ig r (pB v) then begin
      d := dd;
      j := j0 + 1
    end
    else begin
      m.dyn <- dd;
      t := Array.unsafe_get tc j0
    end
  | 68 ->
    let dd = !d + 1 in
    if ig r (pA v) = 0 then begin
      m.dyn <- dd;
      t := Array.unsafe_get tc j0
    end
    else begin
      d := dd;
      j := j0 + 1
    end
  | 69 ->
    let dd = !d + 1 in
    if ig r (pA v) <> 0 then begin
      m.dyn <- dd;
      t := Array.unsafe_get tc j0
    end
    else begin
      d := dd;
      j := j0 + 1
    end
  | 70 ->
    let dd = !d + 1 in
    if ig r (pA v) < 0 then begin
      m.dyn <- dd;
      t := Array.unsafe_get tc j0
    end
    else begin
      d := dd;
      j := j0 + 1
    end
  | 71 ->
    let dd = !d + 1 in
    if ig r (pA v) <= 0 then begin
      m.dyn <- dd;
      t := Array.unsafe_get tc j0
    end
    else begin
      d := dd;
      j := j0 + 1
    end
  | 72 ->
    let dd = !d + 1 in
    if ig r (pA v) > 0 then begin
      m.dyn <- dd;
      t := Array.unsafe_get tc j0
    end
    else begin
      d := dd;
      j := j0 + 1
    end
  | 73 ->
    let dd = !d + 1 in
    if ig r (pA v) >= 0 then begin
      m.dyn <- dd;
      t := Array.unsafe_get tc j0
    end
    else begin
      d := dd;
      j := j0 + 1
    end
  | 74 ->
    let dd = !d + 1 in
    if ig r (pA v) = 0 then begin
      d := dd;
      j := j0 + 1
    end
    else begin
      m.dyn <- dd;
      t := Array.unsafe_get tc j0
    end
  | 75 ->
    let dd = !d + 1 in
    if ig r (pA v) <> 0 then begin
      d := dd;
      j := j0 + 1
    end
    else begin
      m.dyn <- dd;
      t := Array.unsafe_get tc j0
    end
  | 76 ->
    let dd = !d + 1 in
    if ig r (pA v) < 0 then begin
      d := dd;
      j := j0 + 1
    end
    else begin
      m.dyn <- dd;
      t := Array.unsafe_get tc j0
    end
  | 77 ->
    let dd = !d + 1 in
    if ig r (pA v) <= 0 then begin
      d := dd;
      j := j0 + 1
    end
    else begin
      m.dyn <- dd;
      t := Array.unsafe_get tc j0
    end
  | 78 ->
    let dd = !d + 1 in
    if ig r (pA v) > 0 then begin
      d := dd;
      j := j0 + 1
    end
    else begin
      m.dyn <- dd;
      t := Array.unsafe_get tc j0
    end
  | 79 ->
    let dd = !d + 1 in
    if ig r (pA v) >= 0 then begin
      d := dd;
      j := j0 + 1
    end
    else begin
      m.dyn <- dd;
      t := Array.unsafe_get tc j0
    end
  (* Superinstructions: one dispatch executes the micro at [j0] and the
     one at [j0 + 1]. Operand fields stay in each member's own word, so
     pairing is purely positional (trace-adjacent, not pc-adjacent) —
     see [fuse_code] for the pair table. dyn accounting and trap parking
     follow the same bump-then-execute order as the unfused arms. *)
  | 80 ->
    (* add+add *)
    is_ r (pA v) (sx32 (ig r (pB v) + ig r (Array.unsafe_get tc j0)));
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) + ig r (Array.unsafe_get tc (j0 + 1))));
    d := !d + 2;
    j := j0 + 2
  | 81 ->
    (* add+li *)
    is_ r (pA v) (sx32 (ig r (pB v) + ig r (Array.unsafe_get tc j0)));
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (Array.unsafe_get tc (j0 + 1));
    d := !d + 2;
    j := j0 + 2
  | 82 ->
    (* mul+mul *)
    is_ r (pA v) (sx32 (ig r (pB v) * ig r (Array.unsafe_get tc j0)));
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) * ig r (Array.unsafe_get tc (j0 + 1))));
    d := !d + 2;
    j := j0 + 2
  | 83 ->
    (* mul+add *)
    is_ r (pA v) (sx32 (ig r (pB v) * ig r (Array.unsafe_get tc j0)));
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) + ig r (Array.unsafe_get tc (j0 + 1))));
    d := !d + 2;
    j := j0 + 2
  | 84 ->
    (* muli+add *)
    is_ r (pA v) (sx32 (ig r (pB v) * Array.unsafe_get tc j0));
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) + ig r (Array.unsafe_get tc (j0 + 1))));
    d := !d + 2;
    j := j0 + 2
  | 85 ->
    (* la+muli *)
    is_ r (pA v) (Array.unsafe_get tc j0);
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) * Array.unsafe_get tc (j0 + 1)));
    d := !d + 2;
    j := j0 + 2
  | 86 ->
    (* la+addi *)
    is_ r (pA v) (Array.unsafe_get tc j0);
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) + Array.unsafe_get tc (j0 + 1)));
    d := !d + 2;
    j := j0 + 2
  | 87 ->
    (* andi+add *)
    is_ r (pA v) (ig r (pB v) land Array.unsafe_get tc j0);
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) + ig r (Array.unsafe_get tc (j0 + 1))));
    d := !d + 2;
    j := j0 + 2
  | 88 ->
    (* addi+andi *)
    is_ r (pA v) (sx32 (ig r (pB v) + Array.unsafe_get tc j0));
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (ig r (pB v2) land Array.unsafe_get tc (j0 + 1));
    d := !d + 2;
    j := j0 + 2
  | 89 ->
    (* sub+la *)
    is_ r (pA v) (sx32 (ig r (pB v) - ig r (Array.unsafe_get tc j0)));
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (Array.unsafe_get tc (j0 + 1));
    d := !d + 2;
    j := j0 + 2
  | 90 ->
    (* slli+add *)
    is_ r (pA v) (sx32 (ig r (pB v) lsl Array.unsafe_get tc j0));
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) + ig r (Array.unsafe_get tc (j0 + 1))));
    d := !d + 2;
    j := j0 + 2
  | 91 ->
    (* la+slli *)
    is_ r (pA v) (Array.unsafe_get tc j0);
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) lsl Array.unsafe_get tc (j0 + 1)));
    d := !d + 2;
    j := j0 + 2
  | 92 ->
    (* addi+jmp: the jmp member has no work of its own *)
    is_ r (pA v) (sx32 (ig r (pB v) + Array.unsafe_get tc j0));
    d := !d + 2;
    j := j0 + 2
  | 93 ->
    (* add+la *)
    is_ r (pA v) (sx32 (ig r (pB v) + ig r (Array.unsafe_get tc j0)));
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (Array.unsafe_get tc (j0 + 1));
    d := !d + 2;
    j := j0 + 2
  | 96 ->
    (* add+lb *)
    is_ r (pA v) (sx32 (ig r (pB v) + ig r (Array.unsafe_get tc j0)));
    let dd = !d + 2 in
    let v2 = Array.unsafe_get cab (j0 + 1) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 1);
    m.dyn <- dd;
    is_ r (pA v2)
      (Memory.load_byte m.memory (ig r (pB v2) + Array.unsafe_get tc (j0 + 1)));
    d := dd;
    j := j0 + 2
  | 97 ->
    (* add+lw *)
    is_ r (pA v) (sx32 (ig r (pB v) + ig r (Array.unsafe_get tc j0)));
    let dd = !d + 2 in
    let v2 = Array.unsafe_get cab (j0 + 1) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 1);
    m.dyn <- dd;
    is_ r (pA v2)
      (Memory.load_int m.memory (ig r (pB v2) + Array.unsafe_get tc (j0 + 1)));
    d := dd;
    j := j0 + 2
  | 98 ->
    (* add+sw *)
    is_ r (pA v) (sx32 (ig r (pB v) + ig r (Array.unsafe_get tc j0)));
    let dd = !d + 2 in
    let v2 = Array.unsafe_get cab (j0 + 1) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 1);
    m.dyn <- dd;
    Memory.store_int m.memory
      (ig r (pB v2) + Array.unsafe_get tc (j0 + 1))
      (ig r (pA v2));
    d := dd;
    j := j0 + 2
  | 99 ->
    (* lb+add *)
    let dd = !d + 1 in
    fr.pc <- Array.unsafe_get aux.xpc j0;
    m.dyn <- dd;
    is_ r (pA v) (Memory.load_byte m.memory (ig r (pB v) + Array.unsafe_get tc j0));
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) + ig r (Array.unsafe_get tc (j0 + 1))));
    d := dd + 1;
    j := j0 + 2
  | 100 ->
    (* lb+sub *)
    let dd = !d + 1 in
    fr.pc <- Array.unsafe_get aux.xpc j0;
    m.dyn <- dd;
    is_ r (pA v) (Memory.load_byte m.memory (ig r (pB v) + Array.unsafe_get tc j0));
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) - ig r (Array.unsafe_get tc (j0 + 1))));
    d := dd + 1;
    j := j0 + 2
  | 101 ->
    (* lw+la *)
    let dd = !d + 1 in
    fr.pc <- Array.unsafe_get aux.xpc j0;
    m.dyn <- dd;
    is_ r (pA v) (Memory.load_int m.memory (ig r (pB v) + Array.unsafe_get tc j0));
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (Array.unsafe_get tc (j0 + 1));
    d := dd + 1;
    j := j0 + 2
  | 102 ->
    (* lw+li *)
    let dd = !d + 1 in
    fr.pc <- Array.unsafe_get aux.xpc j0;
    m.dyn <- dd;
    is_ r (pA v) (Memory.load_int m.memory (ig r (pB v) + Array.unsafe_get tc j0));
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (Array.unsafe_get tc (j0 + 1));
    d := dd + 1;
    j := j0 + 2
  | 103 ->
    (* lw+add *)
    let dd = !d + 1 in
    fr.pc <- Array.unsafe_get aux.xpc j0;
    m.dyn <- dd;
    is_ r (pA v) (Memory.load_int m.memory (ig r (pB v) + Array.unsafe_get tc j0));
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) + ig r (Array.unsafe_get tc (j0 + 1))));
    d := dd + 1;
    j := j0 + 2
  | 104 ->
    (* lw+jmp: the jmp member has no work of its own *)
    let dd = !d + 1 in
    fr.pc <- Array.unsafe_get aux.xpc j0;
    m.dyn <- dd;
    is_ r (pA v) (Memory.load_int m.memory (ig r (pB v) + Array.unsafe_get tc j0));
    d := dd + 1;
    j := j0 + 2
  (* Fused quads: one dispatch for four micros. Same field layout as
     pairs — each member keeps its own word. These carve the dominant
     loop bodies of the app suite (indexed load/store chains and the
     2-D pixel address computation). *)
  | 105 ->
    (* la+slli+add+lw *)
    is_ r (pA v) (Array.unsafe_get tc j0);
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) lsl Array.unsafe_get tc (j0 + 1)));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (sx32 (ig r (pB v3) + ig r (Array.unsafe_get tc (j0 + 2))));
    let dd = !d + 4 in
    let v4 = Array.unsafe_get cab (j0 + 3) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 3);
    m.dyn <- dd;
    is_ r (pA v4)
      (Memory.load_int m.memory (ig r (pB v4) + Array.unsafe_get tc (j0 + 3)));
    d := dd;
    j := j0 + 4
  | 106 ->
    (* la+slli+add+sw *)
    is_ r (pA v) (Array.unsafe_get tc j0);
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) lsl Array.unsafe_get tc (j0 + 1)));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (sx32 (ig r (pB v3) + ig r (Array.unsafe_get tc (j0 + 2))));
    let dd = !d + 4 in
    let v4 = Array.unsafe_get cab (j0 + 3) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 3);
    m.dyn <- dd;
    Memory.store_int m.memory
      (ig r (pB v4) + Array.unsafe_get tc (j0 + 3))
      (ig r (pA v4));
    d := dd;
    j := j0 + 4
  | 107 ->
    (* mul+mul+add+li *)
    is_ r (pA v) (sx32 (ig r (pB v) * ig r (Array.unsafe_get tc j0)));
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) * ig r (Array.unsafe_get tc (j0 + 1))));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (sx32 (ig r (pB v3) + ig r (Array.unsafe_get tc (j0 + 2))));
    let v4 = Array.unsafe_get cab (j0 + 3) in
    is_ r (pA v4) (Array.unsafe_get tc (j0 + 3));
    d := !d + 4;
    j := j0 + 4
  | 108 ->
    (* add+lb+sub+la *)
    is_ r (pA v) (sx32 (ig r (pB v) + ig r (Array.unsafe_get tc j0)));
    let dd = !d + 2 in
    let v2 = Array.unsafe_get cab (j0 + 1) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 1);
    m.dyn <- dd;
    is_ r (pA v2)
      (Memory.load_byte m.memory (ig r (pB v2) + Array.unsafe_get tc (j0 + 1)));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (sx32 (ig r (pB v3) - ig r (Array.unsafe_get tc (j0 + 2))));
    let v4 = Array.unsafe_get cab (j0 + 3) in
    is_ r (pA v4) (Array.unsafe_get tc (j0 + 3));
    d := dd + 2;
    j := j0 + 4
  | 109 ->
    (* add+lb+add+addi *)
    is_ r (pA v) (sx32 (ig r (pB v) + ig r (Array.unsafe_get tc j0)));
    let dd = !d + 2 in
    let v2 = Array.unsafe_get cab (j0 + 1) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 1);
    m.dyn <- dd;
    is_ r (pA v2)
      (Memory.load_byte m.memory (ig r (pB v2) + Array.unsafe_get tc (j0 + 1)));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (sx32 (ig r (pB v3) + ig r (Array.unsafe_get tc (j0 + 2))));
    let v4 = Array.unsafe_get cab (j0 + 3) in
    is_ r (pA v4) (sx32 (ig r (pB v4) + Array.unsafe_get tc (j0 + 3)));
    d := dd + 2;
    j := j0 + 4
  | 110 ->
    (* la+addi+andi+add *)
    is_ r (pA v) (Array.unsafe_get tc j0);
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) + Array.unsafe_get tc (j0 + 1)));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (ig r (pB v3) land Array.unsafe_get tc (j0 + 2));
    let v4 = Array.unsafe_get cab (j0 + 3) in
    is_ r (pA v4) (sx32 (ig r (pB v4) + ig r (Array.unsafe_get tc (j0 + 3))));
    d := !d + 4;
    j := j0 + 4
  | 111 ->
    (* muli+add+add+add *)
    is_ r (pA v) (sx32 (ig r (pB v) * Array.unsafe_get tc j0));
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) + ig r (Array.unsafe_get tc (j0 + 1))));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (sx32 (ig r (pB v3) + ig r (Array.unsafe_get tc (j0 + 2))));
    let v4 = Array.unsafe_get cab (j0 + 3) in
    is_ r (pA v4) (sx32 (ig r (pB v4) + ig r (Array.unsafe_get tc (j0 + 3))));
    d := !d + 4;
    j := j0 + 4
  | 112 ->
    (* la+muli+add+add *)
    is_ r (pA v) (Array.unsafe_get tc j0);
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) * Array.unsafe_get tc (j0 + 1)));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (sx32 (ig r (pB v3) + ig r (Array.unsafe_get tc (j0 + 2))));
    let v4 = Array.unsafe_get cab (j0 + 3) in
    is_ r (pA v4) (sx32 (ig r (pB v4) + ig r (Array.unsafe_get tc (j0 + 3))));
    d := !d + 4;
    j := j0 + 4
  | 113 ->
    (* la+muli+add+add+add+lb+sub+la: one full 8-wide run of the susan
       pixel loop prefix; the lb is the 6th member *)
    is_ r (pA v) (Array.unsafe_get tc j0);
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) * Array.unsafe_get tc (j0 + 1)));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (sx32 (ig r (pB v3) + ig r (Array.unsafe_get tc (j0 + 2))));
    let v4 = Array.unsafe_get cab (j0 + 3) in
    is_ r (pA v4) (sx32 (ig r (pB v4) + ig r (Array.unsafe_get tc (j0 + 3))));
    let v5 = Array.unsafe_get cab (j0 + 4) in
    is_ r (pA v5) (sx32 (ig r (pB v5) + ig r (Array.unsafe_get tc (j0 + 4))));
    let dd = !d + 6 in
    let v6 = Array.unsafe_get cab (j0 + 5) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 5);
    m.dyn <- dd;
    is_ r (pA v6)
      (Memory.load_byte m.memory (ig r (pB v6) + Array.unsafe_get tc (j0 + 5)));
    let v7 = Array.unsafe_get cab (j0 + 6) in
    is_ r (pA v7) (sx32 (ig r (pB v7) - ig r (Array.unsafe_get tc (j0 + 6))));
    let v8 = Array.unsafe_get cab (j0 + 7) in
    is_ r (pA v8) (Array.unsafe_get tc (j0 + 7));
    d := dd + 2;
    j := j0 + 8
  | 114 ->
    (* addi+andi+add+lb+add+addi: the susan pixel loop suffix; the lb
       is the 4th member *)
    is_ r (pA v) (sx32 (ig r (pB v) + Array.unsafe_get tc j0));
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (ig r (pB v2) land Array.unsafe_get tc (j0 + 1));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (sx32 (ig r (pB v3) + ig r (Array.unsafe_get tc (j0 + 2))));
    let dd = !d + 4 in
    let v4 = Array.unsafe_get cab (j0 + 3) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 3);
    m.dyn <- dd;
    is_ r (pA v4)
      (Memory.load_byte m.memory (ig r (pB v4) + Array.unsafe_get tc (j0 + 3)));
    let v5 = Array.unsafe_get cab (j0 + 4) in
    is_ r (pA v5) (sx32 (ig r (pB v5) + ig r (Array.unsafe_get tc (j0 + 4))));
    let v6 = Array.unsafe_get cab (j0 + 5) in
    is_ r (pA v6) (sx32 (ig r (pB v6) + Array.unsafe_get tc (j0 + 5)));
    d := dd + 2;
    j := j0 + 6
  | 115 ->
    (* mul+mul+add+li+br(Gt,fwd): the branch member deviates when its
       condition holds, like the standalone assume-fallthrough arm 60 *)
    is_ r (pA v) (sx32 (ig r (pB v) * ig r (Array.unsafe_get tc j0)));
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) * ig r (Array.unsafe_get tc (j0 + 1))));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (sx32 (ig r (pB v3) + ig r (Array.unsafe_get tc (j0 + 2))));
    let v4 = Array.unsafe_get cab (j0 + 3) in
    is_ r (pA v4) (Array.unsafe_get tc (j0 + 3));
    let dd = !d + 5 in
    let v5 = Array.unsafe_get cab (j0 + 4) in
    if ig r (pA v5) > ig r (pB v5) then begin
      m.dyn <- dd;
      t := Array.unsafe_get tc (j0 + 4)
    end
    else begin
      d := dd;
      j := j0 + 5
    end
  | 116 ->
    (* addi+andi+add+lb+add+addi+jmp: arm 114 plus the loop backedge
       jmp consumed for free *)
    is_ r (pA v) (sx32 (ig r (pB v) + Array.unsafe_get tc j0));
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (ig r (pB v2) land Array.unsafe_get tc (j0 + 1));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (sx32 (ig r (pB v3) + ig r (Array.unsafe_get tc (j0 + 2))));
    let dd = !d + 4 in
    let v4 = Array.unsafe_get cab (j0 + 3) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 3);
    m.dyn <- dd;
    is_ r (pA v4)
      (Memory.load_byte m.memory (ig r (pB v4) + Array.unsafe_get tc (j0 + 3)));
    let v5 = Array.unsafe_get cab (j0 + 4) in
    is_ r (pA v5) (sx32 (ig r (pB v5) + ig r (Array.unsafe_get tc (j0 + 4))));
    let v6 = Array.unsafe_get cab (j0 + 5) in
    is_ r (pA v6) (sx32 (ig r (pB v6) + Array.unsafe_get tc (j0 + 5)));
    d := dd + 3;
    j := j0 + 7
  | 117 ->
    (* la+slli+add+lw twice: back-to-back indexed loads (the mcf arc
       scan); each lw parks its own pc *)
    is_ r (pA v) (Array.unsafe_get tc j0);
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) lsl Array.unsafe_get tc (j0 + 1)));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (sx32 (ig r (pB v3) + ig r (Array.unsafe_get tc (j0 + 2))));
    let dd = !d + 4 in
    let v4 = Array.unsafe_get cab (j0 + 3) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 3);
    m.dyn <- dd;
    is_ r (pA v4)
      (Memory.load_int m.memory (ig r (pB v4) + Array.unsafe_get tc (j0 + 3)));
    let v5 = Array.unsafe_get cab (j0 + 4) in
    is_ r (pA v5) (Array.unsafe_get tc (j0 + 4));
    let v6 = Array.unsafe_get cab (j0 + 5) in
    is_ r (pA v6) (sx32 (ig r (pB v6) lsl Array.unsafe_get tc (j0 + 5)));
    let v7 = Array.unsafe_get cab (j0 + 6) in
    is_ r (pA v7) (sx32 (ig r (pB v7) + ig r (Array.unsafe_get tc (j0 + 6))));
    let dd2 = dd + 4 in
    let v8 = Array.unsafe_get cab (j0 + 7) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 7);
    m.dyn <- dd2;
    is_ r (pA v8)
      (Memory.load_int m.memory (ig r (pB v8) + Array.unsafe_get tc (j0 + 7)));
    d := dd2;
    j := j0 + 8
  | 118 ->
    (* la+slli+add+lw+li *)
    is_ r (pA v) (Array.unsafe_get tc j0);
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) lsl Array.unsafe_get tc (j0 + 1)));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (sx32 (ig r (pB v3) + ig r (Array.unsafe_get tc (j0 + 2))));
    let dd = !d + 4 in
    let v4 = Array.unsafe_get cab (j0 + 3) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 3);
    m.dyn <- dd;
    is_ r (pA v4)
      (Memory.load_int m.memory (ig r (pB v4) + Array.unsafe_get tc (j0 + 3)));
    let v5 = Array.unsafe_get cab (j0 + 4) in
    is_ r (pA v5) (Array.unsafe_get tc (j0 + 4));
    d := dd + 1;
    j := j0 + 5
  | 119 ->
    (* la+slli+add+lw+add *)
    is_ r (pA v) (Array.unsafe_get tc j0);
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) lsl Array.unsafe_get tc (j0 + 1)));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (sx32 (ig r (pB v3) + ig r (Array.unsafe_get tc (j0 + 2))));
    let dd = !d + 4 in
    let v4 = Array.unsafe_get cab (j0 + 3) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 3);
    m.dyn <- dd;
    is_ r (pA v4)
      (Memory.load_int m.memory (ig r (pB v4) + Array.unsafe_get tc (j0 + 3)));
    let v5 = Array.unsafe_get cab (j0 + 4) in
    is_ r (pA v5) (sx32 (ig r (pB v5) + ig r (Array.unsafe_get tc (j0 + 4))));
    d := dd + 1;
    j := j0 + 5
  | 120 ->
    (* arm 116 plus the loop-header br(Ge,fwd) reached through the
       backedge jmp: a whole pixel-loop iteration's tail in one
       dispatch, branch member last *)
    is_ r (pA v) (sx32 (ig r (pB v) + Array.unsafe_get tc j0));
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (ig r (pB v2) land Array.unsafe_get tc (j0 + 1));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (sx32 (ig r (pB v3) + ig r (Array.unsafe_get tc (j0 + 2))));
    let dd = !d + 4 in
    let v4 = Array.unsafe_get cab (j0 + 3) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 3);
    m.dyn <- dd;
    is_ r (pA v4)
      (Memory.load_byte m.memory (ig r (pB v4) + Array.unsafe_get tc (j0 + 3)));
    let v5 = Array.unsafe_get cab (j0 + 4) in
    is_ r (pA v5) (sx32 (ig r (pB v5) + ig r (Array.unsafe_get tc (j0 + 4))));
    let v6 = Array.unsafe_get cab (j0 + 5) in
    is_ r (pA v6) (sx32 (ig r (pB v6) + Array.unsafe_get tc (j0 + 5)));
    let dd = dd + 4 in
    let v8 = Array.unsafe_get cab (j0 + 7) in
    if ig r (pA v8) >= ig r (pB v8) then begin
      m.dyn <- dd;
      t := Array.unsafe_get tc (j0 + 7)
    end
    else begin
      d := dd;
      j := j0 + 8
    end
  | 121 ->
    (* li+addi+jmp+br(Ge,fwd): counter-bump loop tail *)
    is_ r (pA v) (Array.unsafe_get tc j0);
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) + Array.unsafe_get tc (j0 + 1)));
    let dd = !d + 4 in
    let v4 = Array.unsafe_get cab (j0 + 3) in
    if ig r (pA v4) >= ig r (pB v4) then begin
      m.dyn <- dd;
      t := Array.unsafe_get tc (j0 + 3)
    end
    else begin
      d := dd;
      j := j0 + 4
    end
  | 122 ->
    (* cmp(Lt)+and+brz(Eq,fwd): short-circuit condition chain *)
    is_ r (pA v) (if ig r (pB v) < ig r (Array.unsafe_get tc j0) then 1 else 0);
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (ig r (pB v2) land ig r (Array.unsafe_get tc (j0 + 1)));
    let dd = !d + 3 in
    let v3 = Array.unsafe_get cab (j0 + 2) in
    if ig r (pA v3) = 0 then begin
      m.dyn <- dd;
      t := Array.unsafe_get tc (j0 + 2)
    end
    else begin
      d := dd;
      j := j0 + 3
    end
  | 123 ->
    (* la+slli+add+sw+jmp: arm 106 plus a free backedge jmp *)
    is_ r (pA v) (Array.unsafe_get tc j0);
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) lsl Array.unsafe_get tc (j0 + 1)));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (sx32 (ig r (pB v3) + ig r (Array.unsafe_get tc (j0 + 2))));
    let dd = !d + 4 in
    let v4 = Array.unsafe_get cab (j0 + 3) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 3);
    m.dyn <- dd;
    Memory.store_int m.memory
      (ig r (pB v4) + Array.unsafe_get tc (j0 + 3))
      (ig r (pA v4));
    d := dd + 1;
    j := j0 + 5
  | 124 ->
    (* la+slli+add+lw+br(Lt,fwd) *)
    is_ r (pA v) (Array.unsafe_get tc j0);
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) lsl Array.unsafe_get tc (j0 + 1)));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (sx32 (ig r (pB v3) + ig r (Array.unsafe_get tc (j0 + 2))));
    let dd = !d + 4 in
    let v4 = Array.unsafe_get cab (j0 + 3) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 3);
    m.dyn <- dd;
    is_ r (pA v4)
      (Memory.load_int m.memory (ig r (pB v4) + Array.unsafe_get tc (j0 + 3)));
    let dd = dd + 1 in
    let v5 = Array.unsafe_get cab (j0 + 4) in
    if ig r (pA v5) < ig r (pB v5) then begin
      m.dyn <- dd;
      t := Array.unsafe_get tc (j0 + 4)
    end
    else begin
      d := dd;
      j := j0 + 5
    end
  | 125 ->
    (* arm 115 with its fallthrough tail absorbed: addi+jmp+br(Ge,fwd),
       so the non-exiting path of the inner loop is one dispatch *)
    is_ r (pA v) (sx32 (ig r (pB v) * ig r (Array.unsafe_get tc j0)));
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) * ig r (Array.unsafe_get tc (j0 + 1))));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (sx32 (ig r (pB v3) + ig r (Array.unsafe_get tc (j0 + 2))));
    let v4 = Array.unsafe_get cab (j0 + 3) in
    is_ r (pA v4) (Array.unsafe_get tc (j0 + 3));
    let dd = !d + 5 in
    let v5 = Array.unsafe_get cab (j0 + 4) in
    if ig r (pA v5) > ig r (pB v5) then begin
      m.dyn <- dd;
      t := Array.unsafe_get tc (j0 + 4)
    end
    else begin
      let v6 = Array.unsafe_get cab (j0 + 5) in
      is_ r (pA v6) (sx32 (ig r (pB v6) + Array.unsafe_get tc (j0 + 5)));
      let dd = dd + 3 in
      let v8 = Array.unsafe_get cab (j0 + 7) in
      if ig r (pA v8) >= ig r (pB v8) then begin
        m.dyn <- dd;
        t := Array.unsafe_get tc (j0 + 7)
      end
      else begin
        d := dd;
        j := j0 + 8
      end
    end
  | 126 ->
    (* addi+jmp+br(Ge,fwd): counter-bump backedge into the loop test *)
    is_ r (pA v) (sx32 (ig r (pB v) + Array.unsafe_get tc j0));
    let dd = !d + 3 in
    let v3 = Array.unsafe_get cab (j0 + 2) in
    if ig r (pA v3) >= ig r (pB v3) then begin
      m.dyn <- dd;
      t := Array.unsafe_get tc (j0 + 2)
    end
    else begin
      d := dd;
      j := j0 + 3
    end
  | 127 ->
    (* li+li+br(Ge,fwd): constant-reset loop header *)
    is_ r (pA v) (Array.unsafe_get tc j0);
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (Array.unsafe_get tc (j0 + 1));
    let dd = !d + 3 in
    let v3 = Array.unsafe_get cab (j0 + 2) in
    if ig r (pA v3) >= ig r (pB v3) then begin
      m.dyn <- dd;
      t := Array.unsafe_get tc (j0 + 2)
    end
    else begin
      d := dd;
      j := j0 + 3
    end
  | 128 ->
    (* la+slli+add+lw+jmp+li+br(Lt,fwd): indexed load, backedge jmp
       free, constant, loop test *)
    is_ r (pA v) (Array.unsafe_get tc j0);
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) lsl Array.unsafe_get tc (j0 + 1)));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (sx32 (ig r (pB v3) + ig r (Array.unsafe_get tc (j0 + 2))));
    let dd = !d + 4 in
    let v4 = Array.unsafe_get cab (j0 + 3) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 3);
    m.dyn <- dd;
    is_ r (pA v4)
      (Memory.load_int m.memory (ig r (pB v4) + Array.unsafe_get tc (j0 + 3)));
    let v6 = Array.unsafe_get cab (j0 + 5) in
    is_ r (pA v6) (Array.unsafe_get tc (j0 + 5));
    let dd = dd + 3 in
    let v7 = Array.unsafe_get cab (j0 + 6) in
    if ig r (pA v7) < ig r (pB v7) then begin
      m.dyn <- dd;
      t := Array.unsafe_get tc (j0 + 6)
    end
    else begin
      d := dd;
      j := j0 + 7
    end
  | 129 ->
    (* la+slli+add+lw+li+cmp(Gt): arm 118 plus the comparison *)
    is_ r (pA v) (Array.unsafe_get tc j0);
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) lsl Array.unsafe_get tc (j0 + 1)));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (sx32 (ig r (pB v3) + ig r (Array.unsafe_get tc (j0 + 2))));
    let dd = !d + 4 in
    let v4 = Array.unsafe_get cab (j0 + 3) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 3);
    m.dyn <- dd;
    is_ r (pA v4)
      (Memory.load_int m.memory (ig r (pB v4) + Array.unsafe_get tc (j0 + 3)));
    let v5 = Array.unsafe_get cab (j0 + 4) in
    is_ r (pA v5) (Array.unsafe_get tc (j0 + 4));
    let v6 = Array.unsafe_get cab (j0 + 5) in
    is_ r (pA v6)
      (if ig r (pB v6) > ig r (Array.unsafe_get tc (j0 + 5)) then 1 else 0);
    d := dd + 2;
    j := j0 + 6
  | 130 ->
    (* One full pixel-loop iteration (arms 115+113+120 contiguous in
       the unrolled trace): 21 micros, two parked byte loads, brGt exit
       early out, brGe loop test last *)
    is_ r (pA v) (sx32 (ig r (pB v) * ig r (Array.unsafe_get tc j0)));
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) * ig r (Array.unsafe_get tc (j0 + 1))));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (sx32 (ig r (pB v3) + ig r (Array.unsafe_get tc (j0 + 2))));
    let v4 = Array.unsafe_get cab (j0 + 3) in
    is_ r (pA v4) (Array.unsafe_get tc (j0 + 3));
    let dd = !d + 5 in
    let v5 = Array.unsafe_get cab (j0 + 4) in
    if ig r (pA v5) > ig r (pB v5) then begin
      m.dyn <- dd;
      t := Array.unsafe_get tc (j0 + 4)
    end
    else begin
      let v6 = Array.unsafe_get cab (j0 + 5) in
      is_ r (pA v6) (Array.unsafe_get tc (j0 + 5));
      let v7 = Array.unsafe_get cab (j0 + 6) in
      is_ r (pA v7) (sx32 (ig r (pB v7) * Array.unsafe_get tc (j0 + 6)));
      let v8 = Array.unsafe_get cab (j0 + 7) in
      is_ r (pA v8) (sx32 (ig r (pB v8) + ig r (Array.unsafe_get tc (j0 + 7))));
      let v9 = Array.unsafe_get cab (j0 + 8) in
      is_ r (pA v9) (sx32 (ig r (pB v9) + ig r (Array.unsafe_get tc (j0 + 8))));
      let v10 = Array.unsafe_get cab (j0 + 9) in
      is_ r (pA v10) (sx32 (ig r (pB v10) + ig r (Array.unsafe_get tc (j0 + 9))));
      let dd = dd + 6 in
      let v11 = Array.unsafe_get cab (j0 + 10) in
      fr.pc <- Array.unsafe_get aux.xpc (j0 + 10);
      m.dyn <- dd;
      is_ r (pA v11)
        (Memory.load_byte m.memory
           (ig r (pB v11) + Array.unsafe_get tc (j0 + 10)));
      let v12 = Array.unsafe_get cab (j0 + 11) in
      is_ r (pA v12) (sx32 (ig r (pB v12) - ig r (Array.unsafe_get tc (j0 + 11))));
      let v13 = Array.unsafe_get cab (j0 + 12) in
      is_ r (pA v13) (Array.unsafe_get tc (j0 + 12));
      let v14 = Array.unsafe_get cab (j0 + 13) in
      is_ r (pA v14) (sx32 (ig r (pB v14) + Array.unsafe_get tc (j0 + 13)));
      let v15 = Array.unsafe_get cab (j0 + 14) in
      is_ r (pA v15) (ig r (pB v15) land Array.unsafe_get tc (j0 + 14));
      let v16 = Array.unsafe_get cab (j0 + 15) in
      is_ r (pA v16) (sx32 (ig r (pB v16) + ig r (Array.unsafe_get tc (j0 + 15))));
      let dd = dd + 6 in
      let v17 = Array.unsafe_get cab (j0 + 16) in
      fr.pc <- Array.unsafe_get aux.xpc (j0 + 16);
      m.dyn <- dd;
      is_ r (pA v17)
        (Memory.load_byte m.memory
           (ig r (pB v17) + Array.unsafe_get tc (j0 + 16)));
      let v18 = Array.unsafe_get cab (j0 + 17) in
      is_ r (pA v18) (sx32 (ig r (pB v18) + ig r (Array.unsafe_get tc (j0 + 17))));
      let v19 = Array.unsafe_get cab (j0 + 18) in
      is_ r (pA v19) (sx32 (ig r (pB v19) + Array.unsafe_get tc (j0 + 18)));
      let dd = dd + 4 in
      let v21 = Array.unsafe_get cab (j0 + 20) in
      if ig r (pA v21) >= ig r (pB v21) then begin
        m.dyn <- dd;
        t := Array.unsafe_get tc (j0 + 20)
      end
      else begin
        d := dd;
        j := j0 + 21
      end
    end
  | 131 ->
    (* Three la+slli+add+lw indexed loads then an add: arms 117+119
       contiguous (the mcf arc-scan gather); each lw parks its own pc *)
    is_ r (pA v) (Array.unsafe_get tc j0);
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) lsl Array.unsafe_get tc (j0 + 1)));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (sx32 (ig r (pB v3) + ig r (Array.unsafe_get tc (j0 + 2))));
    let dd = !d + 4 in
    let v4 = Array.unsafe_get cab (j0 + 3) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 3);
    m.dyn <- dd;
    is_ r (pA v4)
      (Memory.load_int m.memory (ig r (pB v4) + Array.unsafe_get tc (j0 + 3)));
    let v5 = Array.unsafe_get cab (j0 + 4) in
    is_ r (pA v5) (Array.unsafe_get tc (j0 + 4));
    let v6 = Array.unsafe_get cab (j0 + 5) in
    is_ r (pA v6) (sx32 (ig r (pB v6) lsl Array.unsafe_get tc (j0 + 5)));
    let v7 = Array.unsafe_get cab (j0 + 6) in
    is_ r (pA v7) (sx32 (ig r (pB v7) + ig r (Array.unsafe_get tc (j0 + 6))));
    let dd = dd + 4 in
    let v8 = Array.unsafe_get cab (j0 + 7) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 7);
    m.dyn <- dd;
    is_ r (pA v8)
      (Memory.load_int m.memory (ig r (pB v8) + Array.unsafe_get tc (j0 + 7)));
    let v9 = Array.unsafe_get cab (j0 + 8) in
    is_ r (pA v9) (Array.unsafe_get tc (j0 + 8));
    let v10 = Array.unsafe_get cab (j0 + 9) in
    is_ r (pA v10) (sx32 (ig r (pB v10) lsl Array.unsafe_get tc (j0 + 9)));
    let v11 = Array.unsafe_get cab (j0 + 10) in
    is_ r (pA v11) (sx32 (ig r (pB v11) + ig r (Array.unsafe_get tc (j0 + 10))));
    let dd = dd + 4 in
    let v12 = Array.unsafe_get cab (j0 + 11) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 11);
    m.dyn <- dd;
    is_ r (pA v12)
      (Memory.load_int m.memory (ig r (pB v12) + Array.unsafe_get tc (j0 + 11)));
    let v13 = Array.unsafe_get cab (j0 + 12) in
    is_ r (pA v13) (sx32 (ig r (pB v13) + ig r (Array.unsafe_get tc (j0 + 12))));
    d := dd + 1;
    j := j0 + 13
  | 132 ->
    (* la+slli+add+lw then cmp(Lt)+and+brz(Eq,fwd): arms 105+122, the
       arc-scan bound check *)
    is_ r (pA v) (Array.unsafe_get tc j0);
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) lsl Array.unsafe_get tc (j0 + 1)));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (sx32 (ig r (pB v3) + ig r (Array.unsafe_get tc (j0 + 2))));
    let dd = !d + 4 in
    let v4 = Array.unsafe_get cab (j0 + 3) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 3);
    m.dyn <- dd;
    is_ r (pA v4)
      (Memory.load_int m.memory (ig r (pB v4) + Array.unsafe_get tc (j0 + 3)));
    let v5 = Array.unsafe_get cab (j0 + 4) in
    is_ r (pA v5)
      (if ig r (pB v5) < ig r (Array.unsafe_get tc (j0 + 4)) then 1 else 0);
    let v6 = Array.unsafe_get cab (j0 + 5) in
    is_ r (pA v6) (ig r (pB v6) land ig r (Array.unsafe_get tc (j0 + 5)));
    let dd = dd + 3 in
    let v7 = Array.unsafe_get cab (j0 + 6) in
    if ig r (pA v7) = 0 then begin
      m.dyn <- dd;
      t := Array.unsafe_get tc (j0 + 6)
    end
    else begin
      d := dd;
      j := j0 + 7
    end
  | 133 ->
    (* One full arc-scan iteration (arms 131+129+132+128 contiguous in
       the trace): 33 micros, six parked word loads, brz(Eq) bound
       check and brLt loop test as the two exits *)
    is_ r (pA v) (Array.unsafe_get tc j0);
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) lsl Array.unsafe_get tc (j0 + 1)));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (sx32 (ig r (pB v3) + ig r (Array.unsafe_get tc (j0 + 2))));
    let v4 = Array.unsafe_get cab (j0 + 3) in
    let dd = !d + 4 in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 3);
    m.dyn <- dd;
    is_ r (pA v4)
      (Memory.load_int m.memory (ig r (pB v4) + Array.unsafe_get tc (j0 + 3)));
    let v5 = Array.unsafe_get cab (j0 + 4) in
    is_ r (pA v5) (Array.unsafe_get tc (j0 + 4));
    let v6 = Array.unsafe_get cab (j0 + 5) in
    is_ r (pA v6) (sx32 (ig r (pB v6) lsl Array.unsafe_get tc (j0 + 5)));
    let v7 = Array.unsafe_get cab (j0 + 6) in
    is_ r (pA v7) (sx32 (ig r (pB v7) + ig r (Array.unsafe_get tc (j0 + 6))));
    let v8 = Array.unsafe_get cab (j0 + 7) in
    let dd = dd + 4 in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 7);
    m.dyn <- dd;
    is_ r (pA v8)
      (Memory.load_int m.memory (ig r (pB v8) + Array.unsafe_get tc (j0 + 7)));
    let v9 = Array.unsafe_get cab (j0 + 8) in
    is_ r (pA v9) (Array.unsafe_get tc (j0 + 8));
    let v10 = Array.unsafe_get cab (j0 + 9) in
    is_ r (pA v10) (sx32 (ig r (pB v10) lsl Array.unsafe_get tc (j0 + 9)));
    let v11 = Array.unsafe_get cab (j0 + 10) in
    is_ r (pA v11) (sx32 (ig r (pB v11) + ig r (Array.unsafe_get tc (j0 + 10))));
    let v12 = Array.unsafe_get cab (j0 + 11) in
    let dd = dd + 4 in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 11);
    m.dyn <- dd;
    is_ r (pA v12)
      (Memory.load_int m.memory (ig r (pB v12) + Array.unsafe_get tc (j0 + 11)));
    let v13 = Array.unsafe_get cab (j0 + 12) in
    is_ r (pA v13) (sx32 (ig r (pB v13) + ig r (Array.unsafe_get tc (j0 + 12))));
    let v14 = Array.unsafe_get cab (j0 + 13) in
    is_ r (pA v14) (Array.unsafe_get tc (j0 + 13));
    let v15 = Array.unsafe_get cab (j0 + 14) in
    is_ r (pA v15) (sx32 (ig r (pB v15) lsl Array.unsafe_get tc (j0 + 14)));
    let v16 = Array.unsafe_get cab (j0 + 15) in
    is_ r (pA v16) (sx32 (ig r (pB v16) + ig r (Array.unsafe_get tc (j0 + 15))));
    let v17 = Array.unsafe_get cab (j0 + 16) in
    let dd = dd + 5 in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 16);
    m.dyn <- dd;
    is_ r (pA v17)
      (Memory.load_int m.memory (ig r (pB v17) + Array.unsafe_get tc (j0 + 16)));
    let v18 = Array.unsafe_get cab (j0 + 17) in
    is_ r (pA v18) (Array.unsafe_get tc (j0 + 17));
    let v19 = Array.unsafe_get cab (j0 + 18) in
    is_ r (pA v19)
      (if ig r (pB v19) > ig r (Array.unsafe_get tc (j0 + 18)) then 1 else 0);
    let v20 = Array.unsafe_get cab (j0 + 19) in
    is_ r (pA v20) (Array.unsafe_get tc (j0 + 19));
    let v21 = Array.unsafe_get cab (j0 + 20) in
    is_ r (pA v21) (sx32 (ig r (pB v21) lsl Array.unsafe_get tc (j0 + 20)));
    let v22 = Array.unsafe_get cab (j0 + 21) in
    is_ r (pA v22) (sx32 (ig r (pB v22) + ig r (Array.unsafe_get tc (j0 + 21))));
    let v23 = Array.unsafe_get cab (j0 + 22) in
    let dd = dd + 6 in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 22);
    m.dyn <- dd;
    is_ r (pA v23)
      (Memory.load_int m.memory (ig r (pB v23) + Array.unsafe_get tc (j0 + 22)));
    let v24 = Array.unsafe_get cab (j0 + 23) in
    is_ r (pA v24)
      (if ig r (pB v24) < ig r (Array.unsafe_get tc (j0 + 23)) then 1 else 0);
    let v25 = Array.unsafe_get cab (j0 + 24) in
    is_ r (pA v25) (ig r (pB v25) land ig r (Array.unsafe_get tc (j0 + 24)));
    let dd = dd + 3 in
    let v26 = Array.unsafe_get cab (j0 + 25) in
    if ig r (pA v26) = 0 then begin
      m.dyn <- dd;
      t := Array.unsafe_get tc (j0 + 25)
    end
    else begin
      let v27 = Array.unsafe_get cab (j0 + 26) in
      is_ r (pA v27) (Array.unsafe_get tc (j0 + 26));
      let v28 = Array.unsafe_get cab (j0 + 27) in
      is_ r (pA v28) (sx32 (ig r (pB v28) lsl Array.unsafe_get tc (j0 + 27)));
      let v29 = Array.unsafe_get cab (j0 + 28) in
      is_ r (pA v29) (sx32 (ig r (pB v29) + ig r (Array.unsafe_get tc (j0 + 28))));
      let v30 = Array.unsafe_get cab (j0 + 29) in
      let dd = dd + 4 in
      fr.pc <- Array.unsafe_get aux.xpc (j0 + 29);
      m.dyn <- dd;
      is_ r (pA v30)
        (Memory.load_int m.memory (ig r (pB v30) + Array.unsafe_get tc (j0 + 29)));
      let v32 = Array.unsafe_get cab (j0 + 31) in
      is_ r (pA v32) (Array.unsafe_get tc (j0 + 31));
      let dd = dd + 3 in
      let v33 = Array.unsafe_get cab (j0 + 32) in
      if ig r (pA v33) < ig r (pB v33) then begin
        m.dyn <- dd;
        t := Array.unsafe_get tc (j0 + 32)
      end
      else begin
        d := dd;
        j := j0 + 33
      end
    end
  | 134 ->
    (* One full mcf write-back iteration, 58 micros: the arc-scan
       gather (arm 133's prefix) then two conditional exits and the
       store-side scatter; every load/store parks its own pc *)
    is_ r (pA v) (Array.unsafe_get tc j0);
    let v2 = Array.unsafe_get cab (j0 + 1) in
    is_ r (pA v2) (sx32 (ig r (pB v2) lsl Array.unsafe_get tc (j0 + 1)));
    let v3 = Array.unsafe_get cab (j0 + 2) in
    is_ r (pA v3) (sx32 (ig r (pB v3) + ig r (Array.unsafe_get tc (j0 + 2))));
    let dd = !d + 4 in
    let v4 = Array.unsafe_get cab (j0 + 3) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 3);
    m.dyn <- dd;
    is_ r (pA v4)
      (Memory.load_int m.memory (ig r (pB v4) + Array.unsafe_get tc (j0 + 3)));
    let v5 = Array.unsafe_get cab (j0 + 4) in
    is_ r (pA v5) (Array.unsafe_get tc (j0 + 4));
    let v6 = Array.unsafe_get cab (j0 + 5) in
    is_ r (pA v6) (sx32 (ig r (pB v6) lsl Array.unsafe_get tc (j0 + 5)));
    let v7 = Array.unsafe_get cab (j0 + 6) in
    is_ r (pA v7) (sx32 (ig r (pB v7) + ig r (Array.unsafe_get tc (j0 + 6))));
    let dd = dd + 4 in
    let v8 = Array.unsafe_get cab (j0 + 7) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 7);
    m.dyn <- dd;
    is_ r (pA v8)
      (Memory.load_int m.memory (ig r (pB v8) + Array.unsafe_get tc (j0 + 7)));
    let v9 = Array.unsafe_get cab (j0 + 8) in
    is_ r (pA v9) (Array.unsafe_get tc (j0 + 8));
    let v10 = Array.unsafe_get cab (j0 + 9) in
    is_ r (pA v10) (sx32 (ig r (pB v10) lsl Array.unsafe_get tc (j0 + 9)));
    let v11 = Array.unsafe_get cab (j0 + 10) in
    is_ r (pA v11) (sx32 (ig r (pB v11) + ig r (Array.unsafe_get tc (j0 + 10))));
    let dd = dd + 4 in
    let v12 = Array.unsafe_get cab (j0 + 11) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 11);
    m.dyn <- dd;
    is_ r (pA v12)
      (Memory.load_int m.memory (ig r (pB v12) + Array.unsafe_get tc (j0 + 11)));
    let v13 = Array.unsafe_get cab (j0 + 12) in
    is_ r (pA v13) (sx32 (ig r (pB v13) + ig r (Array.unsafe_get tc (j0 + 12))));
    let v14 = Array.unsafe_get cab (j0 + 13) in
    is_ r (pA v14) (Array.unsafe_get tc (j0 + 13));
    let v15 = Array.unsafe_get cab (j0 + 14) in
    is_ r (pA v15) (sx32 (ig r (pB v15) lsl Array.unsafe_get tc (j0 + 14)));
    let v16 = Array.unsafe_get cab (j0 + 15) in
    is_ r (pA v16) (sx32 (ig r (pB v16) + ig r (Array.unsafe_get tc (j0 + 15))));
    let dd = dd + 5 in
    let v17 = Array.unsafe_get cab (j0 + 16) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 16);
    m.dyn <- dd;
    is_ r (pA v17)
      (Memory.load_int m.memory (ig r (pB v17) + Array.unsafe_get tc (j0 + 16)));
    let v18 = Array.unsafe_get cab (j0 + 17) in
    is_ r (pA v18) (Array.unsafe_get tc (j0 + 17));
    let v19 = Array.unsafe_get cab (j0 + 18) in
    is_ r (pA v19)
      (if ig r (pB v19) > ig r (Array.unsafe_get tc (j0 + 18)) then 1 else 0);
    let v20 = Array.unsafe_get cab (j0 + 19) in
    is_ r (pA v20) (Array.unsafe_get tc (j0 + 19));
    let v21 = Array.unsafe_get cab (j0 + 20) in
    is_ r (pA v21) (sx32 (ig r (pB v21) lsl Array.unsafe_get tc (j0 + 20)));
    let v22 = Array.unsafe_get cab (j0 + 21) in
    is_ r (pA v22) (sx32 (ig r (pB v22) + ig r (Array.unsafe_get tc (j0 + 21))));
    let dd = dd + 6 in
    let v23 = Array.unsafe_get cab (j0 + 22) in
    fr.pc <- Array.unsafe_get aux.xpc (j0 + 22);
    m.dyn <- dd;
    is_ r (pA v23)
      (Memory.load_int m.memory (ig r (pB v23) + Array.unsafe_get tc (j0 + 22)));
    let v24 = Array.unsafe_get cab (j0 + 23) in
    is_ r (pA v24)
      (if ig r (pB v24) < ig r (Array.unsafe_get tc (j0 + 23)) then 1 else 0);
    let v25 = Array.unsafe_get cab (j0 + 24) in
    is_ r (pA v25) (ig r (pB v25) land ig r (Array.unsafe_get tc (j0 + 24)));
    let dd = dd + 3 in
    let v26 = Array.unsafe_get cab (j0 + 25) in
    if ig r (pA v26) = 0 then begin
      m.dyn <- dd;
      t := Array.unsafe_get tc (j0 + 25)
    end
    else begin
      let v27 = Array.unsafe_get cab (j0 + 26) in
      is_ r (pA v27) (Array.unsafe_get tc (j0 + 26));
      let v28 = Array.unsafe_get cab (j0 + 27) in
      is_ r (pA v28) (sx32 (ig r (pB v28) lsl Array.unsafe_get tc (j0 + 27)));
      let v29 = Array.unsafe_get cab (j0 + 28) in
      is_ r (pA v29) (sx32 (ig r (pB v29) + ig r (Array.unsafe_get tc (j0 + 28))));
      let dd = dd + 4 in
      let v30 = Array.unsafe_get cab (j0 + 29) in
      fr.pc <- Array.unsafe_get aux.xpc (j0 + 29);
      m.dyn <- dd;
      Memory.store_int m.memory
        (ig r (pB v30) + Array.unsafe_get tc (j0 + 29))
        (ig r (pA v30));
      let v31 = Array.unsafe_get cab (j0 + 30) in
      is_ r (pA v31) (Array.unsafe_get tc (j0 + 30));
      let v32 = Array.unsafe_get cab (j0 + 31) in
      is_ r (pA v32) (sx32 (ig r (pB v32) lsl Array.unsafe_get tc (j0 + 31)));
      let v33 = Array.unsafe_get cab (j0 + 32) in
      is_ r (pA v33) (sx32 (ig r (pB v33) + ig r (Array.unsafe_get tc (j0 + 32))));
      let dd = dd + 4 in
      let v34 = Array.unsafe_get cab (j0 + 33) in
      fr.pc <- Array.unsafe_get aux.xpc (j0 + 33);
      m.dyn <- dd;
      Memory.store_int m.memory
        (ig r (pB v34) + Array.unsafe_get tc (j0 + 33))
        (ig r (pA v34));
      let v35 = Array.unsafe_get cab (j0 + 34) in
      is_ r (pA v35) (Array.unsafe_get tc (j0 + 34));
      let v36 = Array.unsafe_get cab (j0 + 35) in
      is_ r (pA v36) (sx32 (ig r (pB v36) lsl Array.unsafe_get tc (j0 + 35)));
      let v37 = Array.unsafe_get cab (j0 + 36) in
      is_ r (pA v37) (sx32 (ig r (pB v37) + ig r (Array.unsafe_get tc (j0 + 36))));
      let dd = dd + 4 in
      let v38 = Array.unsafe_get cab (j0 + 37) in
      fr.pc <- Array.unsafe_get aux.xpc (j0 + 37);
      m.dyn <- dd;
      is_ r (pA v38)
        (Memory.load_int m.memory (ig r (pB v38) + Array.unsafe_get tc (j0 + 37)));
      let v39 = Array.unsafe_get cab (j0 + 38) in
      is_ r (pA v39) (Array.unsafe_get tc (j0 + 38));
      let dd = dd + 2 in
      let v40 = Array.unsafe_get cab (j0 + 39) in
      if ig r (pA v40) <> ig r (pB v40) then begin
        m.dyn <- dd;
        t := Array.unsafe_get tc (j0 + 39)
      end
      else begin
        let v41 = Array.unsafe_get cab (j0 + 40) in
        is_ r (pA v41) (Array.unsafe_get tc (j0 + 40));
        let v42 = Array.unsafe_get cab (j0 + 41) in
        is_ r (pA v42) (sx32 (ig r (pB v42) lsl Array.unsafe_get tc (j0 + 41)));
        let v43 = Array.unsafe_get cab (j0 + 42) in
        is_ r (pA v43) (sx32 (ig r (pB v43) + ig r (Array.unsafe_get tc (j0 + 42))));
        let dd = dd + 4 in
        let v44 = Array.unsafe_get cab (j0 + 43) in
        fr.pc <- Array.unsafe_get aux.xpc (j0 + 43);
        m.dyn <- dd;
        Memory.store_int m.memory
          (ig r (pB v44) + Array.unsafe_get tc (j0 + 43))
          (ig r (pA v44));
        let v45 = Array.unsafe_get cab (j0 + 44) in
        is_ r (pA v45) (sx32 (ig r (pB v45) + Array.unsafe_get tc (j0 + 44)));
        let v46 = Array.unsafe_get cab (j0 + 45) in
        is_ r (pA v46) (sx32 (ig r (pB v46) mod Array.unsafe_get tc (j0 + 45)));
        let v47 = Array.unsafe_get cab (j0 + 46) in
        is_ r (pA v47) (Array.unsafe_get tc (j0 + 46));
        let v48 = Array.unsafe_get cab (j0 + 47) in
        is_ r (pA v48) (Array.unsafe_get tc (j0 + 47));
        let v49 = Array.unsafe_get cab (j0 + 48) in
        is_ r (pA v49) (sx32 (ig r (pB v49) lsl Array.unsafe_get tc (j0 + 48)));
        let v50 = Array.unsafe_get cab (j0 + 49) in
        is_ r (pA v50) (sx32 (ig r (pB v50) + ig r (Array.unsafe_get tc (j0 + 49))));
        let dd = dd + 7 in
        let v51 = Array.unsafe_get cab (j0 + 50) in
        fr.pc <- Array.unsafe_get aux.xpc (j0 + 50);
        m.dyn <- dd;
        Memory.store_int m.memory
          (ig r (pB v51) + Array.unsafe_get tc (j0 + 50))
          (ig r (pA v51));
        let v52 = Array.unsafe_get cab (j0 + 51) in
        is_ r (pA v52) (Array.unsafe_get tc (j0 + 51));
        let v53 = Array.unsafe_get cab (j0 + 52) in
        is_ r (pA v53) (sx32 (ig r (pB v53) lsl Array.unsafe_get tc (j0 + 52)));
        let v54 = Array.unsafe_get cab (j0 + 53) in
        is_ r (pA v54) (sx32 (ig r (pB v54) + ig r (Array.unsafe_get tc (j0 + 53))));
        let dd = dd + 4 in
        let v55 = Array.unsafe_get cab (j0 + 54) in
        fr.pc <- Array.unsafe_get aux.xpc (j0 + 54);
        m.dyn <- dd;
        is_ r (pA v55)
          (Memory.load_int m.memory (ig r (pB v55) + Array.unsafe_get tc (j0 + 54)));
        let v57 = Array.unsafe_get cab (j0 + 56) in
        is_ r (pA v57) (Array.unsafe_get tc (j0 + 56));
        let dd = dd + 3 in
        let v58 = Array.unsafe_get cab (j0 + 57) in
        if ig r (pA v58) < ig r (pB v58) then begin
          m.dyn <- dd;
          t := Array.unsafe_get tc (j0 + 57)
        end
        else begin
          d := dd;
          j := j0 + 58
        end
    end
  end
  | _ -> assert false
  done;
  !t

(* Multi-wide superinstruction patterns, longest first: the greedy
   pass rewrites the first (longest) pattern whose member opcodes match
   at the scan point. *)
let fuse_patterns =
  [|
    ( [| 17; 17; 15; 2; 60; 3; 28; 15; 15; 15; 10; 16; 3; 26; 31; 15; 10; 15;
         26; 1; 61 |],
      130 );
    ( [| 3; 34; 15; 9; 3; 34; 15; 9; 3; 34; 15; 9; 15; 3; 34; 15; 9; 2; 41; 3;
         34; 15; 9; 39; 20; 68; 3; 34; 15; 12; 3; 34; 15; 12; 3; 34; 15; 9; 2; 57;
         3; 34; 15; 12; 26; 30; 2; 3; 34; 15; 12; 3; 34; 15; 9; 1; 2; 58 |],
      134 );
    ( [| 3; 34; 15; 9; 3; 34; 15; 9; 3; 34; 15; 9; 15; 3; 34; 15; 9; 2; 41; 3;
         34; 15; 9; 39; 20; 68; 3; 34; 15; 9; 1; 2; 58 |],
      133 );
    ([| 3; 34; 15; 9; 3; 34; 15; 9; 3; 34; 15; 9; 15 |], 131);
    ([| 3; 28; 15; 15; 15; 10; 16; 3 |], 113);
    ([| 3; 34; 15; 9; 3; 34; 15; 9 |], 117);
    ([| 3; 34; 15; 9; 39; 20; 68 |], 132);
    ([| 26; 31; 15; 10; 15; 26; 1; 61 |], 120);
    ([| 17; 17; 15; 2; 60; 26; 1; 61 |], 125);
    ([| 3; 34; 15; 9; 1; 2; 58 |], 128);
    ([| 26; 31; 15; 10; 15; 26; 1 |], 116);
    ([| 26; 31; 15; 10; 15; 26 |], 114);
    ([| 3; 34; 15; 9; 2; 41 |], 129);
    ([| 17; 17; 15; 2; 60 |], 115);
    ([| 3; 34; 15; 9; 2 |], 118);
    ([| 3; 34; 15; 9; 15 |], 119);
    ([| 3; 34; 15; 12; 1 |], 123);
    ([| 3; 34; 15; 9; 58 |], 124);
    ([| 3; 34; 15; 9 |], 105);
    ([| 3; 34; 15; 12 |], 106);
    ([| 17; 17; 15; 2 |], 107);
    ([| 15; 10; 16; 3 |], 108);
    ([| 15; 10; 15; 26 |], 109);
    ([| 3; 26; 31; 15 |], 110);
    ([| 28; 15; 15; 15 |], 111);
    ([| 3; 28; 15; 15 |], 112);
    ([| 2; 26; 1; 61 |], 121);
    ([| 2; 2; 61 |], 127);
    ([| 26; 1; 61 |], 126);
    ([| 39; 20; 68 |], 122);
  |]

(* [fuse_patterns] bucketed by first member opcode: the fusion pass
   tries only the patterns that can match at the scan point. Unfused
   opcodes are all below 80. *)
let patterns_by_first =
  Array.init 80 (fun c ->
      List.filter (fun (pat, _) -> pat.(0) = c) (Array.to_list fuse_patterns)
      |> Array.of_list)

(* The superinstruction pair table: hot micro bigrams (profiled on the
   mlang app suite — array-indexing chains la/slli/add around loads
   dominate) fused into the 80+ opcode range. -1 = not fusable. *)
let fuse_code c1 c2 =
  match (c1, c2) with
  | 15, 15 -> 80
  | 15, 2 -> 81
  | 17, 17 -> 82
  | 17, 15 -> 83
  | 28, 15 -> 84
  | 3, 28 -> 85
  | 3, 26 -> 86
  | 31, 15 -> 87
  | 26, 31 -> 88
  | 16, 3 -> 89
  | 34, 15 -> 90
  | 3, 34 -> 91
  | 26, 1 -> 92
  | 15, 3 -> 93
  | 15, 10 -> 96
  | 15, 9 -> 97
  | 15, 12 -> 98
  | 10, 15 -> 99
  | 10, 16 -> 100
  | 9, 3 -> 101
  | 9, 2 -> 102
  | 9, 15 -> 103
  | 9, 1 -> 104
  | _ -> -1

let trace_cap = 256
let trace_min = 3

(* Does the instruction write a destination register? Exactly these
   run the injection hook, so only these consume an ordinal when
   tagged. *)
let writes_reg : Code.d -> bool = function
  | Code.DLi _ | Code.DLf _ | Code.DLa _ | Code.DMovI _ | Code.DMovF _
  | Code.DBin _ | Code.DBini _ | Code.DCmp _ | Code.DFbin _ | Code.DFun _
  | Code.DFcmp _ | Code.DI2f _ | Code.DF2i _ | Code.DLw _ | Code.DLb _
  | Code.DLwf _ ->
    true
  | Code.DNop | Code.DSw _ | Code.DSb _ | Code.DSwf _ | Code.DBr _
  | Code.DBrz _ | Code.DJmp _ | Code.DCall _ | Code.DRetI _ | Code.DRetF _
  | Code.DRetV ->
    false

(* Flatten a straight-line trace starting at [start]. Returns [None]
   when fewer than [trace_min] instructions fuse (the classic closure
   is at least as good then). Tagged instructions are flattened like
   any other — their micro-op is the untagged one — and only counted:
   [mk_trace] runs the trace only when no ordinal it can consume is
   planned or paused on. A walk that hits the cap is cut back to the
   last trace head it passed in its second half, so the trace exits
   where another trace already starts instead of minting a new head
   (and another 256-micro unrolling) at an arbitrary pc. *)
let build_trace (body : Code.d array) (ftags : bool array) (heads : bool array)
    start : trace option =
  let len = Array.length body in
  let cab = Array.make (trace_cap + 1) 0 in
  let c = Array.make (trace_cap + 1) 0 in
  let pcs = Array.make (trace_cap + 1) 0 in
  let tpre = Array.make (trace_cap + 1) 0 in
  let fp = ref [] in
  let nfp = ref 0 in
  let n = ref 0 in
  let ntag = ref 0 in
  let tagged pc =
    Array.length ftags > 0 && Array.unsafe_get ftags pc && writes_reg body.(pc)
  in
  let emit co a1 b1 c1 pc =
    cab.(!n) <- (co lsl 40) lor (a1 lsl 20) lor b1;
    c.(!n) <- c1;
    pcs.(!n) <- pc;
    tpre.(!n) <- !ntag;
    if tagged pc then incr ntag;
    incr n
  in
  let cut_n = ref 0 and cut_tag = ref 0 and cut_pc = ref 0 in
  let rec walk pc =
    if pc < len && heads.(pc) && !n > 0 then begin
      cut_n := !n;
      cut_tag := !ntag;
      cut_pc := pc
    end;
    if !n >= trace_cap || pc >= len then pc
    else
      match body.(pc) with
      | Code.DCall _ | Code.DRetI _ | Code.DRetF _ | Code.DRetV -> pc
      | Code.DBini ((Ir.Instr.Div | Ir.Instr.Rem), _, _, 0) ->
        (* always traps: leave it to the classic closure *)
        pc
      | Code.DNop -> walk (pc + 1)
      | Code.DJmp t ->
        emit 1 0 0 0 pc;
        walk t
      | Code.DBr (op, ra, rb, t) ->
        if t <= pc then begin
          (* backward branch: assume taken (loop continues) *)
          emit (62 + icmp op) ra rb (pc + 1) pc;
          walk t
        end
        else begin
          emit (56 + icmp op) ra rb t pc;
          walk (pc + 1)
        end
      | Code.DBrz (op, ra, t) ->
        if t <= pc then begin
          emit (74 + icmp op) ra 0 (pc + 1) pc;
          walk t
        end
        else begin
          emit (68 + icmp op) ra 0 t pc;
          walk (pc + 1)
        end
      | Code.DLi (d, v) ->
        emit 2 d 0 v pc;
        walk (pc + 1)
      | Code.DLa (d, addr) ->
        emit 3 d 0 addr pc;
        walk (pc + 1)
      | Code.DLf (d, x) ->
        emit 4 d !nfp 0 pc;
        fp := x :: !fp;
        incr nfp;
        walk (pc + 1)
      | Code.DMovI (d, s) ->
        emit 5 d s 0 pc;
        walk (pc + 1)
      | Code.DMovF (d, s) ->
        emit 6 d s 0 pc;
        walk (pc + 1)
      | Code.DI2f (d, s) ->
        emit 7 d s 0 pc;
        walk (pc + 1)
      | Code.DF2i (d, s) ->
        emit 8 d s 0 pc;
        walk (pc + 1)
      | Code.DLw (d, base, off) ->
        emit 9 d base off pc;
        walk (pc + 1)
      | Code.DLb (d, base, off) ->
        emit 10 d base off pc;
        walk (pc + 1)
      | Code.DLwf (d, base, off) ->
        emit 11 d base off pc;
        walk (pc + 1)
      | Code.DSw (v, base, off) ->
        emit 12 v base off pc;
        walk (pc + 1)
      | Code.DSb (v, base, off) ->
        emit 13 v base off pc;
        walk (pc + 1)
      | Code.DSwf (v, base, off) ->
        emit 14 v base off pc;
        walk (pc + 1)
      | Code.DBin (op, d, ra, rb) ->
        emit (15 + ibin op) d ra rb pc;
        walk (pc + 1)
      | Code.DBini (op, d, ra, imm) ->
        let imm =
          match op with
          | Ir.Instr.Sll | Ir.Instr.Srl | Ir.Instr.Sra -> imm land 31
          | _ -> imm
        in
        emit (26 + ibin op) d ra imm pc;
        walk (pc + 1)
      | Code.DCmp (op, d, ra, rb) ->
        emit (37 + icmp op) d ra rb pc;
        walk (pc + 1)
      | Code.DFcmp (op, d, ra, rb) ->
        emit (43 + icmp op) d ra rb pc;
        walk (pc + 1)
      | Code.DFbin (op, d, ra, rb) ->
        emit (49 + ifbin op) d ra rb pc;
        walk (pc + 1)
      | Code.DFun (op, d, s) ->
        emit (53 + ifun op) d s 0 pc;
        walk (pc + 1)
  in
  let end_pc = walk start in
  let end_pc =
    if !n >= trace_cap && !cut_n >= trace_cap / 2 then begin
      n := !cut_n;
      ntag := !cut_tag;
      !cut_pc
    end
    else end_pc
  in
  if !n < trace_min then None
  else begin
    let klen = !n in
    let ktag = !ntag in
    emit 0 end_pc 0 0 end_pc;
    (* Superinstruction fusion over the finished sequence: choose the
       segmentation into patterns, pairs and single micros with the
       fewest dispatches ([best.(j)] for the suffix from [j]; ties keep
       the wider unit). A trace now starts wherever its head is, so a
       greedy left-to-right pass could pair away the first member of a
       wide pattern. The end micro (code 0) is in no pattern or pair,
       so it is never consumed as a member. *)
    let opc = Array.init klen (fun j -> cab.(j) lsr 40) in
    let best = Array.make (klen + 2) 0 in
    let code_at = Array.make (klen + 1) (-1) in
    let width = Array.make (klen + 1) 1 in
    for j = klen - 1 downto 0 do
      let first = opc.(j) in
      best.(j) <- 1 + best.(j + 1);
      let consider code w =
        let c = 1 + best.(j + w) in
        if c < best.(j) || (c = best.(j) && w > width.(j)) then begin
          best.(j) <- c;
          code_at.(j) <- code;
          width.(j) <- w
        end
      in
      if j + 1 < klen then begin
        let p = fuse_code first opc.(j + 1) in
        if p >= 0 then consider p 2
      end;
      let pats = patterns_by_first.(first) in
      for q = 0 to Array.length pats - 1 do
        let pat, code = pats.(q) in
        let w = Array.length pat in
        if j + w <= klen && 1 + best.(j + w) <= best.(j) then begin
          let k = ref 1 in
          while !k < w && opc.(j + !k) = pat.(!k) do
            incr k
          done;
          if !k = w then consider code w
        end
      done
    done;
    let j = ref 0 in
    while !j < klen do
      let fc = code_at.(!j) in
      if fc >= 0 then
        cab.(!j) <- (cab.(!j) land ((1 lsl 40) - 1)) lor (fc lsl 40);
      j := !j + width.(!j)
    done;
    Some
      {
        tcab = Array.sub cab 0 !n;
        ttc = Array.sub c 0 !n;
        taux =
          { xpc = Array.sub pcs 0 !n; xfp = Array.of_list (List.rev !fp) };
        tklen = klen;
        tktag = ktag;
        ttpre = Array.sub tpre 0 (klen + 1);
        tend = end_pc;
      }
  end

(* [slow] is the classic per-instruction closure for the same pc: the
   stepwise path taken whenever the trace's worst case could reach
   something the fused loop does not check per micro-op — a timeout
   (the budget), a planned fault or a pause (the ordinal window
   [inj_seen, inj_seen + ktag)). The classic chain then steps one
   instruction at a time, re-checking at each trace head it meets, so
   the timeout, the flip and the pause land exactly where the reference
   engine puts them.

   A trace with no tagged micro has an empty window, so it needs only
   the budget check: its closure skips the window test, the trap
   handler and the ordinal commit. The general closure would run it
   identically; the split is kept because it pays — on the benchmark's
   [campaign] workload (10 alternating 20 s pairs, 2-vCPU VM) it raised
   [throughput_per_s] from a median of 441 to 483, winning all ten
   pairs. *)
let mk_trace (tr : trace) (tbl : op array) (slow : op) : op =
  let cab = tr.tcab and tc = tr.ttc and aux = tr.taux and klen = tr.tklen in
  let ktag = tr.tktag and tpre = tr.ttpre in
  if ktag = 0 then fun m ->
    if m.dyn + klen > m.budget then slow m
    else begin
      let fr = m.run_fr in
      (Array.unsafe_get tbl (run_trace m fr fr.iregs fr.fregs cab tc aux)) m
    end
  else fun m ->
    let s = m.inj_seen in
    if
      m.dyn + klen > m.budget
      || s + ktag > m.next_planned
      || s + ktag >= m.pause_at
    then slow m
    else begin
      let fr = m.run_fr and d0 = m.dyn in
      (* Commit the ordinals the run consumed: at an exit, every micro
         counted in dyn has written back; at a trap, the trapping micro
         (the last one counted) has not. *)
      let t =
        try run_trace m fr fr.iregs fr.fregs cab tc aux
        with Trap.Error _ as e ->
          m.inj_seen <- s + Array.unsafe_get tpre (m.dyn - d0 - 1);
          raise e
      in
      m.inj_seen <- s + Array.unsafe_get tpre (m.dyn - d0);
      (Array.unsafe_get tbl t) m
    end

(* Trace heads: every pc where a chain can enter or re-enter a block —
   the entry, branch and jump targets, conditional fall-throughs (where
   an assume-taken branch exits on deviation) and post-call pcs (where
   a return resumes); [compile_func] adds each trace's end pc as it
   goes. Building traces only here keeps image compilation linear in
   the function's block count rather than its instruction count. *)
let static_heads (body : Code.d array) =
  let len = Array.length body in
  let heads = Array.make (len + 1) false in
  let mark pc = if pc < len then heads.(pc) <- true in
  mark 0;
  Array.iteri
    (fun pc (d : Code.d) ->
      match d with
      | Code.DBr (_, _, _, t) | Code.DBrz (_, _, t) ->
        mark t;
        mark (pc + 1)
      | Code.DJmp t -> mark t
      | Code.DCall _ -> mark (pc + 1)
      | _ -> ())
    body;
  heads

let compile_func (code : Code.t) (tags : bool array array) fid
    (df : Code.dfunc) : op array * int array =
  let body = df.Code.dbody in
  let len = Array.length body in
  let ftags = if Array.length tags > 0 then tags.(fid) else no_tags in
  let name = df.Code.name in
  (* Guard slot at index [len]: the validator guarantees terminators so
     it is unreachable, but a threaded chain must never fetch past the
     table. Same failure message as the reference loop. *)
  let guard : op =
   fun _ -> invalid_arg (Printf.sprintf "pc past end of %s" name)
  in
  let ops = Array.make (len + 1) guard in
  for pc = 0 to len - 1 do
    let tg = Array.length ftags > 0 && Array.unsafe_get ftags pc in
    ops.(pc) <- compile_instr code ops tg pc body.(pc)
  done;
  (* Overlay trace closures at the heads. Classic closures captured the
     [ops] array itself, so their successor dispatch — and every branch
     target — picks up the trace version automatically; the pre-overlay
     copy keeps the pure classic closure reachable for the fallback. *)
  let classic = Array.copy ops in
  let shapes = Array.make len (-1) in
  let heads = static_heads body in
  let work = ref [] in
  Array.iteri (fun pc h -> if h && pc < len then work := pc :: !work) heads;
  let rec drain () =
    match !work with
    | [] -> ()
    | pc :: rest ->
      work := rest;
      (match build_trace body ftags heads pc with
       | Some tr ->
         ops.(pc) <- mk_trace tr ops classic.(pc);
         shapes.(pc) <- (tr.tklen lsl 20) lor tr.tktag;
         if tr.tend < len && not heads.(tr.tend) then begin
           heads.(tr.tend) <- true;
           work := tr.tend :: !work
         end
       | None -> ());
      drain ()
  in
  drain ();
  (ops, shapes)

let compile ?(tags = ([||] : bool array array)) (code : Code.t) : image =
  let funcs =
    Array.mapi (fun fid df -> compile_func code tags fid df) code.Code.funcs
  in
  {
    icode = code;
    itags = tags;
    iops = Array.map fst funcs;
    ishapes = Array.map snd funcs;
    imem_strict = Memory.of_prog ~lenient:false code.Code.prog;
    imem_lenient = Memory.of_prog ~lenient:true code.Code.prog;
  }

(* The entry dispatch, once per [advance] (at start and after a pause
   or resume). Mirrors the reference loop's per-dispatch pause check at
   entry; from there the compiled chain threads through calls and
   returns, handles pausing itself (see wbi/wbf, resume_caller) and
   returns only once the machine has halted. *)
let exec (m : Machine.t) =
  if is_running m then begin
    let fr = m.frames.(m.depth) in
    m.cur_fid <- fr.fid;
    m.run_fr <- fr;
    if m.inj_seen >= m.pause_at then raise Pause_exn;
    (Array.unsafe_get (Array.unsafe_get m.fast fr.fid) fr.pc) m
  end
