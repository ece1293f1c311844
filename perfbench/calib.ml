(* Host-speed reference. The benchmark host's raw speed swings by up to
   2x over seconds, so every time metric is reported at a fixed
   reference speed: raw time x (kernel nominal time / kernel time
   measured next to that unit of work).

   The kernel is fixed code that touches nothing of etap: copies of a
   4 MiB buffer plus an integer ALU loop, about 65:35 in time on a quiet
   host. On this host the slow phases mostly come from contention for
   the shared cache and memory: the ALU loop alone barely moves while
   campaign rounds slow down, the copy loop alone slows more than they
   do, and the mix tracks them best (see perfbench/README.md). The
   kernel neither allocates nor polls for GC work, so its time does not
   depend on the size of etap's heap. It runs on as many domains as the
   timed work uses, between units, while no timed work is in flight. *)

let words = 1 lsl 19  (* 4 MiB of 8-byte words *)
let copies_per_pass = 4
let alu_per_pass = 1_750_000

(* Wall time of one pass on the reference host (2-vCPU VM). *)
let nominal_ms = 8.0

type buffers = { src : int array; dst : int array }

let buffers () = { src = Array.make words 1; dst = Array.make words 0 }

(* Resident memory the kernel's buffers add per domain, MB. *)
let buffer_mb = float_of_int (2 * words * 8) /. 1048576.

let peak_rss_mb domains = Util.peak_rss_mb ~minus_mb:(float_of_int domains *. buffer_mb) ()

(* Polymorphic and never inlined on purpose: each word goes through the
   generic array path (a tag test, and the write barrier's call and
   branches on the store), the mix of memory traffic and short calls the
   calibration measurements were taken with. *)
let[@inline never] copy (src : 'a array) (dst : 'a array) =
  for i = 0 to Array.length src - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src i)
  done

let kernel b reps =
  let x = ref 0x2545F491 in
  for _ = 1 to reps do
    for _ = 1 to copies_per_pass do
      copy b.src b.dst
    done;
    for i = 1 to alu_per_pass do
      x := (!x * 1103515245 + i) land 0x3fffffff
    done
  done;
  ignore (Sys.opaque_identity !x)

(* Helper domains block on a condition variable between measurements,
   so they take no CPU from the timed work. *)
type t = {
  domains : int;
  mine : buffers;
  m : Mutex.t;
  go : Condition.t;
  finished : Condition.t;
  mutable gen : int;
  mutable reps : int;
  mutable running : int;
  mutable stop : bool;
  mutable helpers : unit Domain.t list;
  mutable samples : float list;  (* ms per pass, every measurement *)
}

let helper t () =
  let b = buffers () in
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock t.m;
    while t.gen = !seen && not t.stop do
      Condition.wait t.go t.m
    done;
    if t.stop then Mutex.unlock t.m
    else begin
      seen := t.gen;
      let reps = t.reps in
      Mutex.unlock t.m;
      kernel b reps;
      Mutex.lock t.m;
      t.running <- t.running - 1;
      Condition.signal t.finished;
      Mutex.unlock t.m;
      loop ()
    end
  in
  loop ()

let create ~domains =
  let t =
    {
      domains = max 1 domains;
      mine = buffers ();
      m = Mutex.create ();
      go = Condition.create ();
      finished = Condition.create ();
      gen = 0;
      reps = 1;
      running = 0;
      stop = false;
      helpers = [];
      samples = [];
    }
  in
  t.helpers <- List.init (t.domains - 1) (fun _ -> Domain.spawn (helper t));
  t

let stop t =
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.go;
  Mutex.unlock t.m;
  List.iter Domain.join t.helpers;
  t.helpers <- []

(* Wall ms of [reps] kernel passes run at once on every domain. *)
let measure t ~reps =
  let t0 = Unix.gettimeofday () in
  Mutex.lock t.m;
  t.gen <- t.gen + 1;
  t.reps <- reps;
  t.running <- t.domains - 1;
  Condition.broadcast t.go;
  Mutex.unlock t.m;
  kernel t.mine reps;
  Mutex.lock t.m;
  while t.running > 0 do
    Condition.wait t.finished t.m
  done;
  Mutex.unlock t.m;
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  t.samples <- (ms /. float_of_int reps) :: t.samples;
  ms

(* A meter brackets units of work with kernel measurements. A unit is
   scaled by the mean of the kernel times just before and just after
   it. *)
type meter = { cal : t; reps : int; mutable last : float }

let meter cal ~reps = { cal; reps; last = measure cal ~reps }

(* Measure the kernel after a unit; the unit's host-speed factor. *)
let next_factor m =
  let k = measure m.cal ~reps:m.reps in
  let f = nominal_ms *. float_of_int m.reps /. ((m.last +. k) /. 2.) in
  m.last <- k;
  f

type timing = {
  raw_s : float;  (* wall seconds *)
  factor : float;  (* nominal / measured kernel time *)
}

let norm (x : timing) = x.raw_s *. x.factor

let time m f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let raw_s = Unix.gettimeofday () -. t0 in
  (r, { raw_s; factor = next_factor m })
