//! The seven workloads: their load loops, the correctness checks inside
//! them, and the set-up / warm-up / reps schedule every one of them runs on.
//!
//! Load shape: one process per run; at most two load-generating threads,
//! each pinned to its own CPU. On the five saturation workloads the loops
//! read the clock once per block of operations, never per operation; a
//! traced run (`Plan::spans`) additionally samples the first operation of
//! each block with spans.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;

use crate::host::{move_to, peak_rss_mb, spawn_pinned, Clock, KeepAwake, Usage};
use crate::inputs::Inputs;
use crate::spans::{Name, SpanBuf, SpanSet};
use crate::sut::{self, Handoff, Item};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HandoffFair,
    HandoffUnfairSpin,
    CoopAsync,
    BufferedRing,
    BufferedLinked,
    PoolRoundtrip,
    DispatchOpen,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::HandoffFair,
        Workload::HandoffUnfairSpin,
        Workload::CoopAsync,
        Workload::BufferedRing,
        Workload::BufferedLinked,
        Workload::PoolRoundtrip,
        Workload::DispatchOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HandoffFair => "handoff_fair",
            Workload::HandoffUnfairSpin => "handoff_unfair_spin",
            Workload::CoopAsync => "coop_async",
            Workload::BufferedRing => "buffered_ring",
            Workload::BufferedLinked => "buffered_linked",
            Workload::PoolRoundtrip => "pool_roundtrip",
            Workload::DispatchOpen => "dispatch_open",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations per clock read. Chosen per workload so that a block lasts
    /// 50-400 us: long enough that the clock read is free, short enough that
    /// a 0.4 s rep holds a thousand blocks or more. The two latency workloads
    /// time every operation.
    pub fn block_ops(self) -> u32 {
        match self {
            Workload::HandoffFair => 16,
            Workload::HandoffUnfairSpin => 128,
            Workload::CoopAsync => 512,
            Workload::BufferedRing => 4096,
            Workload::BufferedLinked => 1024,
            Workload::PoolRoundtrip | Workload::DispatchOpen => 1,
        }
    }

    /// The CPUs (indices into `Plan::pins`) on which this workload's threads
    /// block as a matter of course, and which `KeepAwake` therefore keeps
    /// from going idle. A CPU whose thread never blocks gets no spinner: it
    /// would take its fair-share sliver in whole time slices, a 4 ms stall
    /// for a thread that is never off the CPU otherwise.
    pub fn blocking_cpus(self) -> &'static [usize] {
        match self {
            Workload::HandoffUnfairSpin | Workload::CoopAsync | Workload::BufferedRing => &[],
            Workload::DispatchOpen => &[1],
            // The producer parks in `transfer`; the consumer spins for its turn.
            Workload::BufferedLinked => &[0],
            _ => &[0, 1],
        }
    }

    /// `blocking_cpus` as CPU numbers, given where the generators are pinned.
    pub fn awake_cpus(self, pins: [usize; 2]) -> Vec<usize> {
        self.blocking_cpus().iter().map(|&i| pins[i]).collect()
    }

    /// Involuntary context switches per second this workload showed on the
    /// host the benchmark was defined on (2-vCPU KVM guest; median of ten
    /// runs); a run above three times this is flagged noisy.
    pub fn invol_ctxsw_baseline_per_s(self) -> f64 {
        match self {
            Workload::HandoffFair | Workload::PoolRoundtrip => 5.0,
            Workload::BufferedLinked => 11.0,
            Workload::CoopAsync => 13.0,
            Workload::HandoffUnfairSpin | Workload::BufferedRing => 35.0,
            Workload::DispatchOpen => 60.0,
        }
    }
}

/// The schedule of one run.
#[derive(Clone, Debug)]
pub struct Plan {
    pub seed: u64,
    /// Load runs this long before the first rep.
    pub warmup_ns: u64,
    pub reps: usize,
    pub rep_ns: u64,
    /// Set-ups that are timed and torn down before the one that is measured.
    pub extra_setups: usize,
    /// Traced run: sample operations with spans.
    pub spans: bool,
    /// The CPUs of the two generator threads.
    pub pins: [usize; 2],
}

impl Plan {
    /// Warm-up plus every rep: how long load has to be generated for.
    pub fn horizon_ns(&self) -> u64 {
        self.warmup_ns + self.reps as u64 * self.rep_ns
    }
}

/// Per-rep sample lists, filled by whichever thread sees operations end.
#[derive(Debug)]
pub struct RepLog {
    start_ns: u64,
    rep_ns: u64,
    pub per_rep: Vec<Vec<u32>>,
}

impl RepLog {
    fn new(start_ns: u64, plan: &Plan) -> RepLog {
        RepLog {
            start_ns,
            rep_ns: plan.rep_ns,
            per_rep: (0..plan.reps)
                .map(|_| Vec::with_capacity(1 << 16))
                .collect(),
        }
    }

    /// Files `value_ns` under the rep that `at_ns` falls in; warm-up and
    /// anything after the last rep are dropped.
    #[inline]
    pub fn record(&mut self, at_ns: u64, value_ns: u64) {
        if at_ns < self.start_ns {
            return;
        }
        let rep = ((at_ns - self.start_ns) / self.rep_ns) as usize;
        if let Some(samples) = self.per_rep.get_mut(rep) {
            samples.push(value_ns.min(u32::MAX as u64) as u32);
        }
    }
}

/// Counts operations and reads the clock once per block.
struct BlockLog {
    log: RepLog,
    clock: Clock,
    block_ops: u32,
    in_block: u32,
    last_ns: u64,
}

impl BlockLog {
    fn new(ctx: &Ctx, block_ops: u32) -> BlockLog {
        BlockLog {
            log: RepLog::new(ctx.start_ns, &ctx.plan),
            clock: ctx.clock,
            block_ops,
            in_block: 0,
            last_ns: ctx.clock.now_ns(),
        }
    }

    #[inline]
    fn op(&mut self) {
        self.in_block += 1;
        if self.in_block == self.block_ops {
            self.in_block = 0;
            let now = self.clock.now_ns();
            self.log.record(now, now - self.last_ns);
            self.last_ns = now;
        }
    }
}

/// What the correctness checks of one thread found.
#[derive(Debug, Default)]
pub struct Tally {
    pub ops: u64,
    /// Wrapping sum of the sequence numbers seen.
    pub sum: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    #[cold]
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 4 {
            self.notes.push(note);
        }
    }

    /// Exactly-once by count and closed-form sum: `sent` items numbered
    /// `0..sent` must have arrived, each once.
    fn expect_exactly(&mut self, sent: u64, expected_sum: u64) {
        if self.ops != sent {
            let lost = self.ops.abs_diff(sent);
            self.failed += lost;
            self.notes
                .push(format!("{} items sent, {} received", sent, self.ops));
        } else if self.sum != expected_sum {
            self.fail(format!(
                "sequence sum {} != expected {}: an item was duplicated or replaced",
                self.sum, expected_sum
            ));
        }
    }
}

/// Sum of `0..n`, wrapping like the tallies do.
fn sum_below(n: u64) -> u64 {
    if n.is_multiple_of(2) {
        (n / 2).wrapping_mul(n.wrapping_sub(1))
    } else {
        n.wrapping_mul((n - 1) / 2)
    }
}

/// What every thread of a run shares.
#[derive(Clone)]
pub struct Ctx {
    pub clock: Clock,
    pub plan: Arc<Plan>,
    pub inputs: Arc<Inputs>,
    /// When this set-up began, on the run clock.
    pub launch_ns: u64,
    /// When the first rep begins.
    pub start_ns: u64,
    pub stop: Arc<AtomicBool>,
    /// How long the structure under test took to build, as `launch_*` timed
    /// it (on `pool_roundtrip` and `dispatch_open` the library spawns its
    /// own threads in there).
    pub built_ns: u64,
    /// Generator threads wait here until the coordinator has spawned all of
    /// them: one that started spinning at once could keep the coordinator
    /// off its CPU for a time slice, and the other thread unspawned.
    gate: Arc<Barrier>,
    /// Generator threads that are past the gate and running.
    running: Arc<AtomicUsize>,
    generators: usize,
    setup: SyncSender<Setup>,
}

impl Ctx {
    #[inline]
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// The first thing a generator thread does: waits until every generator
    /// thread of the set-up is spawned and running, and returns that instant,
    /// from which the first operation is timed.
    pub fn go(&self) -> u64 {
        self.gate.wait();
        self.running.fetch_add(1, Ordering::AcqRel);
        while self.running.load(Ordering::Acquire) < self.generators {
            std::hint::spin_loop();
        }
        self.clock.now_ns()
    }

    /// Tells the coordinator that set-up is over: the generator threads were
    /// let go at `go_ns` and the first operation went through `first_op_ns`
    /// later.
    pub fn first_op_done(&self, go_ns: u64, first_op_ns: u64) {
        let setup = Setup {
            total_ns: go_ns - self.launch_ns + first_op_ns,
            library_ns: self.built_ns + first_op_ns,
        };
        // A second signal (or a coordinator that stopped listening) is fine.
        let _ = self.setup.try_send(setup);
    }
}

/// What one set-up took.
#[derive(Clone, Copy, Debug)]
pub struct Setup {
    /// From launch to the first operation through: the structure built, the
    /// generator threads spawned, pinned and let go, the first operation.
    /// (`dispatch_open`: the wait for the first request to fall due is not
    /// in it; that is the seed's.)
    pub total_ns: u64,
    /// The library's part of that: building the structure plus the first
    /// operation, without the harness's own thread spawning.
    pub library_ns: u64,
}

/// `f`'s result and how long it took, in ns.
pub fn timed<T>(clock: Clock, f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = clock.now_ns();
    let value = f();
    (value, clock.now_ns() - t0)
}

/// What one launched run hands back when it is stopped.
#[derive(Debug)]
pub struct RunData {
    /// Per rep: ns per block (saturation workloads) or per operation.
    pub samples: Vec<Vec<u32>>,
    pub block_ops: u32,
    pub attempted: u64,
    /// Operations that failed, of any kind (torn-down set-ups included).
    pub failed: u64,
    /// Those among `failed` that are the host's doing and not a wrong
    /// output: a request that outwaited its patience on the served route of
    /// `dispatch_open` was still handed back intact, exactly once.
    pub lapsed: u64,
    pub notes: Vec<String>,
    pub spans: SpanSet,
    /// `dispatch_open` only, per rep, in ns: time-out resolution minus
    /// deadline on the unserved route, and issue time minus due time.
    pub lateness: Vec<Vec<u32>>,
    pub sched_lag: Vec<Vec<u32>>,
    /// `pool_roundtrip` only.
    pub submit_retries: u64,
    pub largest_pool_size: usize,
}

impl RunData {
    pub fn new(plan: &Plan, block_ops: u32) -> RunData {
        RunData {
            samples: vec![Vec::new(); plan.reps],
            block_ops,
            attempted: 0,
            failed: 0,
            lapsed: 0,
            notes: Vec::new(),
            spans: SpanSet::default(),
            lateness: vec![Vec::new(); plan.reps],
            sched_lag: vec![Vec::new(); plan.reps],
            submit_retries: 0,
            largest_pool_size: 0,
        }
    }

    fn absorb(&mut self, tally: Tally) {
        self.failed += tally.failed;
        self.notes.extend(tally.notes);
    }
}

/// A launched run: load is being generated until `finish`.
pub struct Live {
    stop: Arc<AtomicBool>,
    setup: Receiver<Setup>,
    join: Box<dyn FnOnce() -> RunData>,
}

impl Live {
    pub fn new(ctx: &Ctx, setup: Receiver<Setup>, join: Box<dyn FnOnce() -> RunData>) -> Live {
        Live {
            stop: ctx.stop.clone(),
            setup,
            join,
        }
    }

    /// Blocks until the first operation is through; returns what the set-up
    /// took.
    fn setup(&self) -> Setup {
        self.setup
            .recv()
            .expect("a generator thread died before its first operation")
    }

    fn finish(self) -> RunData {
        self.stop.store(true, Ordering::Relaxed);
        (self.join)()
    }
}

/// Everything one measured run produced.
#[derive(Debug)]
pub struct RunOutput {
    pub data: RunData,
    /// What each set-up took.
    pub setups: Vec<Setup>,
    /// Resource counters at the start of the first rep and the end of each.
    pub usage: Vec<Usage>,
    pub peak_rss_mb: f64,
    /// The measured window on the run clock.
    pub window_ns: (u64, u64),
    /// The library's counters at the start and end of the window (traced
    /// build; empty otherwise), and its garbage high-water mark inside it.
    pub counters: [Vec<(&'static str, u64)>; 2],
    pub reclaim_peak: usize,
    /// Whether the idle-priority spinners could be had.
    pub kept_awake: bool,
}

/// Sets `workload` up `plan.extra_setups + 1` times, then warms the last
/// set-up up and measures `plan.reps` reps on it. Every set-up starts with
/// the coordinator on the second CPU, so that each pays for the same moves.
pub fn run(workload: Workload, plan: &Plan) -> RunOutput {
    let clock = Clock::start();
    let plan = Arc::new(plan.clone());
    let horizon = if workload == Workload::DispatchOpen {
        plan.horizon_ns()
    } else {
        0
    };
    let inputs = Arc::new(Inputs::generate(plan.seed, horizon));
    let awake_cpus = workload.awake_cpus(plan.pins);
    // Every set-up leaves both CPUs idle at some point (threads are being
    // spawned, then wait at the start gate), whatever the workload does
    // later: keep both awake until the load runs.
    let setup_awake = KeepAwake::start(&plan.pins);
    let mut setups = Vec::new();
    let mut set_up = || {
        move_to(plan.pins[1]);
        let t0 = clock.now_ns();
        let live = launch(workload, &plan, &inputs, clock, t0);
        setups.push(live.setup());
        (live, t0)
    };
    // What the torn-down set-ups found wrong; their samples go at once.
    let (mut failed, mut lapsed, mut notes) = (0, 0, Vec::new());
    for _ in 0..plan.extra_setups {
        let torn_down = set_up().0.finish();
        failed += torn_down.failed;
        lapsed += torn_down.lapsed;
        notes.extend(torn_down.notes);
    }
    // Swap the spinners while both CPUs are idle: an idle-priority process
    // next to generator threads that never block does not get the CPU it
    // needs to die, and reaping it would hold the coordinator up for the
    // whole run.
    let keep_awake = if awake_cpus.len() == plan.pins.len() {
        setup_awake
    } else {
        drop(setup_awake);
        KeepAwake::start(&awake_cpus)
    };
    let (live, t0) = set_up();

    let start_ns = t0 + plan.warmup_ns;
    let mut usage = Vec::with_capacity(plan.reps + 1);
    clock.sleep_until(start_ns);
    sut::reclaim_reset_peak();
    let counters_before = sut::counters();
    for rep in 0..=plan.reps as u64 {
        clock.sleep_until(start_ns + rep * plan.rep_ns);
        usage.push(Usage::now());
    }
    let counters_after = sut::counters();
    let reclaim_peak = sut::reclaim_peak_pending();
    let mut data = live.finish();
    data.failed += failed;
    data.lapsed += lapsed;
    data.notes.extend(notes);
    RunOutput {
        data,
        setups,
        usage,
        peak_rss_mb: peak_rss_mb(),
        window_ns: (start_ns, start_ns + plan.reps as u64 * plan.rep_ns),
        counters: [counters_before, counters_after],
        reclaim_peak,
        kept_awake: keep_awake.is_some() || awake_cpus.is_empty(),
    }
}

impl Ctx {
    /// The shared state of one set-up with `generators` generator threads,
    /// and the receiving end of its set-up-is-over signal.
    fn new(
        plan: &Arc<Plan>,
        inputs: &Arc<Inputs>,
        clock: Clock,
        launch_ns: u64,
        generators: usize,
    ) -> (Ctx, Receiver<Setup>) {
        let (setup, setup_rx) = sync_channel(1);
        let ctx = Ctx {
            clock,
            plan: plan.clone(),
            inputs: inputs.clone(),
            launch_ns,
            start_ns: launch_ns + plan.warmup_ns,
            stop: Arc::new(AtomicBool::new(false)),
            built_ns: 0,
            gate: Arc::new(Barrier::new(generators + 1)),
            running: Arc::new(AtomicUsize::new(0)),
            generators,
            setup,
        };
        (ctx, setup_rx)
    }
}

fn launch(
    workload: Workload,
    plan: &Arc<Plan>,
    inputs: &Arc<Inputs>,
    clock: Clock,
    launch_ns: u64,
) -> Live {
    let generators = match workload {
        Workload::CoopAsync | Workload::PoolRoundtrip | Workload::DispatchOpen => 1,
        _ => 2,
    };
    let (ctx, setup_rx) = Ctx::new(plan, inputs, clock, launch_ns, generators);
    let gate = ctx.gate.clone();
    let block = workload.block_ops();
    let live = match workload {
        Workload::HandoffFair => launch_pair(sut::FairQueue::new, true, block, ctx, setup_rx),
        Workload::HandoffUnfairSpin => {
            launch_pair(sut::SpinStack::new, false, block, ctx, setup_rx)
        }
        Workload::BufferedRing => launch_pair(sut::Ring::new, true, block, ctx, setup_rx),
        Workload::BufferedLinked => launch_pair(sut::Linked::new, true, block, ctx, setup_rx),
        Workload::CoopAsync => launch_coop(block, ctx, setup_rx),
        Workload::PoolRoundtrip => launch_pool(ctx, setup_rx),
        Workload::DispatchOpen => crate::dispatch::launch(ctx, setup_rx),
    };
    gate.wait();
    live
}

/// Operations per second of the `put`/`take` pair loop over `h`, measured
/// for `measure_ns` after a fifth of that as warm-up. For probing a
/// structure that is not one of the workloads with the workloads' own loop.
pub fn pair_rate<H: Handoff>(new: fn() -> H, pins: [usize; 2], measure_ns: u64) -> f64 {
    const BLOCK: u32 = 16;
    let plan = Arc::new(Plan {
        seed: 0,
        warmup_ns: measure_ns / 5,
        reps: 1,
        rep_ns: measure_ns,
        extra_setups: 0,
        spans: false,
        pins,
    });
    let clock = Clock::start();
    let t0 = clock.now_ns();
    let inputs = Arc::new(Inputs::generate(0, 0));
    let (ctx, setup) = Ctx::new(&plan, &inputs, clock, t0, 2);
    let gate = ctx.gate.clone();
    let live = launch_pair(new, true, BLOCK, ctx, setup);
    gate.wait();
    clock.sleep_until(t0 + plan.horizon_ns());
    let data = live.finish();
    assert_eq!(data.failed, 0, "pair probe: {:?}", data.notes);
    data.samples[0].len() as f64 * BLOCK as f64 / (measure_ns as f64 / 1e9)
}

fn join<T>(handle: JoinHandle<T>) -> T {
    match handle.join() {
        Ok(v) => v,
        Err(panic) => std::panic::resume_unwind(panic),
    }
}

// ---------------------------------------------------------------- pairs

/// One producer calling `put` and one consumer calling `take`, back to
/// back, each on its own CPU. With `fifo` the consumer also checks that
/// items arrive in the order they were sent.
fn launch_pair<H: Handoff>(
    new: fn() -> H,
    fifo: bool,
    block_ops: u32,
    mut ctx: Ctx,
    setup: Receiver<Setup>,
) -> Live {
    let (h, built_ns) = timed(ctx.clock, new);
    ctx.built_ns = built_ns;
    let h = Arc::new(h);
    let [cpu_p, cpu_c] = ctx.plan.pins;
    let producer = {
        let (h, ctx) = (h.clone(), ctx.clone());
        spawn_pinned(cpu_p, move || {
            ctx.go();
            produce(&*h, &ctx, block_ops as u64)
        })
    };
    let consumer = {
        let ctx = ctx.clone();
        spawn_pinned(cpu_c, move || {
            let go_ns = ctx.go();
            consume(&*h, &ctx, go_ns, fifo, block_ops)
        })
    };
    let plan = ctx.plan.clone();
    Live::new(
        &ctx,
        setup,
        Box::new(move || {
            let (sent, p_spans) = join(producer);
            let (mut tally, log, c_spans) = join(consumer);
            tally.expect_exactly(sent, sum_below(sent));
            let mut data = RunData::new(&plan, block_ops);
            data.attempted = sent;
            data.samples = log.per_rep;
            data.spans = SpanSet::merge(vec![p_spans, c_spans]);
            data.absorb(tally);
            data
        }),
    )
}

fn produce<H: Handoff>(h: &H, ctx: &Ctx, stride: u64) -> (u64, SpanBuf) {
    let mut spans = SpanBuf::new(ctx.plan.spans, ctx.start_ns);
    let mask = ctx.inputs.mask;
    let mut seq = 0u64;
    while !ctx.stopped() {
        let mut item = Item {
            seq,
            check: seq ^ mask,
            stamp_ns: 0,
        };
        if ctx.plan.spans && seq.is_multiple_of(stride) {
            item.stamp_ns = ctx.clock.now_ns();
            h.put(item);
            spans.push(Name::Put, item.stamp_ns, ctx.clock.now_ns(), seq);
        } else {
            h.put(item);
        }
        seq += 1;
    }
    h.put(Item::STOP);
    (seq, spans)
}

fn consume<H: Handoff>(
    h: &H,
    ctx: &Ctx,
    go_ns: u64,
    fifo: bool,
    block_ops: u32,
) -> (Tally, RepLog, SpanBuf) {
    let mut spans = SpanBuf::new(ctx.plan.spans, ctx.start_ns);
    let mut tally = Tally::default();
    let mut log = BlockLog::new(ctx, block_ops);
    let mask = ctx.inputs.mask;
    loop {
        let sampled = ctx.plan.spans && tally.ops % block_ops as u64 == 0;
        let t0 = if sampled { ctx.clock.now_ns() } else { 0 };
        let item = h.take();
        if item.seq == Item::STOP.seq {
            break;
        }
        if item.check != item.seq ^ mask {
            tally.fail(format!("item {} arrived corrupted", item.seq));
        }
        if fifo && item.seq != tally.ops {
            tally.fail(format!("item {} arrived in place {}", item.seq, tally.ops));
        }
        tally.sum = tally.sum.wrapping_add(item.seq);
        tally.ops += 1;
        if sampled {
            let t1 = ctx.clock.now_ns();
            spans.push(Name::Take, t0, t1, item.seq);
            if item.stamp_ns != 0 {
                spans.push(Name::Item, item.stamp_ns, t1, item.seq);
            }
        }
        if tally.ops == 1 {
            ctx.first_op_done(go_ns, ctx.clock.now_ns() - go_ns);
        }
        log.op();
    }
    (tally, log.log, spans)
}

// ----------------------------------------------------------- coop_async

const COOP_TASKS: u64 = 16;

struct CoopShared {
    log: BlockLog,
    tally: Tally,
    spans: SpanBuf,
    /// Items each sender sent before it stopped.
    sent: [u64; COOP_TASKS as usize],
}

/// One thread, sixteen sender and sixteen receiver tasks on the async front
/// of the fair queue. Sender `s` numbers its items `s, s + 16, s + 32, ...`.
fn launch_coop(block_ops: u32, mut ctx: Ctx, setup: Receiver<Setup>) -> Live {
    let (q, built_ns) = timed(ctx.clock, sut::Coop::new);
    ctx.built_ns = built_ns;
    let cpu = ctx.plan.pins[0];
    let thread = {
        let ctx = ctx.clone();
        spawn_pinned(cpu, move || {
            let go_ns = ctx.go();
            coop_thread(&q, &ctx, go_ns, block_ops)
        })
    };
    let plan = ctx.plan.clone();
    Live::new(
        &ctx,
        setup,
        Box::new(move || {
            let shared = join(thread);
            let mut tally = shared.tally;
            let sent: u64 = shared.sent.iter().sum();
            let expected_sum = (0..COOP_TASKS).fold(0u64, |acc, s| {
                let k = shared.sent[s as usize];
                acc.wrapping_add(sum_below(k).wrapping_mul(COOP_TASKS))
                    .wrapping_add(s.wrapping_mul(k))
            });
            tally.expect_exactly(sent, expected_sum);
            let mut data = RunData::new(&plan, block_ops);
            data.attempted = sent;
            data.samples = shared.log.log.per_rep;
            data.spans = SpanSet::merge(vec![shared.spans]);
            data.absorb(tally);
            data
        }),
    )
}

fn coop_thread(q: &sut::Coop, ctx: &Ctx, go_ns: u64, block_ops: u32) -> CoopShared {
    let shared = RefCell::new(CoopShared {
        log: BlockLog::new(ctx, block_ops),
        tally: Tally::default(),
        spans: SpanBuf::new(ctx.plan.spans, ctx.start_ns),
        sent: [0; COOP_TASKS as usize],
    });
    let shared_ref = &shared;
    let mask = ctx.inputs.mask;
    // Every task samples one operation in `block_ops` of its own.
    let stride = block_ops as u64;
    let mut tasks: Vec<Pin<Box<dyn Future<Output = ()> + '_>>> = Vec::new();
    for s in 0..COOP_TASKS {
        tasks.push(Box::pin(async move {
            let mut k = 0u64;
            while !ctx.stopped() {
                let seq = k * COOP_TASKS + s;
                let mut item = Item {
                    seq,
                    check: seq ^ mask,
                    stamp_ns: 0,
                };
                if ctx.plan.spans && k.is_multiple_of(stride) {
                    item.stamp_ns = ctx.clock.now_ns();
                    q.send(item).await;
                    let now = ctx.clock.now_ns();
                    shared_ref
                        .borrow_mut()
                        .spans
                        .push(Name::Put, item.stamp_ns, now, seq);
                } else {
                    q.send(item).await;
                }
                k += 1;
            }
            shared_ref.borrow_mut().sent[s as usize] = k;
            q.send(Item::STOP).await;
        }));
        tasks.push(Box::pin(async move {
            let mut n = 0u64;
            loop {
                let sampled = ctx.plan.spans && n.is_multiple_of(stride);
                let t0 = if sampled { ctx.clock.now_ns() } else { 0 };
                let item = q.recv().await;
                if item.seq == Item::STOP.seq {
                    break;
                }
                n += 1;
                let mut sh = shared_ref.borrow_mut();
                if item.check != item.seq ^ mask {
                    sh.tally
                        .fail(format!("item {} arrived corrupted", item.seq));
                }
                sh.tally.sum = sh.tally.sum.wrapping_add(item.seq);
                sh.tally.ops += 1;
                if sampled {
                    let t1 = ctx.clock.now_ns();
                    sh.spans.push(Name::Take, t0, t1, item.seq);
                    if item.stamp_ns != 0 {
                        sh.spans.push(Name::Item, item.stamp_ns, t1, item.seq);
                    }
                }
                if sh.tally.ops == 1 {
                    ctx.first_op_done(go_ns, ctx.clock.now_ns() - go_ns);
                }
                sh.log.op();
            }
        }));
    }
    sut::run_tasks(tasks);
    shared.into_inner()
}

// ------------------------------------------------------- pool_roundtrip

/// Start and end of the job body of the one request in flight (traced runs).
#[derive(Default)]
struct JobStamps {
    start_ns: AtomicU64,
    end_ns: AtomicU64,
}

/// The value job `seq` must return, so that a `join` that hands back
/// another job's result is caught.
fn job_value(seq: u64, mask: u64) -> u64 {
    (seq ^ mask).rotate_left(17)
}

/// One submitter looping `submit(job).join()`, one request outstanding, on
/// a pool that grows to one worker on the other CPU.
fn launch_pool(mut ctx: Ctx, setup: Receiver<Setup>) -> Live {
    let [cpu_gen, cpu_worker] = ctx.plan.pins;
    let clock = ctx.clock;
    // The pool's worker is spawned by the first `submit` and inherits the
    // submitting thread's mask: make that submit from a thread on its CPU.
    // Building the pool is that too: a pool with no worker serves nobody.
    let built = spawn_pinned(cpu_worker, move || {
        timed(clock, || {
            let pool = sut::RoundtripPool::new();
            let first = pool.submit(|| 0).expect("an empty pool spawns its worker");
            assert_eq!(first.join(), 0);
            pool
        })
    });
    let (pool, built_ns) = join(built);
    ctx.built_ns = built_ns;
    let pool = Arc::new(pool);
    let thread = {
        let (ctx, pool) = (ctx.clone(), pool.clone());
        spawn_pinned(cpu_gen, move || {
            let go_ns = ctx.go();
            pool_thread(&pool, &ctx, go_ns)
        })
    };
    let plan = ctx.plan.clone();
    Live::new(
        &ctx,
        setup,
        Box::new(move || {
            let (tally, log, spans, retries) = join(thread);
            pool.shutdown();
            let mut data = RunData::new(&plan, 1);
            data.attempted = tally.ops;
            data.samples = log.per_rep;
            data.spans = SpanSet::merge(vec![spans]);
            data.submit_retries = retries;
            data.largest_pool_size = pool.largest_pool_size();
            data.absorb(tally);
            data
        }),
    )
}

fn pool_thread(pool: &sut::RoundtripPool, ctx: &Ctx, go_ns: u64) -> (Tally, RepLog, SpanBuf, u64) {
    let traced = ctx.plan.spans;
    let mut spans = SpanBuf::new(traced, ctx.start_ns);
    let mut tally = Tally::default();
    let mut log = RepLog::new(ctx.start_ns, &ctx.plan);
    let mut retries = 0u64;
    let mask = ctx.inputs.mask;
    let clock = ctx.clock;
    let stamps = traced.then(|| Arc::new(JobStamps::default()));
    while !ctx.stopped() {
        let seq = tally.ops;
        let t0 = clock.now_ns();
        let ticket = loop {
            let stamps = stamps.clone();
            let job = move || {
                if let Some(st) = &stamps {
                    st.start_ns.store(clock.now_ns(), Ordering::Relaxed);
                }
                let value = job_value(seq, mask);
                if let Some(st) = &stamps {
                    st.end_ns.store(clock.now_ns(), Ordering::Relaxed);
                }
                value
            };
            match pool.submit(job) {
                Some(ticket) => break ticket,
                // The worker has finished the previous job but is not back
                // in `take` yet: not a failure of this request, try again.
                None => {
                    retries += 1;
                    std::hint::spin_loop();
                }
            }
        };
        let t1 = if traced { clock.now_ns() } else { 0 };
        let value = ticket.join();
        let t2 = clock.now_ns();
        if value != job_value(seq, mask) {
            tally.fail(format!("join of job {seq} returned another job's value"));
        }
        log.record(t2, t2 - t0);
        if let Some(st) = &stamps {
            spans.push(Name::Roundtrip, t0, t2, seq);
            spans.push(Name::Submit, t0, t1, seq);
            spans.push(Name::Join, t1, t2, seq);
            spans.push(
                Name::Job,
                st.start_ns.load(Ordering::Relaxed),
                st.end_ns.load(Ordering::Relaxed),
                seq,
            );
        }
        tally.ops += 1;
        if tally.ops == 1 {
            ctx.first_op_done(go_ns, t2 - go_ns);
        }
    }
    (tally, log, spans, retries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_sum_matches_a_loop() {
        for n in [0u64, 1, 2, 3, 10, 1001, 65_536] {
            assert_eq!(sum_below(n), (0..n).sum::<u64>(), "n = {n}");
        }
    }

    #[test]
    fn rep_log_files_samples_by_time_and_drops_warmup_and_overrun() {
        let plan = Plan {
            seed: 0,
            warmup_ns: 100,
            reps: 2,
            rep_ns: 50,
            extra_setups: 0,
            spans: false,
            pins: [0, 1],
        };
        let mut log = RepLog::new(1_000, &plan);
        log.record(999, 1); // warm-up
        log.record(1_000, 2);
        log.record(1_049, 3);
        log.record(1_050, 4);
        log.record(1_100, 5); // after the last rep
        assert_eq!(log.per_rep, vec![vec![2, 3], vec![4]]);
    }

    #[test]
    fn tally_flags_lost_and_duplicated_items() {
        let mut ok = Tally {
            ops: 4,
            sum: 6,
            ..Tally::default()
        };
        ok.expect_exactly(4, sum_below(4));
        assert_eq!(ok.failed, 0);
        let mut lost = Tally {
            ops: 3,
            sum: 3,
            ..Tally::default()
        };
        lost.expect_exactly(4, sum_below(4));
        assert_eq!(lost.failed, 1);
        let mut dup = Tally {
            ops: 4,
            sum: 7,
            ..Tally::default()
        };
        dup.expect_exactly(4, sum_below(4));
        assert_eq!(dup.failed, 1);
    }
}
