//! `dispatch_open`: the open-loop workload and the benchmark's own
//! single-thread, busy-polling executor that issues it.
//!
//! The executor never sleeps and owns no timer, so the arrival schedule does
//! not depend on the timer under test. It holds 32 connection slots; a
//! request that is due takes a free slot, is polled at once, and is polled
//! again whenever its waker fired. Latency is taken from the instant a
//! request was *due*, so a generator that runs late charges the delay to the
//! requests it delayed, and `sched_lag` says how late it ran.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use crate::host::{spawn_pinned, Clock};
use crate::spans::{Name, SpanBuf, SpanSet};
use crate::sut::{self, Job, SendFut};
use crate::workloads::{timed, Ctx, Live, RunData, Setup, Tally};

const CONNECTIONS: usize = 32;
/// How long a served job keeps the worker busy.
const JOB_SPIN_NS: u64 = 10_000;

/// What the job of one request leaves behind, written on whichever thread
/// runs it.
#[derive(Default)]
struct JobRecord {
    /// When the worker started the job (0: never started).
    start_ns: AtomicU64,
    end_ns: AtomicU64,
    /// Times the job ran as a served job.
    runs: AtomicU32,
    /// Times the job was handed back to its caller and recognised there.
    returned: AtomicU32,
}

/// What the generator knows about one request.
#[derive(Clone, Copy, Default)]
struct Issued {
    issued_ns: u64,
    resolved_ns: u64,
    /// `Some(true)`: `Ok(())`; `Some(false)`: `Err(job)`; `None`: never
    /// resolved (the run was stopped first).
    sent: Option<bool>,
}

/// The waker of one connection slot: a flag the executor polls.
struct ConnWake {
    woken: AtomicBool,
    /// When `wake` last ran (traced runs stamp it; 0 otherwise).
    wake_ns: AtomicU64,
    stamp: Option<Clock>,
}

impl Wake for ConnWake {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if let Some(clock) = self.stamp {
            self.wake_ns.store(clock.now_ns(), Ordering::Relaxed);
        }
        self.woken.store(true, Ordering::Release);
    }
}

struct Conn<'a> {
    fut: Option<SendFut<'a>>,
    req: usize,
    wake: Arc<ConnWake>,
    waker: Waker,
}

pub fn launch(mut ctx: Ctx, setup: Receiver<Setup>) -> Live {
    let [cpu_gen, cpu_worker] = ctx.plan.pins;
    let clock = ctx.clock;
    // Built on the worker's CPU: the pool worker and the timer thread it
    // starts inherit that mask and stay off the generator's CPU.
    let (dispatch, built_ns) = spawn_pinned(cpu_worker, move || timed(clock, sut::Dispatch::new))
        .join()
        .expect("building the dispatch pool panicked");
    ctx.built_ns = built_ns;
    let dispatch = Arc::new(dispatch);
    let records: Arc<Vec<JobRecord>> = Arc::new(
        (0..ctx.inputs.schedule.len())
            .map(|_| JobRecord::default())
            .collect(),
    );
    let thread = {
        let (ctx, dispatch, records) = (ctx.clone(), dispatch.clone(), records.clone());
        spawn_pinned(cpu_gen, move || {
            let go_ns = ctx.go();
            generate(&dispatch, &records, &ctx, go_ns)
        })
    };
    let ctx2 = ctx.clone();
    Live::new(
        &ctx,
        setup,
        Box::new(move || {
            let (issued, spans) = thread.join().expect("the generator thread panicked");
            // Every job handed to the worker has run once the pool is down.
            dispatch.shutdown();
            settle(&ctx2, &issued, &records, spans)
        }),
    )
}

/// The executor loop. Returns what it knows about every request it issued.
fn generate(
    dispatch: &sut::Dispatch,
    records: &Arc<Vec<JobRecord>>,
    ctx: &Ctx,
    go_ns: u64,
) -> (Vec<Issued>, SpanBuf) {
    let clock = ctx.clock;
    let traced = ctx.plan.spans;
    let schedule = &ctx.inputs.schedule;
    let mut spans = SpanBuf::new(traced, ctx.start_ns);
    let mut issued = vec![Issued::default(); schedule.len()];
    let mut conns: Vec<Conn<'_>> = (0..CONNECTIONS)
        .map(|_| {
            let wake = Arc::new(ConnWake {
                woken: AtomicBool::new(false),
                wake_ns: AtomicU64::new(0),
                stamp: traced.then_some(clock),
            });
            Conn {
                fut: None,
                req: 0,
                waker: Waker::from(wake.clone()),
                wake,
            }
        })
        .collect();
    let mut free: Vec<usize> = (0..CONNECTIONS).collect();
    let mut next = 0;
    // Set-up is over when the first request on the served route resolves
    // (the other route's first request takes its 500 us patience whatever
    // the library does, and whether it comes first depends on the seed).
    let mut first_served = schedule.iter().position(|a| a.served);
    loop {
        let now = clock.now_ns();
        while next < schedule.len() && ctx.launch_ns + schedule[next].due_ns <= now {
            let Some(c) = free.pop() else { break };
            let conn = &mut conns[c];
            conn.req = next;
            conn.wake.woken.store(false, Ordering::Relaxed);
            let job = make_job(records, next, clock);
            let t_issue = clock.now_ns();
            issued[next].issued_ns = t_issue;
            conn.fut = Some(dispatch.send(schedule[next].served, job));
            if poll_conn(conn, &mut issued, records, clock, &mut spans) {
                free.push(c);
            }
            next += 1;
        }
        for (c, conn) in conns.iter_mut().enumerate() {
            if conn.wake.woken.load(Ordering::Relaxed)
                && conn.wake.woken.swap(false, Ordering::Acquire)
                && conn.fut.is_some()
                && poll_conn(conn, &mut issued, records, clock, &mut spans)
            {
                free.push(c);
            }
        }
        if let Some(req) = first_served.map(|i| issued[i]) {
            if req.sent.is_some() {
                ctx.first_op_done(go_ns, req.resolved_ns - req.issued_ns);
                first_served = None;
            }
        }
        let idle = free.len() == CONNECTIONS;
        if idle && (next == schedule.len() || ctx.stopped()) {
            break;
        }
        if ctx.stopped() {
            // Stopped early (a torn-down set-up): issue nothing more, but
            // let what is in flight resolve.
            next = schedule.len();
        }
    }
    (issued, spans)
}

/// Polls the request in `conn` once; true when it resolved and the slot is
/// free again.
fn poll_conn(
    conn: &mut Conn<'_>,
    issued: &mut [Issued],
    records: &Arc<Vec<JobRecord>>,
    clock: Clock,
    spans: &mut SpanBuf,
) -> bool {
    let fut = conn.fut.as_mut().expect("polled an empty slot");
    let traced = conn.wake.stamp.is_some();
    let t0 = if traced { clock.now_ns() } else { 0 };
    let mut cx = Context::from_waker(&conn.waker);
    let polled = Pin::new(fut).poll(&mut cx);
    if traced {
        let woke = conn.wake.wake_ns.swap(0, Ordering::Relaxed);
        if woke != 0 && woke <= t0 {
            spans.push(Name::WakeToRepoll, woke, t0, conn.req as u64);
        }
        spans.push(Name::Poll, t0, clock.now_ns(), conn.req as u64);
    }
    let Poll::Ready(result) = polled else {
        return false;
    };
    conn.fut = None;
    let req = &mut issued[conn.req];
    req.resolved_ns = clock.now_ns();
    req.sent = Some(result.is_ok());
    if let Err(job) = result {
        // Handed back: running it here proves it is the job that was sent
        // (it marks its own record) and that it was not run by the worker.
        job();
        debug_assert!(records[conn.req].returned.load(Ordering::Relaxed) >= 1);
    }
    true
}

fn make_job(records: &Arc<Vec<JobRecord>>, index: usize, clock: Clock) -> Job {
    let records = records.clone();
    // Who runs the job decides what running it means: the pool worker is
    // the only thread named by the pool, the generator runs handed-back jobs.
    let generator = std::thread::current().id();
    Box::new(move || {
        let rec = &records[index];
        if std::thread::current().id() == generator {
            rec.returned.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let start = clock.now_ns();
        rec.start_ns.store(start, Ordering::Relaxed);
        rec.runs.fetch_add(1, Ordering::Relaxed);
        while clock.now_ns() < start + JOB_SPIN_NS {
            std::hint::spin_loop();
        }
        rec.end_ns.store(clock.now_ns(), Ordering::Relaxed);
    })
}

/// Checks every request against what its route promises and files the
/// latencies under their reps.
fn settle(ctx: &Ctx, issued: &[Issued], records: &[JobRecord], gen_spans: SpanBuf) -> RunData {
    let plan = &ctx.plan;
    let mut data = RunData::new(plan, 1);
    let mut tally = Tally::default();
    let mut job_spans = SpanBuf::new(plan.spans, ctx.start_ns);
    let rep_of = |at_ns: u64| -> Option<usize> {
        let rep = (at_ns.checked_sub(ctx.start_ns)? / plan.rep_ns) as usize;
        (rep < plan.reps).then_some(rep)
    };
    let served_patience = sut::SERVED_PATIENCE.as_nanos() as u64;
    let unserved_patience = sut::UNSERVED_PATIENCE.as_nanos() as u64;
    for (i, (arrival, req)) in ctx.inputs.schedule.iter().zip(issued).enumerate() {
        let Some(sent) = req.sent else { continue };
        tally.ops += 1;
        let due = ctx.launch_ns + arrival.due_ns;
        let rec = &records[i];
        let runs = rec.runs.load(Ordering::Relaxed);
        let returned = rec.returned.load(Ordering::Relaxed);
        let start = rec.start_ns.load(Ordering::Relaxed);
        let rep = rep_of(req.resolved_ns);
        let ok = match (arrival.served, sent) {
            (true, true) => {
                if runs != 1 || returned != 0 {
                    tally.fail(format!("request {i}: sent once, job ran {runs} times"));
                    false
                } else {
                    if let Some(rep) = rep {
                        data.samples[rep].push(clamp_u32(start.saturating_sub(due)));
                    }
                    job_spans.push(
                        Name::Job,
                        start,
                        rec.end_ns.load(Ordering::Relaxed),
                        i as u64,
                    );
                    true
                }
            }
            (true, false) => {
                // The host stalled the worker for longer than the patience:
                // a failed request, but not a wrong output if the job came
                // back intact.
                if runs != 0 || returned != 1 {
                    tally.fail(format!("request {i}: lapsed job not handed back intact"));
                } else {
                    data.lapsed += 1;
                    tally.fail(format!(
                        "request {i}: lapsed on the served route after {} us (patience {} us)",
                        (req.resolved_ns - req.issued_ns) / 1000,
                        served_patience / 1000
                    ));
                }
                false
            }
            (false, false) => {
                let deadline = req.issued_ns + unserved_patience;
                if runs != 0 || returned != 1 {
                    tally.fail(format!("request {i}: lapsed job not handed back intact"));
                    false
                } else if req.resolved_ns < deadline {
                    tally.fail(format!(
                        "request {i}: timed out {} ns before its deadline",
                        deadline - req.resolved_ns
                    ));
                    false
                } else {
                    if let Some(rep) = rep {
                        data.lateness[rep].push(clamp_u32(req.resolved_ns - deadline));
                    }
                    true
                }
            }
            (false, true) => {
                tally.fail(format!("request {i}: taken on the route nobody serves"));
                false
            }
        };
        if let Some(rep) = rep {
            data.sched_lag[rep].push(clamp_u32(req.issued_ns.saturating_sub(due)));
        }
        if ok && plan.spans {
            job_spans.push(Name::Request, due, req.resolved_ns, i as u64);
            job_spans.push(Name::SchedLag, due, req.issued_ns, i as u64);
        }
    }
    data.attempted = tally.ops;
    data.failed = tally.failed;
    data.notes = tally.notes;
    data.spans = SpanSet::merge(vec![gen_spans, job_spans]);
    data
}

fn clamp_u32(ns: u64) -> u32 {
    ns.min(u32::MAX as u64) as u32
}
