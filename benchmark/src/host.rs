//! What the benchmark asks of the host: CPU affinity, process CPU time,
//! context-switch counts and peak memory. std already links libc, so the
//! few calls are declared here instead of pulling in a crate.

use std::thread::JoinHandle;
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!(
    "the benchmark pins threads with sched_setaffinity and reads getrusage: 64-bit Linux only"
);

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// `struct rusage` on 64-bit Linux: two `timeval`s and fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    _maxrss: i64,
    _ixrss: i64,
    _idrss: i64,
    _isrss: i64,
    _minflt: i64,
    _majflt: i64,
    _nswap: i64,
    _inblock: i64,
    _oublock: i64,
    _msgsnd: i64,
    _msgrcv: i64,
    _nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn affinity() -> CpuSet {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable cpu_set_t of the size passed; pid 0
    // is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    set
}

fn set_affinity(set: &CpuSet) {
    // SAFETY: `set` is a valid cpu_set_t of the size passed; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) };
    assert_eq!(rc, 0, "sched_setaffinity failed");
}

/// The CPUs the calling thread may run on, in ascending order.
pub fn allowed_cpus() -> Vec<usize> {
    let set = affinity();
    (0..1024)
        .filter(|&cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Moves the calling thread to `cpu` and lets it roam again from there, so
/// that what it does next starts from a known place.
pub fn move_to(cpu: usize) {
    let before = affinity();
    set_affinity(&only(cpu));
    set_affinity(&before);
}

/// The mask that allows `cpu` and nothing else.
fn only(cpu: usize) -> CpuSet {
    assert!(cpu < 1024, "cpu index {cpu} out of cpu_set_t range");
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    set
}

/// Spawns `f` on a thread pinned to `cpu`; threads it spawns in turn (a pool
/// worker, the async timer thread) inherit the pin.
///
/// The caller narrows its own mask for the duration of the spawn, so the
/// child is born on `cpu`. Pinning from inside the child instead leaves it
/// wherever the kernel first put it, and if that CPU is held by a spinning
/// generator thread the child waits a whole time slice (~4 ms here) before
/// it gets to move itself.
pub fn spawn_pinned<T: Send + 'static>(
    cpu: usize,
    f: impl FnOnce() -> T + Send + 'static,
) -> JoinHandle<T> {
    let before = affinity();
    set_affinity(&only(cpu));
    let handle = std::thread::spawn(f);
    set_affinity(&before);
    handle
}

/// Process-wide resource counters at one instant.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    /// User + system CPU time of every thread, live or joined, in ns.
    pub cpu_ns: u64,
    /// Voluntary context switches (a thread blocked).
    pub vol_ctxsw: u64,
    /// Involuntary context switches (a thread was preempted): host noise.
    pub invol_ctxsw: u64,
}

/// Peak resident set size of this process in MiB: `VmHWM` of
/// `/proc/self/status`, which starts from zero at `exec`. (`ru_maxrss` does
/// not: it carries over the peak of the process that forked this one, which
/// under `cargo run` is cargo's 26 MiB.)
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

impl Usage {
    pub fn now() -> Usage {
        let mut ru = RUsage::default();
        // SAFETY: `ru` is a valid, writable struct rusage (layout above).
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage failed");
        let tv_ns = |tv: [i64; 2]| tv[0] as u64 * 1_000_000_000 + tv[1] as u64 * 1_000;
        Usage {
            cpu_ns: tv_ns(ru.utime) + tv_ns(ru.stime),
            vol_ctxsw: ru.nvcsw as u64,
            invol_ctxsw: ru.nivcsw as u64,
        }
    }
}

/// Nanoseconds since a base instant shared by every thread of the run, so
/// that stamps taken on different threads compare.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    base: Instant,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            base: Instant::now(),
        }
    }

    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// The instant `ns` after the base.
    pub fn instant_at(&self, ns: u64) -> Instant {
        self.base + std::time::Duration::from_nanos(ns)
    }

    /// Sleeps the calling thread until `ns` after the base.
    pub fn sleep_until(&self, ns: u64) {
        let now = self.now_ns();
        if ns > now {
            std::thread::sleep(std::time::Duration::from_nanos(ns - now));
        }
    }
}

/// The host facts every output carries: a number measured on another CPU
/// layout is another number.
#[derive(Clone, Debug)]
pub struct HostInfo {
    pub nproc: usize,
    pub allowed: Vec<usize>,
}

impl HostInfo {
    pub fn detect() -> HostInfo {
        HostInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            allowed: allowed_cpus(),
        }
    }

    /// The two CPUs the generator threads are pinned to, or `None` when the
    /// host allows fewer than two.
    pub fn pin_pair(&self) -> Option<[usize; 2]> {
        match self.allowed[..] {
            [a, b, ..] => Some([a, b]),
            _ => None,
        }
    }
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

const SCHED_IDLE: i32 = 5;

/// Body of the hidden `keep-awake` subcommand: one idle-priority spinning
/// thread per CPU in `cpus`, until the parent process is gone. Prints
/// `ready` once every spinner runs at idle priority; exits non-zero without
/// spinning if the host refuses that.
pub fn keep_awake_main(cpus: &[usize]) -> ! {
    let parent = std::os::unix::process::parent_id();
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    for &cpu in cpus {
        let ready_tx = ready_tx.clone();
        spawn_pinned(cpu, move || {
            let priority = 0i32;
            // SAFETY: pid 0 is the calling thread; `priority` is the whole
            // `struct sched_param` (one int), 0 as SCHED_IDLE requires.
            let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) };
            if rc != 0 {
                // A spinner at normal priority would compete with the load.
                std::process::exit(3);
            }
            ready_tx.send(()).expect("main thread listens");
            loop {
                std::hint::spin_loop();
            }
        });
    }
    for _ in cpus {
        ready_rx.recv().expect("spinner threads do not return");
    }
    println!("ready");
    loop {
        std::thread::sleep(std::time::Duration::from_millis(50));
        if std::os::unix::process::parent_id() != parent {
            std::process::exit(0);
        }
    }
}

/// A child process that keeps the given CPUs from going idle.
///
/// On this host (a KVM guest) a CPU with nothing to run is handed back to
/// the hypervisor, and the next wake-up of a parked thread waits for the
/// hypervisor to schedule the CPU again: 20 us when the host is calm,
/// milliseconds when it is not, which is the host's noise and not the
/// library's cost. An idle-priority spinner is preempted the moment any
/// other thread wakes on its CPU and otherwise keeps the CPU in the guest.
/// It runs in a process of its own so that `cpu_us_per_op` (this process's
/// CPU time) does not count it. The child ends itself when its parent is
/// gone, so a killed benchmark leaves nothing spinning.
pub struct KeepAwake {
    child: std::process::Child,
}

impl KeepAwake {
    /// `None` (with the reason on stderr) when the spinners cannot be had.
    pub fn start(cpus: &[usize]) -> Option<KeepAwake> {
        use std::io::BufRead;
        use std::process::{Command, Stdio};
        if cpus.is_empty() {
            return None;
        }
        let exe = std::env::current_exe().ok()?;
        let mut child = Command::new(exe)
            .arg("keep-awake")
            .args(cpus.iter().map(|c| c.to_string()))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| eprintln!("keep-awake: cannot start: {e}"))
            .ok()?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout was piped");
        let read = std::io::BufReader::new(stdout).read_line(&mut line);
        if read.is_ok() && line.trim() == "ready" {
            Some(KeepAwake { child })
        } else {
            eprintln!("keep-awake: the host refused idle-priority threads");
            let _ = child.kill();
            let _ = child.wait();
            None
        }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
