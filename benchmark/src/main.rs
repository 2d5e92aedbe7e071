//! The pinned seven-workload benchmark of the synq workspace. See README.md
//! for what each workload is for and how to read the output.
//!
//! Driver interface (one workload, one process, result on the last line):
//!
//! ```text
//! synq-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Subcommands for people: `run`, `trace`, `selfcheck`, `repeat <n>`; each
//! takes `--seed`, `--seconds` and `--quick`.

mod dispatch;
mod host;
mod inputs;
mod json;
mod metrics;
mod probes;
mod report;
mod spans;
mod stats;
mod suite;
mod sut;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use host::HostInfo;
use metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use report::Values;
use workloads::{Plan, RunOutput, Workload};

/// `--seconds` of `--quick`.
const QUICK_SECONDS: f64 = 1.0;
/// A run whose reps disagree by more than this share is flagged noisy.
const NOISY_REP_SPREAD: f64 = 0.15;
/// So is a `dispatch_open` run whose generator ran later than this at p99.
const NOISY_SCHED_LAG_US: f64 = 100.0;

#[derive(Clone, Debug)]
pub struct Args {
    command: Option<String>,
    /// First positional after the command (`repeat <n>`).
    count: Option<usize>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: this process is the traced build, run by `--trace 1`.
    traced_child: bool,
}

fn usage() -> String {
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: synq-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      synq-benchmark run|trace|selfcheck|repeat <n> [--seed <n>] [--seconds <s>] [--quick]\n\
         workloads: {}",
        names.join(", ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        count: None,
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        traced_child: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let w = Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?;
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(0.5..=600.0).contains(&s) {
                    return Err("--seconds must be between 0.5 and 600".into());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--quick" => args.seconds = QUICK_SECONDS,
            "--traced-child" => args.traced_child = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word if args.command.is_none() => args.command = Some(word.to_string()),
            word => {
                args.count = Some(word.parse().map_err(|_| format!("unexpected {word:?}"))?);
            }
        }
    }
    Ok(args)
}

/// The three schedules a given `--seconds` turns into.
#[derive(Clone, Copy)]
enum Kind {
    /// The untraced run: 25 reps, the end-to-end metrics.
    Full,
    /// The short untraced run inside `--trace 1`: what tracing is compared to.
    Base,
    /// The traced build's run, spans on: the same schedule as `Base`, so
    /// that the two rates compare.
    Traced,
}

fn plan(kind: Kind, args: &Args, pins: [usize; 2]) -> Plan {
    let ns = |s: f64| (s * 1e9) as u64;
    let s = args.seconds;
    let (warmup, reps, rep, extra_setups) = match kind {
        Kind::Full => (s / 10.0, 25, s / 25.0, 99),
        Kind::Base => (s / 20.0, 5, s * 0.3 / 5.0, 24),
        Kind::Traced => (s / 20.0, 5, s * 0.3 / 5.0, 0),
    };
    Plan {
        seed: args.seed,
        warmup_ns: ns(warmup),
        reps,
        rep_ns: ns(rep),
        extra_setups,
        spans: matches!(kind, Kind::Traced),
        pins,
    }
}

/// What one run tells about the host it ran on.
struct Noise {
    rep_spread: f64,
    invol_ctxsw_per_s: f64,
    sched_lag_p99_us: f64,
    reasons: Vec<String>,
}

fn noise(w: Workload, out: &RunOutput, rep_spread: f64) -> Noise {
    let window_s = (out.window_ns.1 - out.window_ns.0) as f64 / 1e9;
    let invol = match (out.usage.first(), out.usage.last()) {
        (Some(a), Some(b)) => (b.invol_ctxsw - a.invol_ctxsw) as f64 / window_s,
        _ => 0.0,
    };
    // A guard looks at every rep, the late ones above all: the quiet half is
    // for metric values only.
    let lag = report::percentile_pooled(&out.data.sched_lag, 99.0) / 1e3;
    let mut reasons = Vec::new();
    if rep_spread > NOISY_REP_SPREAD {
        reasons.push(format!(
            "rep_spread_share {rep_spread:.3} > {NOISY_REP_SPREAD}"
        ));
    }
    let baseline = w.invol_ctxsw_baseline_per_s();
    if invol > 3.0 * baseline {
        reasons.push(format!("invol_ctxsw_per_s {invol:.1} > 3 x {baseline}"));
    }
    if lag > NOISY_SCHED_LAG_US {
        reasons.push(format!("sched_lag_p99_us {lag:.1} > {NOISY_SCHED_LAG_US}"));
    }
    if !out.kept_awake {
        reasons.push("no keep-awake spinners".into());
    }
    Noise {
        rep_spread,
        invol_ctxsw_per_s: invol,
        sched_lag_p99_us: lag,
        reasons,
    }
}

/// The contract's last line: exactly `correct`, `attempted`, `failed`,
/// `metrics`, with every metric of `defs` and its unit.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &Values,
    defs: &[MetricDef],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, def) in defs.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        json::write_str(&mut s, def.name);
        s.push_str(": {\"value\": ");
        json::write_num(&mut s, values.get(def.name).copied().unwrap_or(0.0));
        s.push_str(", \"unit\": ");
        json::write_str(&mut s, def.unit);
        s.push('}');
    }
    s.push_str("}}");
    s
}

fn print_header(host: &HostInfo, w: Workload, p: &Plan, args: &Args, traced: bool) {
    println!(
        "host: nproc={} allowed={:?} pins={:?} keep_awake={:?}",
        host.nproc,
        host.allowed,
        p.pins,
        w.awake_cpus(p.pins)
    );
    println!(
        "workload: {} seed={} seconds={} reps={}x{:.3}s warmup={:.3}s setups={} traced={}",
        w.name(),
        args.seed,
        args.seconds,
        p.reps,
        p.rep_ns as f64 / 1e9,
        p.warmup_ns as f64 / 1e9,
        p.extra_setups + 1,
        traced
    );
}

fn print_values(values: &Values, defs: &[MetricDef], noisy: bool) {
    for def in defs {
        let value = values.get(def.name).copied().unwrap_or(0.0);
        let flag = if noisy { "  [noisy]" } else { "" };
        println!(
            "  {:<40} {:>16} {}{}",
            def.name,
            report::show(value),
            def.unit,
            flag
        );
    }
}

/// A run is correct when no output was wrong (a request the host stalled
/// past its patience failed, but correctly) and operations were measured.
fn verdict(out: &RunOutput, values: &Values) -> (bool, u64) {
    let failed = out.data.failed;
    for note in &out.data.notes {
        println!("failure: {note}");
    }
    let measured = values.get("ops_per_s").copied().unwrap_or(0.0) > 0.0;
    if !measured {
        println!("failure: no operation completed inside the measured window");
    }
    (failed == out.data.lapsed && measured, failed)
}

fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn pins_or_exit(host: &HostInfo) -> [usize; 2] {
    host.pin_pair().unwrap_or_else(|| {
        eprintln!(
            "the benchmark pins two generator threads to two CPUs; this process may run on {:?} only",
            host.allowed
        );
        std::process::exit(2);
    })
}

/// `--trace 0`: the end-to-end metrics of one workload.
fn run_untraced(w: Workload, args: &Args) -> ExitCode {
    let host = HostInfo::detect();
    let p = plan(Kind::Full, args, pins_or_exit(&host));
    print_header(&host, w, &p, args, false);
    let mut out = workloads::run(w, &p);
    let reps = report::per_rep(&p, &mut out);
    let (values, rep_spread) = report::end_to_end(&reps, &out);
    // What the values below are made of, rep by rep and set-up by set-up.
    let row = |name: &str, v: &[Option<f64>]| {
        let cells: Vec<String> = v
            .iter()
            .map(|x| format!("{:.4}", x.unwrap_or(0.0)))
            .collect();
        println!("per-rep {name}: {}", cells.join(" "));
    };
    row("ops_per_s", &reps.ops_per_s);
    row("cpu_us_per_op", &reps.cpu_us_per_op);
    row("op_p50_ns", &reps.op_p50_ns);
    row("op_p99_ns", &reps.op_p99_ns);
    let setup_row = |name: &str, part: fn(&workloads::Setup) -> u64| {
        let cells: Vec<String> = out
            .setups
            .iter()
            .map(|s| format!("{:.1}", part(s) as f64 / 1e3))
            .collect();
        println!("per-setup {name}: {}", cells.join(" "));
    };
    setup_row("setup_us", |s| s.total_ns);
    setup_row("library_us", |s| s.library_ns);
    let n = noise(w, &out, rep_spread);
    println!(
        "noise: {} (rep_spread_share {:.3}, invol_ctxsw_per_s {:.1}, sched_lag_p99_us {:.1})",
        if n.reasons.is_empty() {
            "ok".into()
        } else {
            format!("noisy: {}", n.reasons.join("; "))
        },
        n.rep_spread,
        n.invol_ctxsw_per_s,
        n.sched_lag_p99_us
    );
    print_values(&values, END_TO_END, !n.reasons.is_empty());
    let (correct, failed) = verdict(&out, &values);
    println!(
        "{}",
        result_line(
            correct,
            out.data.attempted.max(1),
            failed,
            &values,
            END_TO_END
        )
    );
    exit_code(correct)
}

/// The metrics of the `bench` layer that come from an untraced run.
fn bench_values(w: Workload, p: &Plan, out: &mut RunOutput) -> (Values, Values) {
    let reps = report::per_rep(p, out);
    let (e2e, rep_spread) = report::end_to_end(&reps, out);
    let n = noise(w, out, rep_spread);
    let mut v = Values::new();
    v.insert(
        "bench.setup_library_us",
        report::setup_s(out, |s| s.library_ns) * 1e6,
    );
    v.insert("bench.rep_spread_share", n.rep_spread);
    v.insert("bench.invol_ctxsw_per_s", n.invol_ctxsw_per_s);
    v.insert("bench.sched_lag_p99_us", n.sched_lag_p99_us);
    v.insert(
        "bench.timeout_lateness_p50_us",
        report::percentile_over_reps(&mut out.data.lateness, 50.0) / 1e3,
    );
    v.insert(
        "bench.timeout_lateness_p99_us",
        report::percentile_over_reps(&mut out.data.lateness, 99.0) / 1e3,
    );
    v.insert(
        "bench.op_p99_ns",
        report::quiet_half(reps.op_p99_ns.iter().copied(), Better::Lower),
    );
    let samples: usize = out.data.samples.iter().map(Vec::len).sum();
    v.insert("bench.op_samples", samples as f64);
    (v, e2e)
}

/// Where the traced build lives: beside this build, in its own target
/// directory, so that switching the feature never rebuilds either.
fn traced_target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // <target>/release/synq-benchmark
    let target = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or("executable is not inside a target directory")?;
    Ok(target.join("stats"))
}

/// This package's directory: where `cargo run` says it is now, else where it
/// was when this binary was built (a checkout can move between the two).
fn manifest_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Builds (or finds up to date) the traced binary. The first traced run in
/// a checkout pays for a release build of the nine crates with their probe
/// sites compiled in: 9 s on the host the benchmark was defined on.
fn build_traced() -> Result<PathBuf, String> {
    let target = traced_target_dir()?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let manifest = manifest_dir().join("Cargo.toml");
    if !manifest.is_file() {
        return Err(format!(
            "--trace 1 rebuilds this package with --features stats, but {} is not there; \
             run it through `cargo run --manifest-path <checkout>/benchmark/Cargo.toml`",
            manifest.display()
        ));
    }
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--features",
            "stats",
        ])
        .arg("--manifest-path")
        .arg(&manifest)
        .arg("--target-dir")
        .arg(&target)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("--trace 1 needs cargo to build the traced binary: {e}"))?;
    if !status.success() {
        return Err(format!("building the traced binary failed: {status}"));
    }
    Ok(target.join("release").join("synq-benchmark"))
}

/// `--trace 1`: a short untraced run here, then the traced build's run and
/// probes in a child, merged into one result.
fn run_traced_parent(w: Workload, args: &Args) -> Result<ExitCode, String> {
    let host = HostInfo::detect();
    let p = plan(Kind::Base, args, pins_or_exit(&host));
    print_header(&host, w, &p, args, false);
    let mut base = workloads::run(w, &p);
    let (mut values, base_e2e) = bench_values(w, &p, &mut base);
    let (base_ok, base_failed) = verdict(&base, &base_e2e);

    let exe = build_traced()?;
    let mode = ["--traced-child"];
    let (child, _) = suite::run_child(&exe, w, args.seed, args.seconds, &mode, true)?;
    let child_values = suite::metric_values(&child);
    for def in PER_LAYER {
        if let Some(&x) = child_values.get(def.name) {
            values.entry(def.name).or_insert(x);
        }
    }
    let traced_rate = child
        .get("ops_per_s")
        .and_then(json::Value::as_f64)
        .unwrap_or(0.0);
    let base_rate = base_e2e.get("ops_per_s").copied().unwrap_or(0.0);
    if base_rate > 0.0 {
        values.insert("bench.trace_overhead_share", 1.0 - traced_rate / base_rate);
    }
    print_values(&values, PER_LAYER, false);
    let count = |key: &str| child.get(key).and_then(json::Value::as_f64).unwrap_or(0.0) as u64;
    let correct = base_ok && child.get("correct").and_then(json::Value::as_bool) == Some(true);
    let attempted = base.data.attempted + count("attempted");
    let failed = base_failed + count("failed");
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &values, PER_LAYER)
    );
    Ok(exit_code(correct))
}

/// The traced build's half of `--trace 1`.
fn run_traced_child(w: Workload, args: &Args) -> ExitCode {
    if !sut::COUNTERS_ON {
        eprintln!("--traced-child needs the build with --features stats");
        return ExitCode::FAILURE;
    }
    let host = HostInfo::detect();
    let p = plan(Kind::Traced, args, pins_or_exit(&host));
    print_header(&host, w, &p, args, true);
    let mut out = workloads::run(w, &p);
    let reps = report::per_rep(&p, &mut out);
    let (e2e, _) = report::end_to_end(&reps, &out);
    let awake = host::KeepAwake::start(&p.pins);
    let budget = Duration::from_secs_f64(args.seconds / 100.0);
    let (probe_values, units) = probes::run(p.pins, budget);
    drop(awake);
    let mut counters = trace::Counters::between(&out.counters[0], &out.counters[1]);
    for (name, n) in counters.iter() {
        println!("counter {name} {n}");
    }
    let values = trace::per_layer(w, &out, &mut counters, &probe_values, &units);
    for name in &counters.missing {
        println!("warning: this build defines no counter {name:?}; the metrics built on it read 0");
    }
    let spans_path = manifest_dir()
        .join("out")
        .join(format!("{}.spans.csv", w.name()));
    out.data.spans.retain_before(out.window_ns.1);
    let spans = &out.data.spans;
    for line in trace::span_summary(spans) {
        println!("{line}");
    }
    match spans.write_csv(&spans_path) {
        Ok(()) => println!(
            "spans: {} written to {} ({} dropped: buffer full)",
            spans.spans.len(),
            spans_path.display(),
            spans.dropped
        ),
        Err(e) => println!(
            "warning: spans not written to {}: {e}",
            spans_path.display()
        ),
    }
    let (correct, failed) = verdict(&out, &e2e);
    let mut line = result_line(
        correct,
        out.data.attempted.max(1),
        failed,
        &values,
        PER_LAYER,
    );
    // For the parent only: what tracing slowed down.
    line.pop();
    line.push_str(", \"ops_per_s\": ");
    json::write_num(&mut line, e2e.get("ops_per_s").copied().unwrap_or(0.0));
    line.push('}');
    println!("{line}");
    exit_code(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("keep-awake") {
        let cpus: Vec<usize> = argv[1..].iter().filter_map(|s| s.parse().ok()).collect();
        host::keep_awake_main(&cpus);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // Before any thread is pinned: see `prime_cpu_count`.
    sut::prime_cpu_count();
    match (args.command.as_deref(), args.workload) {
        (None, Some(w)) if args.traced_child => run_traced_child(w, &args),
        (None, Some(w)) if args.trace => run_traced_parent(w, &args).unwrap_or_else(|e| {
            eprintln!("{e}");
            ExitCode::FAILURE
        }),
        (None, Some(w)) => run_untraced(w, &args),
        (Some("run"), None) => suite::cmd_all(&args, false),
        (Some("trace"), None) => suite::cmd_all(&args, true),
        (Some("selfcheck"), None) => suite::cmd_selfcheck(&args),
        (Some("repeat"), None) => suite::cmd_repeat(&args),
        _ => {
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The last line parses, has exactly the contract's keys, and carries
    /// every declared metric with its unit.
    #[test]
    fn result_line_parses_as_the_declared_schema() {
        for defs in [END_TO_END, PER_LAYER] {
            let mut values = Values::new();
            values.insert(defs[0].name, 1.0 / 3.0);
            values.insert(defs[1].name, f64::NAN);
            let line = result_line(true, 12, 0, &values, defs);
            assert!(!line.contains('\n'));
            let v = json::parse(&line).expect("the result line is JSON");
            let keys: Vec<_> = v.as_obj().expect("an object").keys().cloned().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(v.get("correct").and_then(json::Value::as_bool), Some(true));
            assert_eq!(v.get("attempted").and_then(json::Value::as_f64), Some(12.0));
            let metrics = v
                .get("metrics")
                .and_then(json::Value::as_obj)
                .expect("metrics");
            assert_eq!(metrics.len(), defs.len());
            for def in defs {
                let m = &metrics[def.name];
                assert_eq!(m.get("unit").and_then(json::Value::as_str), Some(def.unit));
                assert!(
                    m.get("value").and_then(json::Value::as_f64).is_some(),
                    "{}",
                    def.name
                );
            }
            assert_eq!(suite::metric_values(&v)[defs[0].name], 1.0 / 3.0);
        }
    }

    #[test]
    fn arguments_of_the_driver_and_of_people() {
        let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload coop_async --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::CoopAsync), 7, 3.0, true)
        );
        let a = parse_args(&argv("repeat 4 --quick")).unwrap();
        assert_eq!(
            (a.command.as_deref(), a.count, a.seconds),
            (Some("repeat"), Some(4), QUICK_SECONDS)
        );
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--frobnicate",
            "--seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
