//! The subcommands for people: a *set* is every workload run once, each in a
//! process of its own through the driver interface, and `run`, `trace`,
//! `selfcheck` and `repeat` are tables over one, two or n sets.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use crate::json;
use crate::metrics::{self, Better, MetricDef, END_TO_END, PER_LAYER};
use crate::report;
use crate::stats;
use crate::workloads::Workload;
use crate::Args;

/// Runs `exe` on one workload through the driver interface (`mode` is what
/// follows `--seconds`: `--trace 0`, `--trace 1` or `--traced-child`),
/// echoes every line but the last if asked to, and returns the last line
/// parsed together with the others.
pub fn run_child(
    exe: &Path,
    w: Workload,
    seed: u64,
    seconds: f64,
    mode: &[&str],
    echo: bool,
) -> Result<(json::Value, Vec<String>), String> {
    let output = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(mode)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let last = lines.pop().ok_or("the child printed nothing")?;
    if echo {
        for line in &lines {
            println!("{line}");
        }
    }
    let value =
        json::parse(&last).map_err(|e| format!("child's last line is not JSON ({e}): {last}"))?;
    if !output.status.success()
        && value.get("correct").and_then(json::Value::as_bool) != Some(false)
    {
        return Err(format!("child failed: {}", output.status));
    }
    Ok((value, lines))
}

pub fn metric_values(result: &json::Value) -> BTreeMap<String, f64> {
    result
        .get("metrics")
        .and_then(json::Value::as_obj)
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

/// What one workload's run in a set gave: its metric values and whether the
/// run called itself noisy.
type SetEntry = (Workload, BTreeMap<String, f64>, bool);

/// One set: every workload once, each in a process of its own.
fn run_set(args: &Args, trace: bool, seed: u64, echo: bool) -> Result<Vec<SetEntry>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut set = Vec::new();
    for w in Workload::ALL {
        let mode = ["--trace", if trace { "1" } else { "0" }];
        let (result, lines) = run_child(&exe, w, seed, args.seconds, &mode, echo)?;
        if result.get("correct").and_then(json::Value::as_bool) != Some(true) {
            for line in lines.iter().filter(|l| l.starts_with("failure:")) {
                eprintln!("{}: {line}", w.name());
            }
            return Err(format!("{}: the run was not correct", w.name()));
        }
        let noisy = lines.iter().any(|l| l.starts_with("noise: noisy"));
        set.push((w, metric_values(&result), noisy));
    }
    Ok(set)
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// `run` and `trace`: every workload once, output passed through.
pub fn cmd_all(args: &Args, trace: bool) -> ExitCode {
    match run_set(args, trace, args.seed, true) {
        Ok(set) => {
            let defs = if trace { PER_LAYER } else { END_TO_END };
            println!(
                "\n{:<28}{}",
                "metric",
                Workload::ALL.map(|w| format!("{:>20}", w.name())).join("")
            );
            for def in defs {
                let row: String = set
                    .iter()
                    .map(|(_, v, noisy)| {
                        let x = v.get(def.name).copied().unwrap_or(0.0);
                        format!("{:>19}{}", report::show(x), if *noisy { "*" } else { " " })
                    })
                    .collect();
                println!("{:<28}{row}  {}", def.name, def.unit);
            }
            println!("(* the run called itself noisy)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// The one end-to-end metric that is not resolved at its bound. A set-up
/// lasts 0.1-1 ms, most of it thread spawning, and runs of the same code
/// differ by quartile spreads of up to 40 % in it on the host the benchmark
/// was defined on, whatever is timed and however many set-ups a run takes
/// (README, "setup_s"). The driver's contract bounds how far its median over
/// ten runs may move, not its spread; `repeat` judges it by that rule, and
/// `selfcheck`, which has one pair of runs per workload, shows the pair and
/// calls it unresolved.
const UNRESOLVED: &str = "setup_s";

/// `selfcheck`: two sets of the same build and seed; every end-to-end metric
/// of every workload but the unresolved one must agree within its bound, in
/// both directions.
pub fn cmd_selfcheck(args: &Args) -> ExitCode {
    let sets = match (
        run_set(args, false, args.seed, false),
        run_set(args, false, args.seed, false),
    ) {
        (Ok(a), Ok(b)) => [a, b],
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut outside, mut unresolved_outside) = (0, 0);
    println!(
        "{:<22}{:<16}{:>16}{:>16}{:>10}{:>8}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ((w, a, noisy_a), (_, b, noisy_b)) in sets[0].iter().zip(&sets[1]) {
        for def in END_TO_END {
            let (x, y) = (
                a.get(def.name).copied().unwrap_or(0.0),
                b.get(def.name).copied().unwrap_or(0.0),
            );
            let diff = worse_by(def, x, y).max(worse_by(def, y, x));
            let gated = def.name != UNRESOLVED;
            let bad = diff > def.bound;
            outside += (bad && gated) as u32;
            unresolved_outside += (bad && !gated) as u32;
            println!(
                "{:<22}{:<16}{:>16.6e}{:>16.6e}{:>9.1}%{:>7.0}%{}{}",
                w.name(),
                def.name,
                x,
                y,
                diff * 100.0,
                def.bound * 100.0,
                match (bad, gated) {
                    (true, true) => "  OUTSIDE",
                    (true, false) => "  outside (unresolved, not gated here)",
                    (false, _) => "",
                },
                if *noisy_a || *noisy_b {
                    "  [noisy]"
                } else {
                    ""
                },
            );
        }
    }
    println!(
        "{UNRESOLVED}: {unresolved_outside} of {} pairs outside the bound; it is unresolved at \
         that bound and judged over medians by `repeat`",
        sets[0].len()
    );
    if outside == 0 {
        println!("selfcheck: ok, every pair but those of {UNRESOLVED} within its bound");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck: {outside} pairs outside their bound");
        ExitCode::FAILURE
    }
}

/// `repeat <n>`: n sets on seeds `seed..seed+n`, judged the way the driver
/// judges its two times ten runs (`repeat 20` is that procedure). The sets
/// are split in two halves. Per metric and workload, the quartile spread
/// within each half must be within the bound (the contract exempts `setup_s`
/// from this, and so does this), and the second half's median must not be
/// worse than the first's by more than the bound (every metric, `setup_s`
/// too).
pub fn cmd_repeat(args: &Args) -> ExitCode {
    let n = args.count.unwrap_or(20).max(4);
    let mut all: BTreeMap<(usize, &str), Vec<f64>> = BTreeMap::new();
    let mut noisy_runs = 0;
    for i in 0..n {
        match run_set(args, false, args.seed + i as u64, false) {
            Ok(set) => {
                for (wi, (w, values, noisy)) in set.iter().enumerate() {
                    noisy_runs += *noisy as u32;
                    let mut row = Vec::new();
                    for def in END_TO_END {
                        let x = values.get(def.name).copied().unwrap_or(0.0);
                        all.entry((wi, def.name)).or_default().push(x);
                        row.push(format!("{}={x:.6e}", def.name));
                    }
                    println!(
                        "set {} {} {}{}",
                        i + 1,
                        w.name(),
                        row.join(" "),
                        if *noisy { " [noisy]" } else { "" }
                    );
                }
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{:<22}{:<16}{:>14}{:>9}{:>14}{:>9}{:>9}{:>7}",
        "workload", "metric", "median 1", "spread", "median 2", "spread", "worse", "bound"
    );
    let (mut wide, mut moved, mut unresolved_wide) = (0, 0, 0);
    for ((wi, name), values) in &all {
        let def = metrics::find(name).expect("registry name");
        let halves = values.split_at(n / 2);
        let [(m1, s1), (m2, s2)] = [halves.0, halves.1].map(|half| {
            (
                stats::median(half).unwrap_or(0.0),
                stats::iqr_share(half).unwrap_or(0.0),
            )
        });
        let worse = worse_by(def, m1, m2);
        let is_wide = s1.max(s2) > def.bound;
        let gated = def.name != UNRESOLVED;
        wide += (is_wide && gated) as u32;
        unresolved_wide += (is_wide && !gated) as u32;
        moved += (worse > def.bound) as u32;
        println!(
            "{:<22}{:<16}{:>14.6e}{:>8.1}%{:>14.6e}{:>8.1}%{:>8.1}%{:>6.0}%{}{}",
            Workload::ALL[*wi].name(),
            name,
            m1,
            s1 * 100.0,
            m2,
            s2 * 100.0,
            worse * 100.0,
            def.bound * 100.0,
            match (is_wide, gated) {
                (true, true) => "  WIDE",
                (true, false) => "  wide (unresolved, spread not gated)",
                (false, _) => "",
            },
            if worse > def.bound { "  MOVED" } else { "" },
        );
    }
    println!(
        "repeat: {n} sets, {noisy_runs} runs called themselves noisy, {wide} spreads above their \
         bound ({UNRESOLVED}, unresolved: {unresolved_wide}), {moved} second medians worse than \
         the first by more than the bound"
    );
    if wide == 0 && moved == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_direction_of_the_metric() {
        let lower = metrics::find("op_p50_ns").unwrap();
        let higher = metrics::find("ops_per_s").unwrap();
        assert!((worse_by(lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worse_by(higher, 100.0, 110.0) < 0.0);
    }
}
