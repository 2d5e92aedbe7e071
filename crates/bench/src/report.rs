//! Table printing and JSON output for figure regeneration.

use crate::hist::LatencySummary;
use crate::json::Json;
use std::io::Write;
use std::path::{Path, PathBuf};

/// One curve of a figure: an algorithm's value at each x-axis level.
#[derive(Debug, Clone)]
pub struct Series {
    /// Column label (algorithm name).
    pub name: String,
    /// One value per x-axis level, in the figure's unit.
    pub values: Vec<f64>,
    /// Probe-counter deltas accumulated over this series' whole sweep
    /// (`synq-obs` probe name → count). Populated only when the harness is
    /// built with `--features stats`; empty otherwise, and omitted from the
    /// JSON when empty. Schema rev 2 added this section.
    pub counters: Vec<(String, u64)>,
    /// Per-operation latency distribution recorded over the series' whole
    /// sweep (`SYNQ_BENCH_LATENCY=1`, or always for the `server` bin).
    /// `None` when recording was off; omitted from the JSON then. Schema
    /// rev 3 added this section.
    pub latency: Option<LatencySummary>,
}

/// A regenerated figure: x-axis levels plus one series per algorithm.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Figure identifier, e.g. `"figure3"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// X-axis label, e.g. `"pairs"`.
    pub x_label: String,
    /// Unit of the values, e.g. `"ns/transfer"`.
    pub unit: String,
    /// X-axis levels.
    pub levels: Vec<usize>,
    /// One series per algorithm.
    pub series: Vec<Series>,
    /// Host/run configuration captured when the figure was generated
    /// (see [`bench_config_json`]). Travels with the figure so a later
    /// `summary` refresh re-emits the *originating run's* config instead
    /// of stamping the refresher's environment onto old data. `None` for
    /// figures read from pre-PR-8 files.
    pub config: Option<Json>,
}

fn str_field(json: &Json, key: &str) -> Result<String, String> {
    json.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

impl FigureReport {
    /// Creates an empty report, capturing the current host/run config.
    pub fn new(id: &str, title: &str, x_label: &str, unit: &str, levels: Vec<usize>) -> Self {
        FigureReport {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            unit: unit.into(),
            levels,
            series: Vec::new(),
            config: Some(bench_config_json()),
        }
    }

    /// Adds a completed series.
    pub fn push_series(&mut self, name: String, values: Vec<f64>) {
        self.push_series_with_counters(name, values, Vec::new());
    }

    /// Adds a completed series with its probe-counter deltas (the
    /// `synq-obs` events recorded while the series ran). Pass an empty
    /// vector when stats are off — the section is omitted from the JSON.
    pub fn push_series_with_counters(
        &mut self,
        name: String,
        values: Vec<f64>,
        counters: Vec<(String, u64)>,
    ) {
        self.push_series_full(name, values, counters, None);
    }

    /// Adds a completed series with counters *and* a recorded latency
    /// distribution (schema rev 3). Pass `None` when span recording was
    /// off — the `latency` section is omitted from the JSON.
    pub fn push_series_full(
        &mut self,
        name: String,
        values: Vec<f64>,
        counters: Vec<(String, u64)>,
        latency: Option<LatencySummary>,
    ) {
        assert_eq!(values.len(), self.levels.len());
        self.series.push(Series {
            name,
            values,
            counters,
            latency,
        });
    }

    /// Renders the figure as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {} — {} ({})\n", self.id, self.title, self.unit));
        let mut header = format!("{:>8}", self.x_label);
        for s in &self.series {
            header.push_str(&format!("  {:>14}", s.name));
        }
        out.push_str(&header);
        out.push('\n');
        for (row, &level) in self.levels.iter().enumerate() {
            let mut line = format!("{level:>8}");
            for s in &self.series {
                line.push_str(&format!("  {:>14.0}", s.values[row]));
            }
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Converts to the JSON document written by [`FigureReport::write_json`].
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id".into(), Json::Str(self.id.clone())),
            ("title".into(), Json::Str(self.title.clone())),
            ("x_label".into(), Json::Str(self.x_label.clone())),
            ("unit".into(), Json::Str(self.unit.clone())),
            (
                "levels".into(),
                Json::Arr(self.levels.iter().map(|&l| Json::Num(l as f64)).collect()),
            ),
            (
                "series".into(),
                Json::Arr(
                    self.series
                        .iter()
                        .map(|s| {
                            let mut fields = vec![
                                ("name".into(), Json::Str(s.name.clone())),
                                (
                                    "values".into(),
                                    Json::Arr(s.values.iter().map(|&v| Json::Num(v)).collect()),
                                ),
                            ];
                            if !s.counters.is_empty() {
                                fields.push((
                                    "counters".into(),
                                    Json::Obj(
                                        s.counters
                                            .iter()
                                            .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                                            .collect(),
                                    ),
                                ));
                            }
                            if let Some(lat) = &s.latency {
                                fields.push(("latency".into(), latency_to_json(lat)));
                            }
                            Json::Obj(fields)
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(config) = &self.config {
            fields.push(("config".into(), config.clone()));
        }
        Json::Obj(fields)
    }

    /// Parses a JSON document produced by [`FigureReport::to_json`].
    pub fn from_json(json: &Json) -> Result<FigureReport, String> {
        let levels = json
            .get("levels")
            .and_then(Json::as_array)
            .ok_or("missing array field `levels`")?
            .iter()
            .map(|l| l.as_f64().map(|v| v as usize).ok_or("non-numeric level"))
            .collect::<Result<Vec<_>, _>>()?;
        let series = json
            .get("series")
            .and_then(Json::as_array)
            .ok_or("missing array field `series`")?
            .iter()
            .map(|s| {
                let values = s
                    .get("values")
                    .and_then(Json::as_array)
                    .ok_or("series missing `values`")?
                    .iter()
                    .map(|v| v.as_f64().ok_or("non-numeric value"))
                    .collect::<Result<Vec<_>, _>>()?;
                let counters = match s.get("counters") {
                    None => Vec::new(),
                    Some(c) => c
                        .as_object()
                        .ok_or("series `counters` is not an object")?
                        .iter()
                        .map(|(k, v)| {
                            v.as_f64()
                                .map(|n| (k.clone(), n as u64))
                                .ok_or("non-numeric counter")
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                };
                let latency = match s.get("latency") {
                    None => None,
                    Some(l) => Some(latency_from_json(l)?),
                };
                Ok::<Series, String>(Series {
                    name: str_field(s, "name")?,
                    values,
                    counters,
                    latency,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FigureReport {
            id: str_field(json, "id")?,
            title: str_field(json, "title")?,
            x_label: str_field(json, "x_label")?,
            unit: str_field(json, "unit")?,
            levels,
            series,
            config: json.get("config").cloned(),
        })
    }

    /// Writes `target/figures/<id>.json` (path overridable with the
    /// `SYNQ_FIGURE_DIR` environment variable). Returns the path.
    pub fn write_json(&self) -> std::io::Result<PathBuf> {
        let dir = std::env::var("SYNQ_FIGURE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("target/figures"));
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.id));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_json().pretty().as_bytes())?;
        Ok(path)
    }

    /// Ratio of two series at the highest level (used for the headline
    /// claims table). Returns `None` if either series is missing.
    pub fn ratio_at_max(&self, numerator: &str, denominator: &str) -> Option<f64> {
        let last = self.levels.len().checked_sub(1)?;
        let num = self.series.iter().find(|s| s.name == numerator)?;
        let den = self.series.iter().find(|s| s.name == denominator)?;
        Some(num.values[last] / den.values[last])
    }
}

/// Serializes a [`LatencySummary`] as the schema rev 3 `latency` block:
/// the fixed percentile set plus the non-empty histogram buckets as
/// `[lower bound, count]` pairs.
pub fn latency_to_json(lat: &LatencySummary) -> Json {
    Json::Obj(vec![
        ("count".into(), Json::Num(lat.count as f64)),
        ("p50".into(), Json::Num(lat.p50 as f64)),
        ("p90".into(), Json::Num(lat.p90 as f64)),
        ("p99".into(), Json::Num(lat.p99 as f64)),
        ("p999".into(), Json::Num(lat.p999 as f64)),
        ("max".into(), Json::Num(lat.max as f64)),
        (
            "buckets".into(),
            Json::Arr(
                lat.buckets
                    .iter()
                    .map(|&(low, n)| Json::Arr(vec![Json::Num(low as f64), Json::Num(n as f64)]))
                    .collect(),
            ),
        ),
    ])
}

/// Parses a `latency` block written by [`latency_to_json`].
pub fn latency_from_json(json: &Json) -> Result<LatencySummary, String> {
    let num = |key: &str| {
        json.get(key)
            .and_then(Json::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("latency block missing numeric `{key}`"))
    };
    let buckets = json
        .get("buckets")
        .and_then(Json::as_array)
        .ok_or("latency block missing array `buckets`")?
        .iter()
        .map(|pair| {
            let pair = pair.as_array().ok_or("latency bucket is not an array")?;
            match pair {
                [low, n] => Ok((
                    low.as_f64().ok_or("non-numeric bucket bound")? as u64,
                    n.as_f64().ok_or("non-numeric bucket count")? as u64,
                )),
                _ => Err("latency bucket is not a [bound, count] pair".into()),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(LatencySummary {
        count: num("count")?,
        p50: num("p50")?,
        p90: num("p90")?,
        p99: num("p99")?,
        p999: num("p999")?,
        max: num("max")?,
        buckets,
    })
}

/// Schema revision the writers emit. Rev 2 (PR 4) added the optional
/// per-series `counters` section (probe-counter deltas from `synq-obs`);
/// rev 3 (PR 9) added the optional per-series `latency` section (the
/// recorded distribution's percentiles + histogram buckets). Each revision
/// is the previous one plus an optional section, so readers accept
/// v1 through v3.
pub const BENCH_SCHEMA_REV: u32 = 3;

/// Oldest schema revision the readers still understand.
pub const BENCH_SCHEMA_OLDEST: u32 = 1;

fn schema_string(family: &str) -> String {
    format!("synq-bench-{family}/v{BENCH_SCHEMA_REV}")
}

/// Validates the `schema` field of a `BENCH_*.json` document against a
/// schema family (`"headline"`, `"wait-strategy"`, `"async"`, `"ring"`,
/// `"reclaim"`, `"server"`, `"park"`). Returns the
/// revision on success; a descriptive error for a missing field, a
/// different family, or a revision outside
/// [`BENCH_SCHEMA_OLDEST`]..=[`BENCH_SCHEMA_REV`].
pub fn check_bench_schema(doc: &Json, family: &str) -> Result<u32, String> {
    let prefix = format!("synq-bench-{family}/v");
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing `schema` field (expected `{prefix}N`)"))?;
    let rev = schema
        .strip_prefix(&prefix)
        .and_then(|r| r.parse::<u32>().ok())
        .ok_or_else(|| format!("unrecognized schema `{schema}` (expected `{prefix}N`)"))?;
    if (BENCH_SCHEMA_OLDEST..=BENCH_SCHEMA_REV).contains(&rev) {
        Ok(rev)
    } else {
        Err(format!(
            "unknown schema revision `{schema}`: this binary understands \
             `{prefix}{BENCH_SCHEMA_OLDEST}` through `{prefix}{BENCH_SCHEMA_REV}` — \
             rebuild the tools or regenerate the file"
        ))
    }
}

/// Reads and schema-checks a `BENCH_*.json` file. Errors (as a printable
/// message, never a panic) when the file is missing, is not valid JSON, or
/// carries an unknown schema revision.
pub fn read_bench_file(path: &Path, family: &str) -> Result<Json, String> {
    let data = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "cannot read {}: {e} (run the matching figure binary first)",
            path.display()
        )
    })?;
    let doc = Json::parse(&data).map_err(|e| format!("{}: invalid JSON: {e}", path.display()))?;
    check_bench_schema(&doc, family).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(doc)
}

fn bench_path(env: &str, file: &str) -> PathBuf {
    // Anchor at the workspace root regardless of the invocation directory:
    // this crate lives at `<root>/crates/bench`.
    std::env::var(env).map(PathBuf::from).unwrap_or_else(|_| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(file)
    })
}

/// Resolved path of `BENCH_headline.json` (`SYNQ_HEADLINE_PATH` override).
pub fn headline_path() -> PathBuf {
    bench_path("SYNQ_HEADLINE_PATH", "BENCH_headline.json")
}

/// Resolved path of `BENCH_wait_strategy.json` (`SYNQ_WAIT_STRATEGY_PATH`
/// override).
pub fn wait_strategy_path() -> PathBuf {
    bench_path("SYNQ_WAIT_STRATEGY_PATH", "BENCH_wait_strategy.json")
}

/// Resolved path of `BENCH_async.json` (`SYNQ_ASYNC_PATH` override).
pub fn async_path() -> PathBuf {
    bench_path("SYNQ_ASYNC_PATH", "BENCH_async.json")
}

/// Resolved path of `BENCH_ring.json` (`SYNQ_RING_PATH` override).
pub fn ring_path() -> PathBuf {
    bench_path("SYNQ_RING_PATH", "BENCH_ring.json")
}

/// Resolved path of `BENCH_reclaim.json` (`SYNQ_RECLAIM_PATH` override).
pub fn reclaim_path() -> PathBuf {
    bench_path("SYNQ_RECLAIM_PATH", "BENCH_reclaim.json")
}

/// Resolved path of `BENCH_server.json` (`SYNQ_SERVER_PATH` override).
pub fn server_path() -> PathBuf {
    bench_path("SYNQ_SERVER_PATH", "BENCH_server.json")
}

/// Resolved path of `BENCH_park.json` (`SYNQ_PARK_PATH` override).
pub fn park_path() -> PathBuf {
    bench_path("SYNQ_PARK_PATH", "BENCH_park.json")
}

/// The host/run configuration block recorded in every BENCH file (PR 8):
/// the core count, the contended preset's explicit oversubscription
/// factors `k` (each contended level fields `k × cores` pairs), and
/// whether quick mode was active. Lets a reader reconstruct absolute
/// thread counts instead of guessing what "contended" meant on the
/// recording host.
pub fn bench_config_json() -> Json {
    let quick = crate::quick_mode();
    Json::Obj(vec![
        ("cores".into(), Json::Num(crate::bench_cores() as f64)),
        (
            "oversub_factors".into(),
            Json::Arr(
                crate::oversub_factors(quick)
                    .into_iter()
                    .map(|k| Json::Num(k as f64))
                    .collect(),
            ),
        ),
        ("quick".into(), Json::Bool(quick)),
    ])
}

/// The config block to record for `report`: the one captured when the
/// figure was generated, falling back to the current environment for
/// pre-PR-8 figure files that carry none.
fn report_config(report: &FigureReport) -> Json {
    report.config.clone().unwrap_or_else(bench_config_json)
}

/// Probe-counter deltas since `before`, in the owned form
/// [`Series::counters`] stores. Empty when stats are off (every delta is
/// zero), so callers can pass the result straight to
/// [`FigureReport::push_series_with_counters`] unconditionally.
pub fn counter_deltas_since(before: &synq_obs::StatsSnapshot) -> Vec<(String, u64)> {
    synq_obs::StatsSnapshot::take()
        .delta(before)
        .nonzero()
        .into_iter()
        .map(|(name, v)| (name.to_owned(), v))
        .collect()
}

/// Writes the repo-root `BENCH_headline.json` perf-trajectory file:
/// machine-readable ns/transfer (and optionally ns/task) per algorithm per
/// concurrency level, consumed by future PRs for regression comparison.
/// Returns the path written.
pub fn write_bench_headline(
    handoff: &FigureReport,
    pool: Option<&FigureReport>,
) -> std::io::Result<PathBuf> {
    let path = headline_path();
    let mut fields = vec![
        ("schema".into(), Json::Str(schema_string("headline"))),
        ("config".into(), report_config(handoff)),
        ("handoff".into(), handoff.to_json()),
    ];
    if let Some(pool) = pool {
        fields.push(("executor".into(), pool.to_json()));
    }
    let mut f = std::fs::File::create(&path)?;
    f.write_all(Json::Obj(fields).pretty().as_bytes())?;
    Ok(path)
}

/// Writes the repo-root `BENCH_wait_strategy.json` file (alongside
/// `BENCH_headline.json`): ns/transfer for every `structure/strategy`
/// combination, consumed to confirm the shared wait loop is perf-neutral
/// and to compare strategies uniformly across structures. Returns the path
/// written (overridable with `SYNQ_WAIT_STRATEGY_PATH`).
pub fn write_bench_wait_strategy(sweep: &FigureReport) -> std::io::Result<PathBuf> {
    let path = wait_strategy_path();
    let fields = vec![
        ("schema".into(), Json::Str(schema_string("wait-strategy"))),
        ("config".into(), report_config(sweep)),
        ("sweep".into(), sweep.to_json()),
    ];
    let mut f = std::fs::File::create(&path)?;
    f.write_all(Json::Obj(fields).pretty().as_bytes())?;
    Ok(path)
}

/// Writes the repo-root `BENCH_async.json` file: ns/transfer for the
/// async front-end (`synq-async`) against the blocking API on the same
/// structures, consumed to track the overhead of the waker-based wait
/// mode. Returns the path written (overridable with `SYNQ_ASYNC_PATH`).
pub fn write_bench_async(sweep: &FigureReport) -> std::io::Result<PathBuf> {
    let path = async_path();
    let fields = vec![
        ("schema".into(), Json::Str(schema_string("async"))),
        ("config".into(), report_config(sweep)),
        ("sweep".into(), sweep.to_json()),
    ];
    let mut f = std::fs::File::create(&path)?;
    f.write_all(Json::Obj(fields).pretty().as_bytes())?;
    Ok(path)
}

/// Writes the repo-root `BENCH_ring.json` file: ns/transfer for the
/// bounded ring fast path across capacity × batch-size × pair-count,
/// beside the unbounded (ring-first) queue. The per-series `counters`
/// section carries the `ring.*` probe deltas plus the explicitly recorded
/// `epoch.pins` / `node_cache.*` values — zero for the pure bounded
/// series, which is the allocation-free/epoch-free acceptance proof.
/// Returns the path written (overridable with `SYNQ_RING_PATH`).
pub fn write_bench_ring(sweep: &FigureReport) -> std::io::Result<PathBuf> {
    let path = ring_path();
    let fields = vec![
        ("schema".into(), Json::Str(schema_string("ring"))),
        ("config".into(), report_config(sweep)),
        ("sweep".into(), sweep.to_json()),
    ];
    let mut f = std::fs::File::create(&path)?;
    f.write_all(Json::Obj(fields).pretty().as_bytes())?;
    Ok(path)
}

/// Writes the repo-root `BENCH_reclaim.json` file: transfers/sec per
/// reclamation backend under stalled-thread injection (one reader parked
/// mid-critical-section while producer/consumer pairs hammer the queue).
/// Each series' `counters` section records the backend's
/// `reclaim.peak_pending` — the peak unreclaimed-garbage watermark the
/// stalled-thread garbage-bound claims rest on (recorded explicitly, even
/// when zero). Returns the path written (overridable with
/// `SYNQ_RECLAIM_PATH`).
pub fn write_bench_reclaim(sweep: &FigureReport) -> std::io::Result<PathBuf> {
    let path = reclaim_path();
    let fields = vec![
        ("schema".into(), Json::Str(schema_string("reclaim"))),
        ("config".into(), report_config(sweep)),
        ("sweep".into(), sweep.to_json()),
    ];
    let mut f = std::fs::File::create(&path)?;
    f.write_all(Json::Obj(fields).pretty().as_bytes())?;
    Ok(path)
}

/// Writes the repo-root `BENCH_server.json` file: the dispatch-server
/// scenario (async connections dispatching jobs into the executor pool
/// through a rendezvous channel) per queue variant, across the steady /
/// burst / timeout-storm / cancellation-wave phases. Every series carries
/// a schema rev 3 `latency` block — tails, not means, are this file's
/// entire point: p999 is the headline number of each variant. The
/// `counters` section records
/// the always-on `server.requests` / `server.timeouts` / `server.cancels`
/// / `server.burst_drops` totals. Returns the path written (overridable
/// with `SYNQ_SERVER_PATH`).
pub fn write_bench_server(sweep: &FigureReport) -> std::io::Result<PathBuf> {
    let path = server_path();
    let fields = vec![
        ("schema".into(), Json::Str(schema_string("server"))),
        ("config".into(), report_config(sweep)),
        ("sweep".into(), sweep.to_json()),
    ];
    let mut f = std::fs::File::create(&path)?;
    f.write_all(Json::Obj(fields).pretty().as_bytes())?;
    Ok(path)
}

/// Writes the repo-root `BENCH_park.json` file: the wait-path
/// microbenchmarks (PR 10) — park/unpark round trip and timed-wait churn
/// for the platform-default (futex on Linux) and condvar parker backends,
/// plus rendezvous handoff under the calibrated adaptive spin policy
/// against fixed budgets. The `roundtrip/default` vs `roundtrip/condvar`
/// gap is the committed evidence for the raw-futex win. Returns the path
/// written (overridable with `SYNQ_PARK_PATH`).
pub fn write_bench_park(sweep: &FigureReport) -> std::io::Result<PathBuf> {
    let path = park_path();
    let fields = vec![
        ("schema".into(), Json::Str(schema_string("park"))),
        ("config".into(), report_config(sweep)),
        ("sweep".into(), sweep.to_json()),
    ];
    let mut f = std::fs::File::create(&path)?;
    f.write_all(Json::Obj(fields).pretty().as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `write` with `var` pointing at `path`. Tests that share a
    /// variable take turns: one unsetting it mid-write of another would
    /// send that write to the committed repo-root file.
    fn with_path_var<T>(var: &str, path: &Path, write: impl FnOnce() -> T) -> T {
        static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _turn = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var(var, path);
        let out = write();
        std::env::remove_var(var);
        out
    }

    fn sample() -> FigureReport {
        let mut r = FigureReport::new("figureX", "test", "pairs", "ns/transfer", vec![1, 2]);
        r.push_series("a".into(), vec![100.0, 200.0]);
        r.push_series("b".into(), vec![50.0, 40.0]);
        r
    }

    #[test]
    fn table_contains_all_cells() {
        let t = sample().to_table();
        assert!(t.contains("figureX"));
        assert!(t.contains('a') && t.contains('b'));
        assert!(t.contains("100") && t.contains("40"));
    }

    #[test]
    fn ratio_uses_last_level() {
        let r = sample();
        assert_eq!(r.ratio_at_max("a", "b"), Some(5.0));
        assert_eq!(r.ratio_at_max("a", "missing"), None);
    }

    #[test]
    fn json_roundtrip() {
        let r = sample();
        let s = r.to_json().pretty();
        let back = FigureReport::from_json(&Json::parse(&s).unwrap()).unwrap();
        assert_eq!(back.levels, r.levels);
        assert_eq!(back.series.len(), 2);
        assert_eq!(back.series[1].values, r.series[1].values);
        assert_eq!(back.id, "figureX");
    }

    #[test]
    fn headline_file_contains_all_algorithms() {
        let dir = std::env::temp_dir().join(format!("synq-headline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_headline.json");
        let written = with_path_var("SYNQ_HEADLINE_PATH", &path, || {
            write_bench_headline(&sample(), Some(&sample()))
        })
        .unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&written).unwrap()).unwrap();
        let handoff = FigureReport::from_json(doc.get("handoff").unwrap()).unwrap();
        assert_eq!(handoff.series.len(), 2);
        assert!(doc.get("executor").is_some());
        assert!(doc.get("config").is_some(), "config block recorded");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wait_strategy_file_roundtrips() {
        let dir = std::env::temp_dir().join(format!("synq-waitstrat-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_wait_strategy.json");
        let written = with_path_var("SYNQ_WAIT_STRATEGY_PATH", &path, || {
            write_bench_wait_strategy(&sample())
        })
        .unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&written).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str).map(str::to_owned),
            Some(format!("synq-bench-wait-strategy/v{BENCH_SCHEMA_REV}"))
        );
        assert!(doc.get("config").is_some(), "config block recorded");
        let sweep = FigureReport::from_json(doc.get("sweep").unwrap()).unwrap();
        assert_eq!(sweep.series.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn async_file_roundtrips() {
        let dir = std::env::temp_dir().join(format!("synq-async-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_async.json");
        let written =
            with_path_var("SYNQ_ASYNC_PATH", &path, || write_bench_async(&sample())).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&written).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str).map(str::to_owned),
            Some(format!("synq-bench-async/v{BENCH_SCHEMA_REV}"))
        );
        assert!(doc.get("config").is_some(), "config block recorded");
        let sweep = FigureReport::from_json(doc.get("sweep").unwrap()).unwrap();
        assert_eq!(sweep.series.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ring_file_roundtrips() {
        let dir = std::env::temp_dir().join(format!("synq-ring-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_ring.json");
        let written =
            with_path_var("SYNQ_RING_PATH", &path, || write_bench_ring(&sample())).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&written).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str).map(str::to_owned),
            Some(format!("synq-bench-ring/v{BENCH_SCHEMA_REV}"))
        );
        assert!(read_bench_file(&written, "ring").is_ok());
        assert!(doc.get("config").is_some(), "config block recorded");
        let sweep = FigureReport::from_json(doc.get("sweep").unwrap()).unwrap();
        assert_eq!(sweep.series.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn park_file_roundtrips() {
        let dir = std::env::temp_dir().join(format!("synq-park-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_park.json");
        let written =
            with_path_var("SYNQ_PARK_PATH", &path, || write_bench_park(&sample())).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&written).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str).map(str::to_owned),
            Some(format!("synq-bench-park/v{BENCH_SCHEMA_REV}"))
        );
        assert!(read_bench_file(&written, "park").is_ok());
        assert!(doc.get("config").is_some(), "config block recorded");
        let sweep = FigureReport::from_json(doc.get("sweep").unwrap()).unwrap();
        assert_eq!(sweep.series.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reclaim_file_roundtrips() {
        let dir = std::env::temp_dir().join(format!("synq-reclaim-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_reclaim.json");
        let written = with_path_var(
            "SYNQ_RECLAIM_PATH",
            &path,
            || write_bench_reclaim(&sample()),
        )
        .unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&written).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str).map(str::to_owned),
            Some(format!("synq-bench-reclaim/v{BENCH_SCHEMA_REV}"))
        );
        assert!(read_bench_file(&written, "reclaim").is_ok());
        assert!(doc.get("config").is_some(), "config block recorded");
        let sweep = FigureReport::from_json(doc.get("sweep").unwrap()).unwrap();
        assert_eq!(sweep.series.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refresh_preserves_the_originating_runs_config() {
        // A figure generated under one configuration must keep that config
        // through a later write (e.g. a `summary` refresh in a different
        // environment), and a figure round-trips its config through JSON.
        let mut r = sample();
        let original = Json::Obj(vec![
            ("cores".into(), Json::Num(96.0)),
            (
                "oversub_factors".into(),
                Json::Arr(vec![Json::Num(2.0), Json::Num(32.0)]),
            ),
            ("quick".into(), Json::Bool(false)),
        ]);
        r.config = Some(original.clone());
        let back = FigureReport::from_json(&Json::parse(&r.to_json().pretty()).unwrap()).unwrap();
        assert_eq!(back.config.as_ref(), Some(&original));

        let dir = std::env::temp_dir().join(format!("synq-cfgkeep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_server.json");
        let written =
            with_path_var("SYNQ_SERVER_PATH", &path, || write_bench_server(&back)).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&written).unwrap()).unwrap();
        assert_eq!(
            doc.get("config")
                .and_then(|c| c.get("cores"))
                .and_then(Json::as_f64),
            Some(96.0),
            "refresh must not stamp the current host's config onto old data"
        );
        // A config-less (pre-PR-8) figure falls back to the environment.
        let mut legacy = sample();
        legacy.config = None;
        assert!(report_config(&legacy).get("cores").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_block_is_well_formed() {
        let config = bench_config_json();
        assert!(config.get("cores").and_then(Json::as_f64).unwrap() >= 1.0);
        let ks = config
            .get("oversub_factors")
            .and_then(Json::as_array)
            .unwrap();
        assert!(!ks.is_empty() && ks.iter().all(|k| k.as_f64().unwrap() >= 2.0));
        assert!(config.get("quick").is_some());
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn mismatched_series_length_panics() {
        let mut r = FigureReport::new("f", "t", "x", "u", vec![1, 2, 3]);
        r.push_series("a".into(), vec![1.0]);
    }

    #[test]
    fn counters_roundtrip_and_are_omitted_when_empty() {
        let mut r = FigureReport::new("f", "t", "x", "u", vec![1]);
        r.push_series("plain".into(), vec![1.0]);
        r.push_series_with_counters(
            "counted".into(),
            vec![2.0],
            vec![("wait.parks".into(), 41u64), ("queue.cas.fail".into(), 7)],
        );
        let text = r.to_json().pretty();
        let back = FigureReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert!(back.series[0].counters.is_empty());
        assert_eq!(
            back.series[1].counters,
            vec![
                ("wait.parks".to_string(), 41),
                ("queue.cas.fail".to_string(), 7)
            ]
        );
        // The empty section is omitted entirely, keeping v2 files readable
        // by v1-era tooling that ignores unknown fields.
        assert_eq!(text.matches("counters").count(), 1);
    }

    fn sample_latency() -> LatencySummary {
        LatencySummary {
            count: 1000,
            p50: 900,
            p90: 2_100,
            p99: 14_000,
            p999: 220_000,
            max: 231_047,
            buckets: vec![(896, 600), (2_048, 390), (212_992, 10)],
        }
    }

    #[test]
    fn latency_roundtrips_and_is_omitted_when_absent() {
        let mut r = FigureReport::new("f", "t", "x", "u", vec![1]);
        r.push_series("plain".into(), vec![1.0]);
        r.push_series_full(
            "tailed".into(),
            vec![2.0],
            Vec::new(),
            Some(sample_latency()),
        );
        let text = r.to_json().pretty();
        let back = FigureReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert!(back.series[0].latency.is_none());
        assert_eq!(back.series[1].latency, Some(sample_latency()));
        assert!(back.series[1].latency.as_ref().unwrap().is_monotone());
        // The absent section is omitted entirely, keeping rev 3 files
        // readable by rev 1/2-era tooling that ignores unknown fields.
        assert_eq!(text.matches("latency").count(), 1);
    }

    #[test]
    fn latency_from_json_rejects_malformed_blocks() {
        let no_buckets = Json::Obj(vec![("count".into(), Json::Num(1.0))]);
        assert!(latency_from_json(&no_buckets)
            .unwrap_err()
            .contains("buckets"));
        let bad_pair =
            Json::parse(r#"{"count":1,"p50":1,"p90":1,"p99":1,"p999":1,"max":1,"buckets":[[1]]}"#)
                .unwrap();
        assert!(latency_from_json(&bad_pair).unwrap_err().contains("pair"));
    }

    #[test]
    fn server_file_roundtrips_with_latency() {
        let dir = std::env::temp_dir().join(format!("synq-server-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_server.json");
        let mut r = FigureReport::new("server", "dispatch server", "phase", "ns/request", vec![1]);
        r.push_series_full(
            "new-fair".into(),
            vec![5_000.0],
            Vec::new(),
            Some(sample_latency()),
        );
        let written = with_path_var("SYNQ_SERVER_PATH", &path, || write_bench_server(&r)).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&written).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(&format!("synq-bench-server/v{BENCH_SCHEMA_REV}")[..])
        );
        assert!(read_bench_file(&written, "server").is_ok());
        // Every BENCH file records the host/run config block.
        let config = doc.get("config").expect("config block present");
        assert!(config.get("cores").and_then(Json::as_f64).unwrap() >= 1.0);
        let ks = config
            .get("oversub_factors")
            .and_then(Json::as_array)
            .unwrap();
        assert!(!ks.is_empty() && ks.iter().all(|k| k.as_f64().unwrap() >= 2.0));
        assert!(config.get("quick").is_some());
        let sweep = FigureReport::from_json(doc.get("sweep").unwrap()).unwrap();
        assert_eq!(sweep.series[0].latency, Some(sample_latency()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn schema_check_accepts_known_revisions() {
        for rev in BENCH_SCHEMA_OLDEST..=BENCH_SCHEMA_REV {
            let doc = Json::Obj(vec![(
                "schema".into(),
                Json::Str(format!("synq-bench-headline/v{rev}")),
            )]);
            assert_eq!(check_bench_schema(&doc, "headline"), Ok(rev));
        }
    }

    #[test]
    fn schema_check_rejects_unknown_and_missing() {
        let future = Json::Obj(vec![(
            "schema".into(),
            Json::Str("synq-bench-headline/v99".into()),
        )]);
        let err = check_bench_schema(&future, "headline").unwrap_err();
        assert!(err.contains("unknown schema revision"), "got: {err}");
        let wrong_family = check_bench_schema(&future, "async").unwrap_err();
        assert!(
            wrong_family.contains("unrecognized schema"),
            "got: {wrong_family}"
        );
        let empty = Json::Obj(vec![]);
        let missing = check_bench_schema(&empty, "headline").unwrap_err();
        assert!(missing.contains("missing `schema`"), "got: {missing}");
    }

    #[test]
    fn read_bench_file_reports_missing_and_bad_schema() {
        let dir = std::env::temp_dir().join(format!("synq-readbench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let absent = dir.join("BENCH_headline.json");
        let err = read_bench_file(&absent, "headline").unwrap_err();
        assert!(err.contains("cannot read"), "got: {err}");
        let stale = dir.join("BENCH_stale.json");
        std::fs::write(&stale, "{\"schema\": \"synq-bench-headline/v99\"}").unwrap();
        let err = read_bench_file(&stale, "headline").unwrap_err();
        assert!(err.contains("unknown schema revision"), "got: {err}");
        let garbage = dir.join("BENCH_garbage.json");
        std::fs::write(&garbage, "not json").unwrap();
        let err = read_bench_file(&garbage, "headline").unwrap_err();
        assert!(err.contains("invalid JSON"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn written_files_pass_their_own_schema_check() {
        let dir = std::env::temp_dir().join(format!("synq-selfcheck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_headline.json");
        let checked = with_path_var("SYNQ_HEADLINE_PATH", &path, || {
            write_bench_headline(&sample(), None).unwrap();
            read_bench_file(&path, "headline")
        });
        assert!(checked.is_ok(), "got: {checked:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
