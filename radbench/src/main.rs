//! `radbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path radbench/Cargo.toml -- \
//!     --workload paper_bundle --seed 42 --seconds 20 --trace 0
//! ```
//!
//! Each workload repeats a fixed unit of work for `--seconds` and
//! reports medians over the units. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` alternates untraced and traced units and prints
//! the per-layer metrics plus a self-time table. The last stdout line
//! is always one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `radbench/README.md` for the metric definitions.

mod env;
mod lab;
mod paper;
mod spans;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde_json::{json, Map, Value};

use crate::env::{median, percentile};
use crate::spans::Span;

/// The end-to-end metrics, in output order: (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("traces_per_s", "1/s"),
    ("call_p50_us", "us"),
    ("call_p99_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("recover_s", "s"),
];

/// The per-layer metrics, in output order: (name, unit). A layer a
/// workload does not exercise reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("campaign.build_s", "s"),
    ("detect.fit_s", "s"),
    ("detect.stream_s", "s"),
    ("detect.alerts", "count"),
    ("export.bundle_s", "s"),
    ("export.files", "count"),
    ("export.bytes", "bytes"),
    ("segment.seal_s", "s"),
    ("segment.scan_s", "s"),
    ("segment.bytes", "bytes"),
    ("segment.window_rows", "count"),
    ("segment.pruned", "count"),
    ("server.start_s", "s"),
    ("remote.connect_s", "s"),
    ("remote.run_mark_s", "s"),
    ("remote.issue_s", "s"),
    ("remote.bye_s", "s"),
    ("remote.calls", "count"),
    ("wire.sends_per_issue", "ratio"),
    ("wire.bytes_per_issue", "bytes"),
    ("server.issues", "count"),
    ("server.dedup_hits", "count"),
    ("server.expired", "count"),
    ("server.rejected", "count"),
    ("server.quarantined", "count"),
    ("server.useful_ratio", "ratio"),
    ("server.drain_s", "s"),
    ("drain.peak_queued_rows", "count"),
    ("drain.queue_bound_rows", "count"),
    ("durable.records_recovered", "count"),
    ("durable.records_replayed", "count"),
    ("durable.quarantined", "count"),
    ("durable.bytes_per_trace", "bytes"),
    ("bench.self_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.wall_ratio", "ratio"),
];

/// Where traced runs leave their spans (and the fallback scratch).
const SPANS_DIR: &str = ".bench_scratch";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperBundle,
    LabPipelined,
    LabDurable,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::PaperBundle,
        Workload::LabPipelined,
        Workload::LabDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperBundle => "paper_bundle",
            Workload::LabPipelined => "lab_pipelined",
            Workload::LabDurable => "lab_durable",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::PaperBundle,
        seed: 42,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Workload::ALL.into_iter().find(|w| w.name() == value),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("--workload must be one of {}", names.join(", "))
    })?;
    Ok(args)
}

/// Measured units every run makes at least; `peak_rss_mb` is read
/// after the warm-up and this many units, so it covers the same work on
/// every run however many units the budget fits.
const MIN_UNITS: usize = 3;

/// Runs one unmeasured warm-up unit (its checks and operation counts
/// still count), then measured units for `args.seconds`: a unit only
/// starts while the elapsed time plus a median unit fits the budget.
/// With `--trace 1` every other measured unit is traced. `unit` gets
/// the unit's index (0 is the warm-up) and whether it is traced, and
/// returns whether the run may go on.
pub fn measure(
    args: &Args,
    mut unit: impl FnMut(usize, bool, &mut Report) -> Result<bool, String>,
) -> Result<Report, String> {
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut warm = Report::default();
    let mut go_on = unit(0, false, &mut warm)?;
    let mut report = Report {
        attempted: warm.attempted,
        failed: warm.failed,
        checks: warm.checks,
        ..Report::default()
    };
    let mut unit_secs: Vec<f64> = Vec::new();
    while go_on {
        let done = unit_secs.len();
        if done >= MIN_UNITS
            && started.elapsed() + Duration::from_secs_f64(median(&unit_secs)) > budget
        {
            break;
        }
        let unit_started = Instant::now();
        go_on = unit(done + 1, args.trace && done % 2 == 1, &mut report)?;
        unit_secs.push(unit_started.elapsed().as_secs_f64());
        if unit_secs.len() == MIN_UNITS {
            report.peak_rss_mb = env::peak_rss_mb();
        }
    }
    if unit_secs.len() < MIN_UNITS {
        report.peak_rss_mb = env::peak_rss_mb();
    }
    report.units = unit_secs.len();
    Ok(report)
}

/// Per-unit span roots whose self times are reported.
#[derive(Debug, Clone, Copy)]
pub struct Roots {
    pub setup: u64,
    pub wall: u64,
    pub after: u64,
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks; any `false` fails the run.
    pub checks: Vec<(String, bool)>,
    pub setup_s: Vec<f64>,
    /// Measured-phase seconds of untraced units.
    pub wall_s: Vec<f64>,
    /// Measured-phase seconds of traced units.
    pub wall_traced_s: Vec<f64>,
    /// Trace rows one unit produces and delivers.
    pub rows_per_unit: f64,
    /// Blocking-call latencies of untraced units, unit by unit.
    pub call_us: Vec<f64>,
    pub recover_s: Vec<f64>,
    /// Per traced unit: self seconds by span name, and wall coverage.
    pub self_times: Vec<BTreeMap<&'static str, f64>>,
    pub coverage: Vec<f64>,
    /// Per-layer counts, one value per unit (medians are reported).
    pub counts: BTreeMap<&'static str, Vec<f64>>,
    pub spans: Vec<Span>,
    pub peak_rss_mb: f64,
    /// Measured units (the warm-up not counted).
    pub units: usize,
    /// Extra facts printed before the result (sample counts, errors).
    pub info: Map<String, Value>,
}

impl Report {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }

    /// Folds a traced unit's spans into the self-time table.
    pub fn absorb_trace(&mut self, mut spans: Vec<Span>, roots: Roots, wall: f64) {
        let wall_times = spans::self_times(&spans, roots.wall);
        let mut unit = wall_times.clone();
        for root in [roots.setup, roots.after] {
            for (name, secs) in spans::self_times(&spans, root) {
                *unit.entry(name).or_insert(0.0) += secs;
            }
        }
        self.coverage.push(spans::coverage(&wall_times, wall));
        let glue: f64 = wall_times
            .iter()
            .filter(|(n, _)| n.starts_with(spans::BENCH_PREFIX))
            .map(|(_, s)| s)
            .sum();
        self.count("bench.self_s", glue);
        self.self_times.push(unit);
        self.spans.append(&mut spans);
    }
}

/// A fresh scratch directory for this run. RAM-backed (`/dev/shm`)
/// when that exists and is writable, so the export and WAL fsyncs
/// measure the program rather than a shared disk (every fsync still
/// happens); otherwise `.bench_scratch/` inside the checkout. The run
/// removes it before exiting.
fn scratch_dir(args: &Args) -> std::io::Result<PathBuf> {
    let name = format!("radbench-{}-{}", args.workload.name(), std::process::id());
    let shm = Path::new("/dev/shm");
    if shm.is_dir() {
        let dir = shm.join(&name);
        let _ = std::fs::remove_dir_all(&dir);
        if std::fs::create_dir_all(&dir).is_ok() {
            return Ok(dir);
        }
    }
    let dir = Path::new(SPANS_DIR).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn metric(value: f64, unit: &str) -> Value {
    json!({"value": value, "unit": unit})
}

/// The call samples, in order, cut into consecutive blocks of at
/// least 1,000 calls (ten beyond p99 each); fewer calls form one block.
fn call_blocks(calls: &[f64]) -> Vec<&[f64]> {
    let blocks = (calls.len() / 1000).max(1);
    let size = calls.len().div_ceil(blocks).max(1);
    calls.chunks(size).collect()
}

/// p99 of every block, median over blocks: one burst of preemption on
/// a busy host moves one block, not the result.
fn call_p99(calls: &[f64]) -> f64 {
    let per_block: Vec<f64> = call_blocks(calls)
        .into_iter()
        .map(|block| percentile(block, 99.0))
        .collect();
    median(&per_block)
}

fn end_to_end(report: &Report) -> Map<String, Value> {
    let wall = median(&report.wall_s);
    let values = [
        median(&report.setup_s),
        wall,
        report.rows_per_unit / wall,
        percentile(&report.call_us, 50.0),
        call_p99(&report.call_us),
        report.peak_rss_mb,
        median(&report.recover_s),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), metric(v, unit)))
        .collect()
}

fn per_layer(report: &Report) -> Map<String, Value> {
    let mut out = Map::new();
    for &(name, unit) in PER_LAYER {
        let value = if let Some(layer) = name.strip_suffix("_s").filter(|_| unit == "s") {
            let per_unit: Vec<f64> = report
                .self_times
                .iter()
                .map(|t| t.get(layer).copied().unwrap_or(0.0))
                .collect();
            match report.counts.get(name) {
                Some(v) => median(v),
                None if per_unit.is_empty() => 0.0,
                None => median(&per_unit),
            }
        } else {
            match name {
                "trace.coverage" => median(&report.coverage),
                "trace.wall_ratio" => median(&report.wall_traced_s) / median(&report.wall_s),
                _ => report.counts.get(name).map_or(0.0, |v| median(v)),
            }
        };
        out.insert(name.to_string(), metric(value, unit));
    }
    out
}

/// The traced run's self-time table: layer, median self seconds per
/// unit, share of the measured phase.
fn print_table(args: &Args, report: &Report) {
    let wall = median(&report.wall_traced_s);
    let mut names: Vec<&'static str> = report
        .self_times
        .iter()
        .flat_map(|t| t.keys().copied())
        .collect();
    names.sort_unstable();
    names.dedup();
    println!(
        "self-time per unit, {} ({} traced units, median traced wall {:.6} s)",
        args.workload.name(),
        report.self_times.len(),
        wall
    );
    println!("{:<24} {:>12} {:>9}", "span", "self_s", "of_wall");
    for name in names {
        let per_unit: Vec<f64> = report
            .self_times
            .iter()
            .map(|t| t.get(name).copied().unwrap_or(0.0))
            .collect();
        let secs = median(&per_unit);
        println!("{:<24} {:>12.6} {:>8.1}%", name, secs, 100.0 * secs / wall);
    }
    println!(
        "coverage {:.2}% of wall_s; tracing overhead {:+.2}% (traced {:.6} s vs untraced {:.6} s)",
        100.0 * median(&report.coverage),
        100.0 * (wall / median(&report.wall_s) - 1.0),
        wall,
        median(&report.wall_s)
    );
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("radbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = match scratch_dir(&args) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("radbench: cannot create the scratch directory: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "radbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("stamp {}", env::stamp(&scratch));
    let run = match args.workload {
        Workload::PaperBundle => paper::run(&args, &scratch),
        Workload::LabPipelined => lab::run(&args, &scratch, lab::Mode::Pipelined),
        Workload::LabDurable => lab::run(&args, &scratch, lab::Mode::Durable),
    };
    let mut report = match run {
        Ok(report) => report,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&scratch);
            eprintln!("radbench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    let metrics = if args.trace {
        per_layer(&report)
    } else {
        end_to_end(&report)
    };
    report
        .info
        .insert("probe".into(), paper::known_failure_probe(&scratch));
    if args.trace {
        print_table(&args, &report);
        let path = Path::new(SPANS_DIR).join(format!("spans-{}.jsonl", args.workload.name()));
        let written = std::fs::create_dir_all(SPANS_DIR)
            .and_then(|()| spans::write_jsonl(&path, &report.spans));
        if let Err(e) = written {
            eprintln!("radbench: writing spans failed: {e}");
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    println!("info {}", Value::Object(std::mem::take(&mut report.info)));
    for (name, ok) in &report.checks {
        println!("check {} {}", if *ok { "ok  " } else { "FAIL" }, name);
    }
    let correct = report.failed == 0 && report.checks.iter().all(|(_, ok)| *ok);
    let mut result = Map::new();
    result.insert("correct".into(), Value::Bool(correct));
    result.insert("attempted".into(), Value::from(report.attempted));
    result.insert("failed".into(), Value::from(report.failed));
    result.insert("metrics".into(), Value::Object(metrics));
    println!("{}", Value::Object(result));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_blocks_hold_at_least_a_thousand_calls() {
        let calls = vec![1.0; 2800];
        let sizes: Vec<usize> = call_blocks(&calls).iter().map(|b| b.len()).collect();
        assert_eq!(sizes, vec![1400, 1400]);
        assert_eq!(call_blocks(&calls[..999]).len(), 1);
    }

    #[test]
    fn p99_is_the_median_of_block_p99s() {
        let mut calls: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        calls[500] = 1e9;
        let block = percentile(&calls[1000..2000], 99.0);
        assert_eq!(call_p99(&calls), block);
    }
}
