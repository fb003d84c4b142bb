//! `paper_bundle`: one calling thread runs the paper-scale campaign,
//! the run-end streaming detectors, the alerted export bundle, and the
//! segment seal + time-window replay — the in-process call sequence of
//! `rad run` on a full-scale document.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rad_core::{TraceBatch, TraceSource};
use rad_store::export::{bundle_is_complete, export_rad_alerted, import_commands};
use rad_store::segment::{SegmentOptions, SegmentSet, SegmentWriter};
use rad_workloads::campaign::CampaignBuilder;
use rad_workloads::detect::{detect_campaign_spec, fit_detector};
use rad_workloads::scenario::ScenarioSpec;
use serde_json::{json, Value};

use crate::env::dir_bytes;
use crate::spans::SpanLog;
use crate::{measure, Args, Report, Roots};

/// Traces in the paper-scale command dataset (Fig. 5(a)).
const PAPER_TRACES: usize = 128_785;

/// The scenario document: full scale with fillers and power
/// experiments, the detector stack and replay window of
/// `examples/scenarios/detect_stream.json`.
fn document(seed: u64) -> String {
    format!(
        r#"{{
    "name": "paper_bundle",
    "seed": {seed},
    "campaign": {{"scale": 1.0, "fillers": true, "power_experiments": true}},
    "detect": {{
        "perplexity": {{"order": 2, "policy": "run_end", "threshold": "calibrated"}},
        "power": {{"lane": "robot_current", "min_prominence": 0.05}}
    }},
    "replay": {{"window": {{"start_us": 0, "end_us": 600000000}}}}
}}"#
    )
}

/// What set-up hands the measured phase.
struct Prepared {
    spec: ScenarioSpec,
    builder: CampaignBuilder,
    bundle: PathBuf,
    segments: PathBuf,
}

/// Set-up: parse the document, build the campaign builder, and give
/// the run a fresh output directory — removing what the previous
/// iteration wrote there, as a repeated `rad run --out` does.
fn setup(
    text: &str,
    dir: &Path,
    log: &mut SpanLog,
    root: u64,
    request: u64,
) -> Result<Prepared, String> {
    let (spec, _) = log.call("scenario.parse", root, request, || {
        ScenarioSpec::from_json_str(text)
    });
    let spec = spec.map_err(|e| format!("scenario document: {e}"))?;
    let builder = CampaignBuilder::from_spec(spec.to_campaign_spec());
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("output dir: {e}"))?;
    Ok(Prepared {
        spec,
        builder,
        bundle: dir.join("bundle"),
        segments: dir.join("segments"),
    })
}

pub fn run(args: &Args, scratch: &Path) -> Result<Report, String> {
    let text = document(args.seed);
    let epoch = Instant::now();
    let mut report = measure(args, |index, traced, report| {
        unit(&text, &scratch.join("out"), index, traced, epoch, report)
    })?;
    report.rows_per_unit = PAPER_TRACES as f64;
    let calls = report.call_us.len();
    report.info.insert(
        "samples".into(),
        json!({
            "iterations": report.units,
            "untraced": report.wall_s.len(),
            "setups": report.setup_s.len(),
            "calls": calls,
            "call": "one full iteration (build, detect, export, seal, replay)",
            "wall_s": report.wall_s.clone(),
        }),
    );
    Ok(report)
}

/// One iteration into the output directory `dir`: set-up, the six
/// measured stages, reopening what they persisted, and the checks.
/// Returns whether every stage succeeded.
fn unit(
    text: &str,
    dir: &Path,
    index: usize,
    traced: bool,
    epoch: Instant,
    report: &mut Report,
) -> Result<bool, String> {
    let mut log = SpanLog::new(traced, epoch);
    let request = index as u64;

    let setup_span = log.open("bench.setup", 0, request);
    let prepared = setup(text, dir, &mut log, setup_span.id, request)?;
    report.setup_s.push(log.close(setup_span).as_secs_f64());

    let wall_span = log.open("bench.iteration", 0, request);
    let outcome = iteration(&prepared, &mut log, wall_span.id, request, report);
    let wall = log.close(wall_span).as_secs_f64();
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            report.failed += 1;
            report.check(format!("every stage succeeds ({e})"), false);
            return Ok(false);
        }
    };
    if traced {
        report.wall_traced_s.push(wall);
    } else {
        report.wall_s.push(wall);
        report.call_us.push(wall * 1e6);
    }

    let expected = check_dataset(report, &prepared, &outcome);
    // Free the dataset first, as a restarted process starts without it.
    drop(outcome);

    // Recovery: what a restarted process reads back — the sealed
    // segments and the published bundle.
    let after_span = log.open("bench.recover", 0, request);
    let (reopened, _) = log.call("segment.open", after_span.id, request, || {
        SegmentSet::open(&prepared.segments)
    });
    let (imported, _) = log.call("export.import", after_span.id, request, || {
        import_commands(&prepared.bundle)
    });
    let (manifest, _) = log.call("export.manifest", after_span.id, request, || {
        std::fs::read_to_string(prepared.bundle.join("MANIFEST.json"))
            .ok()
            .and_then(|t| serde_json::from_str::<Value>(&t).ok())
    });
    report.recover_s.push(log.close(after_span).as_secs_f64());

    report.check("bundle_is_complete", bundle_is_complete(&prepared.bundle));
    report.check("sealed segments reopen", reopened.is_ok());
    let manifest_ok = manifest.as_ref().is_some_and(|m| {
        expected
            .manifest
            .as_object()
            .is_some_and(|want| want.iter().all(|(k, v)| m.get(k) == Some(v)))
    });
    report.check("manifest counts equal the dataset's", manifest_ok);
    report.check(
        "commands.csv imports back with the dataset's ids, timestamps and commands",
        imported.is_ok_and(|ds| {
            let back = ds.batch();
            back.ids() == expected.ids
                && back.timestamps_us() == expected.timestamps_us
                && back.command_token_ids() == expected.command_token_ids
        }),
    );
    if traced {
        let roots = Roots {
            setup: setup_span.id,
            wall: wall_span.id,
            after: after_span.id,
        };
        report.absorb_trace(log.take(), roots, wall);
    }
    Ok(true)
}

/// What one iteration produced, for the checks.
struct Outcome {
    dataset: rad_workloads::CampaignDataset,
    alerts: usize,
    files: usize,
    window: TraceBatch,
}

/// The measured phase: six pipeline stages, each one timed public
/// call. An error names the stage that failed.
fn iteration(
    prepared: &Prepared,
    log: &mut SpanLog,
    root: u64,
    request: u64,
    report: &mut Report,
) -> Result<Outcome, String> {
    let detect = prepared
        .spec
        .detect
        .as_ref()
        .ok_or("document has no detect section")?;
    let replay = prepared
        .spec
        .replay
        .as_ref()
        .ok_or("document has no replay section")?;

    report.attempted += 1;
    let (dataset, _) = log.call("campaign.build", root, request, || prepared.builder.build());

    report.attempted += 1;
    let (detector, _) = log.call("detect.fit", root, request, || {
        fit_detector(&dataset, detect.perplexity.order)
    });
    let detector = detector.map_err(|e| format!("detect.fit: {e}"))?;

    report.attempted += 1;
    let (outcome, _) = log.call("detect.stream", root, request, || {
        detect_campaign_spec(&dataset, &detector, detect)
    });
    let alerts = outcome.map_err(|e| format!("detect.stream: {e}"))?.alerts;

    report.attempted += 1;
    let (files, _) = log.call("export.bundle", root, request, || {
        export_rad_alerted(
            dataset.command(),
            dataset.power(),
            &alerts,
            &prepared.bundle,
            None,
        )
    });
    let files = files.map_err(|e| format!("export.bundle: {e}"))?;

    report.attempted += 1;
    let (sealed, _) = log.call("segment.seal", root, request, || {
        SegmentWriter::create(&prepared.segments, SegmentOptions::default())
            .and_then(|mut writer| writer.seal_traces(dataset.command().batch()))
    });
    let sealed = sealed.map_err(|e| format!("segment.seal: {e}"))?;

    report.attempted += 1;
    let (scan, _) = log.call("segment.scan", root, request, || {
        let set = SegmentSet::open(&prepared.segments)?;
        let mut scan = set.scan_time_range(replay.start_us, replay.end_us)?;
        let mut window = TraceBatch::default();
        while let Some(batch) = scan.next_batch()? {
            window.append_owned(batch);
        }
        Ok::<_, rad_core::RadError>((window, scan.pruned()))
    });
    let (window, pruned) = scan.map_err(|e| format!("segment.scan: {e}"))?;

    report.count("detect.alerts", alerts.len() as f64);
    report.count("export.files", files as f64);
    report.count("export.bytes", dir_bytes(&prepared.bundle) as f64);
    let segment_bytes: u64 = sealed
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    report.count("segment.bytes", segment_bytes as f64);
    report.count("segment.window_rows", window.len() as f64);
    report.count("segment.pruned", pruned as f64);
    Ok(Outcome {
        dataset,
        alerts: alerts.len(),
        files,
        window,
    })
}

/// What the persisted outputs must match once the dataset is gone:
/// the manifest counts, and the trace columns the repository's CSV
/// round-trip tests pin (ids, timestamps, commands).
struct Expected {
    manifest: Value,
    ids: Vec<u64>,
    timestamps_us: Vec<u64>,
    command_token_ids: Vec<u16>,
}

/// Checks the in-memory results (trace count, replayed window) and
/// keeps what the persisted outputs are checked against.
fn check_dataset(report: &mut Report, prepared: &Prepared, outcome: &Outcome) -> Expected {
    let commands = outcome.dataset.command();
    let power = outcome.dataset.power();
    let batch = commands.batch();
    report.check(
        format!("{} traces (got {})", PAPER_TRACES, commands.len()),
        commands.len() == PAPER_TRACES,
    );
    let direct = prepared.spec.replay.as_ref().map(|r| {
        let rows: Vec<usize> = batch
            .timestamps_us()
            .iter()
            .enumerate()
            .filter(|(_, &ts)| ts >= r.start_us && ts <= r.end_us)
            .map(|(i, _)| i)
            .collect();
        batch.select(&rows)
    });
    report.check(
        format!(
            "window rows equal a direct filter of the batch ({} rows)",
            outcome.window.len()
        ),
        direct.as_ref() == Some(&outcome.window),
    );
    let manifest = json!({
        "trace_objects": commands.len(),
        "runs": commands.runs().len(),
        "supervised_runs": commands.supervised_runs().len(),
        "trace_gaps": commands.gaps().len(),
        "alerts": outcome.alerts,
        "power_recordings": power.recordings().len(),
        "power_entries": power.total_entries(),
        "files": outcome.files,
    });
    Expected {
        manifest,
        ids: batch.ids().to_vec(),
        timestamps_us: batch.timestamps_us().to_vec(),
        command_token_ids: batch.command_token_ids().to_vec(),
    }
}

/// Attempts the paper-scale durable build at default options, outside
/// every workload's timing, and reports how it ends.
pub fn known_failure_probe(scratch: &Path) -> Value {
    let dir = scratch.join("probe");
    let _ = std::fs::remove_dir_all(&dir);
    let started = Instant::now();
    let outcome = CampaignBuilder::new(42).build_resumable(&dir);
    let elapsed = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok(dataset) => json!({
            "call": "CampaignBuilder::new(42).build_resumable (scale 1.0, default DurableOptions)",
            "ok": true,
            "traces": dataset.command().len(),
            "seconds": elapsed,
        }),
        Err(e) => json!({
            "call": "CampaignBuilder::new(42).build_resumable (scale 1.0, default DurableOptions)",
            "ok": false,
            "error": e.to_string(),
            "seconds": elapsed,
        }),
    }
}
