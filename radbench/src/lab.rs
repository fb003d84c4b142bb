//! `lab_pipelined` and `lab_durable`: two client threads replay the
//! supervised campaign script against an in-process `LabService` over
//! loopback TCP, one fresh tenant per pass.
//!
//! - `lab_pipelined`: no `data_dir`; the commands up to each run
//!   boundary go out in one `issue_pipelined` call at depth 32, the cut
//!   `RemoteCampaign`'s pipelined drive makes.
//! - `lab_durable`: `data_dir` set, so every row flows through the
//!   per-tenant WAL sink; lock-step, one command per `issue_pipelined`
//!   call. After the drain every tenant store is reopened.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rad_core::{Command, RadError};
use rad_middlebox::rpc::{RetryPolicy, Transport};
use rad_middlebox::server::{DrainReport, LabService, ServerConfig, ServerHandle, SocketTransport};
use rad_middlebox::WireCodecKind;
use rad_store::{DurableOptions, DurableStore, Filter};
use rad_workloads::remote::{CampaignScript, PipelineError, RemoteSession, ScriptStep};
use serde_json::json;

use crate::env::dir_bytes;
use crate::spans::SpanLog;
use crate::{measure, Args, Report, Roots};

/// Client threads, each on its own connection.
const CLIENTS: usize = 2;

/// Extra set-ups timed per run, beyond the one each round makes.
const SETUP_REPEATS: usize = 10;

/// Times `lab_pipelined` reconnects every tenant of a round to read its
/// resume cursor; `recover_s` is the mean sweep. A reconnect waits out
/// part of the accept loop's polling sleep, so one sweep alone is noisy.
const RESUME_SWEEPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Pipelined,
    Durable,
}

impl Mode {
    /// Requests in flight inside one `issue_pipelined` call.
    fn depth(self) -> usize {
        match self {
            Mode::Pipelined => 32,
            Mode::Durable => 1,
        }
    }

    /// Commands handed to one `issue_pipelined` call: everything up to
    /// the next run boundary (as `RemoteCampaign`'s pipelined drive
    /// does), or one command in lock-step.
    fn per_call(self, pending: usize) -> usize {
        match self {
            Mode::Pipelined => pending.max(1),
            Mode::Durable => 1,
        }
    }

    /// Script passes each client replays per round.
    fn passes(self) -> usize {
        match self {
            Mode::Pipelined => 3,
            Mode::Durable => 1,
        }
    }
}

/// Client-side wire counters, shared by every connection of a round.
#[derive(Debug, Default)]
struct WireCounts {
    sends: AtomicU64,
    bytes: AtomicU64,
}

/// A [`Transport`] that counts what the client sends.
struct Counting<T> {
    inner: T,
    counts: Arc<WireCounts>,
}

impl<T: Transport> Transport for Counting<T> {
    fn send(&self, chunk: Bytes) -> Result<(), RadError> {
        self.counts.sends.fetch_add(1, Ordering::Relaxed);
        self.counts
            .bytes
            .fetch_add(chunk.len() as u64, Ordering::Relaxed);
        self.inner.send(chunk)
    }

    fn recv(&self, timeout: Duration) -> Result<Bytes, RadError> {
        self.inner.recv(timeout)
    }

    fn recv_blocking(&self) -> Option<Bytes> {
        self.inner.recv_blocking()
    }
}

type Session = RemoteSession<Counting<SocketTransport>>;

fn connect(addr: &str, tenant: &str, counts: &Arc<WireCounts>) -> Result<Session, RadError> {
    let transport = Counting {
        inner: SocketTransport::connect_tcp(addr)?,
        counts: Arc::clone(counts),
    };
    RemoteSession::connect_with(
        transport,
        tenant,
        RetryPolicy::default(),
        WireCodecKind::Binary,
    )
}

/// What one client thread did in a round.
#[derive(Default)]
struct ClientOut {
    /// (tenant, commands acknowledged) per completed pass.
    tenants: Vec<(String, u64)>,
    executed: u64,
    attempted: u64,
    calls: u64,
    call_us: Vec<f64>,
    errors: Vec<String>,
}

/// Everything a client thread needs.
struct ClientCtx<'a> {
    mode: Mode,
    addr: &'a str,
    script: &'a CampaignScript,
    round: usize,
    client: usize,
    parent: u64,
    counts: &'a Arc<WireCounts>,
}

fn client(ctx: &ClientCtx<'_>, mut log: SpanLog) -> (ClientOut, SpanLog) {
    let mut out = ClientOut::default();
    let request_base = ((ctx.round as u64) << 16) | ((ctx.client as u64) << 8);
    let client_span = log.open("bench.client", ctx.parent, request_base);
    for pass in 0..ctx.mode.passes() {
        let tenant = format!("r{}-c{}-p{}", ctx.round, ctx.client, pass);
        let request = request_base | pass as u64;
        match drive_pass(ctx, &tenant, &mut log, client_span.id, request, &mut out) {
            Ok(acked) => out.tenants.push((tenant, acked)),
            Err(e) => out.errors.push(format!("{tenant}: {e}")),
        }
    }
    log.close(client_span);
    (out, log)
}

/// One replay of the script under a fresh tenant. Returns the
/// tenant's acknowledged issue count (from `Bye`).
fn drive_pass(
    ctx: &ClientCtx<'_>,
    tenant: &str,
    log: &mut SpanLog,
    parent: u64,
    request: u64,
    out: &mut ClientOut,
) -> Result<u64, String> {
    let (session, _) = log.call("remote.connect", parent, request, || {
        connect(ctx.addr, tenant, ctx.counts)
    });
    let mut pass = Pass {
        mode: ctx.mode,
        session: session.map_err(|e| format!("connect: {e}"))?,
        log,
        parent,
        request,
        out,
        executed: 0,
    };
    let mut batch: Vec<&Command> = Vec::new();
    for step in ctx.script.steps() {
        match step {
            ScriptStep::Command(command) => batch.push(command),
            ScriptStep::Begin {
                run,
                procedure,
                label,
            } => {
                pass.flush(&mut batch)?;
                pass.run_mark(|s| s.begin_run(*run, *procedure, *label))?;
            }
            ScriptStep::End => {
                pass.flush(&mut batch)?;
                pass.run_mark(Session::end_run)?;
            }
        }
    }
    pass.flush(&mut batch)?;
    let Pass {
        session,
        log,
        executed,
        ..
    } = pass;
    let (acked, _) = log.call("remote.bye", parent, request, || session.bye());
    let acked = acked.map_err(|e| format!("bye: {e}"))?;
    if acked != executed {
        return Err(format!(
            "bye acknowledged {acked} issues, client executed {executed}"
        ));
    }
    Ok(acked)
}

/// A pass in progress: the session and where its calls are recorded.
struct Pass<'a> {
    mode: Mode,
    session: Session,
    log: &'a mut SpanLog,
    parent: u64,
    request: u64,
    out: &'a mut ClientOut,
    executed: u64,
}

impl Pass<'_> {
    /// Issues the pending commands; each `issue_pipelined` call is one
    /// timed blocking call.
    fn flush(&mut self, batch: &mut Vec<&Command>) -> Result<(), String> {
        let depth = self.mode.depth();
        for window in batch.chunks(self.mode.per_call(batch.len())) {
            self.out.attempted += window.len() as u64;
            self.out.calls += 1;
            let session = &mut self.session;
            let (result, took) = self
                .log
                .call("remote.issue", self.parent, self.request, || {
                    session.issue_pipelined(window, depth)
                });
            self.out.call_us.push(took.as_secs_f64() * 1e6);
            let done = match &result {
                Ok(results) => results.len(),
                Err(PipelineError { completed, .. }) => completed.len(),
            } as u64;
            self.executed += done;
            self.out.executed += done;
            if let Err(PipelineError { error, .. }) = result {
                return Err(format!("issue_pipelined: {error}"));
            }
        }
        batch.clear();
        Ok(())
    }

    /// Opens or closes a labelled run (one timed call).
    fn run_mark(
        &mut self,
        mark: impl FnOnce(&mut Session) -> Result<(), RadError>,
    ) -> Result<(), String> {
        let session = &mut self.session;
        let (result, _) = self
            .log
            .call("remote.run_mark", self.parent, self.request, || {
                mark(session)
            });
        result.map_err(|e| format!("run boundary: {e}"))
    }
}

pub fn run(args: &Args, scratch: &Path, mode: Mode) -> Result<Report, String> {
    let epoch = Instant::now();
    let mut report = measure(args, |index, traced, report| {
        round(args, scratch, mode, index, traced, epoch, report)
    })?;
    // More set-up samples than rounds: set up, then drain the idle
    // server untimed.
    for _ in 0..SETUP_REPEATS {
        let mut log = SpanLog::new(false, epoch);
        let dir = scratch.join("setup");
        let started = Instant::now();
        let lab = setup(args, mode, &dir, &mut log, 0, 0)?;
        report.setup_s.push(started.elapsed().as_secs_f64());
        lab.handle
            .drain()
            .map_err(|e| format!("drain after set-up: {e}"))?;
        let _ = std::fs::remove_dir_all(&dir);
    }
    let call = match mode {
        Mode::Pipelined => {
            "one issue_pipelined call: the commands up to the next run boundary, 32 in flight"
        }
        Mode::Durable => "one command (issue_pipelined at depth 1)",
    };
    let calls = report.call_us.len();
    report.info.insert(
        "samples".into(),
        json!({
            "rounds": report.units,
            "untraced_rounds": report.wall_s.len(),
            "setups": report.setup_s.len(),
            "wall_s": report.wall_s.clone(),
            "recover_s": report.recover_s.clone(),
            "calls": calls,
            "call": call,
            "clients": CLIENTS,
            "passes_per_client": mode.passes(),
        }),
    );
    Ok(report)
}

/// A bound server and the script its clients replay.
struct Lab {
    script: CampaignScript,
    handle: ServerHandle,
    addr: String,
    queue_bound: u64,
}

/// Set-up: synthesize the script, prepare the store directory, bind
/// the server.
fn setup(
    args: &Args,
    mode: Mode,
    data_dir: &Path,
    log: &mut SpanLog,
    parent: u64,
    request: u64,
) -> Result<Lab, String> {
    let (script, _) = log.call("script.synth", parent, request, || {
        CampaignScript::supervised(args.seed)
    });
    let _ = std::fs::remove_dir_all(data_dir);
    let config = ServerConfig {
        max_sessions: CLIENTS,
        seed: args.seed,
        data_dir: (mode == Mode::Durable).then(|| data_dir.to_path_buf()),
        ..ServerConfig::default()
    };
    let queue_bound = config.queue_bound_rows();
    let (handle, _) = log.call("server.start", parent, request, || {
        LabService::new(config).serve_tcp("127.0.0.1:0")
    });
    let handle = handle.map_err(|e| format!("serve_tcp: {e}"))?;
    let addr = handle
        .local_addr()
        .ok_or("server has no TCP address")?
        .to_string();
    Ok(Lab {
        script,
        handle,
        addr,
        queue_bound,
    })
}

/// One unit of work: set-up, the measured passes, then resume cursors
/// or reopened stores, the drain and the checks. Returns whether every
/// pass completed.
fn round(
    args: &Args,
    scratch: &Path,
    mode: Mode,
    round: usize,
    traced: bool,
    epoch: Instant,
    report: &mut Report,
) -> Result<bool, String> {
    let mut log = SpanLog::new(traced, epoch);
    let request = (round as u64) << 16;
    let data_dir = scratch.join(format!("round-{round}"));

    let setup_span = log.open("bench.setup", 0, request);
    let Lab {
        script,
        handle,
        addr,
        queue_bound,
    } = setup(args, mode, &data_dir, &mut log, setup_span.id, request)?;
    report.setup_s.push(log.close(setup_span).as_secs_f64());
    let script_commands = script.command_count() as u64;
    let passes = CLIENTS * mode.passes();
    report.rows_per_unit = (passes as u64 * script_commands) as f64;

    // Measured phase: every client replays its passes.
    let counts = Arc::new(WireCounts::default());
    let wall_span = log.open("bench.round", 0, request);
    let outs: Vec<(ClientOut, SpanLog)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let ctx = ClientCtx {
                    mode,
                    addr: &addr,
                    script: &script,
                    round,
                    client: c,
                    parent: wall_span.id,
                    counts: &counts,
                };
                let client_log = log.fork();
                scope.spawn(move || client(&ctx, client_log))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall = log.close(wall_span).as_secs_f64();
    if traced {
        report.wall_traced_s.push(wall);
    } else {
        report.wall_s.push(wall);
        for (out, _) in &outs {
            report.call_us.extend_from_slice(&out.call_us);
        }
    }
    let mut tenants: Vec<(String, u64)> = Vec::new();
    let (mut executed, mut attempted, mut calls) = (0u64, 0u64, 0u64);
    for (out, client_log) in outs {
        log.absorb(client_log);
        for e in &out.errors {
            report.check(format!("pass completes ({e})"), false);
        }
        tenants.extend(out.tenants);
        executed += out.executed;
        attempted += out.attempted;
        calls += out.calls;
    }
    report.attempted += attempted;
    report.failed += attempted - executed;
    let complete = tenants.len() == passes;
    report.check(
        format!("round {round}: all {passes} passes complete"),
        complete,
    );

    let sends = counts.sends.load(Ordering::Relaxed) as f64;
    let bytes = counts.bytes.load(Ordering::Relaxed) as f64;

    // After the measured phase: resume cursors (pipelined), the drain,
    // and reopening the stores (durable).
    let after_span = log.open("bench.after", 0, request);
    let mut recover = 0.0;
    if mode == Mode::Pipelined {
        let mut cursors_ok = true;
        for _ in 0..RESUME_SWEEPS {
            for (tenant, acked) in &tenants {
                let (session, took) = log.call("remote.resume", after_span.id, request, || {
                    connect(&addr, tenant, &counts)
                });
                recover += took.as_secs_f64() / RESUME_SWEEPS as f64;
                match session {
                    Ok(s) => {
                        cursors_ok &= s.cursor() == *acked;
                        let _ = s.bye();
                    }
                    Err(_) => cursors_ok = false,
                }
            }
        }
        report.check(
            format!("round {round}: every tenant resumes at its acknowledged cursor"),
            cursors_ok,
        );
    }
    let (drained, _) = log.call("server.drain", after_span.id, request, || handle.drain());
    let drained = drained.map_err(|e| format!("drain: {e}"))?;
    if mode == Mode::Durable {
        recover = reopen_stores(
            report,
            &mut log,
            after_span.id,
            request,
            &data_dir,
            &tenants,
        );
    }
    log.close(after_span);
    report.recover_s.push(recover);

    account(
        report,
        round,
        &drained,
        &tenants,
        executed,
        script_commands,
        queue_bound,
    );
    report.count("remote.calls", calls as f64);
    report.count("wire.sends_per_issue", sends / executed.max(1) as f64);
    report.count("wire.bytes_per_issue", bytes / executed.max(1) as f64);
    if mode == Mode::Durable {
        let traces: u64 = tenants.iter().map(|(_, n)| n).sum();
        report.count(
            "durable.bytes_per_trace",
            dir_bytes(&data_dir) as f64 / traces.max(1) as f64,
        );
    }
    if traced {
        let roots = Roots {
            setup: setup_span.id,
            wall: wall_span.id,
            after: after_span.id,
        };
        report.absorb_trace(log.take(), roots, wall);
    }
    let _ = std::fs::remove_dir_all(&data_dir);
    Ok(complete)
}

/// Reopens every tenant store after the drain; returns the seconds
/// spent in `DurableStore::open`.
fn reopen_stores(
    report: &mut Report,
    log: &mut SpanLog,
    parent: u64,
    request: u64,
    data_dir: &Path,
    tenants: &[(String, u64)],
) -> f64 {
    let mut recover = 0.0;
    let (mut recovered, mut replayed, mut quarantined) = (0usize, 0usize, 0usize);
    let mut all_match = true;
    for (tenant, acked) in tenants {
        let (opened, took) = log.call("durable.open", parent, request, || {
            DurableStore::open(&data_dir.join(tenant), DurableOptions::default())
        });
        recover += took.as_secs_f64();
        match opened {
            Ok((store, recovery)) => {
                recovered += recovery.records_recovered;
                replayed += recovery.records_replayed;
                quarantined +=
                    recovery.quarantined.len() + usize::from(recovery.checkpoint_quarantined);
                let traces = store.count("traces", &Filter::all()) as u64;
                all_match &= traces == *acked;
            }
            Err(_) => all_match = false,
        }
    }
    report.check(
        "recovered traces equal acknowledged traces per tenant",
        all_match,
    );
    report.check("nothing quarantined on reopen", quarantined == 0);
    report.count("durable.records_recovered", recovered as f64);
    report.count("durable.records_replayed", replayed as f64);
    report.count("durable.quarantined", quarantined as f64);
    recover
}

/// Server-side accounting and the issue-count checks of one round.
fn account(
    report: &mut Report,
    round: usize,
    drained: &DrainReport,
    tenants: &[(String, u64)],
    executed: u64,
    script_commands: u64,
    queue_bound: u64,
) {
    let stats = &drained.stats;
    let flushed: u64 = drained.tenants.iter().map(|t| t.rows_flushed).sum();
    report.check(
        format!(
            "round {round}: server.issues {} == client executions {executed} == rows_flushed {flushed}",
            stats.issues
        ),
        stats.issues == executed && executed == flushed,
    );
    report.check(
        format!("round {round}: every tenant executed the {script_commands}-command script"),
        tenants.iter().all(|(_, n)| *n == script_commands)
            && drained.tenants.iter().all(|t| t.issues == script_commands),
    );
    report.count("server.issues", stats.issues as f64);
    report.count("server.dedup_hits", stats.dedup_hits as f64);
    report.count("server.expired", stats.expired as f64);
    report.count("server.rejected", stats.rejected as f64);
    report.count("server.quarantined", stats.quarantined as f64);
    report.count(
        "server.useful_ratio",
        stats.issues as f64 / (stats.issues + stats.dedup_hits).max(1) as f64,
    );
    let peak = drained
        .tenants
        .iter()
        .map(|t| t.peak_queued_rows)
        .max()
        .unwrap_or(0);
    report.count("drain.peak_queued_rows", peak as f64);
    report.count("drain.queue_bound_rows", queue_bound as f64);
}
