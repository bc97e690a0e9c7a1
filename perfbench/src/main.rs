//! End-to-end and per-layer benchmark of the deployable SAAD stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hbase-wire --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints one configuration record line, then, as the last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A run
//! that fails its correctness gate prints `"correct": false` and exits 2.
//! See `perfbench/README.md` for the workloads and every metric.

mod capture;
mod measure;
mod procfs;
mod stack;
mod trace;

use capture::Capture;
use measure::{percentile, sorted_ms, LagMatcher};
use procfs::Role;
use stack::{Stack, StackShape};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Synopses per batch, as the end-to-end suites send them.
const BATCH: usize = 48;
/// Batches the closed loop keeps outstanding (sent, not yet taken by the
/// pool's shards): enough to keep every stage busy and to make lag mostly
/// queueing behind the window rather than single scheduler hiccups, few
/// enough that no queue on the way fills (the agent holds 1024 batches,
/// the pool's input channel [`stack::POOL_QUEUE`]).
const WINDOW: usize = 256;
/// Stack constructions per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Time slices of the measured phase; CPU per synopsis is the median over
/// slices.
const SLICES: usize = 10;
/// Lag percentiles are medians over up to this many consecutive runs of
/// batches of each run's percentile, every run at least
/// [`LAG_SLICE_MIN`] batches long so that its p99 has ten samples beyond
/// it.
const LAG_SLICES: usize = 40;
const LAG_SLICE_MIN: usize = 1_100;
/// Sleep between polls of `processed()` while the generator waits for
/// the window to open: short sleeps rather than a spin, which on a
/// two-core box would steal a core from the stack. It bounds the lag
/// poll resolution.
const POLL_SLEEP: Duration = Duration::from_micros(20);
/// How long the pool may take to catch up once the generator stops.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// End-to-end metrics, printed with `--trace 0`: name, unit.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_sps", "1/s"),
    ("ingest_lag_p50_ms", "ms"),
    ("ingest_lag_p99_ms", "ms"),
    ("cpu_ns_per_synopsis", "ns"),
    ("mem_peak_mb", "MB"),
    ("recall", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1`: name, unit.
const PER_LAYER: [(&str, &str); 38] = [
    ("agent.cpu_ns", "ns/synopsis"),
    ("agent.runq_ns", "ns/synopsis"),
    ("agent.frames", "count"),
    ("agent.send_block_ms", "ms"),
    ("codec.encode_ns", "ns/synopsis"),
    ("reactor.cpu_ns", "ns/synopsis"),
    ("reactor.runq_ns", "ns/synopsis"),
    ("collector.frames", "count"),
    ("collector.lost", "count"),
    ("collector.duplicates", "count"),
    ("collector.corrupted", "count"),
    ("reactor.frames_per_poll", "ratio"),
    ("reactor.spurious_poll_ratio", "ratio"),
    ("transport.parse_ns", "ns/synopsis"),
    ("codec.decode_ns", "ns/synopsis"),
    ("router.cpu_ns", "ns/synopsis"),
    ("router.runq_ns", "ns/synopsis"),
    ("pool.backlog_max", "batches"),
    ("intern.ns", "ns/synopsis"),
    ("adapt.sketch_ns", "ns/synopsis"),
    ("detector.cpu_ns", "ns/synopsis"),
    ("detector.runq_ns", "ns/synopsis"),
    ("detector.events", "count"),
    ("model.classify_ns", "ns/synopsis"),
    ("detector.observe_ns", "ns/synopsis"),
    ("store.cpu_ns", "ns/synopsis"),
    ("store.runq_ns", "ns/synopsis"),
    ("lifecycle.checkpoints", "count"),
    ("lifecycle.drift_swaps", "count"),
    ("lifecycle.adapt_windows", "count"),
    ("store.write_ms_p50", "ms"),
    ("store.write_ms_p99", "ms"),
    ("model.retrain_ms", "ms"),
    ("store.save_ms", "ms"),
    ("store.recover_ms", "ms"),
    ("store.bytes", "bytes"),
    ("trace.coverage", "ratio"),
    ("cpu.total_ns", "ns/synopsis"),
];

/// A workload: which capture through which stack. Every workload is a
/// closed loop of [`WINDOW`] outstanding batches.
#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    shape: StackShape,
    capture: fn(u64) -> Capture,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "hbase-wire",
        shape: StackShape {
            wire: true,
            workers: 1,
        },
        capture: capture::hbase_severe_hog,
    },
    Workload {
        name: "hbase-direct",
        shape: StackShape {
            wire: false,
            workers: 1,
        },
        capture: capture::hbase_severe_hog,
    },
    Workload {
        name: "relay-wire",
        shape: StackShape {
            wire: true,
            workers: 2,
        },
        capture: capture::relay_correlated_hog,
    },
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("malformed arguments: {argv:?}")),
        }
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?;
    let workload = *WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("--{k}: {e}"));
    let seconds = num("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds,
        trace,
    })
}

/// Working directory inside the checkout, removed however the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<WorkDir, String> {
        let dir = std::env::current_dir()
            .map_err(|e| format!("cwd: {e}"))?
            .join(".bench_tmp")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Build a stack and have it carry the stream's first batch end to end:
/// the wire shape's agent connects and handshakes on its first batch, so
/// a stack is set up once that batch has been processed.
fn set_up(shape: StackShape, dir: &Path, capture: &Capture) -> Result<Stack, String> {
    let first = capture.batch(0, BATCH);
    let stack = Stack::build(shape, dir)?;
    stack.send(first)?;
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while stack.processed() < BATCH as u64 {
        if Instant::now() > deadline {
            return Err("stack never carried its first batch".into());
        }
        std::thread::yield_now();
    }
    Ok(stack)
}

/// What the generator saw while driving the stack.
#[derive(Default)]
struct Drive {
    /// Synopses sent, the set-up batch included.
    sent: u64,
    /// Synopses sent in the measured phase.
    measured: u64,
    /// First measured send until `processed()` covered every synopsis.
    elapsed: Duration,
    drained: bool,
    matcher: LagMatcher,
    /// `(time ns, SAAD thread CPU ns, processed)` at the start, at every
    /// slice boundary and after the last send.
    snapshots: Vec<(u64, u64, u64)>,
    /// Per-role CPU over the whole measured phase, drain included.
    cpu: HashMap<Role, procfs::CpuTimes>,
    send_block_ns: u64,
    backlog_max: usize,
}

fn cpu_total(snapshot: &HashMap<u64, (Role, procfs::CpuTimes)>) -> u64 {
    snapshot.values().map(|(_, t)| t.run_ns).sum()
}

/// Drive the stack from batch 1 on (batch 0 carried the set-up) in a
/// closed loop of [`WINDOW`] outstanding batches for `seconds`, then wait
/// until the pool has caught up.
fn drive(stack: &mut Stack, capture: &Capture, seconds: u64) -> Result<Drive, String> {
    let mut d = Drive {
        sent: BATCH as u64,
        ..Drive::default()
    };
    let span_ns = seconds * 1_000_000_000;
    let slice_ns = span_ns / SLICES as u64;
    let snap = || procfs::snapshot().map_err(|e| format!("schedstat: {e}"));
    let cpu_start = snap()?;
    let t0 = Instant::now();
    let ns = |t: Instant| t.duration_since(t0).as_nanos() as u64;
    d.snapshots
        .push((0, cpu_total(&cpu_start), stack.processed()));
    let mut i = 1u64;
    while ns(Instant::now()) < span_ns {
        // The next batch goes out once the pool has taken an earlier one.
        loop {
            let processed = stack.processed();
            d.matcher.observe(ns(Instant::now()), processed);
            if d.sent - processed < (WINDOW * BATCH) as u64 {
                break;
            }
            std::thread::sleep(POLL_SLEEP);
        }
        let batch = capture.batch(i, BATCH);
        let call = Instant::now();
        stack.send(batch)?;
        let done = Instant::now();
        if stack.is_wire() {
            d.send_block_ns += (done - call).as_nanos() as u64;
        }
        d.sent += BATCH as u64;
        d.measured += BATCH as u64;
        i += 1;
        d.matcher.sent(ns(call), d.sent);
        d.backlog_max = d.backlog_max.max(stack.backlog());
        stack.collect_events();
        if d.snapshots.len() < SLICES && ns(done) >= d.snapshots.len() as u64 * slice_ns {
            let cpu = cpu_total(&snap()?);
            d.snapshots
                .push((ns(Instant::now()), cpu, stack.processed()));
        }
    }
    let cpu = cpu_total(&snap()?);
    d.snapshots
        .push((ns(Instant::now()), cpu, stack.processed()));
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    loop {
        let processed = stack.processed();
        let now = Instant::now();
        d.matcher.observe(ns(now), processed);
        if processed >= d.sent {
            d.elapsed = now - t0;
            d.drained = true;
            break;
        }
        if now > deadline {
            d.elapsed = now - t0;
            break;
        }
        std::thread::sleep(POLL_SLEEP);
    }
    d.cpu = procfs::delta_by_role(&cpu_start, &snap()?);
    Ok(d)
}

/// Minimal JSON rendering of the values this benchmark prints.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_obj(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    let w = args.workload;
    let workdir = WorkDir::new()?;

    let t = Instant::now();
    let capture = (w.capture)(args.seed);
    let capture_s = t.elapsed().as_secs_f64();

    // Memory is counted from here: the capture is the benchmark's, every
    // later allocation until the end of the measured phase is the stack's.
    let peak_reset = procfs::reset_peak_rss().is_ok();
    let rss_start = procfs::status_bytes("VmRSS").map_err(|e| e.to_string())?;
    let t = Instant::now();
    let mut stack = set_up(w.shape, &workdir.path("run"), &capture)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];

    let d = drive(&mut stack, &capture, args.seconds)?;
    let hwm = procfs::status_bytes("VmHWM").map_err(|e| e.to_string())?;
    let expo = stack.render_metrics();
    let processed = stack.processed();
    let pool = stack.pool();
    let (checkpoints, drift_swaps, adapt_windows) = (
        pool.checkpoints_written(),
        pool.drift_swaps(),
        pool.adapt_windows(),
    );
    let finished = stack.finish()?;

    // The oracle: the same stream through the same pool shape, in process.
    let t = Instant::now();
    let oracle = if w.shape.wire {
        let sent = d.sent;
        Some(stack::oracle_events(
            w.shape.workers,
            &workdir.path("oracle"),
            (0..sent / BATCH as u64).map(|i| capture.batch(i, BATCH)),
        )?)
    } else {
        None
    };
    let oracle_s = t.elapsed().as_secs_f64();

    // More set-ups for a steady `setup_s`, after the measured phase so
    // that none of their memory counts as the measured stack's.
    for rep in 1..SETUP_REPS {
        let t = Instant::now();
        let stack = set_up(w.shape, &workdir.path(&format!("setup-{rep}")), &capture)?;
        setup_s.push(t.elapsed().as_secs_f64());
        stack.finish()?;
    }

    // ---- end-to-end figures ------------------------------------------
    let cpu = &d.cpu;
    let measured = d.measured.max(1) as f64;
    let cpu_whole: u64 = cpu.values().map(|t| t.run_ns).sum();
    let slices = |f: fn(&(u64, u64, u64)) -> (u64, u64)| -> Vec<(u64, u64)> {
        d.snapshots.iter().map(f).collect()
    };
    let cpu_sliced = measure::sliced_rate(&slices(|&(_, cpu, done)| (cpu, done)));
    let throughput_sliced =
        measure::sliced_rate(&slices(|&(t, _, done)| (done, t))).map(|per_ns| per_ns * 1e9);
    let throughput_whole = d.measured as f64 / d.elapsed.as_secs_f64();
    let lags = sorted_ms(d.matcher.lags_ns());
    let lag_p99_whole = percentile(&lags, 99.0);
    let lag_slices = (lags.len() / LAG_SLICE_MIN).clamp(1, LAG_SLICES);
    let lag_p50 = measure::sliced_percentile(d.matcher.lags_ns(), lag_slices, 50.0);
    let lag_p99 = measure::sliced_percentile(d.matcher.lags_ns(), lag_slices, 99.0);
    let resolution = sorted_ms(d.matcher.resolution_ns());
    let window = saad_core::detector::DetectorConfig::default().window;
    let quality = capture::score(&finished.events, &capture, window, d.sent / capture.len());
    let loss_ratio = (d.sent - processed.min(d.sent)) as f64 / d.sent.max(1) as f64;
    let event_mismatch = oracle.as_ref().map(|o| {
        let keys = |events: &[stack::EventRecord]| events.iter().map(|e| e.key).collect::<Vec<_>>();
        measure::multiset_diff(&keys(&finished.events), &keys(o))
    });
    let setup_median = measure::median(&setup_s).unwrap_or(0.0);
    let mem_growth_mb = hwm.saturating_sub(rss_start) as f64 / (1024.0 * 1024.0);

    // ---- correctness gate ----------------------------------------------
    let mut violations: Vec<String> = Vec::new();
    if !d.drained {
        violations.push(format!("pool stalled at {processed} of {}", d.sent));
    }
    if loss_ratio != 0.0 {
        violations.push(format!("loss_ratio {loss_ratio}"));
    }
    if let Some(c) = &finished.collector {
        if c.lost_synopses + c.duplicate_frames + c.corrupted_frames != 0 {
            violations.push(format!(
                "collector lost {} duplicates {} corrupted {}",
                c.lost_synopses, c.duplicate_frames, c.corrupted_frames
            ));
        }
    }
    if let Some(a) = &finished.agent {
        if a.synopses_written != d.sent {
            violations.push(format!(
                "agent wrote {} of {} synopses",
                a.synopses_written, d.sent
            ));
        }
    }
    if let Some(m) = event_mismatch.filter(|&m| m != 0) {
        violations.push(format!("event multiset differs from the oracle by {m}"));
    }
    if finished.pool_faults != 0 {
        violations.push(format!("pool restarts/skips {}", finished.pool_faults));
    }
    if lag_p99.is_none() {
        violations.push(format!(
            "{} lag samples in {lag_slices} slices cannot support a p99 per slice",
            lags.len()
        ));
    }
    if cpu_sliced.is_none() || throughput_sliced.is_none() {
        violations.push("no synopsis processed in any time slice".into());
    }
    if quality.is_none() {
        violations.push("no complete segment to score".into());
    }
    let correct = violations.is_empty();

    // ---- per-layer figures ---------------------------------------------
    let spans_out = Path::new(".bench_out").join(format!("spans-{}-seed{}.tsv", w.name, args.seed));
    let traced = if args.trace {
        let store = workdir.path("trace-store");
        Some(trace::run(&capture, BATCH, &store, &spans_out)?)
    } else {
        None
    };
    let metrics: Vec<(&str, &str, f64)> = if let Some(report) = &traced {
        let role = |r: Role| cpu.get(&r).copied().unwrap_or_default();
        let per = |ns: u64| ns as f64 / measured;
        let polls = measure::series_sum(&expo, "saad_reactor_polls_total");
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let write_ms = |q| {
            measure::histogram_quantile(&expo, "saad_checkpoint_write_latency_us", q)
                .map_or(0.0, |(us, _)| us / 1e3)
        };
        let collector = finished.collector.unwrap_or_default();
        let checkpoint_every = stack::lifecycle_config().checkpoint_every.max(1) as f64;
        let wire_ns = if w.shape.wire {
            report.encode_ns + report.parse_ns
        } else {
            0.0
        };
        let traced_ns = wire_ns
            + report.intern_ns
            + report.sketch_ns
            + report.observe_ns
            + report.save_ms * 1e6 / checkpoint_every;
        let values: HashMap<&str, f64> = HashMap::from([
            ("agent.cpu_ns", per(role(Role::Agent).run_ns)),
            ("agent.runq_ns", per(role(Role::Agent).wait_ns)),
            (
                "agent.frames",
                finished.agent.as_ref().map_or(0, |a| a.frames_written) as f64,
            ),
            ("agent.send_block_ms", d.send_block_ns as f64 / 1e6),
            ("codec.encode_ns", report.encode_ns),
            ("reactor.cpu_ns", per(role(Role::Reactor).run_ns)),
            ("reactor.runq_ns", per(role(Role::Reactor).wait_ns)),
            ("collector.frames", collector.frames as f64),
            ("collector.lost", collector.lost_synopses as f64),
            ("collector.duplicates", collector.duplicate_frames as f64),
            ("collector.corrupted", collector.corrupted_frames as f64),
            (
                "reactor.frames_per_poll",
                ratio(
                    measure::series_sum(&expo, "saad_reactor_frames_total"),
                    polls,
                ),
            ),
            (
                "reactor.spurious_poll_ratio",
                ratio(
                    measure::series_sum(&expo, "saad_reactor_spurious_polls_total"),
                    polls,
                ),
            ),
            ("transport.parse_ns", report.parse_ns),
            ("codec.decode_ns", report.decode_ns),
            ("router.cpu_ns", per(role(Role::Router).run_ns)),
            ("router.runq_ns", per(role(Role::Router).wait_ns)),
            ("pool.backlog_max", d.backlog_max as f64),
            ("intern.ns", report.intern_ns),
            ("adapt.sketch_ns", report.sketch_ns),
            ("detector.cpu_ns", per(role(Role::Detector).run_ns)),
            ("detector.runq_ns", per(role(Role::Detector).wait_ns)),
            ("detector.events", finished.events.len() as f64),
            ("model.classify_ns", report.classify_ns),
            ("detector.observe_ns", report.observe_ns),
            ("store.cpu_ns", per(role(Role::Store).run_ns)),
            ("store.runq_ns", per(role(Role::Store).wait_ns)),
            ("lifecycle.checkpoints", checkpoints as f64),
            ("lifecycle.drift_swaps", drift_swaps as f64),
            ("lifecycle.adapt_windows", adapt_windows as f64),
            ("store.write_ms_p50", write_ms(0.5)),
            ("store.write_ms_p99", write_ms(0.99)),
            ("model.retrain_ms", report.retrain_ms),
            ("store.save_ms", report.save_ms),
            ("store.recover_ms", report.recover_ms),
            ("store.bytes", report.store_bytes as f64),
            ("trace.coverage", traced_ns / per(cpu_whole)),
            ("cpu.total_ns", per(cpu_whole)),
        ]);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, values[name]))
            .collect()
    } else {
        let values: HashMap<&str, f64> = HashMap::from([
            ("setup_s", setup_median),
            ("throughput_sps", throughput_sliced.unwrap_or(0.0)),
            ("ingest_lag_p50_ms", lag_p50.unwrap_or(0.0)),
            ("ingest_lag_p99_ms", lag_p99.unwrap_or(0.0)),
            ("cpu_ns_per_synopsis", cpu_sliced.unwrap_or(0.0)),
            ("mem_peak_mb", mem_growth_mb),
            ("recall", quality.map_or(0.0, |q| q.recall)),
        ]);
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, unit, values[name]))
            .collect()
    };

    // ---- configuration record and result -------------------------------
    let lifecycle = stack::lifecycle_config();
    let reactor = saad_net::ReactorCollectorConfig::default();
    let agent = saad_net::AgentConfig::default();
    let q = |v: Option<f64>| json_num(v.unwrap_or(f64::NAN));
    let s = |v: &str| json_str(v);
    let record = json_obj(&[
        ("workload".into(), s(w.name)),
        ("seed".into(), args.seed.to_string()),
        (
            "env".into(),
            json_obj(&[
                (
                    "nproc".into(),
                    std::thread::available_parallelism()
                        .map_or(0, |n| n.get())
                        .to_string(),
                ),
                (
                    "kernel".into(),
                    s(std::fs::read_to_string("/proc/sys/kernel/osrelease")
                        .unwrap_or_default()
                        .trim()),
                ),
                ("rustc".into(), s(&command_line("rustc", &["--version"]))),
                (
                    "commit".into(),
                    s(&command_line(
                        "git",
                        &["--git-dir=.git", "rev-parse", "HEAD"],
                    )),
                ),
            ]),
        ),
        (
            "config".into(),
            json_obj(&[
                ("batch".into(), BATCH.to_string()),
                (
                    "loop".into(),
                    s(&format!("closed, {WINDOW} batches outstanding")),
                ),
                ("wire".into(), w.shape.wire.to_string()),
                ("workers".into(), w.shape.workers.to_string()),
                (
                    "reactor_loops".into(),
                    if w.shape.wire { reactor.loops } else { 0 }.to_string(),
                ),
                (
                    "agent".into(),
                    s(&format!("capacity {} {:?}", agent.capacity, agent.policy)),
                ),
                ("pool_queue".into(), stack::POOL_QUEUE.to_string()),
                (
                    "checkpoint_every".into(),
                    lifecycle.checkpoint_every.to_string(),
                ),
                ("promote_after".into(), lifecycle.promote_after.to_string()),
                ("adapt".into(), s(&format!("{:?}", lifecycle.adapt))),
                ("setup_reps".into(), SETUP_REPS.to_string()),
            ]),
        ),
        (
            "run".into(),
            json_obj(&[
                ("capture_synopses".into(), capture.len().to_string()),
                ("capture_s".into(), json_num(capture_s)),
                ("oracle_s".into(), json_num(oracle_s)),
                ("sent".into(), d.sent.to_string()),
                ("processed".into(), processed.to_string()),
                ("measured_s".into(), json_num(d.elapsed.as_secs_f64())),
                (
                    "segments_scored".into(),
                    quality.map_or(0, |q| q.segments).to_string(),
                ),
                ("precision".into(), q(quality.map(|q| q.precision))),
                ("events".into(), finished.events.len().to_string()),
                (
                    "oracle_events".into(),
                    oracle
                        .as_ref()
                        .map_or("null".into(), |o| o.len().to_string()),
                ),
                ("loss_ratio".into(), json_num(loss_ratio)),
                (
                    "event_mismatch".into(),
                    event_mismatch.map_or("null".into(), |m| m.to_string()),
                ),
                ("lag_samples".into(), lags.len().to_string()),
                ("lag_slices".into(), lag_slices.to_string()),
                ("lag_p50_whole_run_ms".into(), q(percentile(&lags, 50.0))),
                ("lag_p99_whole_run_ms".into(), q(lag_p99_whole)),
                (
                    "cpu_ns_per_synopsis_whole_run".into(),
                    json_num(cpu_whole as f64 / measured),
                ),
                (
                    "throughput_sps_whole_run".into(),
                    json_num(throughput_whole),
                ),
                (
                    "lag_poll_resolution_p50_ms".into(),
                    q(measure::median(&resolution)),
                ),
                (
                    "lag_poll_resolution_p99_ms".into(),
                    q(percentile(&resolution, 99.0)),
                ),
                ("mem_peak_reset".into(), peak_reset.to_string()),
                (
                    "mem_hwm_mb".into(),
                    json_num(hwm as f64 / (1024.0 * 1024.0)),
                ),
                ("setup_samples".into(), setup_s.len().to_string()),
                (
                    "trace".into(),
                    match &traced {
                        Some(r) => json_obj(&[
                            ("synopses".into(), r.synopses.to_string()),
                            ("spans".into(), r.spans.to_string()),
                            ("spans_file".into(), s(&spans_out.display().to_string())),
                        ]),
                        None => "null".into(),
                    },
                ),
                (
                    "violations".into(),
                    format!(
                        "[{}]",
                        violations
                            .iter()
                            .map(|v| s(v))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                ),
            ]),
        ),
    ]);
    println!("{}", json_obj(&[("record".into(), record)]));

    let metric_fields: Vec<(String, String)> = metrics
        .iter()
        .map(|&(name, unit, value)| {
            (
                name.to_string(),
                json_obj(&[("value".into(), json_num(value)), ("unit".into(), s(unit))]),
            )
        })
        .collect();
    println!(
        "{}",
        json_obj(&[
            ("correct".into(), correct.to_string()),
            ("attempted".into(), d.sent.max(1).to_string()),
            (
                "failed".into(),
                (d.sent - processed.min(d.sent)).to_string()
            ),
            ("metrics".into(), json_obj(&metric_fields)),
        ])
    );
    Ok(if correct { 0 } else { 2 })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metrics this program prints are the ones `BENCHMARK.json`
    /// declares, with the same units, and every workload it names exists.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let declared = |name: &str, unit: &str| {
            json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(declared(name, unit), "{name} ({unit}) not declared");
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
        for w in WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\"", w.name)));
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(0.5), "0.5");
    }
}
