//! The traced pass: spans around the benchmark's own calls into each
//! layer's public functions, over the workload's own stream. It runs
//! after the measured stack run, never during it, so end-to-end figures
//! carry no tracing cost.

use crate::capture::Capture;
use crate::measure::median;
use bytes::Bytes;
use saad_core::codec::{decode_batch, encode_batch};
use saad_core::prelude::{
    AnomalyDetector, Checkpoint, CheckpointStore, DetectorConfig, ModelBuilder, ModelConfig,
    SignatureInterner, SynopsisBatch, VerdictMask,
};
use saad_core::transport::{parse_frame, FrameOutcome, FrameReceiver, FrameSender};
use saad_stats::sketch::{QuantileSketch, DEFAULT_ALPHA};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Batches the traced pass walks.
const TRACE_BATCHES: u64 = 2048;
/// Synopses a retrain trains on: the pool's default retrain window.
const RETRAIN_WINDOW: u64 = 16_384;
/// Repetitions of each whole-model operation (retrain, save, recover).
const MODEL_REPS: usize = 5;

/// One span: a timed call into a layer for one batch.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    batch: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Per-layer figures of the traced pass.
#[derive(Debug)]
pub struct TraceReport {
    /// `FrameSender::encode_frame`, ns per synopsis.
    pub encode_ns: f64,
    /// `parse_frame` + `FrameReceiver::admit`, ns per synopsis.
    pub parse_ns: f64,
    /// `decode_batch` alone (part of `parse_frame`), ns per synopsis.
    pub decode_ns: f64,
    /// `SynopsisBatch::push_synopsis`, ns per synopsis.
    pub intern_ns: f64,
    /// `QuantileSketch::record`, ns per synopsis.
    pub sketch_ns: f64,
    /// `CompiledModel::classify_batch` alone (part of `observe_batch`),
    /// ns per synopsis.
    pub classify_ns: f64,
    /// `AnomalyDetector::observe_batch`, ns per synopsis.
    pub observe_ns: f64,
    /// `ModelBuilder::build` + `compile` over the retrain window, ms.
    pub retrain_ms: f64,
    /// `CheckpointStore::save`, ms.
    pub save_ms: f64,
    /// `CheckpointStore::recover`, ms.
    pub recover_ms: f64,
    /// Encoded checkpoint size.
    pub store_bytes: u64,
    /// Synopses walked.
    pub synopses: u64,
    /// Spans recorded.
    pub spans: usize,
}

/// Walk the first [`TRACE_BATCHES`] batches of `capture`'s looped stream
/// through each layer's public functions, store checkpoints under
/// `store_dir`, and write every span to `spans_out` as tab-separated
/// `batch name start_ns end_ns` lines.
pub fn run(
    capture: &Capture,
    batch_size: usize,
    store_dir: &Path,
    spans_out: &Path,
) -> Result<TraceReport, String> {
    let origin = Instant::now();
    let at = || origin.elapsed().as_nanos() as u64;
    let mut spans: Vec<Span> = Vec::new();

    // Model: trained on the stream's first retrain window, as a bootstrap
    // promotion or drift retrain would be.
    let mut builder = ModelBuilder::new();
    for k in 0..RETRAIN_WINDOW {
        builder.observe(&capture.synopsis(k));
    }
    let interner = Arc::new(SignatureInterner::new());
    let mut retrain_ms = Vec::new();
    let mut trained = None;
    for _ in 0..MODEL_REPS {
        let t = Instant::now();
        let model = builder.build(ModelConfig::default());
        let compiled = model.compile(&interner);
        retrain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        trained = Some((Arc::new(model), Arc::new(compiled)));
    }
    let (model, compiled) = trained.expect("at least one repetition");
    let mut detector = AnomalyDetector::with_shared(
        model.clone(),
        compiled.clone(),
        interner.clone(),
        DetectorConfig::default(),
    );

    let mut sender = FrameSender::new(crate::stack::AGENT_HOST);
    let mut receiver = FrameReceiver::new();
    let mut sketch = QuantileSketch::new(DEFAULT_ALPHA);
    let mut soa = SynopsisBatch::with_capacity(batch_size);
    let (mut verdicts, mut observe_verdicts) = (VerdictMask::new(), VerdictMask::new());
    let mut synopses = 0u64;
    let timed = |spans: &mut Vec<Span>, name, batch, f: &mut dyn FnMut()| {
        let start_ns = at();
        f();
        spans.push(Span {
            name,
            batch,
            start_ns,
            end_ns: at(),
        });
    };
    for b in 0..TRACE_BATCHES {
        let batch = capture.batch(b, batch_size);
        synopses += batch.len() as u64;
        let payload: Bytes = encode_batch(&batch);

        let mut frame = Bytes::new();
        timed(&mut spans, "codec.encode", b, &mut || {
            frame = sender.encode_frame(&batch)
        });
        let mut outcome = None;
        timed(&mut spans, "transport.parse", b, &mut || {
            outcome = parse_frame(&frame).ok().map(|p| receiver.admit(p))
        });
        let Some(FrameOutcome::Fresh {
            synopses: decoded, ..
        }) = outcome
        else {
            return Err(format!("traced frame {b} did not parse as fresh"));
        };
        timed(&mut spans, "codec.decode", b, &mut || {
            black_box(decode_batch(&mut payload.clone()).map(|v| v.len()).ok());
        });
        timed(&mut spans, "intern", b, &mut || {
            soa.clear();
            for s in &decoded {
                soa.push_synopsis(s, &interner);
            }
        });
        timed(&mut spans, "adapt.sketch", b, &mut || {
            for &d in &soa.durations_us {
                sketch.record(d);
            }
        });
        timed(&mut spans, "model.classify", b, &mut || {
            compiled.classify_batch(&soa.stages, &soa.sigs, &soa.durations_us, &mut verdicts)
        });
        timed(&mut spans, "detector.observe", b, &mut || {
            black_box(detector.observe_batch(&soa, &mut observe_verdicts).len());
        });
    }
    black_box(&verdicts);

    // Store: checkpoint the traced detector's live state.
    let store = CheckpointStore::create(store_dir, 3).map_err(|e| format!("trace store: {e}"))?;
    let checkpoint = |generation| {
        Checkpoint::new(
            generation,
            model.clone(),
            compiled.clone(),
            interner.clone(),
            vec![detector.snapshot()],
        )
    };
    let store_bytes = checkpoint(0).encode().len() as u64;
    let (mut save_ms, mut recover_ms) = (Vec::new(), Vec::new());
    for generation in 0..MODEL_REPS as u64 {
        let cp = checkpoint(generation);
        let t = Instant::now();
        store.save(&cp).map_err(|e| format!("trace save: {e}"))?;
        save_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let recovered = store.recover().map_err(|e| format!("trace recover: {e}"))?;
        recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if recovered.checkpoint.map(|c| c.generation) != Some(generation) {
            return Err(format!("trace recover missed generation {generation}"));
        }
    }

    write_spans(&spans, spans_out).map_err(|e| format!("write spans: {e}"))?;
    let per_synopsis = |name: &str| {
        let total: u64 = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        total as f64 / synopses as f64
    };
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    Ok(TraceReport {
        encode_ns: per_synopsis("codec.encode"),
        parse_ns: per_synopsis("transport.parse"),
        decode_ns: per_synopsis("codec.decode"),
        intern_ns: per_synopsis("intern"),
        sketch_ns: per_synopsis("adapt.sketch"),
        classify_ns: per_synopsis("model.classify"),
        observe_ns: per_synopsis("detector.observe"),
        retrain_ms: med(&retrain_ms),
        save_ms: med(&save_ms),
        recover_ms: med(&recover_ms),
        store_bytes,
        synopses,
        spans: spans.len(),
    })
}

fn write_spans(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "batch\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(out, "{}\t{}\t{}\t{}", s.batch, s.name, s.start_ns, s.end_ns)?;
    }
    out.flush()
}
