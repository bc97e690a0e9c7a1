//! Workload inputs: tracker-emitted synopsis captures from the simulators,
//! looped back to back into streams as long as a run needs, and the
//! ground-truth fault oracle each capture carries.

use crate::stack::EventRecord;
use saad_core::prelude::{StageId, TaskSynopsis, TaskUid, VecSink};
use saad_fault::catalog::gray_correlated_hog;
use saad_fault::HogSchedule;
use saad_hbase::{HBaseCluster, HBaseConfig};
use saad_relay::{RelayCluster, RelayConfig};
use saad_sim::{SimDuration, SimTime};
use saad_workload::{KeyChooser, OperationMix, WorkloadGenerator};
use std::sync::Arc;

/// Where and when a capture's injected fault lives.
#[derive(Debug)]
pub struct FaultOracle {
    /// The stage the fault degrades; `None` when it degrades every stage.
    pub stage: Option<StageId>,
    /// The hosts the fault degrades, ascending.
    pub hosts: Vec<u16>,
    /// Fault window start within one segment.
    pub start: SimTime,
    /// Fault window end (exclusive) within one segment.
    pub end: SimTime,
}

/// One simulator run's synopses in arrival order, replayable as an
/// endless stream of shifted copies ("segments").
#[derive(Debug)]
pub struct Capture {
    synopses: Vec<TaskSynopsis>,
    /// Virtual length of one segment: a whole number of minutes past the
    /// latest start, so detection windows align identically in every
    /// segment.
    span: SimDuration,
    /// Uid offset between segments: one past the largest uid.
    uid_stride: u64,
    /// Ground truth of the injected fault.
    pub oracle: FaultOracle,
}

impl Capture {
    /// Wrap `synopses` (arrival order, non-empty) for looping.
    ///
    /// # Panics
    ///
    /// Panics on an empty capture.
    pub fn new(synopses: Vec<TaskSynopsis>, oracle: FaultOracle) -> Capture {
        assert!(!synopses.is_empty(), "empty capture");
        let minute = SimDuration::from_mins(1).as_micros();
        let last = synopses
            .iter()
            .map(|s| s.start.as_micros())
            .max()
            .unwrap_or(0);
        let span = SimDuration::from_micros((last / minute + 1) * minute);
        let uid_stride = synopses.iter().map(|s| s.uid.0).max().unwrap_or(0) + 1;
        Capture {
            synopses,
            span,
            uid_stride,
            oracle,
        }
    }

    /// Synopses in one segment.
    pub fn len(&self) -> u64 {
        self.synopses.len() as u64
    }

    /// Synopsis number `idx` of the looped stream: the base synopsis
    /// shifted by whole segments in start time and uid.
    pub fn synopsis(&self, idx: u64) -> TaskSynopsis {
        let segment = idx / self.len();
        let mut s = self.synopses[(idx % self.len()) as usize].clone();
        s.start += SimDuration::from_micros(self.span.as_micros() * segment);
        s.uid = TaskUid(s.uid.0 + self.uid_stride * segment);
        s
    }

    /// Batch number `i` of `size` synopses of the looped stream.
    pub fn batch(&self, i: u64, size: usize) -> Vec<TaskSynopsis> {
        let first = i * size as u64;
        (first..first + size as u64)
            .map(|k| self.synopsis(k))
            .collect()
    }
}

/// Derive an independent simulator seed from the workload seed.
fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Virtual length of the HBase capture.
const HBASE_MINS: u64 = 13;

/// The paper's §5.5 severe disk-hog HBase run (regionserver recovery
/// cascade): 4 regionservers plus 4 data nodes, a 6-process hog on every
/// host from minute 3 to 12. The recipe of the reactor end-to-end suite,
/// with simulator seeds derived from `seed`.
pub fn hbase_severe_hog(seed: u64) -> Capture {
    let (hog_start, hog_end) = (SimTime::from_mins(3), SimTime::from_mins(12));
    let sink = Arc::new(VecSink::new());
    let cfg = HBaseConfig {
        seed: derive_seed(seed, 1),
        hog: HogSchedule::new().with_window(hog_start, hog_end, 6),
        recovery_latency_threshold: SimDuration::from_millis(500),
        recovery_retry_interval: SimDuration::from_secs(2),
        max_recovery_retries: 5,
        ..HBaseConfig::default()
    };
    let until = SimTime::from_mins(HBASE_MINS);
    let mut cluster = HBaseCluster::new(cfg, sink.clone());
    let mut wl = WorkloadGenerator::new(
        OperationMix::write_heavy(),
        KeyChooser::zipfian(10_000),
        18.0,
        derive_seed(seed, 2),
    );
    let ops = wl.ops_until(until);
    cluster.run(&ops, until);
    drop(cluster);
    let synopses = sink.drain();
    let mut hosts: Vec<u16> = synopses.iter().map(|s| s.host.0).collect();
    hosts.sort_unstable();
    hosts.dedup();
    Capture::new(
        synopses,
        FaultOracle {
            stage: None,
            hosts,
            start: hog_start,
            end: hog_end,
        },
    )
}

/// Virtual length of the relay capture.
const RELAY_MINS: u64 = 20;

/// The relay fleet (4 hosts, 8 stages, interleaved suspend/resume
/// sessions) at 60 ops/s with the catalog's `correlated-hog` gray fault on
/// the Relaying stage of hosts 1 and 3.
pub fn relay_correlated_hog(seed: u64) -> Capture {
    let scenario = gray_correlated_hog(derive_seed(seed, 4));
    let cfg = RelayConfig {
        seed: derive_seed(seed, 3),
        ..RelayConfig::default()
    };
    let sink = Arc::new(VecSink::new());
    let mut fleet = RelayCluster::new(cfg, sink.clone());
    let stage = fleet
        .instrumentation()
        .stages_registry
        .lookup(scenario.stage)
        .expect("catalog stage is in the relay registry");
    fleet.attach_gray(scenario.schedule);
    let mut wl = WorkloadGenerator::new(
        OperationMix::write_heavy(),
        KeyChooser::zipfian(10_000),
        60.0,
        cfg.seed,
    );
    fleet.run(&mut wl, SimTime::from_mins(RELAY_MINS));
    drop(fleet);
    let mut hosts = scenario.hosts;
    hosts.sort_unstable();
    Capture::new(
        sink.drain(),
        FaultOracle {
            stage: Some(stage),
            hosts,
            start: scenario.start,
            end: scenario.end,
        },
    )
}

/// Detection quality against a capture's fault oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Covered (segment, oracle host) pairs ÷ all such pairs.
    pub recall: f64,
    /// Matching events ÷ statistical events in the fault spans.
    pub precision: f64,
    /// Complete segments scored.
    pub segments: u64,
}

/// Score `events` against `capture`'s oracle over the first `segments`
/// segments, reconciled per segment as the gray-failure harness does for
/// its single run: only statistical events count (not host-silence or
/// model-unavailable); an event is in the fault span when its window
/// closes after the fault starts and opens no later than one window after
/// it ends; it matches when it is in the span, on an oracle host and, if
/// the oracle names one, on the oracle stage. Precision is matching ÷
/// in-span events; recall is the share of (segment, oracle host) pairs
/// with a match.
pub fn score(
    events: &[EventRecord],
    capture: &Capture,
    window: SimDuration,
    segments: u64,
) -> Option<Quality> {
    if segments == 0 {
        return None;
    }
    let oracle = &capture.oracle;
    let span = capture.span.as_micros();
    let segment_of = |e: &EventRecord| e.window_start.as_micros() / span;
    let shift = |t: SimTime, k: u64| t + SimDuration::from_micros(span * k);
    let in_span = |e: &&EventRecord| {
        let k = segment_of(e);
        let (start, end) = (shift(oracle.start, k), shift(oracle.end, k) + window);
        e.statistical && k < segments && e.window_start + window > start && e.window_start < end
    };
    let is_match = |e: &&EventRecord| {
        oracle.hosts.contains(&e.host.0) && oracle.stage.is_none_or(|s| s == e.stage)
    };
    let spanned: Vec<&EventRecord> = events.iter().filter(in_span).collect();
    let matching: Vec<&EventRecord> = spanned.iter().copied().filter(is_match).collect();
    let mut covered: Vec<(u64, u16)> = matching.iter().map(|e| (segment_of(e), e.host.0)).collect();
    covered.sort_unstable();
    covered.dedup();
    let pairs = segments * oracle.hosts.len() as u64;
    Some(Quality {
        recall: covered.len() as f64 / pairs as f64,
        precision: if spanned.is_empty() {
            1.0
        } else {
            matching.len() as f64 / spanned.len() as f64
        },
        segments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use saad_core::detector::{AnomalyEvent, AnomalyKind};
    use saad_core::prelude::HostId;

    fn synopsis(uid: u64, start_s: u64) -> TaskSynopsis {
        TaskSynopsis {
            host: HostId(1),
            stage: StageId(0),
            uid: TaskUid(uid),
            start: SimTime::from_secs(start_s),
            duration: SimDuration::from_millis(3),
            log_points: Vec::new(),
        }
    }

    fn capture() -> Capture {
        // Arrival order is not start order; uids are sparse.
        let base = vec![
            synopsis(4, 10),
            synopsis(0, 5),
            synopsis(9, 130),
            synopsis(2, 70),
        ];
        let oracle = FaultOracle {
            stage: Some(StageId(0)),
            hosts: vec![1, 3],
            start: SimTime::from_mins(1),
            end: SimTime::from_mins(2),
        };
        Capture::new(base, oracle)
    }

    #[test]
    fn segment_span_is_whole_minutes_past_the_last_start() {
        assert_eq!(capture().span, SimDuration::from_mins(3));
    }

    #[test]
    fn looped_segments_keep_uids_unique_and_starts_monotone() {
        let c = capture();
        let n = c.len();
        let stream: Vec<TaskSynopsis> = (0..5 * n).map(|i| c.synopsis(i)).collect();
        let mut uids: Vec<u64> = stream.iter().map(|s| s.uid.0).collect();
        uids.sort_unstable();
        uids.dedup();
        assert_eq!(uids.len(), stream.len(), "uids repeat across segments");
        for (k, pair) in stream
            .chunks(n as usize)
            .collect::<Vec<_>>()
            .windows(2)
            .enumerate()
        {
            let latest = pair[0].iter().map(|s| s.start).max().unwrap();
            let earliest = pair[1].iter().map(|s| s.start).min().unwrap();
            assert!(latest < earliest, "segment {k} overlaps the next");
        }
        // A segment is the base capture shifted whole: same order, same
        // gaps, same content apart from start and uid.
        let third: Vec<TaskSynopsis> = (2 * n..3 * n).map(|i| c.synopsis(i)).collect();
        for (shifted, base) in third.iter().zip(&c.synopses) {
            assert_eq!(shifted.start - base.start, SimDuration::from_mins(6));
            assert_eq!(shifted.uid.0, base.uid.0 + 2 * 10);
            assert_eq!(shifted.log_points, base.log_points);
        }
    }

    #[test]
    fn batches_cut_the_looped_stream_in_order() {
        let c = capture();
        let b = c.batch(1, 3);
        let uids: Vec<u64> = b.iter().map(|s| s.uid.0).collect();
        // Stream positions 3, 4, 5: the last base synopsis, then the
        // first two of segment 1.
        assert_eq!(uids, vec![2, 14, 10]);
    }

    fn event(host: u16, stage: u16, window_min: u64, kind: AnomalyKind) -> EventRecord {
        EventRecord::from(&AnomalyEvent {
            host: HostId(host),
            stage: StageId(stage),
            window_start: SimTime::from_mins(window_min),
            kind,
            p_value: None,
            outliers: 0,
            window_tasks: 0,
            completeness: 1.0,
        })
    }

    #[test]
    fn score_reconciles_per_segment() {
        let c = capture();
        let flow = || AnomalyKind::FlowRare;
        let window = SimDuration::from_mins(1);
        let events = vec![
            // Segment 0 (minutes 0-3, fault 1-2): host 1 caught in span.
            event(1, 0, 1, flow()),
            // Segment 0: outside the span, so not scored.
            event(3, 0, 0, flow()),
            // Segment 0: in the span, but on a host the fault spared.
            event(2, 0, 2, flow()),
            // Segment 1 (minutes 3-6, fault 4-5): host 3 caught one
            // window after the fault ended; host 1 on the wrong stage.
            event(3, 0, 5, flow()),
            event(1, 1, 4, flow()),
            // Not statistical: ignored.
            event(1, 0, 4, AnomalyKind::ModelUnavailable),
            // Segment 2 is not scored.
            event(1, 0, 7, flow()),
        ];
        let q = score(&events, &c, window, 2).unwrap();
        assert_eq!(q.recall, 2.0 / 4.0);
        assert_eq!(q.precision, 2.0 / 4.0);
        assert_eq!(q.segments, 2);
        assert_eq!(score(&events, &c, window, 0), None);
    }
}
