//! The deployable SAAD stack as examples and end-to-end suites run it:
//! `Agent` → loopback TCP → `ReactorCollector` → lifecycle analyzer pool
//! → anomaly events. Built only from the repository's public API.

use crossbeam_channel::{bounded, unbounded, Receiver, Sender};
use saad_core::detector::{AnomalyEvent, AnomalyKind, DetectorConfig};
use saad_core::pipeline::{
    spawn_analyzer_pool_with_lifecycle, AdaptPolicy, LifecycleConfig, LifecyclePool,
    SupervisorConfig,
};
use saad_core::prelude::{HostId, StageId, TaskSynopsis};
use saad_net::{
    Agent, AgentConfig, AgentStats, CollectorStats, ReactorCollector, ReactorCollectorConfig,
};
use saad_obs::Registry;
use saad_sim::SimTime;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::Path;

/// Host id the benchmark's single agent frames for.
pub const AGENT_HOST: HostId = HostId(900);

/// Batches the pool's input channel holds before senders block: bounded,
/// as a deployment would, and as deep as the generator's window so the
/// in-process shape sees the same closed loop as the wire shape.
pub const POOL_QUEUE: usize = 256;

/// How a workload's stack is assembled.
#[derive(Debug, Clone, Copy)]
pub struct StackShape {
    /// Through agent, TCP and reactor collector (`true`) or in process on
    /// the pool's input channel (`false`).
    pub wire: bool,
    /// Analyzer pool shards.
    pub workers: usize,
}

/// The pool's lifecycle configuration: default checkpoints and drift
/// adaptation on with its default policy.
pub fn lifecycle_config() -> LifecycleConfig {
    LifecycleConfig {
        adapt: Some(AdaptPolicy::default()),
        ..LifecycleConfig::default()
    }
}

/// What the benchmark keeps of one anomaly event: its identity for the
/// oracle comparison and the fields detection quality is scored on. The
/// generator drains events as they come, so an undrained event channel
/// does not count as the stack's memory.
#[derive(Debug, Clone, Copy)]
pub struct EventRecord {
    /// Hash of the event's full `Debug` form (`DefaultHasher::new` is
    /// keyed identically in every process).
    pub key: u64,
    /// Start of the event's detection window.
    pub window_start: SimTime,
    /// Host the event fired on.
    pub host: HostId,
    /// Stage the event fired on.
    pub stage: StageId,
    /// Whether a statistical test fired (not host silence, not a missing
    /// model).
    pub statistical: bool,
}

impl From<&AnomalyEvent> for EventRecord {
    fn from(e: &AnomalyEvent) -> EventRecord {
        let mut h = DefaultHasher::new();
        format!("{e:?}").hash(&mut h);
        EventRecord {
            key: h.finish(),
            window_start: e.window_start,
            host: e.host,
            stage: e.stage,
            statistical: !matches!(
                e.kind,
                AnomalyKind::HostSilent { .. } | AnomalyKind::ModelUnavailable
            ),
        }
    }
}

enum Input {
    Wire {
        agent: Agent,
        collector: ReactorCollector,
    },
    Direct(Sender<Vec<TaskSynopsis>>),
}

/// A running stack.
pub struct Stack {
    pool: LifecyclePool,
    input: Input,
    /// The pool's input channel, held only to read its depth.
    depth: Receiver<Vec<TaskSynopsis>>,
    registry: Registry,
    events: Vec<EventRecord>,
}

/// What a stack reports once torn down.
#[derive(Debug)]
pub struct Finished {
    /// Every event the pool emitted, including end-of-stream flushes.
    pub events: Vec<EventRecord>,
    /// Agent counters, for the wire shape.
    pub agent: Option<AgentStats>,
    /// Collector counters, for the wire shape.
    pub collector: Option<CollectorStats>,
    /// Pool shard restarts plus synopses skipped after a crash.
    pub pool_faults: u64,
}

impl Stack {
    /// Build a stack whose checkpoint store lives in `dir`. The agent of
    /// the wire shape connects and handshakes when it gets its first
    /// batch.
    pub fn build(shape: StackShape, dir: &Path) -> Result<Stack, String> {
        let (batch_tx, batch_rx) = bounded(POOL_QUEUE);
        let (loss_tx, loss_rx) = unbounded();
        let pool = spawn_analyzer_pool_with_lifecycle(
            DetectorConfig::default(),
            SupervisorConfig::default(),
            lifecycle_config(),
            shape.workers,
            dir,
            batch_rx.clone(),
            Some(loss_rx),
        )
        .map_err(|e| format!("spawn lifecycle pool: {e}"))?;
        let registry = Registry::new();
        pool.register_metrics(&registry);
        let input = if shape.wire {
            let collector = ReactorCollector::bind(
                "127.0.0.1:0",
                batch_tx,
                loss_tx,
                ReactorCollectorConfig::default(),
            )
            .map_err(|e| format!("bind reactor collector: {e}"))?;
            collector.register_metrics(&registry);
            let agent = Agent::connect(collector.local_addr(), AGENT_HOST, AgentConfig::default());
            Input::Wire { agent, collector }
        } else {
            drop(loss_tx);
            Input::Direct(batch_tx)
        };
        Ok(Stack {
            pool,
            input,
            depth: batch_rx,
            registry,
            events: Vec::new(),
        })
    }

    /// Hand one batch to the stack; blocks while backpressure applies.
    pub fn send(&self, batch: Vec<TaskSynopsis>) -> Result<(), String> {
        match &self.input {
            Input::Wire { agent, .. } => {
                agent.send(batch);
                Ok(())
            }
            Input::Direct(tx) => tx.send(batch).map_err(|_| "pool input closed".to_string()),
        }
    }

    /// Take the events the pool has emitted so far.
    pub fn collect_events(&mut self) {
        self.events
            .extend(self.pool.events().try_iter().map(|e| EventRecord::from(&e)));
    }

    /// Whether batches go over the wire.
    pub fn is_wire(&self) -> bool {
        matches!(self.input, Input::Wire { .. })
    }

    /// Synopses the pool's shards have received.
    pub fn processed(&self) -> u64 {
        self.pool.processed()
    }

    /// Batches waiting in the pool's input channel.
    pub fn backlog(&self) -> usize {
        self.depth.len()
    }

    /// The pool.
    pub fn pool(&self) -> &LifecyclePool {
        &self.pool
    }

    /// Every registered stats series, in Prometheus text.
    pub fn render_metrics(&self) -> String {
        self.registry.render()
    }

    /// Close the input, drain the pool's events and join every thread.
    pub fn finish(self) -> Result<Finished, String> {
        let Stack {
            pool,
            input,
            depth,
            mut events,
            ..
        } = self;
        drop(depth);
        let (agent, collector) = match input {
            Input::Wire { agent, collector } => {
                let agent_stats = agent.close();
                let collector_stats = collector.stats();
                collector.shutdown();
                (Some(agent_stats), Some(collector_stats))
            }
            Input::Direct(tx) => {
                drop(tx);
                (None, None)
            }
        };
        let pool_faults = pool.restarts() + pool.skipped();
        while let Ok(e) = pool.events().recv() {
            events.push(EventRecord::from(&e));
        }
        pool.join().map_err(|e| format!("pool failed: {e}"))?;
        Ok(Finished {
            events,
            agent,
            collector,
            pool_faults,
        })
    }
}

/// Feed `batches` in process through a fresh pool of `workers` shards and
/// return its events: the oracle every wire run is compared against.
pub fn oracle_events(
    workers: usize,
    dir: &Path,
    batches: impl Iterator<Item = Vec<TaskSynopsis>>,
) -> Result<Vec<EventRecord>, String> {
    let mut stack = Stack::build(
        StackShape {
            wire: false,
            workers,
        },
        dir,
    )?;
    for batch in batches {
        stack.send(batch)?;
        stack.collect_events();
    }
    Ok(stack.finish()?.events)
}
