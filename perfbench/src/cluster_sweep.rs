//! `cluster_sweep`: a large sparse churn through the cluster tier, run
//! in-process. Each epoch's batch goes to K workers in turn (apply, digest,
//! frame encode and decode, offer to the coordinator core), then the core
//! seals the epoch and it is published without derived queries and
//! queried over one connection. With the sweep-first escalation factor
//! the merged refreshes stay on the core sweep, so ingest (routing,
//! per-shard apply, digest diff, wire, fold) does most of the work, and
//! the coordinator's own copy of the certification rules runs.
//!
//! One repetition replays the whole stream on fresh workers and core.

use std::time::Duration;

use dds_cluster::{ClusterConfig, ClusterCore, Frame, Hello, WorkerConfig, WorkerState};
use dds_serve::{EpochFacts, PublishOptions};
use dds_sketch::SketchConfig;
use dds_stream::{read_events, Batch, DynamicGraph};

use crate::inputs::event_text;
use crate::probe::{median, Checks, Fingerprint, Probe};
use crate::serving::Rig;
use crate::shard_serve::STRUCTURE_SEED;
use crate::spots::{mirror_apply, Spots};
use crate::{Layer, Value, Workload};

const SHARDS: usize = 4;
const BATCH: usize = 1_000;
const QUERIES_PER_EPOCH: usize = 8;
/// Epochs between two CPU reference runs inside a repetition.
const REFERENCE_EVERY: u64 = 25;
const SPOT_EVERY: u64 = 200;

fn config() -> ClusterConfig {
    ClusterConfig {
        shards: SHARDS,
        batch: BATCH,
        refresh_drift: 0.25,
        sketch: SketchConfig {
            state_bound: 1_000,
            escalate_factor: 2.0,
            ..SketchConfig::default()
        },
    }
}

pub struct ClusterSweep {
    event_text: Vec<u8>,
    seed: u64,
    spots: Spots,
}

impl ClusterSweep {
    pub fn new(seed: u64) -> Self {
        let events =
            dds_bench::stream_workloads::churn(4_000, 100_000, (64, 64), 300_000, STRUCTURE_SEED);
        ClusterSweep {
            event_text: event_text(&events),
            seed,
            spots: Spots::collect(&events, BATCH, SPOT_EVERY),
        }
    }
}

impl Workload for ClusterSweep {
    fn rep(&mut self, probe: &Probe, checks: &mut Checks, in_process: bool) -> Fingerprint {
        let mut fp = Fingerprint::default();
        let exact = self.spots.solve(probe, &mut fp);
        let cfg = config();
        let (events, mut core, mut workers, mut rig) = probe.time("setup", || {
            let events = probe.time("stream.parse", || read_events(&self.event_text[..]));
            let mut core = ClusterCore::new(cfg);
            let workers: Vec<WorkerState> = (0..SHARDS)
                .map(|shard| {
                    let worker = WorkerState::new(WorkerConfig {
                        shard,
                        shards: SHARDS,
                        batch: BATCH,
                        sketch: cfg.sketch,
                    });
                    core.hello(&Hello {
                        shard: shard as u32,
                        shards: SHARDS as u32,
                        seed: cfg.sketch.seed,
                        state_bound: cfg.sketch.state_bound as u64,
                        batch: BATCH as u64,
                        last_epoch: 0,
                    })
                    .expect("worker identity matches the cluster");
                    worker
                })
                .collect();
            let rig = probe.time("serve.start", || {
                Rig::start(
                    PublishOptions {
                        core: None,
                        top_k: 0,
                    },
                    self.seed,
                )
            });
            (
                events.expect("the generated event text parses"),
                core,
                workers,
                rig,
            )
        });

        let mut mirror = DynamicGraph::new();
        let mut factors = Vec::new();
        let mut consumed = 0u64;
        let mut final_density = String::new();
        for chunk in events.chunks(BATCH) {
            mirror_apply(&mut mirror, chunk);
            consumed += chunk.len() as u64;
            let batch = Batch::from_events(chunk.to_vec());
            let sealed = probe.time("epoch", || {
                for worker in &mut workers {
                    let tallies = probe.time("cluster.apply", || worker.apply_batch(&batch));
                    let digest = probe.time("cluster.digest", || {
                        worker.digest(tallies, consumed, 0, false)
                    });
                    let (digest, bytes) = probe.time("cluster.wire", || {
                        let payload = Frame::Digest(digest).encode();
                        (Frame::decode(&payload), payload.len() as u64)
                    });
                    let Ok(Frame::Digest(digest)) = digest else {
                        panic!("a digest frame failed to round-trip");
                    };
                    probe
                        .time("cluster.fold", || core.offer(digest, bytes))
                        .expect("in-order digests fold");
                }
                let sealed = probe
                    .time("cluster.seal", || core.seal_next(false))
                    .expect("no replica desync")
                    .expect("every slot is fresh after its digest");
                rig.publish(
                    probe,
                    EpochFacts {
                        epoch: sealed.epoch,
                        n: sealed.n as usize,
                        m: sealed.m,
                        density: sealed.lower,
                        lower: sealed.lower,
                        upper: sealed.upper,
                        witness: sealed.witness.as_ref(),
                        resolved: sealed.refreshed,
                    },
                    || unreachable!("no derived queries are published"),
                );
                sealed
            });
            factors.push(sealed.certified_factor());
            final_density = sealed.density.to_string();
            checks.check(sealed.fresh as usize == SHARDS && !sealed.degraded, || {
                format!(
                    "epoch {} sealed with {} of {SHARDS} digests",
                    sealed.epoch, sealed.fresh
                )
            });
            checks.check(sealed.m == mirror.m() as u64, || {
                format!(
                    "epoch {}: sealed m {} vs mirror {}",
                    sealed.epoch,
                    sealed.m,
                    mirror.m()
                )
            });
            checks.check(sealed.lower <= sealed.upper * (1.0 + 1e-9), || {
                format!("epoch {}: inverted bracket", sealed.epoch)
            });
            self.spots
                .check(&exact, sealed.epoch, sealed.density, sealed.upper, checks);
            rig.query_round(probe, QUERIES_PER_EPOCH, sealed.epoch, checks, in_process);
            if sealed.epoch.is_multiple_of(REFERENCE_EVERY) {
                probe.reference();
            }
        }
        let (queries, responses) = (rig.queries, rig.response_hash);
        rig.shutdown();

        fp.count("events", consumed);
        fp.count("epochs", core.sealed());
        fp.count("graph.m", mirror.m() as u64);
        fp.text("final.density", final_density);
        fp.ratio("certified_factor.p50", median(&factors));
        fp.ratio(
            "certified_factor.max",
            factors.iter().copied().fold(0.0, f64::max),
        );
        fp.count("cluster.refreshes", core.refreshes());
        fp.count("cluster.escalations", core.escalations());
        fp.count("cluster.degraded_seals", core.degraded_seals());
        fp.count("cluster.digest_bytes", core.digest_bytes());
        fp.ratio(
            "cluster.digest_ratio",
            core.digest_bytes() as f64 / self.event_text.len() as f64,
        );
        fp.count("serve.queries", queries);
        fp.text("serve.response_hash", format!("{responses:016x}"));
        checks.check(core.degraded_seals() == 0, || "degraded seals".to_string());
        fp
    }

    fn reference(&self) -> (usize, usize, Duration) {
        (4_000, 100_000, Duration::from_micros(1_700))
    }

    fn layers(&self) -> &'static [Layer] {
        const LAYERS: &[Layer] = &[
            Layer::new(
                "stream.parse_ms",
                "stream.parse",
                Value::TotalMs("stream.parse"),
            ),
            Layer::new(
                "cluster.apply_ms",
                "cluster.apply",
                Value::TotalMs("cluster.apply"),
            ),
            Layer::new(
                "cluster.digest_ms",
                "cluster.digest",
                Value::TotalMs("cluster.digest"),
            ),
            Layer::new(
                "cluster.wire_ms",
                "cluster.wire",
                Value::TotalMs("cluster.wire"),
            ),
            Layer::new("cluster.digest_bytes", "cluster.digest", Value::Fingerprint),
            Layer::new("cluster.digest_ratio", "cluster.digest", Value::Fingerprint),
            Layer::new(
                "cluster.fold_ms",
                "cluster.fold",
                Value::TotalMs("cluster.fold"),
            ),
            Layer::new(
                "cluster.seal_ms",
                "cluster.seal",
                Value::TotalMs("cluster.seal"),
            ),
            Layer::new("cluster.refreshes", "cluster.seal", Value::Fingerprint),
            Layer::new("cluster.escalations", "cluster.seal", Value::Fingerprint),
            Layer::new("cluster.degraded_seals", "cluster.seal", Value::Fingerprint),
            Layer::new(
                "serve.publish_us.p50",
                "serve.publish",
                Value::P50Us("serve.publish"),
            ),
            Layer::new(
                "serve.publish_us.p99",
                "serve.publish",
                Value::P99Us("serve.publish"),
            ),
            Layer::new(
                "serve.answer_us.p50",
                "serve.answer",
                Value::P50Us("serve.answer"),
            ),
            Layer::new(
                "serve.query_us.p99",
                "serve.query",
                Value::P99Us("serve.query"),
            ),
        ];
        LAYERS
    }
}
