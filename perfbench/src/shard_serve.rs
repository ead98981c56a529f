//! `shard_serve`: the dense-block churn of shard-smoke and serve-smoke
//! through `ShardedEngine`, with every epoch published (derived core and
//! top-k, as serve-smoke serves them) and queried over one connection.
//! Almost every merged refresh escalates to an exact solve of the merged
//! sample here, so certification dominates: this is the escalation storm
//! the ROADMAP names as the hot spot, with reads served beside writes.
//!
//! One repetition replays the whole stream on a fresh engine.

use std::time::Duration;

use dds_serve::{EpochFacts, PublishOptions};
use dds_shard::{ShardConfig, ShardedEngine};
use dds_sketch::SketchConfig;
use dds_stream::{read_events, Batch, DynamicGraph};

use crate::inputs::event_text;
use crate::probe::{median, Checks, Fingerprint, Probe};
use crate::serving::Rig;
use crate::spots::{mirror_apply, Spots};
use crate::{Layer, Value, Workload};

const BATCH: usize = 100;
const QUERIES_PER_EPOCH: usize = 8;
/// Epochs between two CPU reference runs inside a repetition.
const REFERENCE_EVERY: u64 = 25;
const SNAPSHOT_EVERY: u64 = 50;
const SPOT_EVERY: u64 = 100;
/// The churn seed shard-smoke and serve-smoke replay.
pub const STRUCTURE_SEED: u64 = 0xDD5;

fn config() -> ShardConfig {
    ShardConfig {
        shards: 2,
        threads: 2,
        sketch: SketchConfig {
            state_bound: 500,
            ..SketchConfig::default()
        },
        ..ShardConfig::default()
    }
}

pub struct ShardServe {
    event_text: Vec<u8>,
    seed: u64,
    spots: Spots,
}

impl ShardServe {
    pub fn new(seed: u64) -> Self {
        let events =
            dds_bench::stream_workloads::churn(400, 4_000, (32, 32), 40_000, STRUCTURE_SEED);
        ShardServe {
            event_text: event_text(&events),
            seed,
            spots: Spots::collect(&events, BATCH, SPOT_EVERY),
        }
    }
}

impl Workload for ShardServe {
    fn rep(&mut self, probe: &Probe, checks: &mut Checks, in_process: bool) -> Fingerprint {
        let mut fp = Fingerprint::default();
        let exact = self.spots.solve(probe, &mut fp);
        let (events, mut engine, mut rig) = probe.time("setup", || {
            let events = probe.time("stream.parse", || read_events(&self.event_text[..]));
            let engine = ShardedEngine::new(config());
            let rig = probe.time("serve.start", || {
                Rig::start(
                    PublishOptions {
                        core: Some((1, 1)),
                        top_k: 2,
                    },
                    self.seed,
                )
            });
            (
                events.expect("the generated event text parses"),
                engine,
                rig,
            )
        });

        let mut mirror = DynamicGraph::new();
        let mut factors = Vec::new();
        let (mut retained_max, mut snapshot_bytes, mut consumed) = (0usize, 0u64, 0u64);
        for chunk in events.chunks(BATCH) {
            mirror_apply(&mut mirror, chunk);
            consumed += chunk.len() as u64;
            let batch = Batch::from_events(chunk.to_vec());
            let r = probe.time("epoch", || {
                let r = probe.time("shard.apply", || engine.apply(&batch));
                if r.epoch.is_multiple_of(SNAPSHOT_EVERY) {
                    let bytes = probe.time("stream.snapshot", || engine.snapshot(consumed));
                    snapshot_bytes += bytes.len() as u64;
                }
                rig.publish(
                    probe,
                    EpochFacts {
                        epoch: r.epoch,
                        n: r.n,
                        m: r.m,
                        density: r.density.to_f64(),
                        lower: r.lower,
                        upper: r.upper,
                        witness: engine.witness(),
                        resolved: r.refreshed,
                    },
                    || engine.materialize(),
                );
                r
            });
            probe.record("shard.apply.engine", r.apply);
            probe.record("shard.certify", r.certify);
            if r.refreshed {
                let tier = if r.solve_stats.is_some() {
                    "sketch.escalate"
                } else {
                    "sketch.sweep"
                };
                probe.record(tier, r.certify);
            }
            retained_max = retained_max.max(r.retained);
            factors.push(r.certified_factor);
            checks.check(r.m == mirror.m() as u64, || {
                format!(
                    "epoch {}: engine m {} vs mirror {}",
                    r.epoch,
                    r.m,
                    mirror.m()
                )
            });
            checks.check(r.lower <= r.upper * (1.0 + 1e-9), || {
                format!(
                    "epoch {}: inverted bracket [{}, {}]",
                    r.epoch, r.lower, r.upper
                )
            });
            self.spots
                .check(&exact, r.epoch, r.density, r.upper, checks);
            rig.query_round(probe, QUERIES_PER_EPOCH, r.epoch, checks, in_process);
            if r.epoch.is_multiple_of(REFERENCE_EVERY) {
                probe.reference();
            }
        }
        let (queries, responses) = (rig.queries, rig.response_hash);
        rig.shutdown();

        probe.time("check", || {
            let snapshot = engine.snapshot(consumed);
            let restored = ShardedEngine::restore(config(), &snapshot).map(|(e, c)| e.snapshot(c));
            checks.check(
                matches!(restored, Ok(ref bytes) if *bytes == snapshot),
                || "restore(snapshot) did not re-encode byte-identically".to_string(),
            );
        });

        let stats = engine.stats();
        fp.count("events", consumed);
        fp.count("epochs", engine.epoch());
        fp.count("graph.m", engine.m());
        fp.text("final.density", engine.witness_density());
        fp.ratio("certified_factor.p50", median(&factors));
        fp.ratio(
            "certified_factor.max",
            factors.iter().copied().fold(0.0, f64::max),
        );
        fp.count("shard.refreshes", stats.refreshes);
        fp.count("shard.escalations", stats.escalations);
        fp.count("flow.decisions", stats.solve.flow_decisions as u64);
        fp.count("core.ratios_solved", stats.solve.ratios_solved as u64);
        fp.count("flow.arena_reuse_hits", stats.solve.arena_reuse_hits as u64);
        fp.count("xycore.core_cache_hits", stats.solve.core_cache_hits as u64);
        fp.count("shard.retained_max", retained_max as u64);
        fp.count("stream.snapshot_bytes", snapshot_bytes);
        fp.count("serve.queries", queries);
        fp.text("serve.response_hash", format!("{responses:016x}"));
        fp
    }

    fn reference(&self) -> (usize, usize, Duration) {
        (400, 4_000, Duration::from_micros(95))
    }

    fn layers(&self) -> &'static [Layer] {
        const LAYERS: &[Layer] = &[
            Layer::new(
                "stream.parse_ms",
                "stream.parse",
                Value::TotalMs("stream.parse"),
            ),
            Layer::new(
                "shard.apply_ms",
                "shard.apply",
                Value::TotalMs("shard.apply.engine"),
            ),
            Layer::new(
                "shard.certify_ms",
                "shard.apply",
                Value::TotalMs("shard.certify"),
            ),
            Layer::new(
                "sketch.sweep_ms",
                "shard.apply",
                Value::TotalMs("sketch.sweep"),
            ),
            Layer::new(
                "sketch.escalate_ms",
                "shard.apply",
                Value::TotalMs("sketch.escalate"),
            ),
            Layer::new("shard.refreshes", "shard.apply", Value::Fingerprint),
            Layer::new("shard.escalations", "shard.apply", Value::Fingerprint),
            Layer::new("flow.decisions", "shard.apply", Value::Fingerprint),
            Layer::new("core.ratios_solved", "shard.apply", Value::Fingerprint),
            Layer::new("xycore.core_cache_hits", "shard.apply", Value::Fingerprint),
            Layer::new("flow.arena_reuse_hits", "shard.apply", Value::Fingerprint),
            Layer::new("shard.retained_max", "shard.apply", Value::Fingerprint),
            Layer::new(
                "stream.snapshot_ms",
                "stream.snapshot",
                Value::TotalMs("stream.snapshot"),
            ),
            Layer::new(
                "stream.snapshot_bytes",
                "stream.snapshot",
                Value::Fingerprint,
            ),
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
