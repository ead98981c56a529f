//! `static_planted`: the paper's own case. A large sparse graph hides a
//! dense planted block; the densest subgraph sits inside a small
//! `[x, y]`-core, so edge-list parsing, the core sweeps of `core_approx`
//! and the core-pruned flow search of `DcExact` all do real work. Sketch,
//! shard and cluster tiers are bypassed.
//!
//! The graph is `gen::planted(20_000, 200_000, 60, 80, 0.9, STRUCTURE)`,
//! relabeled by the seed: 59 ratios and 3,063 flow decisions for the
//! exact solve on every relabeling.
//!
//! One repetition (a "round"): parse the edge-list bytes and start the
//! serving rig (set-up), run `core_approx` and publish its certified
//! bracket (the visible epoch), query it, then run a serial
//! `DcExact::solve` and check it against the approximation.

use std::time::Duration;

use dds_core::{core_approx, DcExact};
use dds_graph::io::{read_edge_list, write_edge_list, ParseOptions};
use dds_graph::{gen, Pair};
use dds_num::Density;
use dds_serve::{EpochFacts, PublishOptions};

use crate::inputs::relabel_graph;
use crate::probe::{Checks, Fingerprint, Probe};
use crate::serving::Rig;
use crate::{Layer, Value, Workload};

const QUERIES_PER_ROUND: usize = 800;
/// Structural seed of the planted graph; `--seed` only relabels it.
const STRUCTURE: u64 = 7;

/// Every round serves from a fresh cell, so its one publish is epoch 1.
const EPOCH: u64 = 1;

pub struct StaticPlanted {
    edge_list: Vec<u8>,
    seed: u64,
}

impl StaticPlanted {
    pub fn new(seed: u64) -> Self {
        let planted = gen::planted(20_000, 200_000, 60, 80, 0.9, STRUCTURE);
        let mut edge_list = Vec::new();
        write_edge_list(&relabel_graph(&planted.graph, seed), &mut edge_list)
            .expect("render the edge list");
        StaticPlanted { edge_list, seed }
    }
}

/// `ρ(pair) · 2` exactly: doubling the edge count doubles the density.
fn doubled(pair: &Pair, edges: u64) -> Density {
    Density::new(2 * edges, pair.s().len() as u64, pair.t().len() as u64)
}

impl Workload for StaticPlanted {
    fn rep(&mut self, probe: &Probe, checks: &mut Checks, in_process: bool) -> Fingerprint {
        let (graph, mut rig) = probe.time("setup", || {
            let graph = probe.time("graph.parse", || {
                read_edge_list(&self.edge_list[..], &ParseOptions::default())
            });
            let rig = probe.time("serve.start", || {
                Rig::start(
                    PublishOptions {
                        core: None,
                        top_k: 0,
                    },
                    self.seed,
                )
            });
            (graph.expect("the generated edge list parses"), rig)
        });

        let approx = probe.time("epoch", || {
            let approx = probe.time("core.approx", || core_approx(&graph));
            let density = approx.solution.density.to_f64();
            rig.publish(
                probe,
                EpochFacts {
                    epoch: EPOCH,
                    n: graph.n(),
                    m: graph.m() as u64,
                    density,
                    lower: density,
                    upper: approx.upper_bound,
                    witness: Some(&approx.solution.pair),
                    resolved: true,
                },
                || graph.clone(),
            );
            approx
        });
        rig.query_round(probe, QUERIES_PER_ROUND, EPOCH, checks, in_process);
        probe.reference();
        let exact = probe.time("core.exact", || DcExact::new().solve(&graph));
        let (queries, responses) = (rig.queries, rig.response_hash);
        rig.shutdown();

        let (rho, rho_a) = (exact.solution.density, approx.solution.density);
        let approx_edges = approx.solution.pair.edges_between(&graph);
        checks.check(exact.solution.pair.density(&graph) == rho, || {
            format!(
                "exact witness recounts to {} not {rho}",
                exact.solution.pair.density(&graph)
            )
        });
        checks.check(approx.solution.pair.density(&graph) == rho_a, || {
            "approx witness density does not recount".to_string()
        });
        checks.check(
            rho_a <= rho && rho <= doubled(&approx.solution.pair, approx_edges),
            || format!("approx {rho_a} and exact {rho} break approx <= exact <= 2 approx"),
        );
        checks.check(rho.to_f64() <= approx.upper_bound * (1.0 + 1e-9), || {
            format!(
                "exact {rho} above the certified upper bound {}",
                approx.upper_bound
            )
        });

        let mut fp = Fingerprint::default();
        fp.count("graph.n", graph.n() as u64);
        fp.count("events", graph.m() as u64);
        fp.count("epochs", 1u64);
        fp.text("exact.density", rho);
        fp.text("approx.density", rho_a);
        fp.count("approx.x", approx.x);
        fp.count("approx.y", approx.y);
        fp.ratio("approx_gap", rho.to_f64() / rho_a.to_f64());
        let factor = approx.upper_bound / rho_a.to_f64();
        fp.ratio("certified_factor.p50", factor);
        fp.ratio("certified_factor.max", factor);
        fp.count("xycore.sweep_evals", approx.sweep_evals as u64);
        fp.count("xycore.core_cache_hits", exact.core_cache_hits as u64);
        fp.count("core.ratios_solved", exact.ratios_solved as u64);
        fp.count(
            "core.ratios_pruned",
            (exact.ratios_pruned_structural + exact.ratios_pruned_gamma) as u64,
        );
        fp.count("core.ratios_pruned_tie", exact.ratios_pruned_tie as u64);
        fp.count("flow.decisions", exact.flow_decisions as u64);
        fp.count(
            "flow.network_edges",
            exact.network_edges.iter().sum::<usize>() as u64,
        );
        fp.count("flow.arena_reuse_hits", exact.arena_reuse_hits as u64);
        fp.count("serve.queries", queries);
        fp.text("serve.response_hash", format!("{responses:016x}"));
        fp
    }

    fn reference(&self) -> (usize, usize, Duration) {
        (20_000, 200_000, Duration::from_micros(4_700))
    }

    fn layers(&self) -> &'static [Layer] {
        const LAYERS: &[Layer] = &[
            Layer::new(
                "graph.parse_ms",
                "graph.parse",
                Value::TotalMs("graph.parse"),
            ),
            Layer::new("xycore.sweep_evals", "core.approx", Value::Fingerprint),
            Layer::new("xycore.core_cache_hits", "core.exact", Value::Fingerprint),
            Layer::new("core.ratios_solved", "core.exact", Value::Fingerprint),
            Layer::new("core.ratios_pruned", "core.exact", Value::Fingerprint),
            Layer::new("core.ratios_pruned_tie", "core.exact", Value::Fingerprint),
            Layer::new("flow.decisions", "core.exact", Value::Fingerprint),
            Layer::new("flow.network_edges", "core.exact", Value::Fingerprint),
            Layer::new("flow.arena_reuse_hits", "core.exact", Value::Fingerprint),
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
