//! Spot checks for the streaming workloads: the stream is replayed into a
//! `DynamicGraph` mirror when the inputs are generated, and every
//! `every`-th epoch's graph is kept. Each repetition solves those graphs
//! fresh (`DcExact` and `core_approx`, outside the visible windows) before
//! its replay, then checks each spot epoch's certified bracket against the
//! exact density. Solving inside every repetition spreads the solves over
//! the run like every other timed unit, so they are scaled by references
//! taken in the same host states as the rest of the run.

use dds_core::{core_approx, DcExact};
use dds_graph::DiGraph;
use dds_num::Density;
use dds_stream::{DynamicGraph, Event, TimedEvent};

use crate::probe::{Checks, Fingerprint, Probe};

/// Timed `core_approx` runs per spot graph and repetition.
const APPROX_REPEATS: usize = 3;

pub fn mirror_apply(mirror: &mut DynamicGraph, events: &[TimedEvent]) {
    for ev in events {
        match ev.event {
            Event::Insert(u, v) => {
                mirror.insert(u, v);
            }
            Event::Delete(u, v) => {
                mirror.delete(u, v);
            }
        }
    }
}

/// The mirror graph after every `every`-th epoch of a stream.
pub struct Spots {
    every: u64,
    graphs: Vec<DiGraph>,
}

impl Spots {
    pub fn collect(events: &[TimedEvent], batch: usize, every: u64) -> Spots {
        let mut mirror = DynamicGraph::new();
        let mut graphs = Vec::new();
        for (i, chunk) in events.chunks(batch).enumerate() {
            mirror_apply(&mut mirror, chunk);
            if (i as u64 + 1).is_multiple_of(every) {
                graphs.push(mirror.materialize());
            }
        }
        Spots { every, graphs }
    }

    /// Solves every spot graph (timed as `core.exact`, and
    /// `APPROX_REPEATS` times as `core.approx`),
    /// fingerprints the densities and the largest exact ÷ approx gap, and
    /// returns the exact densities.
    pub fn solve(&self, probe: &Probe, fp: &mut Fingerprint) -> Vec<Density> {
        let mut gap = 0.0f64;
        let mut exact = Vec::new();
        for (i, graph) in self.graphs.iter().enumerate() {
            let epoch = (i as u64 + 1) * self.every;
            let rho = probe
                .time("core.exact", || DcExact::new().solve(graph))
                .solution
                .density;
            // The approximation is cheap beside the exact solve, so it is
            // timed several times for a steadier median.
            let approx = (0..APPROX_REPEATS)
                .map(|_| probe.time("core.approx", || core_approx(graph)))
                .last()
                .expect("at least one approximation")
                .solution
                .density;
            fp.text(&format!("spot.{epoch}.exact"), rho);
            fp.text(&format!("spot.{epoch}.approx"), approx);
            gap = gap.max(rho.to_f64() / approx.to_f64());
            exact.push(rho);
        }
        fp.ratio("approx_gap", gap);
        exact
    }

    /// At a spot epoch, checks that `[lower, upper]` contains the exact
    /// density `solve` returned for it.
    pub fn check(
        &self,
        exact: &[Density],
        epoch: u64,
        lower: Density,
        upper: f64,
        checks: &mut Checks,
    ) {
        if !epoch.is_multiple_of(self.every) {
            return;
        }
        let Some(&rho) = exact.get((epoch / self.every - 1) as usize) else {
            return;
        };
        checks.check(lower <= rho && rho.to_f64() <= upper * (1.0 + 1e-9), || {
            format!("epoch {epoch}: bracket [{lower}, {upper}] misses exact {rho}")
        });
    }
}
