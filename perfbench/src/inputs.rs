//! Seeded inputs. Every workload's structure comes from its generator at
//! a fixed structural seed, and `--seed` varies what does not change how
//! much work the engines do, because the benchmark's spread is measured
//! across seeds:
//!
//! * the static graphs are relabeled by a seeded vertex permutation — the
//!   exact and approximate solvers do identical work on isomorphic graphs;
//! * the event streams are replayed as generated, and the seed moves the
//!   vertices the query mix asks about. Relabeling a stream is not
//!   work-neutral: edge routing and sample admission hash vertex ids, and
//!   across ten relabelings flow decisions ranged 95k–202k (a 100k-event
//!   variant of shard_serve's stream) and escalations 1–6 (cluster_sweep).

use dds_graph::{DiGraph, GraphBuilder, VertexId};
use dds_stream::{write_events, TimedEvent};

/// A uniformly random permutation of `0..n` (Fisher–Yates driven by
/// splitmix64, so it depends on `seed` alone).
fn permutation(n: usize, seed: u64) -> Vec<VertexId> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut ids: Vec<VertexId> = (0..n as VertexId).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        ids.swap(i, j);
    }
    ids
}

pub fn relabel_graph(g: &DiGraph, seed: u64) -> DiGraph {
    let ids = permutation(g.n(), seed);
    let mut builder = GraphBuilder::with_min_vertices(g.n());
    for (u, v) in g.edges() {
        builder.add_edge(ids[u as usize], ids[v as usize]);
    }
    builder.build()
}

/// The events rendered as the text `dds_stream::read_events` parses.
pub fn event_text(events: &[TimedEvent]) -> Vec<u8> {
    let mut text = Vec::new();
    write_events(events, &mut text).expect("render the event text");
    text
}
