//! Memoised `[x, y]`-core lookups for the exact search.
//!
//! The per-ratio flow search derives its core thresholds from the current
//! β guess (`x = ⌈β/2a⌉`, `y = ⌈β/2b⌉`). Different ratios — and repeated
//! solves over the same graph — keep landing on the *same* handful of
//! threshold pairs, yet each previously re-peeled the whole graph in
//! `O(n + m)`. [`CoreCache`] memoises the peel per `(x, y)` key so a
//! repeat costs one `O(n)` mask clone instead.
//!
//! A miss does not peel the whole graph either. Cores nest — the
//! `[x, y]`-core lies inside every `[x', y']`-core with `x' ≤ x` and
//! `y' ≤ y` — so the peel starts from the smallest such memoised core and
//! only touches the edges that core still holds. The per-ratio search's
//! guesses climb, so its thresholds do too, and each miss usually finds
//! its predecessor's core to start from.
//!
//! The cache is only valid for one graph: the owner (`dds-core`'s
//! `SolveContext`) compares the graph against the previous solve's and calls
//! [`clear`](CoreCache::clear) whenever it changes — which is also what the
//! stream engine relies on when an epoch's re-solve runs on a mutated
//! graph.

use std::collections::HashMap;

use dds_graph::{DiGraph, StMask};

use crate::peel::xy_core_within;

/// Entry cap: the keyed thresholds are bounded by the density range, so
/// real solves stay far below this; it only guards pathological churn.
const MAX_ENTRIES: usize = 4096;

/// A memo table of full-graph `[x, y]`-cores with hit/miss counters.
#[derive(Clone, Debug, Default)]
pub struct CoreCache {
    /// Each core with its vertex-side count (`|S| + |T|`), the size that
    /// picks a miss's starting core.
    map: HashMap<(u64, u64), (StMask, usize)>,
    hits: usize,
    misses: usize,
}

impl CoreCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        CoreCache::default()
    }

    /// The `[x, y]`-core of `g` (full base), memoised. Returns a clone of
    /// the cached mask; the clone is `O(n)` against the peel it replaces.
    /// A miss peels inside the smallest memoised core with thresholds
    /// `(x', y') ≤ (x, y)`, or the whole graph when there is none.
    pub fn core(&mut self, g: &DiGraph, x: u64, y: u64) -> StMask {
        if let Some((mask, _)) = self.map.get(&(x, y)) {
            self.hits += 1;
            return mask.clone();
        }
        self.misses += 1;
        if self.map.len() >= MAX_ENTRIES {
            self.map.clear();
        }
        let base = self
            .map
            .iter()
            .filter(|(&(bx, by), _)| bx <= x && by <= y)
            .min_by_key(|(_, (_, size))| *size)
            .map(|(_, (mask, _))| mask);
        let mask = match base {
            Some(base) => xy_core_within(g, base, x, y),
            None => xy_core_within(g, &StMask::full(g.n()), x, y),
        };
        let size = mask.s_count() + mask.t_count();
        self.map.insert((x, y), (mask.clone(), size));
        mask
    }

    /// Drops every memoised core (the graph changed).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Number of lookups answered from the memo table.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Number of lookups that had to peel.
    #[must_use]
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Number of distinct cores currently memoised.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` iff nothing is memoised.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peel::xy_core;
    use dds_graph::gen;

    #[test]
    fn memoised_cores_match_direct_peels() {
        let g = gen::gnm(30, 140, 3);
        let mut cache = CoreCache::new();
        for (x, y) in [(1, 1), (2, 3), (1, 1), (4, 2), (2, 3), (1, 1)] {
            assert_eq!(cache.core(&g, x, y), xy_core(&g, x, y), "({x},{y})");
        }
        assert_eq!(cache.misses(), 3, "three distinct keys");
        assert_eq!(cache.hits(), 3, "three repeats");
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn nested_peels_match_full_peels() {
        // Climbing, falling and incomparable thresholds, so misses start
        // from every kind of memoised base (or none).
        for seed in 0..4 {
            let g = gen::gnm(60, 420, seed);
            let mut cache = CoreCache::new();
            for (x, y) in [
                (1, 1),
                (2, 1),
                (2, 3),
                (5, 2),
                (3, 3),
                (1, 4),
                (6, 6),
                (4, 1),
                (9, 9),
            ] {
                assert_eq!(cache.core(&g, x, y), xy_core(&g, x, y), "({x},{y})");
            }
            assert_eq!(cache.misses(), 9);
        }
    }

    #[test]
    fn clear_forgets_but_keeps_counters() {
        let g = gen::gnm(12, 40, 9);
        let mut cache = CoreCache::new();
        let before = cache.core(&g, 1, 1);
        cache.clear();
        assert!(cache.is_empty());
        let after = cache.core(&g, 1, 1);
        assert_eq!(before, after);
        assert_eq!(cache.misses(), 2, "clear forces a re-peel");
    }
}
