//! Exact per-ratio search in β-space: Dinkelbach's parametric Newton step.
//!
//! For a fixed ratio `c = a/b` the search finds
//! `β*(c) = max over pairs of 2abE/(b|S| + a|T|)` — the β-image of the
//! c-weighted density (see `dds-flow::decision`) — by flow decisions at
//! **achieved** values only:
//!
//! * the first guess is the β-value of a known pair: the seed pair (the
//!   caller's incumbent) or any single edge (`2ab/(a+b)`), whichever is
//!   larger;
//! * a cut that **exceeds** the guess returns a pair whose exact β-value
//!   becomes the next guess — the Newton jump of Dinkelbach's
//!   fractional-programming iteration;
//! * a cut that **certifies** an achieved guess `l` proves `β*(c) ≤ l`,
//!   hence `β*(c) = l` exactly, and the maximal min cut recovers a pair
//!   achieving it (`boundary`).
//!
//! Termination: every guess but the last is strictly beaten by the pair
//! its cut returns, so the guesses climb strictly through the finite set of
//! candidate values `2abE/D` (`E ≤ m`, `D = b|S| + a|T| ≤ n(a+b)`). In
//! practice the climb takes a handful of cuts — usually one or two once
//! the seed is near-optimal.
//!
//! Floor-fast mode (see [`solve_ratio`]) differs only in its first guess:
//! the caller's floor, when it lies above the achieved start. A
//! certification there proves the ratio cannot beat the floor after a
//! single cut; an exceeding pair lands the search on an achieved value
//! above the floor, from where the Newton climb proceeds as above.
//!
//! With `core_pruning`, each decision runs on the
//! `[⌈β/2a⌉, ⌈β/2b⌉]`-core of its guess `β`: every maximiser of the cut
//! objective at guess `β` has `d⁺ ≥ β/(2a)` on the S side and
//! `d⁻ ≥ β/(2b)` on the T side within the pair (dropping a vertex below
//! the threshold would increase the objective), so restricting to the core
//! preserves the decision and every extractable optimum while shrinking
//! the network. Because the guesses only climb, so do the thresholds, and
//! each ratio's cores nest.

use dds_flow::{beta_of_pair, decide_in_with, Decision, DecisionStats, FlowArena, FlowExecutor};
use dds_graph::{DiGraph, Pair, StMask};
use dds_num::Frac;

/// The reusable machinery a ratio search borrows from its caller: the
/// worker's flow arena, a core provider (typically the `SolveContext`
/// memo table, possibly behind a mutex in the parallel search), and the
/// executor the Dinic inner loop runs on ([`SerialExecutor`] for the
/// serial engine, the shared [`WorkerPool`] when per-ratio parallelism is
/// enabled — either way the decisions are bit-identical).
///
/// [`SerialExecutor`]: dds_flow::SerialExecutor
/// [`WorkerPool`]: crate::pool::WorkerPool
pub(crate) struct RatioResources<'a> {
    /// Recyclable flow-network buffers (one per worker thread).
    pub arena: &'a mut FlowArena,
    /// Returns the full-graph `[x, y]`-core for the guess-derived
    /// thresholds.
    pub core_of: &'a mut dyn FnMut(u64, u64) -> StMask,
    /// Fork/join lanes for the flow phases of each decision.
    pub exec: &'a dyn FlowExecutor,
}

/// Result of one per-ratio search.
#[derive(Clone, Debug)]
pub(crate) struct RatioOutcome {
    /// Best pair with `β* > floor`, and its exact β-value (`None` when the
    /// ratio cannot beat the floor).
    pub best: Option<(Pair, Frac)>,
    /// Certified inclusive upper bound on `β*(c)` over **all** pairs. It is
    /// `β*(c)` itself — an achieved value — in certify mode, and in
    /// floor-fast mode whenever the ratio met or beat the floor; only a
    /// floor-fast exit below the floor leaves the (possibly unachieved)
    /// floor here. The divide-and-conquer driver turns the exact value
    /// into a γ transfer certificate, which is what lets it discard ratio
    /// intervals that merely *tie* the incumbent.
    pub certified_upper: Frac,
    /// Instrumentation for every flow decision run.
    pub decisions: Vec<DecisionStats>,
}

/// `⌈β / k⌉` for positive `β`, as a core threshold.
fn ceil_div(beta: Frac, k: u64) -> u64 {
    let den = beta
        .den()
        .checked_mul(i128::from(k))
        .expect("core threshold overflow");
    u64::try_from(Frac::new(beta.num(), den).ceil()).expect("core threshold fits u64")
}

/// Searches ratio `a/b` exactly. `floor_beta` filters: only pairs with
/// `β* > floor_beta` are reported in `best` (the caller passes the β-image
/// of the best density found so far).
///
/// `tighten` picks the first guess:
///
/// * `false` — **floor-fast**: guess the floor first (when it lies above
///   the achieved start), so a ratio that cannot beat the incumbent exits
///   after one cut. The certified upper bound is then the floor — useless
///   for γ transfer. Right when no caller consumes certificates (the
///   all-ratios baseline, or DC with γ-pruning off).
/// * `true` — **certify**: guess only achieved values, so the search
///   always ends by pinning `β*(c)` exactly, even below the floor. That
///   exact bound is what lets the divide-and-conquer driver discard whole
///   ratio intervals, ties included.
#[allow(clippy::too_many_arguments)] // search knobs + borrowed resources
pub(crate) fn solve_ratio(
    g: &DiGraph,
    a: u64,
    b: u64,
    floor_beta: Frac,
    core_pruning: bool,
    tighten: bool,
    seed_pair: Option<&Pair>,
    res: &mut RatioResources<'_>,
) -> RatioOutcome {
    debug_assert!(a >= 1 && b >= 1 && a <= g.n() as u64 && b <= g.n() as u64);
    let mut decisions = Vec::new();
    if g.m() == 0 {
        // Every pair has E = 0, so β*(c) = 0 without a cut.
        return RatioOutcome {
            best: None,
            certified_upper: Frac::ZERO,
            decisions,
        };
    }
    let floor = if floor_beta.is_negative() {
        Frac::ZERO
    } else {
        floor_beta
    };
    // The achieved start: the better of the seed pair (typically the
    // incumbent, whose weighted-density bump dominates near its own ratio)
    // and any single edge, |S| = |T| = E = 1.
    let single_edge = Frac::new(2 * i128::from(a) * i128::from(b), i128::from(a + b));
    let start = seed_pair
        .filter(|p| !p.is_empty())
        .map_or(single_edge, |p| beta_of_pair(g, p, a, b).max(single_edge));
    let mut guess = if !tighten && floor > start {
        floor
    } else {
        start
    };
    let full = StMask::full(g.n());
    // Consecutive guesses often round to the same integer thresholds, so
    // keep the last core locally; threshold changes go through the caller's
    // provider (the `SolveContext` memo, shared across ratios and solves).
    let mut core_cache: Option<((u64, u64), StMask)> = None;

    loop {
        assert!(
            decisions.len() < 200_000,
            "per-ratio search failed to converge (bug)"
        );
        let alive: &StMask = if core_pruning {
            let x = ceil_div(guess, 2 * a);
            let y = ceil_div(guess, 2 * b);
            let stale = !matches!(&core_cache, Some((key, _)) if *key == (x, y));
            if stale {
                core_cache = Some(((x, y), (res.core_of)(x, y)));
            }
            &core_cache.as_ref().expect("cache populated above").1
        } else {
            &full
        };
        let (decision, stats) = decide_in_with(res.arena, g, alive, a, b, guess, res.exec);
        decisions.push(stats);
        match decision {
            Decision::Exceeds(pair) => {
                let beta = beta_of_pair(g, &pair, a, b);
                debug_assert!(beta > guess, "found pair must beat the guess");
                guess = beta;
            }
            Decision::Certified { boundary } => {
                // β*(c) ≤ guess. At an achieved guess that is β*(c) = guess,
                // and the maximal min cut holds a pair achieving it; at the
                // floor-fast floor it is the hopeless exit.
                let best = boundary.filter(|_| guess > floor).map(|pair| {
                    debug_assert_eq!(beta_of_pair(g, &pair, a, b), guess);
                    (pair, guess)
                });
                return RatioOutcome {
                    best,
                    certified_upper: guess,
                    decisions,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_graph::gen;
    use dds_num::candidate_ratios;
    use dds_xycore::xy_core_within;

    /// Test convenience: run a ratio search with throwaway resources.
    fn run(
        g: &DiGraph,
        a: u64,
        b: u64,
        floor_beta: Frac,
        core_pruning: bool,
        tighten: bool,
        seed_pair: Option<&Pair>,
    ) -> RatioOutcome {
        let mut arena = FlowArena::new();
        let mut core_of = |x: u64, y: u64| xy_core_within(g, &StMask::full(g.n()), x, y);
        let mut res = RatioResources {
            arena: &mut arena,
            core_of: &mut core_of,
            exec: &dds_flow::SerialExecutor,
        };
        solve_ratio(
            g,
            a,
            b,
            floor_beta,
            core_pruning,
            tighten,
            seed_pair,
            &mut res,
        )
    }

    /// Brute-force β*(c) over all non-empty pairs.
    fn brute_beta_star(g: &DiGraph, a: u64, b: u64) -> Frac {
        let n = g.n();
        let mut best = Frac::ZERO;
        for s_bits in 1u32..(1 << n) {
            for t_bits in 1u32..(1 << n) {
                let s: Vec<u32> = (0..n as u32).filter(|&v| s_bits >> v & 1 == 1).collect();
                let t: Vec<u32> = (0..n as u32).filter(|&v| t_bits >> v & 1 == 1).collect();
                let beta = beta_of_pair(g, &Pair::new(s, t), a, b);
                if beta > best {
                    best = beta;
                }
            }
        }
        best
    }

    fn check_all_ratios(g: &DiGraph, core_pruning: bool) {
        let n = g.n() as u32;
        let everything = Pair::new((0..n).collect(), (0..n).collect());
        for r in candidate_ratios(g.n() as u64) {
            let (a, b) = (r.a(), r.b());
            let want = brute_beta_star(g, a, b);
            for tighten in [false, true] {
                for seed in [None, Some(&everything)] {
                    let out = run(g, a, b, Frac::ZERO, core_pruning, tighten, seed);
                    let ctx = format!(
                        "ratio {a}/{b} core={core_pruning} tighten={tighten} seeded={}",
                        seed.is_some()
                    );
                    let got = out.best.as_ref().map_or(Frac::ZERO, |(_, beta)| *beta);
                    assert_eq!(got, want, "{ctx}");
                    // A zero floor is beaten by every edge, so both modes
                    // end on a certified achieved guess: β*(c) pinned.
                    assert_eq!(out.certified_upper, want, "exact pin, {ctx}");
                    if let Some((pair, beta)) = &out.best {
                        assert_eq!(beta_of_pair(g, pair, a, b), *beta);
                    }
                }
            }
        }
    }

    #[test]
    fn matches_brute_force_on_fixtures() {
        for g in [
            gen::complete_bipartite(2, 3),
            gen::out_star(4),
            gen::cycle(5),
            gen::path(5),
        ] {
            check_all_ratios(&g, false);
            check_all_ratios(&g, true);
        }
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..4 {
            let g = gen::gnm(6, 14, seed);
            check_all_ratios(&g, false);
            check_all_ratios(&g, true);
        }
    }

    #[test]
    fn floor_prunes_hopeless_ratios() {
        let g = gen::complete_bipartite(2, 3);
        // β*(1/1) = 12/5; a floor above it must return None quickly.
        let out = run(&g, 1, 1, Frac::new(5, 2), false, false, None);
        assert!(out.best.is_none());
        assert_eq!(
            out.certified_upper,
            Frac::new(5, 2),
            "the floor is the bound"
        );
        assert_eq!(out.decisions.len(), 1, "hopeless exit after one cut");
        // A floor just below it must still find the optimum.
        let out = run(
            &g,
            1,
            1,
            Frac::new(12, 5) - Frac::new(1, 1000),
            false,
            false,
            None,
        );
        assert_eq!(out.best.unwrap().1, Frac::new(12, 5));
        // Certify mode with a hopeless floor still pins β*(1/1) = 12/5
        // exactly, below the floor.
        let out = run(&g, 1, 1, Frac::new(5, 2), false, true, None);
        assert!(out.best.is_none(), "floor filter still applies");
        assert_eq!(out.certified_upper, Frac::new(12, 5));
    }

    #[test]
    fn core_pruning_shrinks_networks() {
        // Planted dense block in sparse background: the pruned decisions
        // must touch far fewer alive edges once the floor is meaningful.
        let p = gen::planted(40, 60, 4, 4, 1.0, 3);
        let g = &p.graph;
        let floor = p.pair.density(g).beta_lower_bound(1, 1);
        let pruned = run(g, 1, 1, floor, true, false, None);
        let unpruned = run(g, 1, 1, floor, false, false, None);
        let max_alive_pruned = pruned
            .decisions
            .iter()
            .map(|d| d.alive_edges)
            .max()
            .unwrap_or(0);
        let max_alive_unpruned = unpruned
            .decisions
            .iter()
            .map(|d| d.alive_edges)
            .max()
            .unwrap_or(0);
        assert!(
            max_alive_pruned < max_alive_unpruned,
            "core pruning should shrink the decision networks ({max_alive_pruned} vs {max_alive_unpruned})"
        );
        // And both agree on the answer.
        assert_eq!(
            pruned.best.map(|(_, beta)| beta),
            unpruned.best.map(|(_, beta)| beta)
        );
    }

    #[test]
    fn edgeless_graph_terminates_immediately() {
        let g = DiGraph::empty(4);
        let out = run(&g, 1, 1, Frac::ZERO, true, true, None);
        assert!(out.best.is_none());
        assert!(out.decisions.is_empty());
    }

    use dds_graph::DiGraph;
}
