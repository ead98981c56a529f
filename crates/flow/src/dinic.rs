//! Dinic's maximum-flow algorithm over `u128` capacities.
//!
//! The exact DDS search scales its rational capacities to integers; with
//! ratios up to `n` and guess denominators up to `n(a+b)` the products need
//! far more than 64 bits, so the arithmetic is `u128` throughout (checked:
//! overflow panics loudly instead of corrupting a decision).
//!
//! Besides the flow value, the DDS search needs **both** canonical min
//! cuts:
//!
//! * the *minimal* source side (BFS from `s` in the residual graph) — the
//!   smallest maximizer of the cut objective;
//! * the *maximal* source side (complement of the set that reaches `t` in
//!   the residual graph) — required to recover an optimal pair when the
//!   guess hits the optimum exactly (the last cut of every per-ratio
//!   search) and the minimal cut degenerates to `{s}`.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::executor::FlowExecutor;

/// Identifier of an edge added to a [`FlowNetwork`]; stable across the
/// flow computation.
pub type EdgeId = usize;

/// Networks below this many edges always take the serial Dinic path in
/// [`FlowNetwork::max_flow_with`]: per-edge locking and fork/join barriers
/// only pay for themselves once the level graphs are wide enough to keep
/// several workers busy between barriers.
pub const PARALLEL_EDGE_THRESHOLD: usize = 4096;

/// A mutable flow network. Create, [`add_edge`](FlowNetwork::add_edge),
/// then call [`max_flow`](FlowNetwork::max_flow) once; afterwards the cut
/// accessors are valid.
#[derive(Clone, Debug)]
pub struct FlowNetwork {
    /// Active node count (`0..n`); `adj` may hold more (recycled) slots.
    n: usize,
    /// `to[e]` — head of edge `e`; edges `e` and `e ^ 1` are a
    /// forward/backward pair.
    to: Vec<u32>,
    /// Residual capacities (mutated by the flow computation).
    cap: Vec<u128>,
    /// Initial capacities (kept to report per-edge flow).
    initial_cap: Vec<u128>,
    /// `adj[v]` — indices of edges leaving `v` (forward or residual).
    adj: Vec<Vec<u32>>,
    /// Scratch: BFS levels.
    level: Vec<u32>,
    /// Scratch: per-node DFS cursor.
    iter: Vec<usize>,
}

/// Summary of a computed minimum cut.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinCut {
    /// The max-flow value (= cut capacity).
    pub value: u128,
    /// `source_side[v]` — is node `v` on the source side of the cut?
    pub source_side: Vec<bool>,
}

const UNVISITED: u32 = u32::MAX;

// The atomic view below relies on `AtomicU32` and `u32` sharing layout
// (guaranteed size/bit-validity; alignment checked here for the platform).
const _: () = assert!(
    std::mem::size_of::<AtomicU32>() == 4 && std::mem::align_of::<AtomicU32>() == 4,
    "AtomicU32 must be layout-compatible with u32"
);

/// Reborrows a level array as atomics for the concurrent phases. Sound:
/// same layout (asserted above), and the `&mut` proves exclusive access,
/// which the atomic view then subdivides.
fn atomic_u32_view(xs: &mut [u32]) -> &[AtomicU32] {
    unsafe { &*(std::ptr::from_mut::<[u32]>(xs) as *const [AtomicU32]) }
}

/// Reborrows the capacity array as unsafe cells. Sound: `UnsafeCell<T>`
/// has the same in-memory representation as `T`, and every access goes
/// through [`CapTable`]'s per-pair locks.
fn cell_view(xs: &mut [u128]) -> &[UnsafeCell<u128>] {
    unsafe { &*(std::ptr::from_mut::<[u128]>(xs) as *const [UnsafeCell<u128>]) }
}

/// Residual capacities behind per-edge-pair spinlocks — the shared-state
/// core of the concurrent blocking flow. `u128` loads and stores are not
/// atomic on any mainstream target, so *every* access (even reads) takes
/// the pair's lock; the sections are a handful of instructions, which is
/// why a spinlock beats a mutex here.
struct CapTable<'a> {
    cells: &'a [UnsafeCell<u128>],
    /// One lock per forward/backward pair: `locks[e >> 1]` guards both
    /// `cells[e]` and `cells[e ^ 1]`.
    locks: &'a [AtomicBool],
}

// Safety: all cell access is guarded by the corresponding pair lock.
unsafe impl Sync for CapTable<'_> {}

impl CapTable<'_> {
    fn lock(&self, pair: usize) {
        while self.locks[pair]
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
    }

    fn unlock(&self, pair: usize) {
        self.locks[pair].store(false, Ordering::Release);
    }

    /// Locked read of one residual capacity (a guiding value only — any
    /// decision taken on it is re-validated under [`augment`]'s full-path
    /// locks before flow moves).
    ///
    /// [`augment`]: CapTable::augment
    fn read(&self, e: usize) -> u128 {
        let pair = e >> 1;
        self.lock(pair);
        let v = unsafe { *self.cells[e].get() };
        self.unlock(pair);
        v
    }

    /// Atomically augments along `path` (edge ids, source to sink): locks
    /// every pair in ascending index order (two concurrent augmenters
    /// therefore never deadlock), re-computes the bottleneck under the
    /// locks, and commits it. Returns the units pushed (0 when another
    /// worker saturated an edge first) and the position of the first
    /// now-saturated edge — the caller truncates its path there, exactly
    /// like the serial retreat.
    fn augment(&self, path: &[usize]) -> (u128, usize) {
        let mut pairs: Vec<usize> = path.iter().map(|&e| e >> 1).collect();
        pairs.sort_unstable();
        debug_assert!(pairs.windows(2).all(|w| w[0] != w[1]), "distinct pairs");
        for &p in &pairs {
            self.lock(p);
        }
        let bottleneck = path
            .iter()
            .map(|&e| unsafe { *self.cells[e].get() })
            .min()
            .expect("non-empty path");
        let cut = if bottleneck == 0 {
            path.iter()
                .position(|&e| unsafe { *self.cells[e].get() } == 0)
                .expect("a zero-capacity edge exists")
        } else {
            for &e in path {
                unsafe {
                    *self.cells[e].get() -= bottleneck;
                    *self.cells[e ^ 1].get() += bottleneck;
                }
            }
            path.iter()
                .position(|&e| unsafe { *self.cells[e].get() } == 0)
                .expect("some edge saturates at the bottleneck")
        };
        for &p in &pairs {
            self.unlock(p);
        }
        (bottleneck, cut)
    }
}

impl FlowNetwork {
    /// An empty network on `n` nodes (`0..n`).
    #[must_use]
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            n,
            to: Vec::new(),
            cap: Vec::new(),
            initial_cap: Vec::new(),
            adj: vec![Vec::new(); n],
            level: vec![UNVISITED; n],
            iter: vec![0; n],
        }
    }

    /// Resets to an empty network on `n` nodes **without deallocating**:
    /// edge arrays, per-node adjacency lists, and scratch buffers keep
    /// their capacity. This is what makes a [`FlowArena`]-backed decision
    /// loop allocation-free after the first call.
    ///
    /// [`FlowArena`]: crate::FlowArena
    pub fn reset_for(&mut self, n: usize) {
        self.to.clear();
        self.cap.clear();
        self.initial_cap.clear();
        // Clear every previously used list (entries beyond the new `n`
        // may be recycled by a later, larger reset).
        for list in &mut self.adj {
            list.clear();
        }
        if self.adj.len() < n {
            self.adj.resize_with(n, Vec::new);
        }
        self.level.clear();
        self.level.resize(n, UNVISITED);
        self.iter.clear();
        self.iter.resize(n, 0);
        self.n = n;
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of directed edges added (excluding the implicit residual
    /// twins).
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.to.len() / 2
    }

    /// Adds a directed edge `u → v` with the given capacity and returns its
    /// id.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize, cap: u128) -> EdgeId {
        assert!(u < self.n && v < self.n, "edge endpoint out of range");
        let id = self.to.len();
        self.to.push(v as u32);
        self.cap.push(cap);
        self.initial_cap.push(cap);
        self.adj[u].push(id as u32);
        self.to.push(u as u32);
        self.cap.push(0);
        self.initial_cap.push(0);
        self.adj[v].push(id as u32 + 1);
        id
    }

    /// Flow currently routed through edge `id` (valid after
    /// [`max_flow`](FlowNetwork::max_flow)).
    #[must_use]
    pub fn edge_flow(&self, id: EdgeId) -> u128 {
        self.initial_cap[id] - self.cap[id]
    }

    /// Computes the maximum `s → t` flow (Dinic: repeated BFS level graphs
    /// plus blocking flows). `O(V²E)` worst case, far faster on the
    /// unit-ish networks the DDS search builds. The blocking-flow phase is
    /// iterative (explicit path stack), so arbitrarily long augmenting
    /// paths cannot overflow the call stack.
    ///
    /// # Panics
    /// Panics if `s == t`.
    pub fn max_flow(&mut self, s: usize, t: usize) -> u128 {
        assert_ne!(s, t, "source and sink must differ");
        let mut flow = 0u128;
        while self.bfs_levels(s, t) {
            self.iter.iter_mut().for_each(|i| *i = 0);
            flow = flow
                .checked_add(self.blocking_flow(s, t))
                .expect("flow value overflowed u128");
        }
        flow
    }

    /// [`max_flow`](FlowNetwork::max_flow) with the Dinic phases spread
    /// over `exec`'s workers: parallel BFS level construction (lock-free
    /// CAS discovery, level-synchronous rounds — the level array is
    /// *identical* to the serial BFS) and a concurrent blocking flow in
    /// which workers claim disjoint source edges of the level graph and
    /// push augmenting paths guarded by per-edge locks.
    ///
    /// Small networks (fewer than [`PARALLEL_EDGE_THRESHOLD`] edges) and
    /// serial executors take the exact serial path. The returned flow
    /// value is the (unique) max-flow value either way, and because **the
    /// minimal and maximal min-cut sides are invariant across all maximum
    /// flows**, the cut accessors afterwards return bit-identical answers
    /// to a serial run — only the per-edge flow decomposition may differ.
    ///
    /// # Panics
    /// Panics if `s == t`.
    pub fn max_flow_with(&mut self, s: usize, t: usize, exec: &dyn FlowExecutor) -> u128 {
        let width = exec.width().min(self.adj[s].len().max(1));
        if width <= 1 || self.num_edges() < PARALLEL_EDGE_THRESHOLD {
            return self.max_flow(s, t);
        }
        assert_ne!(s, t, "source and sink must differ");
        // Per-pair locks (edge `e` and its residual twin `e ^ 1` share one
        // lock) and per-worker DFS cursors, allocated once per call and
        // reused across phases.
        let locks: Vec<AtomicBool> = (0..self.to.len() / 2)
            .map(|_| AtomicBool::new(false))
            .collect();
        let cursors: Vec<Mutex<Vec<usize>>> = (0..width)
            .map(|_| Mutex::new(vec![0usize; self.adj.len()]))
            .collect();
        let mut flow = 0u128;
        while self.bfs_levels_parallel(s, t, exec, width) {
            let pushed = self.blocking_flow_parallel(s, t, exec, width, &locks, &cursors);
            // A BFS-reachable sink guarantees ≥ 1 unit: if no worker
            // augmented, capacities never changed during the phase, and a
            // sequentialised DFS over constant capacities finds the path.
            flow = flow
                .checked_add(pushed)
                .expect("flow value overflowed u128");
        }
        flow
    }

    /// Level-synchronous parallel BFS: each round splits the frontier over
    /// the workers, discovery is a CAS on the level slot, and rounds are
    /// joined through the executor. Levels equal the serial BFS levels
    /// exactly (BFS distance is round-invariant); only the intra-frontier
    /// order differs, which nothing observes.
    fn bfs_levels_parallel(
        &mut self,
        s: usize,
        t: usize,
        exec: &dyn FlowExecutor,
        width: usize,
    ) -> bool {
        self.level.iter_mut().for_each(|l| *l = UNVISITED);
        self.level[s] = 0;
        let levels = atomic_u32_view(&mut self.level);
        let (to, cap, adj) = (&self.to, &self.cap, &self.adj);
        let mut frontier: Vec<u32> = vec![s as u32];
        let mut depth = 0u32;
        while !frontier.is_empty() {
            depth += 1;
            // One output slot per worker; merged after the join.
            let nexts: Vec<Mutex<Vec<u32>>> = (0..width).map(|_| Mutex::new(Vec::new())).collect();
            let chunk = frontier.len().div_ceil(width);
            let frontier_ref = &frontier;
            exec.run(width, &|w| {
                let Some(mine) = frontier_ref.chunks(chunk).nth(w) else {
                    return;
                };
                let mut out = Vec::new();
                for &u in mine {
                    for &e in &adj[u as usize] {
                        let v = to[e as usize] as usize;
                        // `cap` is not mutated during the BFS phase, so the
                        // plain read races with nothing.
                        if cap[e as usize] > 0
                            && levels[v]
                                .compare_exchange(
                                    UNVISITED,
                                    depth,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                )
                                .is_ok()
                        {
                            out.push(v as u32);
                        }
                    }
                }
                *nexts[w].lock().expect("bfs slot poisoned") = out;
            });
            frontier.clear();
            for slot in nexts {
                frontier.extend(slot.into_inner().expect("bfs slot poisoned"));
            }
        }
        self.level[t] != UNVISITED
    }

    /// One concurrent blocking-flow phase. Workers claim disjoint source
    /// edges of the level graph from a shared cursor and run independent
    /// advance/retreat walks guided by the (shared, atomically read)
    /// levels; every capacity access goes through the per-pair locks, and
    /// an augmentation locks its whole path (in pair-index order, so two
    /// augmenters can never deadlock) and re-validates the bottleneck
    /// before committing — so the level discipline is purely a heuristic
    /// and every committed augmentation is a genuine residual `s → t`
    /// push. Admissible-direction capacities only decrease within a phase
    /// (augmenting adds capacity to the *reverse*, non-admissible twin),
    /// which is what makes cursor skipping and the shared dead-end marks
    /// (`level[u] := UNVISITED`) sound.
    fn blocking_flow_parallel(
        &mut self,
        s: usize,
        t: usize,
        exec: &dyn FlowExecutor,
        width: usize,
        locks: &[AtomicBool],
        cursors: &[Mutex<Vec<usize>>],
    ) -> u128 {
        let levels = atomic_u32_view(&mut self.level);
        let caps = CapTable {
            cells: cell_view(&mut self.cap),
            locks,
        };
        let (to, adj) = (&self.to, &self.adj);
        let src_edges: &[u32] = &adj[s];
        let src_cursor = AtomicUsize::new(0);
        let total = Mutex::new(0u128);
        let caps_ref = &caps;
        exec.run(width, &|w| {
            let mut iters = cursors[w].lock().expect("cursor slot poisoned");
            iters.iter_mut().for_each(|i| *i = 0);
            let mut path: Vec<usize> = Vec::new();
            let mut pushed = 0u128;
            'walk: loop {
                if path.is_empty() {
                    // Claim the next unexplored start of the level graph.
                    loop {
                        let k = src_cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&e) = src_edges.get(k) else {
                            break 'walk;
                        };
                        let e = e as usize;
                        let v = to[e] as usize;
                        if levels[v].load(Ordering::Relaxed) == 1 && caps_ref.read(e) > 0 {
                            path.push(e);
                            break;
                        }
                    }
                }
                let u = to[*path.last().expect("non-empty path")] as usize;
                if u == t {
                    let (bottleneck, cut) = caps_ref.augment(&path);
                    pushed = pushed
                        .checked_add(bottleneck)
                        .expect("phase flow overflowed u128");
                    path.truncate(cut);
                    continue;
                }
                // Advance along the next admissible edge, if any. A node
                // another worker already dead-marked (level == UNVISITED)
                // is retreated from immediately — without the guard the
                // `lu + 1` comparison would wrap to 0 and walk into `s`.
                let lu = levels[u].load(Ordering::Relaxed);
                let mut advanced = false;
                while lu != UNVISITED && iters[u] < adj[u].len() {
                    let e = adj[u][iters[u]] as usize;
                    let v = to[e] as usize;
                    if levels[v].load(Ordering::Relaxed) == lu + 1 && caps_ref.read(e) > 0 {
                        path.push(e);
                        advanced = true;
                        break;
                    }
                    iters[u] += 1;
                }
                if advanced {
                    continue;
                }
                // Dead end: remove u from the level graph for everyone and
                // step back (to the claim loop when the path empties).
                levels[u].store(UNVISITED, Ordering::Relaxed);
                let e = path.pop().expect("non-empty path");
                if let Some(&prev) = path.last() {
                    debug_assert_eq!(to[prev] as usize, to[e ^ 1] as usize);
                }
                let tail = to[e ^ 1] as usize;
                if tail != s {
                    iters[tail] += 1;
                }
            }
            *total.lock().expect("total poisoned") += pushed;
        });
        total.into_inner().expect("total poisoned")
    }

    fn bfs_levels(&mut self, s: usize, t: usize) -> bool {
        self.level.iter_mut().for_each(|l| *l = UNVISITED);
        let mut queue = std::collections::VecDeque::new();
        self.level[s] = 0;
        queue.push_back(s as u32);
        while let Some(u) = queue.pop_front() {
            for &e in &self.adj[u as usize] {
                let v = self.to[e as usize];
                if self.cap[e as usize] > 0 && self.level[v as usize] == UNVISITED {
                    self.level[v as usize] = self.level[u as usize] + 1;
                    queue.push_back(v);
                }
            }
        }
        self.level[t] != UNVISITED
    }

    /// One blocking flow in the current level graph: repeated
    /// advance/retreat along an explicit edge-path stack.
    fn blocking_flow(&mut self, s: usize, t: usize) -> u128 {
        let mut total = 0u128;
        let mut path: Vec<usize> = Vec::new();
        loop {
            let u = path.last().map_or(s, |&e| self.to[e] as usize);
            if u == t {
                // Augment by the bottleneck, then retreat to just before
                // the first saturated edge.
                let bottleneck = path
                    .iter()
                    .map(|&e| self.cap[e])
                    .min()
                    .expect("non-empty path");
                total += bottleneck;
                for &e in &path {
                    self.cap[e] -= bottleneck;
                    self.cap[e ^ 1] += bottleneck;
                }
                let cut = path
                    .iter()
                    .position(|&e| self.cap[e] == 0)
                    .expect("some edge saturates at the bottleneck");
                path.truncate(cut);
                continue;
            }
            // Advance along the next admissible edge, if any.
            let mut advanced = false;
            while self.iter[u] < self.adj[u].len() {
                let e = self.adj[u][self.iter[u]] as usize;
                let v = self.to[e] as usize;
                if self.cap[e] > 0 && self.level[v] == self.level[u] + 1 {
                    path.push(e);
                    advanced = true;
                    break;
                }
                self.iter[u] += 1;
            }
            if advanced {
                continue;
            }
            if u == s {
                return total;
            }
            // Dead end: remove u from the level graph and step back.
            self.level[u] = UNVISITED;
            let e = path.pop().expect("non-source dead end has a path edge");
            let tail = self.to[e ^ 1] as usize;
            self.iter[tail] += 1;
        }
    }

    /// The **minimal** min-cut source side: nodes reachable from `s` in the
    /// residual graph. Call after [`max_flow`](FlowNetwork::max_flow).
    #[must_use]
    pub fn min_cut_source_side(&self, s: usize) -> Vec<bool> {
        let mut seen = vec![false; self.n];
        let mut stack = vec![s];
        seen[s] = true;
        while let Some(u) = stack.pop() {
            for &e in &self.adj[u] {
                let v = self.to[e as usize] as usize;
                if self.cap[e as usize] > 0 && !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        seen
    }

    /// The **maximal** min-cut source side: the complement of the nodes
    /// that can reach `t` in the residual graph. Call after
    /// [`max_flow`](FlowNetwork::max_flow).
    #[must_use]
    pub fn max_cut_source_side(&self, t: usize) -> Vec<bool> {
        // v reaches t iff some residual edge v → w leads to a reaching w.
        // Walk backwards from t: the residual edge v → w corresponds to the
        // stored pair (e at w points to v, with cap[e ^ 1] > 0).
        let mut reaches_t = vec![false; self.n];
        let mut stack = vec![t];
        reaches_t[t] = true;
        while let Some(w) = stack.pop() {
            for &e in &self.adj[w] {
                let v = self.to[e as usize] as usize;
                if self.cap[(e ^ 1) as usize] > 0 && !reaches_t[v] {
                    reaches_t[v] = true;
                    stack.push(v);
                }
            }
        }
        reaches_t.iter().map(|&r| !r).collect()
    }

    /// Convenience: max flow plus the minimal source side.
    pub fn min_cut(&mut self, s: usize, t: usize) -> MinCut {
        let value = self.max_flow(s, t);
        MinCut {
            value,
            source_side: self.min_cut_source_side(s),
        }
    }

    /// Capacity of the cut induced by `source_side` (for verification:
    /// equals the max flow iff the side is a min cut).
    #[must_use]
    pub fn cut_capacity(&self, source_side: &[bool]) -> u128 {
        let mut total = 0u128;
        for u in 0..self.n {
            if !source_side[u] {
                continue;
            }
            for &e in &self.adj[u] {
                let e = e as usize;
                // Only original forward edges (even index) carry capacity
                // out of the cut.
                if e.is_multiple_of(2) && !source_side[self.to[e] as usize] {
                    total += self.initial_cap[e];
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic CLRS example network (max flow 23).
    fn clrs() -> FlowNetwork {
        let mut net = FlowNetwork::new(6);
        net.add_edge(0, 1, 16);
        net.add_edge(0, 2, 13);
        net.add_edge(1, 2, 10);
        net.add_edge(2, 1, 4);
        net.add_edge(1, 3, 12);
        net.add_edge(3, 2, 9);
        net.add_edge(2, 4, 14);
        net.add_edge(4, 3, 7);
        net.add_edge(3, 5, 20);
        net.add_edge(4, 5, 4);
        net
    }

    #[test]
    fn clrs_max_flow() {
        let mut net = clrs();
        assert_eq!(net.max_flow(0, 5), 23);
    }

    #[test]
    fn min_cut_value_matches_flow() {
        let mut net = clrs();
        let cut = net.min_cut(0, 5);
        assert_eq!(cut.value, 23);
        assert_eq!(net.cut_capacity(&cut.source_side), 23);
        assert!(cut.source_side[0]);
        assert!(!cut.source_side[5]);
    }

    #[test]
    fn maximal_cut_is_a_min_cut_and_contains_minimal() {
        let mut net = clrs();
        let flow = net.max_flow(0, 5);
        let min_side = net.min_cut_source_side(0);
        let max_side = net.max_cut_source_side(5);
        assert_eq!(net.cut_capacity(&max_side), flow);
        for v in 0..6 {
            assert!(!min_side[v] || max_side[v], "minimal ⊆ maximal at node {v}");
        }
    }

    #[test]
    fn disconnected_sink_gives_zero_flow() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 5);
        net.add_edge(2, 3, 5);
        assert_eq!(net.max_flow(0, 3), 0);
        let side = net.min_cut_source_side(0);
        assert_eq!(side, vec![true, true, false, false]);
    }

    #[test]
    fn parallel_edges_accumulate() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 3);
        net.add_edge(0, 1, 4);
        assert_eq!(net.max_flow(0, 1), 7);
    }

    #[test]
    fn capacities_beyond_u64() {
        let big = u128::from(u64::MAX) * 8;
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, big);
        net.add_edge(1, 2, big / 2);
        assert_eq!(net.max_flow(0, 2), big / 2);
    }

    #[test]
    fn edge_flow_reporting() {
        let mut net = FlowNetwork::new(3);
        let a = net.add_edge(0, 1, 10);
        let b = net.add_edge(1, 2, 4);
        assert_eq!(net.max_flow(0, 2), 4);
        assert_eq!(net.edge_flow(a), 4);
        assert_eq!(net.edge_flow(b), 4);
    }

    #[test]
    fn zero_capacity_edges_are_inert() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 0);
        net.add_edge(1, 2, 9);
        assert_eq!(net.max_flow(0, 2), 0);
    }

    #[test]
    fn boundary_recovery_shape() {
        // Two disjoint augmenting paths; at saturation, both the minimal
        // and maximal cuts are valid min cuts.
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 1);
        net.add_edge(1, 3, 1);
        net.add_edge(0, 2, 1);
        net.add_edge(2, 3, 1);
        let flow = net.max_flow(0, 3);
        assert_eq!(flow, 2);
        let min_side = net.min_cut_source_side(0);
        let max_side = net.max_cut_source_side(3);
        assert_eq!(net.cut_capacity(&min_side), 2);
        assert_eq!(net.cut_capacity(&max_side), 2);
    }

    #[test]
    fn reset_for_recycles_buffers_and_matches_fresh() {
        // Run CLRS, reset to a smaller network, then to a bigger one: every
        // answer must match a freshly allocated network.
        let mut net = clrs();
        assert_eq!(net.max_flow(0, 5), 23);

        net.reset_for(3);
        assert_eq!(net.num_nodes(), 3);
        assert_eq!(net.num_edges(), 0);
        net.add_edge(0, 1, 10);
        net.add_edge(1, 2, 4);
        assert_eq!(net.max_flow(0, 2), 4);
        assert_eq!(net.min_cut_source_side(0), vec![true, true, false]);

        net.reset_for(6);
        let mut fresh = clrs();
        // Rebuild CLRS into the recycled buffers.
        for (u, v, c) in [
            (0, 1, 16),
            (0, 2, 13),
            (1, 2, 10),
            (2, 1, 4),
            (1, 3, 12),
            (3, 2, 9),
            (2, 4, 14),
            (4, 3, 7),
            (3, 5, 20),
            (4, 5, 4),
        ] {
            net.add_edge(u, v, c);
        }
        assert_eq!(net.max_flow(0, 5), fresh.max_flow(0, 5));
        assert_eq!(net.min_cut_source_side(0), fresh.min_cut_source_side(0));
        assert_eq!(net.max_cut_source_side(5), fresh.max_cut_source_side(5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reset_shrinks_the_valid_node_range() {
        let mut net = FlowNetwork::new(6);
        net.reset_for(2);
        let _ = net.add_edge(0, 4, 1); // 4 was valid before the reset
    }

    #[test]
    #[should_panic(expected = "source and sink must differ")]
    fn same_source_sink_rejected() {
        let mut net = FlowNetwork::new(2);
        let _ = net.max_flow(1, 1);
    }

    #[test]
    fn very_long_path_does_not_overflow_the_stack() {
        // A 200k-node chain: the recursive formulation would blow the call
        // stack here; the iterative blocking flow must handle it.
        let n = 200_000;
        let mut net = FlowNetwork::new(n);
        for v in 0..n - 1 {
            net.add_edge(v, v + 1, 3);
        }
        assert_eq!(net.max_flow(0, n - 1), 3);
        let side = net.min_cut_source_side(0);
        assert!(side[0]);
        assert!(!side[n - 1]);
    }

    /// A genuinely multi-threaded executor for the tests (scoped threads,
    /// one per task) — the host may be single-core, so this is what makes
    /// the concurrency paths actually interleave under test.
    struct ScopedExecutor(usize);

    impl crate::FlowExecutor for ScopedExecutor {
        fn width(&self) -> usize {
            self.0
        }

        fn run(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
            std::thread::scope(|scope| {
                for i in 0..tasks {
                    scope.spawn(move || f(i));
                }
            });
        }
    }

    /// Deterministic xorshift, to build networks without external deps.
    fn rng(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed | 1;
        move |bound| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        }
    }

    /// A layered random network big enough to cross
    /// [`PARALLEL_EDGE_THRESHOLD`], shaped like the DDS decision networks
    /// (source fan-out, wide middle, sink fan-in).
    fn layered_network(seed: u64, layer: usize) -> FlowNetwork {
        let mut next = rng(seed);
        let n = 2 + 2 * layer;
        let mut net = FlowNetwork::new(n);
        let a = |i: usize| 2 + i;
        let b = |j: usize| 2 + layer + j;
        for i in 0..layer {
            net.add_edge(0, a(i), u128::from(1 + next(50)));
            net.add_edge(b(i), 1, u128::from(1 + next(50)));
        }
        // ~6 random middle edges per left node, plus some shortcuts.
        for i in 0..layer {
            for _ in 0..6 {
                net.add_edge(
                    a(i),
                    b(next(layer as u64) as usize),
                    u128::from(1 + next(20)),
                );
            }
            if next(4) == 0 {
                net.add_edge(a(i), 1, u128::from(1 + next(10)));
            }
        }
        assert!(net.num_edges() >= PARALLEL_EDGE_THRESHOLD);
        net
    }

    #[test]
    fn parallel_matches_serial_on_layered_networks() {
        for seed in [1u64, 7, 42, 1234] {
            let mut serial = layered_network(seed, 600);
            let mut parallel = serial.clone();
            let flow = serial.max_flow(0, 1);
            for width in [2, 3, 8] {
                let mut net = parallel.clone();
                let got = net.max_flow_with(0, 1, &ScopedExecutor(width));
                assert_eq!(got, flow, "seed={seed} width={width}");
                // Min-cut sides are unique across max flows — demand
                // bit-identical verdicts, not just equal values.
                assert_eq!(
                    net.min_cut_source_side(0),
                    serial.min_cut_source_side(0),
                    "seed={seed} width={width}"
                );
                assert_eq!(
                    net.max_cut_source_side(1),
                    serial.max_cut_source_side(1),
                    "seed={seed} width={width}"
                );
                assert_eq!(net.cut_capacity(&net.min_cut_source_side(0)), flow);
            }
            let got = parallel.max_flow_with(0, 1, &ScopedExecutor(1));
            assert_eq!(got, flow, "width 1 must take the serial path");
        }
    }

    #[test]
    fn small_networks_take_the_serial_path_under_any_executor() {
        let mut net = clrs();
        assert_eq!(net.max_flow_with(0, 5, &ScopedExecutor(8)), 23);
        assert_eq!(net.min_cut_source_side(0), clrs_min_side());
    }

    fn clrs_min_side() -> Vec<bool> {
        let mut net = clrs();
        let _ = net.max_flow(0, 5);
        net.min_cut_source_side(0)
    }

    #[test]
    fn parallel_handles_capacities_beyond_u64() {
        // Locked u128 arithmetic must survive bottlenecks past 64 bits.
        let mut next = rng(99);
        let big = u128::from(u64::MAX) * 16;
        let layer = 1200usize;
        let mut net = FlowNetwork::new(2 + 2 * layer);
        for i in 0..layer {
            net.add_edge(0, 2 + i, big + u128::from(next(1000)));
            net.add_edge(2 + i, 2 + layer + i, big / 2 + u128::from(next(1000)));
            net.add_edge(2 + layer + i, 1, big + u128::from(next(1000)));
            net.add_edge(2 + i, 2 + layer + ((i + 1) % layer), u128::from(next(64)));
        }
        assert!(net.num_edges() >= PARALLEL_EDGE_THRESHOLD);
        let mut serial = net.clone();
        let want = serial.max_flow(0, 1);
        let got = net.max_flow_with(0, 1, &ScopedExecutor(4));
        assert_eq!(got, want);
        assert_eq!(net.min_cut_source_side(0), serial.min_cut_source_side(0));
    }

    #[test]
    fn multiple_augmenting_paths_within_one_level_graph() {
        // Diamond with shared middle: blocking flow must find both paths
        // without a new BFS.
        let mut net = FlowNetwork::new(6);
        net.add_edge(0, 1, 5);
        net.add_edge(0, 2, 5);
        net.add_edge(1, 3, 5);
        net.add_edge(2, 3, 5);
        net.add_edge(3, 4, 7);
        net.add_edge(4, 5, 7);
        assert_eq!(net.max_flow(0, 5), 7);
    }
}
