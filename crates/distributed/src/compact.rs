//! Compact routing: ball-local exact tables + landmark/tree routing,
//! breaking the `O(n²)` routing-state wall of [`crate::tables`].
//!
//! The dense [`crate::tables::RoutingTables`] keep `O(n)` state per node and
//! dominate every benchmark past a few thousand nodes.  The paper's own
//! structure is the way out: each node already maintains its radius-`R` ball
//! (`R = r − 1 + β`, the engine's dirty radius) and the spanner's dominating
//! trees, so [`CompactRouter`] stores, per node,
//!
//! * **ball rows** — exact canonical next hops for every destination within
//!   distance `R` in `H_u` (a truncated [`crate::tables::fill_row`] BFS over
//!   the same [`crate::delta::SparseView`] the delta repair sweeps use).  A
//!   BFS prefix is exact: every depth-`d ≤ R` node is discovered at its true
//!   distance, and its canonical hop is final once all depth-`d − 1`
//!   predecessors have been expanded — so entries with `dist ≤ R` are
//!   *bit-identical* to the corresponding full-row entries;
//! * **landmark trees** — a small landmark set (a stride sample of the node
//!   ids plus the minimum node of every spanner component, so every
//!   reachable target has a reachable landmark), each carrying one BFS tree
//!   over the **pure spanner** adjacency with canonical (minimum-id) parents
//!   and DFS preorder intervals.  Far targets resolve a *home landmark*
//!   (closest by tree distance) and route up/down its tree: interval
//!   containment decides descend-vs-ascend statelessly at every hop;
//! * an **LRU row cache** for hot destinations: [`CompactRouter::exact_next_hop`]
//!   materialises a full canonical row on demand (the scratch-pool epoch
//!   idiom — epoch-stamped slots, sentinel slot map), and each commit
//!   invalidates cached rows with the *same* O(1)-per-flip predicate
//!   [`crate::delta::DeltaRouter`] proves exact, so surviving rows never go
//!   stale.
//!
//! Per-node state is `Õ(ball + landmarks)`:
//! `12·|ball| + 16·L + 12·cache_capacity` bytes instead of the dense `8n`.
//!
//! # Delivery and stretch
//!
//! [`CompactRouter::forward`] first walks ball hops while the target is
//! ball-visible (each such hop strictly decreases `d_{H_w}(w, dst)`: the
//! shortest-path suffix avoids `w`, lies in the spanner plus the *next*
//! node's incident edges, hence stays ball-visible at smaller distance), and
//! otherwise climbs/descends the home-landmark tree (strictly decreasing
//! tree distance).  Both regimes are loop-free and the ball regime can only
//! shortcut the tree route, so the hop count is bounded by
//! `d_T(src, ℓ*) + d_T(ℓ*, dst)` — the classical landmark bound.  Measured
//! stretch against true graph distances is what the bench and the session's
//! `stretch_p50/p99` metrics report.
//!
//! # Incremental repair
//!
//! Per engine commit ([`CompactRouter::apply`]):
//!
//! * **ball rows** rebuild for the conservative dirty set
//!   `delta.recomputed ∪ ⋃ ball_G(endpoint, R)` over all spanner-flip
//!   endpoints (post-commit topology; `d_G ≤ d_{H_u}` makes the `G`-ball a
//!   superset of every affected `H_u`-ball, and reachability lost through a
//!   batch removal is already covered by `recomputed`, which contains the
//!   pre-commit dirty balls of every batch endpoint);
//! * **landmark trees** are functions of the pure spanner, so link-only
//!   commits skip them entirely; otherwise each flip is tested against each
//!   tree with an O(1) predicate (mirroring the delta-router row predicate:
//!   an equal-depth flip, an added non-improving predecessor, or a removed
//!   non-parent predecessor provably leaves distances, canonical parents and
//!   hence the DFS intervals unchanged).  A dirty tree typically changes a
//!   couple of distances and parents out of `n`, so it is repaired in place
//!   rather than rebuilt (see below);
//! * **cached rows** run the exact delta-router flip predicate (with
//!   in-place support maintenance) and drop only the rows a flip actually
//!   changes, plus the rows of batch endpoints.
//!
//! ## How a dirty landmark tree is repaired
//!
//! Against the post-commit spanner adjacency, in three steps that share one
//! scratch pool across trees (the per-tree state stays `dist`, `parent`,
//! `tin`, `tout`):
//!
//! 1. **Re-settle distances** with the unit-weight dynamic BFS update
//!    (Ramalingam & Reps) that [`crate::delta`] runs on rows.  In increasing
//!    old distance, a node is *lost* when no neighbour one level up is still
//!    unaffected; seeds are the deeper endpoints of removed edges between
//!    consecutive levels.  Lost nodes then restart from their unaffected
//!    neighbours, added edges' endpoints are pushed as shortcuts, and
//!    relaxation runs to a fixpoint, which is exactly the new BFS distance.
//! 2. **Re-derive canonical parents.**  A parent is the minimum-id
//!    neighbour one level up: a function of the node's distance, its edges
//!    and its neighbours' distances.  So only touched nodes, their
//!    neighbours and the flip endpoints are re-derived, in O(deg) each.  A
//!    parent-only change (a removed canonical-parent edge with another
//!    predecessor left, an added lower-id predecessor) takes no step-1 work.
//! 3. **Relabel what moved.**  Only the old and new parents of a node whose
//!    parent changed have a different child list; mark them and their
//!    ancestors in the new tree as the *skeleton*.  Below any other node the
//!    subtree is exactly the old one (every node in it keeps its children,
//!    and children are ordered by id), so its preorder block keeps its shape
//!    and at most shifts.  The relabel re-runs the preorder DFS on the
//!    skeleton only: each off-skeleton child block is skipped in O(1) when
//!    its offset is unchanged, else shifted by a constant, and jumped over.
//!    Nested or overlapping moves need no special case, and the cost is the
//!    skeleton plus the labels that actually change, not `n` (though a
//!    batch that moves many scattered subtrees does change most labels).
//!
//! The full rebuild (`rebuild_tree`) runs only in [`CompactRouter::new`],
//! for newly elected landmarks, and for a tree whose reachable set changed:
//! an added edge with exactly one reachable endpoint (checked up front), or
//! a lost node that step 1 cannot re-settle.
//!
//! Landmark re-election (a full `connected_components`) runs only when some
//! tree's reachable set changed.  That is sound because each way the
//! components can change shows up as such a tree.  A split cuts a tree
//! edge of the old component minimum's tree (its tree spans the component),
//! so that tree is dirty and loses reach.  A merge adds an edge from that
//! tree's component to a node it does not reach, so that tree is dirty and
//! gains reach.  Without a component change the landmark set (a fixed
//! stride sample plus the component minima) is unchanged.  Repaired trees
//! are pinned against a fresh [`CompactRouter::new`] in the unit tests, and
//! debug builds rebuild the last tree repaired in place on every commit and
//! assert all four arrays equal.

use crate::delta::SparseView;
use crate::tables::{fill_row, NO_HOP, UNREACH};
use rspan_engine::{RspanEngine, SpannerDelta, TopologyChange};
use rspan_graph::{
    bfs_into, connected_components, sorted_insert, sorted_remove, Adjacency, EpochFlags, Node,
    TraversalScratch,
};
use rspan_obs::{ObsEvent, ObsHandle, Phase};
use rspan_telemetry::{Counter, Gauge, Hist, Span, TelemetryHandle};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Pure-spanner adjacency view (no incident-edge augmentation) — the
/// substrate landmark trees and components are computed on.
struct SpannerOnly<'a> {
    n: usize,
    adj: &'a [Vec<Node>],
}

impl Adjacency for SpannerOnly<'_> {
    fn num_nodes(&self) -> usize {
        self.n
    }

    #[inline]
    fn for_each_neighbor(&self, u: Node, f: &mut dyn FnMut(Node)) {
        for &v in &self.adj[u as usize] {
            f(v);
        }
    }

    fn degree_hint(&self, u: Node) -> usize {
        self.adj[u as usize].len()
    }

    fn contains_edge(&self, u: Node, v: Node) -> bool {
        self.adj[u as usize].binary_search(&v).is_ok()
    }
}

/// Configuration for [`CompactRouter`] (and the session's `Repair::Local`).
///
/// Kept `Copy + Eq` (no floats) so it can ride inside session enums; the
/// stretch *bound* is a property of the measurement, not the router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LocalConfig {
    /// Target landmark count for the stride sample; `0` means `⌈√n⌉`.
    /// The per-spanner-component minimum nodes are always added on top so
    /// every reachable destination has a reachable landmark.
    pub landmarks: usize,
    /// LRU row-cache capacity in full rows; `0` disables caching (exact
    /// queries then refill one persistent scratch row per call).
    pub cache_capacity: usize,
}

impl Default for LocalConfig {
    fn default() -> Self {
        LocalConfig {
            landmarks: 0,
            cache_capacity: 32,
        }
    }
}

/// Row-cache traffic counters (monotonic since construction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact queries answered from a cached row.
    pub hits: u64,
    /// Exact queries that had to materialise a row.
    pub misses: u64,
    /// Rows evicted by LRU pressure.
    pub evictions: u64,
    /// Full rows materialised (misses, counted per fill).
    pub materialized: u64,
}

/// What one [`CompactRouter::apply`] did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalRepairStats {
    /// Router epoch after the repair (mirrors the consumed delta's epoch).
    pub epoch: u64,
    /// Ball rows rebuilt.
    pub ball_rows: usize,
    /// Landmark trees repaired in place or rebuilt (dirty or newly elected).
    pub landmark_trees: usize,
    /// Cached rows dropped by the flip predicate or batch endpoints.
    pub cache_invalidated: usize,
    /// Topology changes in the consumed batch.
    pub batch_changes: usize,
    /// Spanner edges that entered or left.
    pub spanner_flips: usize,
}

/// One exact ball entry: destination, canonical next hop, `H_u` distance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct BallEntry {
    dst: Node,
    hop: Node,
    dist: u32,
}

/// One landmark's BFS tree over the pure spanner: distances, canonical
/// (minimum-id) parents and DFS preorder intervals for stateless
/// descend-vs-ascend decisions.
struct LandmarkTree {
    root: Node,
    dist: Vec<u32>,
    parent: Vec<Node>,
    tin: Vec<u32>,
    tout: Vec<u32>,
}

impl LandmarkTree {
    fn empty(root: Node) -> Self {
        LandmarkTree {
            root,
            dist: Vec::new(),
            parent: Vec::new(),
            tin: Vec::new(),
            tout: Vec::new(),
        }
    }
}

/// Rebuilds `tree` from scratch over `adj`: canonical-parent BFS (every
/// predecessor of `v` is dequeued before `v` is expanded, so the min-id fold
/// is final by then) followed by an iterative DFS assigning preorder
/// intervals, children visited in ascending id order (the sorted adjacency
/// order restricted to `parent[c] == w`).
fn rebuild_tree(
    tree: &mut LandmarkTree,
    n: usize,
    adj: &[Vec<Node>],
    queue: &mut Vec<Node>,
    stack: &mut Vec<(Node, usize)>,
) {
    tree.dist.clear();
    tree.dist.resize(n, UNREACH);
    tree.parent.clear();
    tree.parent.resize(n, NO_HOP);
    tree.tin.clear();
    tree.tin.resize(n, 0);
    tree.tout.clear();
    tree.tout.resize(n, 0);
    queue.clear();
    tree.dist[tree.root as usize] = 0;
    queue.push(tree.root);
    let mut head = 0usize;
    while head < queue.len() {
        let w = queue[head];
        head += 1;
        let dw = tree.dist[w as usize];
        for &v in &adj[w as usize] {
            let dv = &mut tree.dist[v as usize];
            if *dv == UNREACH {
                *dv = dw + 1;
                tree.parent[v as usize] = w;
                queue.push(v);
            } else if *dv == dw + 1 && w < tree.parent[v as usize] {
                tree.parent[v as usize] = w;
            }
        }
    }
    stack.clear();
    let mut timer = 0u32;
    tree.tin[tree.root as usize] = 0;
    stack.push((tree.root, 0));
    while let Some(&mut (w, ref mut i)) = stack.last_mut() {
        let list = &adj[w as usize];
        let mut descended = false;
        while *i < list.len() {
            let c = list[*i];
            *i += 1;
            if tree.parent[c as usize] == w {
                timer += 1;
                tree.tin[c as usize] = timer;
                stack.push((c, 0));
                descended = true;
                break;
            }
        }
        if !descended {
            tree.tout[w as usize] = timer;
            stack.pop();
        }
    }
}

/// Scratch shared by every landmark-tree repair (grown on first use and
/// reused across trees, so it is not per-tree state).
#[derive(Default)]
struct TreeScratch {
    /// `(dist, node)` min-heap of the lost-node and re-settle phases.
    heap: BinaryHeap<Reverse<(u32, Node)>>,
    /// Lost-node candidates, then the nodes whose parent is re-derived,
    /// then the relabel skeleton.
    seen: EpochFlags,
    /// Nodes whose distance the repair rewrote (lost or lowered).
    touched: EpochFlags,
    touched_list: Vec<Node>,
    /// Parent re-derivation list, then the block-shift walk.
    walk: Vec<Node>,
    /// `(node, old parent)` for every node whose canonical parent changed.
    moved: Vec<(Node, Node)>,
    /// DFS stack of [`rebuild_tree`] and of the relabel walk.
    stack: Vec<(Node, usize)>,
}

/// Brings a dirty `tree` from the pre-commit spanner to the post-commit
/// `adj` in place (see "How a dirty landmark tree is repaired" in the
/// module docs): re-settle the distances the `flips` change, re-derive the
/// canonical parents whose inputs changed, then relabel only the preorder
/// blocks that moved.  When the tree's reachable set changes it is rebuilt
/// from scratch instead, and `true` is returned.
fn repair_tree(
    tree: &mut LandmarkTree,
    adj: &[Vec<Node>],
    flips: &[(Node, Node, bool)],
    s: &mut TreeScratch,
    queue: &mut Vec<Node>,
) -> bool {
    let n = adj.len();
    // An added edge with exactly one reachable endpoint extends the reach.
    let gains = flips.iter().any(|&(x, y, is_add)| {
        is_add && (tree.dist[x as usize] == UNREACH) != (tree.dist[y as usize] == UNREACH)
    });
    if gains {
        rebuild_tree(tree, n, adj, queue, &mut s.stack);
        return true;
    }
    let dist = &mut tree.dist;
    let parent = &mut tree.parent;
    let heap = &mut s.heap;
    let seen = &mut s.seen;
    let touched_list = &mut s.touched_list;
    heap.clear();
    touched_list.clear();
    seen.begin(n);
    s.touched.begin(n);

    // Phase 1: in increasing old distance, find the nodes left without an
    // unaffected neighbour one level up.  Seeds are the deeper endpoints of
    // removed edges that linked two consecutive levels.
    for &(x, y, is_add) in flips {
        let (dx, dy) = (dist[x as usize], dist[y as usize]);
        let (dlo, hi, dhi) = if dx < dy { (dx, y, dy) } else { (dy, x, dx) };
        if !is_add && dhi != UNREACH && dhi == dlo + 1 && seen.set(hi) {
            heap.push(Reverse((dhi, hi)));
        }
    }
    while let Some(Reverse((d, z))) = heap.pop() {
        // Lost nodes already read `UNREACH`, so this only finds unaffected
        // predecessors.
        if adj[z as usize].iter().any(|&w| dist[w as usize] == d - 1) {
            continue;
        }
        dist[z as usize] = UNREACH;
        s.touched.set(z);
        touched_list.push(z);
        for &c in &adj[z as usize] {
            if dist[c as usize] == d + 1 && seen.set(c) {
                heap.push(Reverse((d + 1, c)));
            }
        }
    }

    // Phase 2: re-settle.  Lost nodes start from their unaffected
    // neighbours, added edges act as shortcuts, and unit-weight relaxation
    // closes every edge left inconsistent.
    for &z in touched_list.iter() {
        let est = adj[z as usize]
            .iter()
            .map(|&w| dist[w as usize].saturating_add(1))
            .min()
            .unwrap_or(UNREACH);
        if est != UNREACH {
            dist[z as usize] = est;
            heap.push(Reverse((est, z)));
        }
    }
    for &(x, y, _) in flips.iter().filter(|&&(_, _, is_add)| is_add) {
        for v in [x, y] {
            if dist[v as usize] != UNREACH {
                heap.push(Reverse((dist[v as usize], v)));
            }
        }
    }
    while let Some(Reverse((d, v))) = heap.pop() {
        if dist[v as usize] != d {
            continue; // superseded by a shorter entry
        }
        for &w in &adj[v as usize] {
            if d + 1 < dist[w as usize] {
                dist[w as usize] = d + 1;
                if s.touched.set(w) {
                    touched_list.push(w);
                }
                heap.push(Reverse((d + 1, w)));
            }
        }
    }
    // Only lost nodes can end unreached: the tree lost reach.
    if touched_list.iter().any(|&z| dist[z as usize] == UNREACH) {
        rebuild_tree(tree, n, adj, queue, &mut s.stack);
        return true;
    }

    // Phase 3: a canonical parent is the minimum-id neighbour one level up,
    // a function of the node's distance, its edges and its neighbours'
    // distances.  Re-derive it wherever one of those changed: touched
    // nodes, their neighbours and the flip endpoints.
    seen.begin(n);
    s.walk.clear();
    for &t in touched_list.iter() {
        for v in std::iter::once(t).chain(adj[t as usize].iter().copied()) {
            if seen.set(v) {
                s.walk.push(v);
            }
        }
    }
    for &(x, y, _) in flips {
        for v in [x, y] {
            if seen.set(v) {
                s.walk.push(v);
            }
        }
    }
    s.moved.clear();
    for &v in &s.walk {
        let d = dist[v as usize];
        let p = match d {
            0 | UNREACH => NO_HOP,
            _ => *adj[v as usize]
                .iter()
                .find(|&&w| dist[w as usize] == d - 1)
                .expect("a reachable node has a neighbour one level up"),
        };
        let old = std::mem::replace(&mut parent[v as usize], p);
        if old != p {
            s.moved.push((v, old));
        }
    }
    if s.moved.is_empty() {
        return false;
    }

    // Relabel.  Only the old and new parents of moved nodes changed their
    // child lists; they and their (new) ancestors form the skeleton.  Below
    // any other node the subtree is the old one, so its preorder block keeps
    // its shape and only shifts.  The walk re-runs the DFS on the skeleton
    // alone: each off-skeleton child block is shifted to the running
    // timer (skipped in O(1) when it has not moved) and jumped over.
    seen.begin(n);
    for &(x, old) in &s.moved {
        for mut w in [old, parent[x as usize]] {
            while w != NO_HOP && seen.set(w) {
                w = parent[w as usize];
            }
        }
    }
    let (tin, tout) = (&mut tree.tin, &mut tree.tout);
    let mut timer = 0u32;
    s.stack.clear();
    s.stack.push((tree.root, 0));
    while let Some(&mut (w, ref mut i)) = s.stack.last_mut() {
        let list = &adj[w as usize];
        let mut descended = false;
        while *i < list.len() {
            let c = list[*i];
            *i += 1;
            if parent[c as usize] != w {
                continue;
            }
            timer += 1;
            if seen.test(c) {
                tin[c as usize] = timer;
                s.stack.push((c, 0));
                descended = true;
                break;
            }
            let (a, b) = (tin[c as usize], tout[c as usize]);
            if a != timer {
                let shift = timer.wrapping_sub(a);
                s.walk.clear();
                s.walk.push(c);
                while let Some(v) = s.walk.pop() {
                    tin[v as usize] = tin[v as usize].wrapping_add(shift);
                    tout[v as usize] = tout[v as usize].wrapping_add(shift);
                    s.walk
                        .extend(adj[v as usize].iter().filter(|&&k| parent[k as usize] == v));
                }
            }
            timer += b - a;
        }
        if !descended {
            tout[w as usize] = timer;
            s.stack.pop();
        }
    }
    false
}

/// Next hop from `w` toward `dst` along `tree` (both must be reachable in
/// the tree and `w != dst`): descend when `dst` lies in `w`'s DFS interval,
/// ascend otherwise.
fn tree_hop(tree: &LandmarkTree, adj: &[Vec<Node>], w: Node, dst: Node) -> Node {
    let td = tree.tin[dst as usize];
    if td >= tree.tin[w as usize] && td <= tree.tout[w as usize] {
        for &c in &adj[w as usize] {
            if tree.parent[c as usize] == w
                && td >= tree.tin[c as usize]
                && td <= tree.tout[c as usize]
            {
                return c;
            }
        }
        unreachable!("dst in w's DFS interval but in no child's");
    }
    tree.parent[w as usize]
}

/// One cached full row: the canonical next hops, distances and supports of a
/// hot source, epoch-stamped for the LRU bookkeeping.
struct RowSlot {
    src: Node,
    last_used: u64,
    epoch: u64,
    next: Vec<Node>,
    dist: Vec<u32>,
    support: Vec<u32>,
}

const NO_SLOT: u32 = u32::MAX;

/// The epoch-stamped LRU row cache: `slot_of` maps a source to its slot (or
/// the `NO_SLOT` sentinel), slots are recycled through `free` so repeated
/// materialisation never reallocates rows.
struct RowCache {
    cap: usize,
    tick: u64,
    slot_of: Vec<u32>,
    slots: Vec<RowSlot>,
    free: Vec<RowSlot>,
    /// Persistent scratch row used when `cap == 0`.
    scratch: Option<RowSlot>,
    stats: CacheStats,
}

impl RowCache {
    fn new(n: usize, cap: usize) -> Self {
        RowCache {
            cap,
            tick: 0,
            slot_of: vec![NO_SLOT; n],
            slots: Vec::new(),
            free: Vec::new(),
            scratch: None,
            stats: CacheStats::default(),
        }
    }

    fn blank_slot(&mut self, n: usize) -> RowSlot {
        let mut slot = self.free.pop().unwrap_or_else(|| RowSlot {
            src: NO_HOP,
            last_used: 0,
            epoch: 0,
            next: vec![NO_HOP; n],
            dist: vec![UNREACH; n],
            support: vec![0; n],
        });
        slot.next.resize(n, NO_HOP);
        slot.dist.resize(n, UNREACH);
        slot.support.resize(n, 0);
        slot
    }

    fn drop_slot(&mut self, idx: usize) {
        let slot = self.slots.swap_remove(idx);
        self.slot_of[slot.src as usize] = NO_SLOT;
        if idx < self.slots.len() {
            let moved = self.slots[idx].src;
            self.slot_of[moved as usize] = idx as u32;
        }
        self.free.push(slot);
    }
}

/// Compact routing state: exact ball rows, landmark trees and an LRU cache
/// of materialised full rows, all repaired incrementally from engine commits
/// (see the module docs for the structure and the correctness arguments).
///
/// Lifecycle mirrors [`crate::delta::DeltaRouter`]: build once from an
/// engine, then feed every `(batch, delta)` pair in epoch order.
pub struct CompactRouter {
    n: usize,
    epoch: u64,
    radius: u32,
    cfg: LocalConfig,
    /// Sorted spanner neighbor lists, maintained from the deltas.
    spanner_adj: Vec<Vec<Node>>,
    /// Per-node exact ball rows, sorted by destination.
    balls: Vec<Vec<BallEntry>>,
    /// Current landmark set, sorted ascending.
    landmarks: Vec<Node>,
    /// Trees aligned with `landmarks`.
    trees: Vec<LandmarkTree>,
    cache: RowCache,
    // Scratch pools (epoch-stamped where flag-shaped).
    queue: Vec<Node>,
    tree_scratch: TreeScratch,
    tmp_next: Vec<Node>,
    tmp_dist: Vec<u32>,
    src_neighbors: Vec<Node>,
    src_adj: EpochFlags,
    sweep: TraversalScratch,
    dirty: EpochFlags,
    dirty_list: Vec<Node>,
    endpoint_seen: EpochFlags,
    flips: Vec<(Node, Node, bool)>,
    tree_dirty: Vec<bool>,
    spare_trees: Vec<LandmarkTree>,
    /// Wall time spent materialising rows since the last commit, flushed
    /// into [`Phase::Materialize`] at the next `apply_observed`.
    pending_materialize_ns: u64,
    pending_materialized: u64,
    /// Cache counters at the last commit, for per-commit event deltas.
    cache_mark: CacheStats,
    tel: TelemetryHandle,
    /// Cache population at the last telemetry flush, for the gauge delta.
    cache_entries_mark: i64,
}

impl CompactRouter {
    /// Builds the compact state for the engine's *current* spanner and
    /// topology: every ball row, the landmark set and all landmark trees.
    pub fn new(engine: &RspanEngine, cfg: LocalConfig) -> Self {
        let n = engine.graph().n();
        let mut spanner_adj: Vec<Vec<Node>> = vec![Vec::new(); n];
        for (u, v) in engine.spanner_pairs() {
            spanner_adj[u as usize].push(v);
            spanner_adj[v as usize].push(u);
        }
        for list in &mut spanner_adj {
            list.sort_unstable();
        }
        let mut router = CompactRouter {
            n,
            epoch: engine.epoch(),
            radius: engine.dirty_radius().max(1),
            cfg,
            spanner_adj,
            balls: vec![Vec::new(); n],
            landmarks: Vec::new(),
            trees: Vec::new(),
            cache: RowCache::new(n, cfg.cache_capacity),
            queue: Vec::with_capacity(n),
            tree_scratch: TreeScratch::default(),
            tmp_next: vec![NO_HOP; n],
            tmp_dist: vec![UNREACH; n],
            src_neighbors: Vec::new(),
            src_adj: EpochFlags::new(),
            sweep: TraversalScratch::with_capacity(n),
            dirty: EpochFlags::new(),
            dirty_list: Vec::new(),
            endpoint_seen: EpochFlags::new(),
            flips: Vec::new(),
            tree_dirty: Vec::new(),
            spare_trees: Vec::new(),
            pending_materialize_ns: 0,
            pending_materialized: 0,
            cache_mark: CacheStats::default(),
            tel: TelemetryHandle::off(),
            cache_entries_mark: 0,
        };
        for u in 0..n as Node {
            router.fill_ball(engine, u);
        }
        router.elect_landmarks();
        let roots = router.landmarks.clone();
        for root in roots {
            let mut tree = router.spare_tree(root);
            rebuild_tree(
                &mut tree,
                n,
                &router.spanner_adj,
                &mut router.queue,
                &mut router.tree_scratch.stack,
            );
            router.trees.push(tree);
        }
        router
    }

    /// Installs a live telemetry handle: repairs record wall-clock spans
    /// ([`Span::BallRepair`] / [`Span::LandmarkRepair`] /
    /// [`Span::Materialize`]), compact + cache counters, the
    /// [`Gauge::CacheEntries`] population and a [`Hist::RepairNs`] sample.
    /// Never consulted on the off handle.
    pub fn set_telemetry(&mut self, tel: TelemetryHandle) {
        self.tel = tel;
    }

    /// Engine epoch the compact state currently reflects.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of nodes routed.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Ball radius (`r − 1 + β`, the engine's dirty radius).
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// The current landmark set, sorted ascending.
    pub fn landmarks(&self) -> &[Node] {
        &self.landmarks
    }

    /// Cache traffic counters (monotonic).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats
    }

    /// Total ball entries across all nodes.
    pub fn ball_entries(&self) -> usize {
        self.balls.iter().map(Vec::len).sum()
    }

    /// Total compact routing state in bytes: ball entries (12 B each),
    /// landmark trees (16 B per node per tree) and the row cache at
    /// capacity (12 B per destination per slot).
    pub fn state_bytes(&self) -> usize {
        self.ball_entries() * 12
            + self.trees.len() * self.n * 16
            + self.cfg.cache_capacity * self.n * 12
    }

    /// Tree distance from `dst` to its home landmark (`None` if no landmark
    /// reaches `dst`, i.e. `dst` is isolated from every component minimum —
    /// impossible for reachable pairs).
    pub fn landmark_distance(&self, dst: Node) -> Option<u32> {
        self.home_landmark(dst)
            .map(|h| self.trees[h].dist[dst as usize])
    }

    /// Index (into [`CompactRouter::landmarks`]) of `dst`'s home landmark:
    /// the closest by tree distance, ties to the smallest landmark id.
    pub fn home_landmark(&self, dst: Node) -> Option<usize> {
        let mut best: Option<(u32, usize)> = None;
        for (i, tree) in self.trees.iter().enumerate() {
            let d = tree.dist[dst as usize];
            if d != UNREACH && best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Exact ball lookup: the canonical next hop from `u` toward `v` when
    /// `v` lies within `u`'s radius-`R` ball in `H_u`.
    pub fn ball_hop(&self, u: Node, v: Node) -> Option<Node> {
        let row = &self.balls[u as usize];
        row.binary_search_by_key(&v, |e| e.dst)
            .ok()
            .map(|i| row[i].hop)
    }

    /// Compact next hop from `u` toward `v`: the exact ball entry when `v`
    /// is ball-visible, otherwise one step along `v`'s home-landmark tree.
    /// `None` when `u == v` or no landmark connects the pair.
    ///
    /// Deliberately cache-independent (`&self`): the hop sequence — and so
    /// the measured stretch — never depends on which rows happen to be hot.
    pub fn next_hop(&self, u: Node, v: Node) -> Option<Node> {
        if u == v {
            return None;
        }
        if let Some(hop) = self.ball_hop(u, v) {
            return Some(hop);
        }
        let home = self.home_landmark(v)?;
        let tree = &self.trees[home];
        if tree.dist[u as usize] == UNREACH {
            return None;
        }
        Some(tree_hop(tree, &self.spanner_adj, u, v))
    }

    /// Forwards a packet from `s` to `t` hop by hop (ball hops while `t` is
    /// ball-visible, home-landmark tree hops otherwise), resolving the home
    /// landmark once.  Returns the full path, or `None` if unreachable.
    pub fn forward(&self, s: Node, t: Node) -> Option<Vec<Node>> {
        if s == t {
            return Some(vec![s]);
        }
        let home = self.home_landmark(t)?;
        let tree = &self.trees[home];
        if tree.dist[s as usize] == UNREACH {
            return None;
        }
        let mut path = vec![s];
        let mut w = s;
        let limit = 2 * self.n + 2;
        while w != t {
            let hop = match self.ball_hop(w, t) {
                Some(hop) => hop,
                None => tree_hop(tree, &self.spanner_adj, w, t),
            };
            path.push(hop);
            w = hop;
            assert!(
                path.len() <= limit,
                "compact forwarding failed to terminate from {s} to {t}"
            );
        }
        Some(path)
    }

    /// Exact canonical next hop from `u` toward `v`, answered from `u`'s
    /// cached row (materialised on demand through the LRU cache).  Matches
    /// the dense-table entry bit for bit.
    ///
    /// `engine` must be the engine this router tracks, at the same epoch.
    pub fn exact_next_hop(&mut self, engine: &RspanEngine, u: Node, v: Node) -> Option<Node> {
        if u == v {
            return None;
        }
        let hop = self.with_row(engine, u, |row| row.next[v as usize]);
        (hop != NO_HOP).then_some(hop)
    }

    /// Exact `d_{H_u}(u, v)` from `u`'s cached row.
    pub fn exact_distance(&mut self, engine: &RspanEngine, u: Node, v: Node) -> Option<u32> {
        if u == v {
            return Some(0);
        }
        let d = self.with_row(engine, u, |row| row.dist[v as usize]);
        (d != UNREACH).then_some(d)
    }

    /// Consumes one engine commit and repairs the compact state; see
    /// [`CompactRouter::apply_observed`].
    pub fn apply(
        &mut self,
        engine: &RspanEngine,
        batch: &[TopologyChange],
        delta: &SpannerDelta,
    ) -> LocalRepairStats {
        self.apply_observed(engine, batch, delta, &ObsHandle::off())
    }

    /// Like [`CompactRouter::apply`], with the repair attributed into `obs`:
    /// ball-row rebuilds and landmark-tree repairs are wall-clock profiled
    /// ([`Phase::BallRepair`] / [`Phase::LandmarkRepair`]), wall time
    /// accumulated by query-path materialisation since the last commit is
    /// flushed into [`Phase::Materialize`], and a deterministic
    /// [`ObsEvent::LocalRepair`] summarises the repair plus the cache
    /// traffic since the last commit.
    pub fn apply_observed(
        &mut self,
        engine: &RspanEngine,
        batch: &[TopologyChange],
        delta: &SpannerDelta,
        obs: &ObsHandle,
    ) -> LocalRepairStats {
        let on = obs.on();
        let tel_on = self.tel.on();
        let timed = on || tel_on;
        let repair_start = tel_on.then(Instant::now);
        assert_eq!(
            delta.epoch,
            self.epoch + 1,
            "compact router missed a delta (have epoch {}, got {})",
            self.epoch,
            delta.epoch
        );
        assert_eq!(
            engine.epoch(),
            delta.epoch,
            "delta does not match the engine's current epoch"
        );
        let n = self.n;
        self.flips.clear();
        self.flips
            .extend(delta.added.iter().map(|&(x, y)| (x, y, true)));
        self.flips
            .extend(delta.removed.iter().map(|&(x, y)| (x, y, false)));

        // Cached rows: the exact delta-router predicate against the
        // pre-flip rows decides survival; batch endpoints always drop
        // (their incident sets changed).
        let cache_invalidated = self.invalidate_cache(batch);

        // Landmark trees: pure functions of the spanner, scanned only when
        // it flipped, each tree stopping at its first marking flip.
        self.tree_dirty.clear();
        self.tree_dirty.resize(self.trees.len(), false);
        if !self.flips.is_empty() {
            for ti in 0..self.trees.len() {
                self.tree_dirty[ti] = self.tree_is_dirty(ti);
            }
        }

        // Only now mutate the spanner adjacency to the post-commit state.
        for &(x, y) in &delta.removed {
            let ok = sorted_remove(&mut self.spanner_adj[x as usize], y)
                && sorted_remove(&mut self.spanner_adj[y as usize], x);
            assert!(
                ok,
                "spanner adjacency is missing the removed edge ({x}, {y})"
            );
        }
        for &(x, y) in &delta.added {
            sorted_insert(&mut self.spanner_adj[x as usize], y);
            sorted_insert(&mut self.spanner_adj[y as usize], x);
        }

        // Ball rows: delta.recomputed already covers every node whose local
        // structures the engine touched (including pre-commit balls of
        // batch endpoints); add the post-commit G-balls of flip endpoints,
        // a superset of every H_u-ball containing a flipped edge.
        self.dirty.begin(n);
        self.dirty_list.clear();
        for &u in &delta.recomputed {
            if self.dirty.set(u) {
                self.dirty_list.push(u);
            }
        }
        self.endpoint_seen.begin(n);
        for fi in 0..self.flips.len() {
            let (x, y, _) = self.flips[fi];
            for endpoint in [x, y] {
                if !self.endpoint_seen.set(endpoint) {
                    continue;
                }
                bfs_into(engine.graph(), endpoint, self.radius, &mut self.sweep);
                for i in 0..self.sweep.num_visited() {
                    let v = self.sweep.visited()[i];
                    if self.dirty.set(v) {
                        self.dirty_list.push(v);
                    }
                }
            }
        }
        let mut stamp = timed.then(Instant::now);
        let dirty_rows = std::mem::take(&mut self.dirty_list);
        for &u in &dirty_rows {
            self.fill_ball(engine, u);
        }
        self.dirty_list = dirty_rows;
        let ball_rows = self.dirty_list.len();
        if let Some(start) = stamp {
            let ns = start.elapsed().as_nanos() as u64;
            if on {
                obs.phase(Phase::BallRepair, ns, ball_rows as u64);
            }
            self.tel.span_record(Span::BallRepair, ns, ball_rows as u64);
        }

        // Landmark trees: repair each dirty tree in place.  Only a tree
        // whose reachable set changed is rebuilt, and only then can the
        // spanner's components (and so the landmark set) have changed:
        // re-elect, rebuild new landmarks' trees and retire demoted ones
        // into the spare pool.
        stamp = timed.then(Instant::now);
        let mut reach_changed = false;
        let mut last_in_place = None;
        for ti in 0..self.trees.len() {
            if !self.tree_dirty[ti] {
                continue;
            }
            let tree = &mut self.trees[ti];
            if repair_tree(
                tree,
                &self.spanner_adj,
                &self.flips,
                &mut self.tree_scratch,
                &mut self.queue,
            ) {
                reach_changed = true;
            } else {
                last_in_place = Some(tree.root);
            }
        }
        let trees_rebuilt = if reach_changed {
            self.reelect_landmarks()
        } else {
            self.tree_dirty.iter().filter(|&&dirty| dirty).count()
        };
        if let Some(start) = stamp {
            let ns = start.elapsed().as_nanos() as u64;
            if on {
                obs.phase(Phase::LandmarkRepair, ns, trees_rebuilt as u64);
            }
            self.tel
                .span_record(Span::LandmarkRepair, ns, trees_rebuilt as u64);
        }
        if let Some(root) = last_in_place.filter(|_| cfg!(debug_assertions)) {
            self.check_tree_repair(root);
        }

        if timed && self.pending_materialized > 0 {
            if on {
                obs.phase(
                    Phase::Materialize,
                    self.pending_materialize_ns,
                    self.pending_materialized,
                );
            }
            self.tel.span_record(
                Span::Materialize,
                self.pending_materialize_ns,
                self.pending_materialized,
            );
        }
        if tel_on {
            let s = self.cache.stats;
            let m = self.cache_mark;
            self.tel.incr(Counter::CompactRepairs);
            self.tel.add(Counter::CompactBallRows, ball_rows as u64);
            self.tel
                .add(Counter::CompactTreesRebuilt, trees_rebuilt as u64);
            self.tel.add(Counter::CacheHits, s.hits - m.hits);
            self.tel.add(Counter::CacheMisses, s.misses - m.misses);
            self.tel
                .add(Counter::CacheMaterialized, s.materialized - m.materialized);
            self.tel
                .add(Counter::CacheEvictions, s.evictions - m.evictions);
            let entries = self.cache.slots.len() as i64;
            self.tel
                .gauge_add(Gauge::CacheEntries, entries - self.cache_entries_mark);
            self.cache_entries_mark = entries;
            if let Some(start) = repair_start {
                self.tel
                    .observe(Hist::RepairNs, start.elapsed().as_nanos() as u64);
            }
        }
        if on {
            let s = self.cache.stats;
            let m = self.cache_mark;
            obs.emit(ObsEvent::LocalRepair {
                epoch: delta.epoch,
                ball_rows: ball_rows as u32,
                landmark_trees: trees_rebuilt as u32,
                landmarks: self.landmarks.len() as u32,
                cache_dropped: cache_invalidated as u32,
                cache_hits: (s.hits - m.hits) as u32,
                cache_misses: (s.misses - m.misses) as u32,
                cache_evictions: (s.evictions - m.evictions) as u32,
            });
        }
        self.pending_materialize_ns = 0;
        self.pending_materialized = 0;
        self.cache_mark = self.cache.stats;
        self.epoch = delta.epoch;
        LocalRepairStats {
            epoch: self.epoch,
            ball_rows,
            landmark_trees: trees_rebuilt,
            cache_invalidated,
            batch_changes: batch.len(),
            spanner_flips: self.flips.len(),
        }
    }

    /// Rebuilds `u`'s ball row: a radius-truncated canonical-hop BFS over
    /// `H_u` (same fold as [`fill_row`]; nodes at depth `R` are recorded but
    /// not expanded, which is exactly when their canonical hops are final).
    fn fill_ball(&mut self, engine: &RspanEngine, u: Node) {
        let n = self.n;
        self.src_neighbors.clear();
        engine
            .graph()
            .for_each_neighbor(u, &mut |v| self.src_neighbors.push(v));
        self.src_adj.begin(n);
        for &v in &self.src_neighbors {
            self.src_adj.set(v);
        }
        let view = SparseView {
            n,
            spanner_adj: &self.spanner_adj,
            src_neighbors: &self.src_neighbors,
            src_adj: &self.src_adj,
            source: u,
        };
        let radius = self.radius;
        self.queue.clear();
        self.tmp_dist[u as usize] = 0;
        self.queue.push(u);
        let mut head = 0usize;
        while head < self.queue.len() {
            let w = self.queue[head];
            head += 1;
            let dw = self.tmp_dist[w as usize];
            if dw == radius {
                continue; // frontier nodes are recorded, not expanded
            }
            let hw = self.tmp_next[w as usize];
            let tmp_dist = &mut self.tmp_dist;
            let tmp_next = &mut self.tmp_next;
            let queue = &mut self.queue;
            view.for_each_neighbor(w, &mut |v| {
                let dv = &mut tmp_dist[v as usize];
                if *dv == UNREACH {
                    *dv = dw + 1;
                    tmp_next[v as usize] = if w == u { v } else { hw };
                    queue.push(v);
                } else if *dv == dw + 1 && w != u {
                    let hv = &mut tmp_next[v as usize];
                    if hw < *hv {
                        *hv = hw;
                    }
                }
            });
        }
        let row = &mut self.balls[u as usize];
        row.clear();
        for &v in self.queue.iter() {
            if v != u {
                row.push(BallEntry {
                    dst: v,
                    hop: self.tmp_next[v as usize],
                    dist: self.tmp_dist[v as usize],
                });
            }
        }
        row.sort_unstable_by_key(|e| e.dst);
        // Restore the sentinel invariant on the dense scratch arrays.
        for &v in self.queue.iter() {
            self.tmp_dist[v as usize] = UNREACH;
            self.tmp_next[v as usize] = NO_HOP;
        }
    }

    /// Elects the landmark set for the current spanner: a stride sample of
    /// `max(cfg.landmarks, ⌈√n⌉ when 0)` node ids plus the minimum node of
    /// every spanner component (so every reachable target resolves a home).
    fn elect_landmarks(&mut self) {
        let n = self.n;
        self.landmarks.clear();
        let target = if self.cfg.landmarks > 0 {
            self.cfg.landmarks
        } else {
            (n as f64).sqrt().ceil() as usize
        }
        .clamp(1, n.max(1));
        let stride = (n / target).max(1);
        let mut u = 0usize;
        while u < n {
            self.landmarks.push(u as Node);
            u += stride;
        }
        let comp = connected_components(&SpannerOnly {
            n,
            adj: &self.spanner_adj,
        });
        // Component ids are assigned in node order, so the first node seen
        // with a given id is that component's minimum.
        let mut next_comp = 0usize;
        for (v, &c) in comp.iter().enumerate() {
            if c == next_comp {
                self.landmarks.push(v as Node);
                next_comp += 1;
            }
        }
        self.landmarks.sort_unstable();
        self.landmarks.dedup();
    }

    /// Re-elects the landmark set after the components changed, keeping the
    /// (already repaired) trees of surviving landmarks, building the new
    /// landmarks' trees and retiring demoted ones into the spare pool.
    /// Returns the dirty surviving trees plus the new ones.
    fn reelect_landmarks(&mut self) -> usize {
        let old_landmarks = std::mem::take(&mut self.landmarks);
        let old_trees = std::mem::take(&mut self.trees);
        let old_dirty = std::mem::take(&mut self.tree_dirty);
        self.elect_landmarks();
        let mut keep: Vec<Option<(LandmarkTree, bool)>> =
            old_trees.into_iter().zip(old_dirty).map(Some).collect();
        let landmarks = std::mem::take(&mut self.landmarks);
        let mut count = 0usize;
        for &root in &landmarks {
            let found = old_landmarks
                .binary_search(&root)
                .ok()
                .and_then(|i| keep[i].take());
            let tree = match found {
                Some((tree, dirty)) => {
                    count += usize::from(dirty);
                    tree
                }
                None => {
                    count += 1;
                    let mut tree = self.spare_tree(root);
                    rebuild_tree(
                        &mut tree,
                        self.n,
                        &self.spanner_adj,
                        &mut self.queue,
                        &mut self.tree_scratch.stack,
                    );
                    tree
                }
            };
            self.trees.push(tree);
        }
        self.landmarks = landmarks;
        self.spare_trees
            .extend(keep.into_iter().flatten().map(|(tree, _)| tree));
        count
    }

    /// Rebuilds the tree of `root` (if still a landmark) from scratch and
    /// asserts the in-place repair had left it exactly so, so every
    /// debug-build suite checks the tree repair on each commit.
    fn check_tree_repair(&mut self, root: Node) {
        let Ok(ti) = self.landmarks.binary_search(&root) else {
            return;
        };
        let mut fresh = LandmarkTree::empty(root);
        rebuild_tree(
            &mut fresh,
            self.n,
            &self.spanner_adj,
            &mut self.queue,
            &mut self.tree_scratch.stack,
        );
        let tree = &self.trees[ti];
        debug_assert_eq!(tree.dist, fresh.dist, "tree {root}: dist");
        debug_assert_eq!(tree.parent, fresh.parent, "tree {root}: parent");
        debug_assert_eq!(tree.tin, fresh.tin, "tree {root}: tin");
        debug_assert_eq!(tree.tout, fresh.tout, "tree {root}: tout");
    }

    fn spare_tree(&mut self, root: Node) -> LandmarkTree {
        match self.spare_trees.pop() {
            Some(mut tree) => {
                tree.root = root;
                tree
            }
            None => LandmarkTree::empty(root),
        }
    }

    /// O(1)-per-flip dirtiness of tree `ti`, mirroring the delta-router row
    /// predicate on the tree's (pre-flip) distances and canonical parents;
    /// see the module docs for the case analysis.
    fn tree_is_dirty(&self, ti: usize) -> bool {
        let tree = &self.trees[ti];
        for &(x, y, is_add) in &self.flips {
            let dx = tree.dist[x as usize];
            let dy = tree.dist[y as usize];
            if dx == dy {
                // Equal depth (or both unreachable): on no tree path, no
                // predecessor relation, child sets unchanged.
                continue;
            }
            let (lo, hi) = if dx < dy { (x, y) } else { (y, x) };
            let (dlo, dhi) = if dx < dy { (dx, dy) } else { (dy, dx) };
            if is_add {
                if dhi != UNREACH && dhi - dlo == 1 {
                    if lo < tree.parent[hi as usize] {
                        return true; // canonical parent improves
                    }
                    continue; // non-improving extra predecessor
                }
                return true; // distance or reachability changes
            }
            if dhi != UNREACH && dhi - dlo == 1 {
                if tree.parent[hi as usize] == lo {
                    return true; // the canonical parent edge is gone
                }
                continue; // lo was not hi's parent: nothing changes
            }
            // A present tree edge forces Δ ≤ 1 with both ends reachable;
            // anything else is a bookkeeping bug — repair defensively.
            return true;
        }
        false
    }

    /// Drops cached rows a flip actually changes (exact predicate, with
    /// in-place support maintenance on survivors) plus batch endpoints'
    /// rows.  Runs against the pre-flip adjacency/rows.
    fn invalidate_cache(&mut self, batch: &[TopologyChange]) -> usize {
        let mut dropped = 0usize;
        for change in batch {
            let (a, b) = change.endpoints();
            for u in [a, b] {
                let slot = self.cache.slot_of[u as usize];
                if slot != NO_SLOT {
                    self.cache.drop_slot(slot as usize);
                    dropped += 1;
                }
            }
        }
        if self.flips.is_empty() {
            return dropped;
        }
        let mut si = 0usize;
        while si < self.cache.slots.len() {
            let u = self.cache.slots[si].src;
            let mut marked = false;
            for fi in 0..self.flips.len() {
                let (x, y, is_add) = self.flips[fi];
                if u == x || u == y {
                    continue; // H_u keeps the edge through u's incident set
                }
                let slot = &mut self.cache.slots[si];
                let dx = slot.dist[x as usize];
                let dy = slot.dist[y as usize];
                if dx == dy {
                    continue;
                }
                let (lo, hi) = if dx < dy { (x, y) } else { (y, x) };
                let hop_lo = slot.next[lo as usize];
                let hop_hi = slot.next[hi as usize];
                if is_add {
                    let (dlo, dhi) = if dx < dy { (dx, dy) } else { (dy, dx) };
                    if dhi != UNREACH && dhi - dlo == 1 {
                        if hop_lo > hop_hi {
                            continue;
                        }
                        if hop_lo == hop_hi {
                            slot.support[hi as usize] += 1;
                            continue;
                        }
                    }
                } else {
                    if hop_lo > hop_hi {
                        continue;
                    }
                    let support = &mut slot.support[hi as usize];
                    if *support >= 2 {
                        *support -= 1;
                        continue;
                    }
                }
                marked = true;
                break;
            }
            if marked {
                self.cache.drop_slot(si);
                dropped += 1;
            } else {
                si += 1;
            }
        }
        dropped
    }

    /// Runs `f` against `u`'s full row, materialising it through the cache
    /// (or the persistent scratch row when caching is disabled).
    fn with_row<T>(&mut self, engine: &RspanEngine, u: Node, f: impl FnOnce(&RowSlot) -> T) -> T {
        assert_eq!(
            engine.epoch(),
            self.epoch,
            "exact query against an engine at a different epoch"
        );
        let n = self.n;
        self.cache.tick += 1;
        let tick = self.cache.tick;
        if self.cache.cap == 0 {
            self.cache.stats.misses += 1;
            let mut slot = self.cache.scratch.take().unwrap_or_else(|| RowSlot {
                src: NO_HOP,
                last_used: 0,
                epoch: 0,
                next: vec![NO_HOP; n],
                dist: vec![UNREACH; n],
                support: vec![0; n],
            });
            self.materialize_into(engine, u, &mut slot, tick);
            let out = f(&slot);
            self.cache.scratch = Some(slot);
            return out;
        }
        let si = self.cache.slot_of[u as usize];
        if si != NO_SLOT {
            let slot = &mut self.cache.slots[si as usize];
            debug_assert_eq!(slot.src, u);
            debug_assert_eq!(slot.epoch, self.epoch, "stale cached row survived a commit");
            slot.last_used = tick;
            self.cache.stats.hits += 1;
            return f(&self.cache.slots[si as usize]);
        }
        self.cache.stats.misses += 1;
        if self.cache.slots.len() >= self.cache.cap {
            let victim = self
                .cache
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i)
                .expect("cache capacity is positive");
            self.cache.drop_slot(victim);
            self.cache.stats.evictions += 1;
        }
        let mut slot = self.cache.blank_slot(n);
        self.materialize_into(engine, u, &mut slot, tick);
        let idx = self.cache.slots.len() as u32;
        self.cache.slot_of[u as usize] = idx;
        self.cache.slots.push(slot);
        f(&self.cache.slots[idx as usize])
    }

    /// Fills `slot` with `u`'s exact canonical row (the same sparse sweep
    /// [`crate::delta::DeltaRouter`] runs), stamping it with the current
    /// epoch and accumulating wall time for [`Phase::Materialize`].
    fn materialize_into(&mut self, engine: &RspanEngine, u: Node, slot: &mut RowSlot, tick: u64) {
        let start = Instant::now();
        let n = self.n;
        self.src_neighbors.clear();
        engine
            .graph()
            .for_each_neighbor(u, &mut |v| self.src_neighbors.push(v));
        self.src_adj.begin(n);
        for &v in &self.src_neighbors {
            self.src_adj.set(v);
        }
        let view = SparseView {
            n,
            spanner_adj: &self.spanner_adj,
            src_neighbors: &self.src_neighbors,
            src_adj: &self.src_adj,
            source: u,
        };
        fill_row(
            &view,
            u,
            &mut self.queue,
            &mut slot.next,
            &mut slot.dist,
            &mut slot.support,
        );
        slot.src = u;
        slot.epoch = self.epoch;
        slot.last_used = tick;
        self.cache.stats.materialized += 1;
        self.pending_materialized += 1;
        self.pending_materialize_ns += start.elapsed().as_nanos() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaRouter;
    use crate::tables::RoutingTables;
    use crate::test_util::valid_subset;
    use rspan_domtree::TreeAlgo;
    use rspan_engine::{ChurnScenario, JoinLeaveScenario, LinkFlapScenario, MobilityScenario};
    use rspan_graph::generators::er::gnp_connected;
    use rspan_graph::generators::structured::{cycle_graph, grid_graph};
    use rspan_graph::generators::udg::uniform_udg;

    /// Every ball entry must equal the corresponding dense-table entry, and
    /// every dense entry within the radius must appear in the ball.
    fn assert_balls_match_tables(router: &CompactRouter, tables: &RoutingTables, context: &str) {
        let n = router.n();
        for u in 0..n as Node {
            let mut in_ball = 0usize;
            for v in 0..n as Node {
                if v == u {
                    continue;
                }
                match (router.ball_hop(u, v), tables.table_distance(u, v)) {
                    (Some(hop), Some(d)) => {
                        assert!(d <= router.radius(), "{context}: ball entry beyond radius");
                        assert_eq!(Some(hop), tables.next_hop(u, v), "{context}: ({u}, {v})");
                        in_ball += 1;
                    }
                    (None, Some(d)) => {
                        assert!(
                            d > router.radius(),
                            "{context}: missing ball entry ({u},{v})"
                        );
                    }
                    (None, None) => {}
                    (Some(_), None) => panic!("{context}: ball entry for unreachable ({u},{v})"),
                }
            }
            assert_eq!(in_ball, router.balls[u as usize].len(), "{context}");
        }
    }

    fn dense_tables(engine: &RspanEngine) -> RoutingTables {
        let csr = engine.to_csr();
        let spanner = engine.spanner_on(&csr);
        RoutingTables::build(&spanner)
    }

    /// Asserts the whole compact state — spanner adjacency, landmark set,
    /// every tree's four arrays, every ball row and `next_hop` for all
    /// pairs — equals a router built fresh from `engine`.
    fn assert_state_matches_fresh(router: &CompactRouter, engine: &RspanEngine, context: &str) {
        let fresh = CompactRouter::new(engine, router.cfg);
        assert_eq!(
            router.spanner_adj, fresh.spanner_adj,
            "{context}: adjacency"
        );
        assert_eq!(
            router.landmarks(),
            fresh.landmarks(),
            "{context}: landmarks"
        );
        for (tree, want) in router.trees.iter().zip(&fresh.trees) {
            let root = want.root;
            assert_eq!(tree.root, root, "{context}: tree order");
            assert_eq!(tree.dist, want.dist, "{context}: tree {root} dist");
            assert_eq!(tree.parent, want.parent, "{context}: tree {root} parent");
            assert_eq!(tree.tin, want.tin, "{context}: tree {root} tin");
            assert_eq!(tree.tout, want.tout, "{context}: tree {root} tout");
        }
        assert_eq!(router.balls, fresh.balls, "{context}: ball rows");
        for u in 0..router.n() as Node {
            for v in 0..router.n() as Node {
                assert_eq!(
                    router.next_hop(u, v),
                    fresh.next_hop(u, v),
                    "{context}: next_hop({u}, {v})"
                );
            }
        }
    }

    /// Drives interleaved link-flap, mobility and join/leave churn over a
    /// unit-disk graph and checks the full compact state after every commit.
    /// Returns the unreachable tree-entry count after each commit.
    fn drive_interleaved_churn(n: usize, side: f64, seed: u64, rounds: usize) -> Vec<usize> {
        let inst = uniform_udg(n, side, 1.0, seed);
        let mut engine = RspanEngine::new(inst.graph.clone(), TreeAlgo::KGreedy { k: 2 });
        let mut router = CompactRouter::new(&engine, LocalConfig::default());
        let mut scenarios: Vec<Box<dyn ChurnScenario>> = vec![
            Box::new(LinkFlapScenario::new(&inst.graph, 4.0, seed)),
            Box::new(MobilityScenario::from_udg(&inst, 3, 0.3, seed ^ 0x5EED)),
            Box::new(JoinLeaveScenario::new(inst.graph.clone(), 2, seed ^ 0x101E)),
        ];
        let mut unreachable = Vec::with_capacity(rounds);
        for round in 0..rounds {
            let scenario = &mut scenarios[round % 3];
            let batch = valid_subset(engine.graph(), scenario.next_batch(engine.graph()));
            let delta = engine.commit(&batch);
            router.apply(&engine, &batch, &delta);
            let context = format!("seed {seed} round {round} ({})", scenario.label());
            assert_state_matches_fresh(&router, &engine, &context);
            let count = router
                .trees
                .iter()
                .map(|t| t.dist.iter().filter(|&&d| d == UNREACH).count())
                .sum();
            unreachable.push(count);
        }
        unreachable
    }

    #[test]
    fn repaired_state_equals_a_fresh_router_under_interleaved_churn() {
        for seed in 0..8 {
            drive_interleaved_churn(100, 4.0, seed, 40);
        }
    }

    #[test]
    fn repaired_state_equals_a_fresh_router_as_components_split_and_merge() {
        // Mean degree ≈ 3: the spanner sits near its percolation threshold,
        // so trees hold unreachable entries and churn splits and merges
        // components (the unreachable count both rises and falls).
        let (mut rose, mut fell) = (false, false);
        for seed in 0..4 {
            let counts = drive_interleaved_churn(60, 8.0, 100 + seed, 30);
            assert!(
                counts.iter().all(|&c| c > 0),
                "seed {seed}: spanner connected"
            );
            for pair in counts.windows(2) {
                rose |= pair[1] > pair[0];
                fell |= pair[1] < pair[0];
            }
        }
        assert!(rose && fell, "no component split and merge happened");
    }

    #[test]
    fn a_batch_that_removes_and_re_adds_an_edge_leaves_the_state_exact() {
        let g = gnp_connected(50, 0.08, 11);
        let mut engine = RspanEngine::new(g.clone(), TreeAlgo::KGreedy { k: 1 });
        let mut router = CompactRouter::new(&engine, LocalConfig::default());
        let edges: Vec<(Node, Node)> = g.edges().collect();
        for (round, &(a, b)) in edges.iter().step_by(7).enumerate() {
            let (c, d) = edges[(round * 13 + 5) % edges.len()];
            let mut batch = vec![
                TopologyChange::RemoveEdge(a, b),
                TopologyChange::AddEdge(a, b),
            ];
            if (c, d) != (a, b) && engine.graph().has_edge(c, d) {
                batch.push(TopologyChange::RemoveEdge(c, d));
            }
            let delta = engine.commit(&batch);
            router.apply(&engine, &batch, &delta);
            assert_state_matches_fresh(&router, &engine, &format!("round {round}"));
            // Put the second edge back, again inside a remove/re-add batch.
            let mut batch = vec![
                TopologyChange::RemoveEdge(a, b),
                TopologyChange::AddEdge(a, b),
            ];
            if !engine.graph().has_edge(c, d) {
                batch.push(TopologyChange::AddEdge(c, d));
            }
            let delta = engine.commit(&batch);
            router.apply(&engine, &batch, &delta);
            assert_state_matches_fresh(&router, &engine, &format!("round {round} restore"));
        }
    }

    #[test]
    fn fresh_balls_match_dense_tables() {
        for g in [cycle_graph(9), grid_graph(4, 5), gnp_connected(40, 0.1, 3)] {
            for algo in [TreeAlgo::KGreedy { k: 2 }, TreeAlgo::Mis { r: 2 }] {
                let engine = RspanEngine::new(g.clone(), algo);
                let router = CompactRouter::new(&engine, LocalConfig::default());
                let tables = dense_tables(&engine);
                assert_balls_match_tables(&router, &tables, "fresh build");
            }
        }
    }

    #[test]
    fn forward_delivers_every_connected_pair() {
        let g = gnp_connected(60, 0.08, 11);
        let engine = RspanEngine::new(g, TreeAlgo::KGreedy { k: 2 });
        let router = CompactRouter::new(&engine, LocalConfig::default());
        for s in [0 as Node, 13, 31, 59] {
            for t in 0..router.n() as Node {
                let path = router.forward(s, t).expect("connected instance");
                assert_eq!(path[0], s);
                assert_eq!(*path.last().unwrap(), t);
                if s != t {
                    assert_eq!(router.next_hop(s, t), Some(path[1]));
                }
            }
        }
    }

    #[test]
    fn repair_tracks_flips_and_stays_exact() {
        let g = gnp_connected(50, 0.08, 5);
        let mut engine = RspanEngine::new(g.clone(), TreeAlgo::KGreedy { k: 1 });
        let mut router = CompactRouter::new(&engine, LocalConfig::default());
        let (eu, ev) = g.edges().next().unwrap();
        for change in [
            TopologyChange::RemoveEdge(eu, ev),
            TopologyChange::AddEdge(eu, ev),
        ] {
            let batch = [change];
            let delta = engine.commit(&batch);
            let stats = router.apply(&engine, &batch, &delta);
            assert_eq!(stats.epoch, engine.epoch());
            let tables = dense_tables(&engine);
            assert_balls_match_tables(&router, &tables, "after flip");
        }
    }

    #[test]
    fn exact_queries_match_delta_router_and_hit_the_cache() {
        let g = gnp_connected(50, 0.08, 7);
        let engine = RspanEngine::new(g, TreeAlgo::KGreedy { k: 2 });
        let dense = DeltaRouter::new(&engine);
        let mut router = CompactRouter::new(
            &engine,
            LocalConfig {
                landmarks: 0,
                cache_capacity: 4,
            },
        );
        for u in [3 as Node, 3, 17, 3] {
            for v in 0..router.n() as Node {
                assert_eq!(
                    router.exact_next_hop(&engine, u, v),
                    dense.next_hop(u, v),
                    "({u}, {v})"
                );
                assert_eq!(
                    router.exact_distance(&engine, u, v),
                    dense.table_distance(u, v),
                    "({u}, {v})"
                );
            }
        }
        let stats = router.cache_stats();
        assert!(stats.hits > 0, "repeated sources must hit");
        assert_eq!(stats.materialized, stats.misses);
        assert_eq!(stats.misses, 2, "two distinct sources, capacity 4");
    }

    #[test]
    fn lru_evicts_and_cache_disabled_matches() {
        let g = gnp_connected(40, 0.1, 9);
        let engine = RspanEngine::new(g, TreeAlgo::KGreedy { k: 2 });
        let mut cached = CompactRouter::new(
            &engine,
            LocalConfig {
                landmarks: 0,
                cache_capacity: 2,
            },
        );
        let mut uncached = CompactRouter::new(
            &engine,
            LocalConfig {
                landmarks: 0,
                cache_capacity: 0,
            },
        );
        for u in 0..8 as Node {
            for v in [1 as Node, 20, 39] {
                assert_eq!(
                    cached.exact_next_hop(&engine, u, v),
                    uncached.exact_next_hop(&engine, u, v)
                );
            }
        }
        assert!(cached.cache_stats().evictions > 0, "capacity 2, 8 sources");
        assert_eq!(uncached.cache_stats().hits, 0);
    }

    #[test]
    fn state_is_sublinear_versus_dense() {
        let g = gnp_connected(300, 0.02, 21);
        let engine = RspanEngine::new(g, TreeAlgo::KGreedy { k: 2 });
        let router = CompactRouter::new(&engine, LocalConfig::default());
        let dense_bytes = 300usize * 300 * 8;
        assert!(
            router.state_bytes() < dense_bytes,
            "compact {} >= dense {}",
            router.state_bytes(),
            dense_bytes
        );
    }

    #[test]
    fn observed_apply_matches_plain_and_emits_local_repair() {
        use rspan_obs::ObsConfig;
        let g = gnp_connected(50, 0.08, 5);
        let algo = TreeAlgo::KGreedy { k: 1 };
        let mut engine_a = RspanEngine::new(g.clone(), algo);
        let mut engine_b = RspanEngine::new(g.clone(), algo);
        let mut plain = CompactRouter::new(&engine_a, LocalConfig::default());
        let mut observed = CompactRouter::new(&engine_b, LocalConfig::default());
        let (eu, ev) = g.edges().next().unwrap();
        let batch = [TopologyChange::RemoveEdge(eu, ev)];
        let delta_a = engine_a.commit(&batch);
        let delta_b = engine_b.commit(&batch);
        assert_eq!(delta_a, delta_b);
        let obs = ObsHandle::mem(ObsConfig::default());
        let stats_plain = plain.apply(&engine_a, &batch, &delta_a);
        let stats_obs = observed.apply_observed(&engine_b, &batch, &delta_b, &obs);
        assert_eq!(stats_plain, stats_obs, "observation changed the repair");
        let report = obs.take_report().expect("recorder attached");
        assert_eq!(report.lines.len(), 1);
        assert!(report.lines[0].contains("\"kind\":\"local_repair\""));
        assert!(report
            .phases
            .iter()
            .any(|p| p.phase == Phase::BallRepair && p.items == stats_obs.ball_rows as u64));
    }

    #[test]
    #[should_panic(expected = "missed a delta")]
    fn skipping_a_delta_panics() {
        let mut engine = RspanEngine::new(cycle_graph(8), TreeAlgo::KGreedy { k: 1 });
        let mut router = CompactRouter::new(&engine, LocalConfig::default());
        engine.commit(&[]);
        let batch = [TopologyChange::AddEdge(0, 4)];
        let delta = engine.commit(&batch);
        router.apply(&engine, &batch, &delta);
    }
}
