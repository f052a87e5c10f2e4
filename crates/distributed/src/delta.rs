//! Delta-driven routing-table repair: the consumer side of the engine's
//! **batch → commit → delta** pipeline.
//!
//! [`crate::tables::RoutingTables::build`] recomputes all `n` rows from
//! scratch at `O(n · (n + m))` after *every* topology change — even though
//! [`rspan_engine::RspanEngine::commit`] already emits the exact
//! [`SpannerDelta`] (which edges entered or left the spanner) that bounds
//! what can have changed.  [`DeltaRouter`] closes that gap: it owns a
//! [`RoutingTables`] and repairs it in place, recomputing **only the rows a
//! flip can actually affect**, with the repaired table pinned *bit-identical*
//! to a from-scratch rebuild.
//!
//! # Which rows can a flip affect?
//!
//! Row `u` records, per destination `v`, the distance `d_{H_u}(u, v)`, the
//! *canonical* next hop (smallest first hop over all shortest paths,
//! [`crate::tables::fill_row`]) and that hop's *support* — how many
//! predecessors of `v` realise it.  All three are pure functions of the
//! `H_u` metric, so whether a flipped spanner edge `{x, y}` changes row `u`
//! is decided **exactly** by O(1) reads of the row itself — the table *is*
//! the precomputed reverse-BFS from the flipped endpoints.  With `lo`/`hi`
//! the endpoints ordered by `dist` from `u`:
//!
//! * **`dist(x) == dist(y)`** (including both unreachable): an edge between
//!   equal-depth endpoints lies on no shortest path from `u` and creates
//!   none, and neither endpoint is a predecessor of the other.  Skip.
//! * **Added edge, `Δdist == 1`**: no distance changes, but `hi` gains `lo`
//!   as a predecessor.  `hop(lo) < hop(hi)`: the canonical hop improves —
//!   recompute.  `hop(lo) == hop(hi)`: nothing changes except `hi`'s
//!   support, incremented in place.  `hop(lo) > hop(hi)`: skip.
//! * **Added edge, `Δdist ≥ 2`** or exactly one endpoint reachable:
//!   distances (or reachability) genuinely change.  Recompute.
//! * **Removed edge** (a present edge forces `Δdist ≤ 1`): `hi` loses
//!   predecessor `lo`.  `hop(lo) > hop(hi)`: `lo` never realised the
//!   canonical hop — skip.  `hop(lo) == hop(hi)` with support ≥ 2: another
//!   predecessor realises the same hop, so distance and hop both survive;
//!   decrement the support in place and skip.  Support 1: the hop (or, if
//!   `lo` was the only predecessor, the distance) was inherited through the
//!   removed edge — recompute.
//! * **Topology change `{a, b}`**: `H_u` contains *all* of `u`'s incident
//!   `G`-edges, so a plain link flip affects exactly rows `a` and `b` —
//!   always recomputed.  Conversely, a spanner flip of an edge incident to
//!   `u` never changes `H_u` while the edge exists in `G` (it stays present
//!   through `u`'s own incident set), so rows `x` and `y` are skipped in the
//!   spanner pass.
//!
//! Every skip is provably change-free and every mark provably changes the
//! row (a smaller distance, a smaller or forced-larger hop), so the marked
//! set equals the truly-affected set.  Multiple flips per commit compose:
//! the in-place support maintenance keeps a skipped row's entries exact
//! after each flip, so evaluating the next flip against it stays sound, and
//! a marked row is repaired once against the final state.
//!
//! The flip scan is **batched row-major**: all of a commit's flips (adds
//! first, then removals, in delta order) are evaluated row by row in a
//! single pass over the table, so each row's column entries are pulled
//! through the cache once per commit instead of once per flip, and a row
//! stops at its first marking flip.  Because rows are independent and the
//! per-row flip order is preserved, the batched pass marks exactly the rows
//! the one-scan-per-flip order would (the in-place support updates only ever
//! feed later flips of the *same* row).  On top of the scan, each row
//! repair runs over the router's own **sparse spanner adjacency** (sorted
//! per-node spanner neighbor lists maintained from the deltas) instead of
//! filtering all of `G`'s edges like the from-scratch build does.
//!
//! # How a marked row is repaired
//!
//! A marked row typically changes in a handful of its `n` entries, so it is
//! not refilled: the repair is the classical dynamic shortest-path update
//! (Ramalingam & Reps, *J. Algorithms* 1996) specialised to unit weights and
//! to the canonical hop and support.  The row's `H_u` flips are the spanner
//! flips not incident to `u` (an edge at `u` stays in `H_u` through `u`'s own
//! links while it exists in `G`) and, for a batch endpoint, its batch links
//! `(u, b)` — added if present after the commit, removed otherwise.  Three
//! phases run against the post-commit `H_u`, each over one reused
//! `(dist, node)` min-heap:
//!
//! 1. **Lost predecessors.**  With the old labels, in increasing distance,
//!    a candidate `z` at depth `d` is *lost* when no neighbour at `d − 1` is
//!    still unaffected; a lost node's dist is cleared at once, so later
//!    checks see only unaffected predecessors, and its depth-`d + 1`
//!    neighbours become candidates.  Seeds are the deeper endpoint of each
//!    removed flip with `Δdist = 1` and each removed batch link `(u, b)` with
//!    `b` at depth 1 — every edge that was someone's predecessor link.  A
//!    node that is never a candidate kept all its predecessor links and
//!    predecessors, so its old distance is still realised.
//! 2. **Re-settle distances.**  Each lost node starts from its unaffected
//!    neighbours (`min dist + 1`), the endpoints of added flips and `u` (for
//!    added batch links) are pushed as shortcuts, and unit-weight relaxation
//!    runs to a fixpoint.  Every value is realised by some path, and the
//!    fixpoint satisfies `dist(w) ≤ dist(v) + 1` on every edge (the only
//!    edges that could violate it start at a pushed node), so the result is
//!    exactly `d_{H_u}`.
//! 3. **Re-derive hops and supports.**  A node's canonical hop and support
//!    are functions of its distance, its incident edges and the hops of its
//!    neighbours one level up.  So, in increasing new distance, every touched
//!    node (lost or lowered), every neighbour of one and every flip endpoint
//!    is recomputed — depth 1 gives `(v, 1)`, a deeper node the min and
//!    count over its spanner neighbours at `d − 1` — and a node whose hop
//!    changed queues its successors.  Predecessors always settle first, so
//!    every recomputed entry reads final inputs; every other entry has
//!    unchanged inputs.  A batch link's far endpoint needs no extra seed:
//!    its distance moves to or from 1, so it is touched.
//!
//! The flip scan may already have adjusted some supports of a row before
//! marking it.  It only ever writes the deeper endpoint of a flip, which
//! phase 3 recomputes from scratch, so those partial updates are
//! overwritten rather than trusted.  The result is pinned against a fresh
//! [`DeltaRouter::new`] (tables *and* supports) in the unit tests, and debug
//! builds refill the last repaired row of every commit and assert equality.

use crate::tables::{fill_row, RoutingTables, NO_HOP, UNREACH};
use rspan_engine::{RspanEngine, SpannerDelta, TopologyChange};
use rspan_graph::{sorted_insert, sorted_remove, Adjacency, EpochFlags, Node};
use rspan_obs::{ObsEvent, ObsHandle, Phase};
use rspan_telemetry::{Counter, Hist, Span, TelemetryHandle};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// The augmented view `H_u` assembled from the router's own spanner
/// adjacency plus the source's incident edges (provided by the caller per
/// row): for `w != u`, the spanner neighbors of `w` with `u` merged in when
/// `{u, w} ∈ G`; for the source, all of `u`'s `G`-neighbors.
pub(crate) struct SparseView<'r> {
    pub(crate) n: usize,
    pub(crate) spanner_adj: &'r [Vec<Node>],
    /// The source's `G`-neighborhood, sorted.
    pub(crate) src_neighbors: &'r [Node],
    /// Membership flags for `src_neighbors`.
    pub(crate) src_adj: &'r EpochFlags,
    pub(crate) source: Node,
}

impl Adjacency for SparseView<'_> {
    fn num_nodes(&self) -> usize {
        self.n
    }

    #[inline]
    fn for_each_neighbor(&self, w: Node, f: &mut dyn FnMut(Node)) {
        if w == self.source {
            for &v in self.src_neighbors {
                f(v);
            }
            return;
        }
        let list = &self.spanner_adj[w as usize];
        if self.src_adj.test(w) {
            // Merge the source into the sorted spanner list (once: the edge
            // may also be a spanner edge).
            let source = self.source;
            let mut inserted = false;
            for &v in list {
                if !inserted && source < v {
                    f(source);
                    inserted = true;
                }
                if v == source {
                    inserted = true;
                }
                f(v);
            }
            if !inserted {
                f(source);
            }
        } else {
            for &v in list {
                f(v);
            }
        }
    }

    fn degree_hint(&self, w: Node) -> usize {
        self.spanner_adj[w as usize].len() + 1
    }

    fn contains_edge(&self, w: Node, v: Node) -> bool {
        if w == self.source {
            self.src_adj.test(v)
        } else if v == self.source {
            self.src_adj.test(w)
        } else {
            self.spanner_adj[w as usize].binary_search(&v).is_ok()
        }
    }
}

/// What one [`DeltaRouter::apply`] did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairStats {
    /// Router epoch after the repair (mirrors the consumed delta's epoch).
    pub epoch: u64,
    /// Rows repaired in place by this repair (each marked row is
    /// repaired locally, not refilled).
    pub rows_recomputed: usize,
    /// Topology changes in the consumed batch.
    pub batch_changes: usize,
    /// Spanner edges that entered or left (the flips scanned against every
    /// row).
    pub spanner_flips: usize,
}

impl RepairStats {
    /// Fraction of rows this repair touched.
    pub fn repaired_fraction(&self, n: usize) -> f64 {
        self.rows_recomputed as f64 / n.max(1) as f64
    }
}

/// Long-lived owner of [`RoutingTables`], repaired incrementally from engine
/// commits; see the module docs for the affected-row analysis.
///
/// Lifecycle: build once from an engine ([`DeltaRouter::new`]), then call
/// [`DeltaRouter::apply`] with every `(batch, delta)` pair the engine
/// commits, *in order* — epochs are checked, so a missed delta panics rather
/// than silently serving stale routes.
pub struct DeltaRouter {
    n: usize,
    epoch: u64,
    tables: RoutingTables,
    /// `support[u * n + v]` = how many predecessors of `v` realise `v`'s
    /// canonical hop in row `u` (0 for the source and unreached nodes).
    support: Vec<u32>,
    /// Sorted spanner neighbor lists, maintained from the deltas — the
    /// sparse substrate every repair sweep runs on.
    spanner_adj: Vec<Vec<Node>>,
    queue: Vec<Node>,
    src_neighbors: Vec<Node>,
    src_adj: EpochFlags,
    affected: EpochFlags,
    affected_rows: Vec<Node>,
    /// The commit's spanner flips flattened for the batched row-major scan:
    /// `(x, y, is_add)`, adds first, both groups in delta order.
    flips: Vec<(Node, Node, bool)>,
    /// The batch's links as `(endpoint, other)`, both orientations, sorted
    /// and deduplicated: the `H_u` source-link flips of each batch row.
    batch_links: Vec<(Node, Node)>,
    /// `(dist, node)` min-heap shared by the three phases of a row repair.
    heap: BinaryHeap<Reverse<(u32, Node)>>,
    /// Phase 1: candidates examined; phase 3: nodes queued.
    seen: EpochFlags,
    /// Nodes whose distance entry the current row repair rewrote: after
    /// phase 1 exactly the lost nodes, then also those phase 2 lowered.
    touched: EpochFlags,
    touched_list: Vec<Node>,
    tel: TelemetryHandle,
}

impl DeltaRouter {
    /// Builds the full tables for the engine's *current* spanner and
    /// topology (one sweep per node, same result as
    /// [`RoutingTables::build`] on a compacted snapshot).
    pub fn new(engine: &RspanEngine) -> Self {
        let n = engine.graph().n();
        let mut spanner_adj: Vec<Vec<Node>> = vec![Vec::new(); n];
        for (u, v) in engine.spanner_pairs() {
            spanner_adj[u as usize].push(v);
            spanner_adj[v as usize].push(u);
        }
        for list in &mut spanner_adj {
            list.sort_unstable();
        }
        let mut router = DeltaRouter {
            n,
            epoch: engine.epoch(),
            tables: RoutingTables {
                n,
                next: vec![NO_HOP; n * n],
                dist: vec![UNREACH; n * n],
            },
            support: vec![0; n * n],
            spanner_adj,
            queue: Vec::with_capacity(n),
            src_neighbors: Vec::new(),
            src_adj: EpochFlags::new(),
            affected: EpochFlags::new(),
            affected_rows: Vec::new(),
            flips: Vec::new(),
            batch_links: Vec::new(),
            heap: BinaryHeap::new(),
            seen: EpochFlags::new(),
            touched: EpochFlags::new(),
            touched_list: Vec::new(),
            tel: TelemetryHandle::off(),
        };
        for u in 0..n as Node {
            router.fill(engine, u);
        }
        router
    }

    /// Loads the source's incident edges from the engine's live topology
    /// into `src_neighbors` / `src_adj`.
    fn load_source(&mut self, engine: &RspanEngine, u: Node) {
        self.src_neighbors.clear();
        engine
            .graph()
            .for_each_neighbor(u, &mut |v| self.src_neighbors.push(v));
        self.src_adj.begin(self.n);
        for &v in &self.src_neighbors {
            self.src_adj.set(v);
        }
    }

    /// Recomputes row `u` from scratch over the sparse spanner adjacency.
    fn fill(&mut self, engine: &RspanEngine, u: Node) {
        let n = self.n;
        self.load_source(engine, u);
        let view = SparseView {
            n,
            spanner_adj: &self.spanner_adj,
            src_neighbors: &self.src_neighbors,
            src_adj: &self.src_adj,
            source: u,
        };
        let row = u as usize * n;
        fill_row(
            &view,
            u,
            &mut self.queue,
            &mut self.tables.next[row..row + n],
            &mut self.tables.dist[row..row + n],
            &mut self.support[row..row + n],
        );
    }

    /// Repairs row `u` in place against the post-commit `H_u` (see "How a
    /// marked row is repaired" in the module docs).  The row still holds
    /// the pre-commit labels, apart from support counts the flip scan
    /// adjusted at flip endpoints; the spanner adjacency is already
    /// post-commit.
    fn repair_row(&mut self, engine: &RspanEngine, u: Node) {
        let n = self.n;
        self.load_source(engine, u);
        let row = u as usize * n;
        let dist = &mut self.tables.dist[row..row + n];
        let next = &mut self.tables.next[row..row + n];
        let support = &mut self.support[row..row + n];
        let adj = &self.spanner_adj;
        let src_adj = &self.src_adj;
        let heap = &mut self.heap;
        let seen = &mut self.seen;
        let touched = &mut self.touched;
        let touched_list = &mut self.touched_list;
        // `H_u` edge flips: spanner flips away from `u` (one incident to `u`
        // never changes `H_u`, which holds all of `u`'s `G`-links), and the
        // batch's links at `u`, added when present after the commit.
        let flips = self.flips.iter().filter(|&&(x, y, _)| x != u && y != u);
        let start = self.batch_links.partition_point(|&(a, _)| a < u);
        let end = self.batch_links.partition_point(|&(a, _)| a <= u);
        let links = &self.batch_links[start..end];
        heap.clear();
        touched_list.clear();
        seen.begin(n);
        touched.begin(n);

        // Phase 1: in increasing old distance, find the nodes left without
        // an unaffected predecessor.  Seeds are the deeper endpoints of the
        // removed edges that were predecessor links.
        let removed = flips
            .clone()
            .filter(|&&(_, _, is_add)| !is_add)
            .map(|&(x, y, _)| (x, y))
            .chain(links.iter().filter(|&&(_, b)| !src_adj.test(b)).copied());
        for (x, y) in removed {
            let (dx, dy) = (dist[x as usize], dist[y as usize]);
            let (dlo, hi, dhi) = if dx < dy { (dx, y, dy) } else { (dy, x, dx) };
            if dhi != UNREACH && dhi == dlo + 1 && seen.set(hi) {
                heap.push(Reverse((dhi, hi)));
            }
        }
        while let Some(Reverse((d, z))) = heap.pop() {
            // Affected nodes already read `UNREACH`, so this only finds
            // unaffected predecessors.  At depth ≥ 2 they are all spanner
            // neighbours (`u` itself sits at depth 0).
            let keeps = if d == 1 {
                src_adj.test(z)
            } else {
                adj[z as usize].iter().any(|&w| dist[w as usize] == d - 1)
            };
            if keeps {
                continue;
            }
            dist[z as usize] = UNREACH;
            touched.set(z);
            touched_list.push(z);
            for &s in &adj[z as usize] {
                if dist[s as usize] == d + 1 && seen.set(s) {
                    heap.push(Reverse((d + 1, s)));
                }
            }
        }

        // Phase 2: re-settle distances.  Lost nodes start from their
        // unaffected neighbours, added edges act as shortcuts, and
        // unit-weight relaxation closes every edge left inconsistent.
        for &z in touched_list.iter() {
            let mut est = if src_adj.test(z) { 1 } else { UNREACH };
            for &w in &adj[z as usize] {
                let dw = dist[w as usize];
                if dw != UNREACH {
                    est = est.min(dw + 1);
                }
            }
            if est != UNREACH {
                dist[z as usize] = est;
                heap.push(Reverse((est, z)));
            }
        }
        for &(x, y, _) in flips.clone().filter(|&&(_, _, is_add)| is_add) {
            for v in [x, y] {
                if dist[v as usize] != UNREACH {
                    heap.push(Reverse((dist[v as usize], v)));
                }
            }
        }
        if links.iter().any(|&(_, b)| src_adj.test(b)) {
            heap.push(Reverse((0, u)));
        }
        while let Some(Reverse((d, v))) = heap.pop() {
            if dist[v as usize] != d {
                continue; // superseded by a shorter entry
            }
            // Relaxation never reaches `u`, so the spanner neighbours are
            // all of a non-source node's relaxable `H_u` neighbours.
            let neighbours = if v == u {
                &self.src_neighbors[..]
            } else {
                &adj[v as usize][..]
            };
            for &w in neighbours {
                if d + 1 < dist[w as usize] {
                    dist[w as usize] = d + 1;
                    if touched.set(w) {
                        touched_list.push(w);
                    }
                    heap.push(Reverse((d + 1, w)));
                }
            }
        }

        // Phase 3: in distance order, re-derive the canonical hop and
        // support of every node whose predecessor set may have changed —
        // touched nodes, their neighbours and the flip endpoints — and of
        // every successor of a node whose hop changed.
        seen.begin(n);
        let mut queue = |v: Node, heap: &mut BinaryHeap<_>| {
            if seen.set(v) {
                heap.push(Reverse((dist[v as usize], v)));
            }
        };
        for &t in touched_list.iter() {
            queue(t, heap);
            for &w in &adj[t as usize] {
                queue(w, heap);
            }
        }
        // A batch link's far endpoint needs no seed: its distance always
        // changes (to or from 1), so it is already touched.
        for &(x, y, _) in flips {
            queue(x, heap);
            queue(y, heap);
        }
        while let Some(Reverse((d, v))) = heap.pop() {
            let (hop, count) = match d {
                0 | UNREACH => (NO_HOP, 0),
                1 => (v, 1),
                _ => {
                    let (mut hop, mut count) = (NO_HOP, 0);
                    for &w in &adj[v as usize] {
                        if dist[w as usize] == d - 1 {
                            let hw = next[w as usize];
                            if hw < hop {
                                (hop, count) = (hw, 1);
                            } else if hw == hop {
                                count += 1;
                            }
                        }
                    }
                    (hop, count)
                }
            };
            support[v as usize] = count;
            if std::mem::replace(&mut next[v as usize], hop) != hop && d != UNREACH {
                for &s in &adj[v as usize] {
                    if dist[s as usize] == d + 1 {
                        queue(s, heap);
                    }
                }
            }
        }
    }

    /// Refills the last repaired row from scratch and asserts the repair
    /// had left it exactly so, so every debug-build suite checks the local
    /// repair on each commit.
    #[cfg(debug_assertions)]
    fn check_last_repair(&mut self, engine: &RspanEngine) {
        let Some(&u) = self.affected_rows.last() else {
            return;
        };
        let row = u as usize * self.n..(u as usize + 1) * self.n;
        let dist = self.tables.dist[row.clone()].to_vec();
        let next = self.tables.next[row.clone()].to_vec();
        let support = self.support[row.clone()].to_vec();
        self.fill(engine, u);
        debug_assert_eq!(dist, self.tables.dist[row.clone()], "row {u}: dist");
        debug_assert_eq!(next, self.tables.next[row.clone()], "row {u}: next");
        debug_assert_eq!(support, self.support[row], "row {u}: support");
    }

    /// Installs a live telemetry handle: every repair records wall-clock
    /// spans ([`Span::RepairSweep`] / [`Span::RepairFill`]), router counters
    /// and a [`Hist::RepairNs`] sample.  Never consulted on the off handle —
    /// repairs stay branch-for-branch identical.
    pub fn set_telemetry(&mut self, tel: TelemetryHandle) {
        self.tel = tel;
    }

    /// Engine epoch the tables currently reflect.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The maintained next-hop tables (always consistent with the last
    /// applied delta).
    pub fn tables(&self) -> &RoutingTables {
        &self.tables
    }

    /// Number of nodes routed.
    pub fn n(&self) -> usize {
        self.n
    }

    fn mark(&mut self, u: Node) {
        if self.affected.set(u) {
            self.affected_rows.push(u);
        }
    }

    /// Consumes one engine commit — the batch it absorbed and the
    /// [`SpannerDelta`] it emitted — and repairs exactly the affected rows.
    ///
    /// `engine` must be the engine that produced `delta` (post-commit), and
    /// deltas must arrive in epoch order; both are asserted.
    pub fn apply(
        &mut self,
        engine: &RspanEngine,
        batch: &[TopologyChange],
        delta: &SpannerDelta,
    ) -> RepairStats {
        self.apply_observed(engine, batch, delta, &ObsHandle::off())
    }

    /// Like [`DeltaRouter::apply`], with the repair attributed into `obs`:
    /// the flip scan and row repair are wall-clock profiled
    /// ([`Phase::RepairSweep`] / [`Phase::RepairFill`], profile channel
    /// only), and a deterministic [`ObsEvent::Repair`] summary records how
    /// many rows the batch marked directly, how many the flip scan marked,
    /// how many the scan proved unaffected and how many were repaired.
    /// With the off handle this *is* `apply` — one branch, no timing, no
    /// allocation.
    pub fn apply_observed(
        &mut self,
        engine: &RspanEngine,
        batch: &[TopologyChange],
        delta: &SpannerDelta,
        obs: &ObsHandle,
    ) -> RepairStats {
        let on = obs.on();
        let tel_on = self.tel.on();
        let timed = on || tel_on;
        let repair_start = tel_on.then(Instant::now);
        assert_eq!(
            delta.epoch,
            self.epoch + 1,
            "router missed a delta (have epoch {}, got {})",
            self.epoch,
            delta.epoch
        );
        assert_eq!(
            engine.epoch(),
            delta.epoch,
            "delta does not match the engine's current epoch"
        );
        let n = self.n;
        self.affected.begin(n);
        self.affected_rows.clear();

        // A link flip changes H_a and H_b directly (their incident sets).
        for change in batch {
            let (a, b) = change.endpoints();
            self.mark(a);
            self.mark(b);
        }
        let marked_batch = self.affected_rows.len();
        // Spanner flips: O(1) column reads per (row, flip) decide who
        // recomputes — exactly (see the module docs), with the in-place
        // support updates keeping skipped rows correct for the next flip of
        // the same row.  The scan is batched row-major: one pass over the
        // table evaluates every flip against a row while its entries are
        // cache-resident, stopping at the first marking flip, instead of
        // one full table pass per flip.
        self.flips.clear();
        self.flips
            .extend(delta.added.iter().map(|&(x, y)| (x, y, true)));
        self.flips
            .extend(delta.removed.iter().map(|&(x, y)| (x, y, false)));
        let mut stamp = timed.then(Instant::now);
        if !self.flips.is_empty() {
            for u in 0..n as Node {
                if self.affected.test(u) {
                    continue;
                }
                let row = u as usize * n;
                for fi in 0..self.flips.len() {
                    let (x, y, is_add) = self.flips[fi];
                    if u == x || u == y {
                        continue;
                    }
                    let dx = self.tables.dist[row + x as usize];
                    let dy = self.tables.dist[row + y as usize];
                    if dx == dy {
                        continue;
                    }
                    let (lo, hi) = if dx < dy { (x, y) } else { (y, x) };
                    let hop_lo = self.tables.next[row + lo as usize];
                    let hop_hi = self.tables.next[row + hi as usize];
                    if is_add {
                        let (dlo, dhi) = if dx < dy { (dx, dy) } else { (dy, dx) };
                        if dhi != UNREACH && dhi - dlo == 1 {
                            if hop_lo > hop_hi {
                                continue; // hi's canonical hop already beats lo's
                            }
                            if hop_lo == hop_hi {
                                // One more predecessor realises the same hop.
                                self.support[row + hi as usize] += 1;
                                continue;
                            }
                        }
                    } else {
                        if hop_lo > hop_hi {
                            continue; // lo never realised hi's canonical hop
                        }
                        debug_assert_eq!(
                            hop_lo, hop_hi,
                            "a predecessor's hop can never beat its successor's"
                        );
                        let support = &mut self.support[row + hi as usize];
                        if *support >= 2 {
                            *support -= 1; // another predecessor keeps hop and distance
                            continue;
                        }
                    }
                    self.mark(u);
                    break; // later flips cannot unmark; the row repairs once
                }
            }
        }
        if let Some(start) = stamp {
            let ns = start.elapsed().as_nanos() as u64;
            let items = self.flips.len() as u64;
            if on {
                obs.phase(Phase::RepairSweep, ns, items);
            }
            self.tel.span_record(Span::RepairSweep, ns, items);
        }

        // Update the sparse spanner adjacency, then repair the marked rows
        // against the post-flip structure.
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
        self.batch_links.clear();
        for change in batch {
            let (a, b) = change.endpoints();
            self.batch_links.extend([(a, b), (b, a)]);
        }
        self.batch_links.sort_unstable();
        self.batch_links.dedup();
        stamp = timed.then(Instant::now);
        let rows = std::mem::take(&mut self.affected_rows);
        for &u in &rows {
            self.repair_row(engine, u);
        }
        self.affected_rows = rows;
        if let Some(start) = stamp {
            let ns = start.elapsed().as_nanos() as u64;
            let items = self.affected_rows.len() as u64;
            if on {
                obs.phase(Phase::RepairFill, ns, items);
            }
            self.tel.span_record(Span::RepairFill, ns, items);
        }
        #[cfg(debug_assertions)]
        self.check_last_repair(engine);
        if on {
            obs.emit(ObsEvent::Repair {
                epoch: delta.epoch,
                marked_batch: marked_batch as u32,
                marked_flips: (self.affected_rows.len() - marked_batch) as u32,
                skipped: (n - self.affected_rows.len()) as u32,
                repaired: self.affected_rows.len() as u32,
                flips: self.flips.len() as u32,
            });
        }
        if tel_on {
            self.tel.incr(Counter::RouterRepairs);
            self.tel
                .add(Counter::RouterRepairedRows, self.affected_rows.len() as u64);
            self.tel.add(Counter::RouterFlips, self.flips.len() as u64);
            self.tel.add(
                Counter::RouterSkippedRows,
                (n - self.affected_rows.len()) as u64,
            );
            if let Some(start) = repair_start {
                self.tel
                    .observe(Hist::RepairNs, start.elapsed().as_nanos() as u64);
            }
        }
        self.epoch = delta.epoch;
        RepairStats {
            epoch: self.epoch,
            rows_recomputed: self.affected_rows.len(),
            batch_changes: batch.len(),
            spanner_flips: delta.added.len() + delta.removed.len(),
        }
    }

    /// Next hop from `u` toward `v` (`None` if unreachable or `u == v`).
    pub fn next_hop(&self, u: Node, v: Node) -> Option<Node> {
        self.tables.next_hop(u, v)
    }

    /// `d_{H_u}(u, v)` as recorded in the maintained table.
    pub fn table_distance(&self, u: Node, v: Node) -> Option<u32> {
        self.tables.table_distance(u, v)
    }

    /// Forwards a packet from `s` to `t` by table lookups at every hop.
    pub fn forward(&self, s: Node, t: Node) -> Option<Vec<Node>> {
        self.tables.forward(s, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::valid_subset;
    use rspan_domtree::TreeAlgo;
    use rspan_engine::{ChurnScenario, JoinLeaveScenario, LinkFlapScenario, MobilityScenario};
    use rspan_graph::generators::er::gnp_connected;
    use rspan_graph::generators::structured::{cycle_graph, grid_graph};
    use rspan_graph::generators::udg::uniform_udg;

    fn assert_matches_full_build(router: &DeltaRouter, engine: &RspanEngine, context: &str) {
        let csr = engine.to_csr();
        let spanner = engine.spanner_on(&csr);
        let full = RoutingTables::build(&spanner);
        assert_eq!(router.tables(), &full, "{context}");
    }

    /// Asserts the whole router state — tables, support counts and the
    /// sparse spanner adjacency — equals a router built fresh from `engine`.
    fn assert_state_matches_fresh(router: &DeltaRouter, engine: &RspanEngine, context: &str) {
        let fresh = DeltaRouter::new(engine);
        assert_eq!(
            router.spanner_adj, fresh.spanner_adj,
            "{context}: adjacency"
        );
        assert_eq!(router.tables, fresh.tables, "{context}: tables");
        assert_eq!(router.support, fresh.support, "{context}: support");
    }

    /// Drives interleaved link-flap, mobility and join/leave churn over a
    /// unit-disk graph and checks the full router state after every commit.
    /// Returns the unreachable-entry count of the table after each commit.
    fn drive_interleaved_churn(n: usize, side: f64, seed: u64, rounds: usize) -> Vec<usize> {
        let inst = uniform_udg(n, side, 1.0, seed);
        let mut engine = RspanEngine::new(inst.graph.clone(), TreeAlgo::KGreedy { k: 2 });
        let mut router = DeltaRouter::new(&engine);
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
            unreachable.push(router.tables.dist.iter().filter(|&&d| d == UNREACH).count());
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
        // Mean degree ≈ 3: the graph sits near its percolation threshold, so
        // rows hold unreachable entries and churn splits and merges
        // components (the unreachable count both rises and falls).
        let (mut rose, mut fell) = (false, false);
        for seed in 0..4 {
            let counts = drive_interleaved_churn(60, 8.0, 100 + seed, 30);
            assert!(
                counts.iter().all(|&c| c > 0),
                "seed {seed}: graph connected"
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
        let mut router = DeltaRouter::new(&engine);
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
    fn fresh_router_matches_from_scratch_build() {
        for g in [cycle_graph(9), grid_graph(4, 5), gnp_connected(40, 0.1, 3)] {
            let engine = RspanEngine::new(g, TreeAlgo::KGreedy { k: 2 });
            let router = DeltaRouter::new(&engine);
            assert_matches_full_build(&router, &engine, "initial build");
        }
    }

    #[test]
    fn repair_tracks_single_flips_bit_identically() {
        let g = gnp_connected(50, 0.08, 5);
        let mut engine = RspanEngine::new(g.clone(), TreeAlgo::KGreedy { k: 1 });
        let mut router = DeltaRouter::new(&engine);
        let (eu, ev) = g.edges().next().unwrap();
        for change in [
            TopologyChange::RemoveEdge(eu, ev),
            TopologyChange::AddEdge(eu, ev),
        ] {
            let batch = [change];
            let delta = engine.commit(&batch);
            let stats = router.apply(&engine, &batch, &delta);
            assert_eq!(stats.epoch, engine.epoch());
            assert!(stats.rows_recomputed >= 2, "endpoint rows always repair");
            assert_matches_full_build(&router, &engine, "after flip");
        }
    }

    #[test]
    fn empty_commit_repairs_nothing() {
        let mut engine = RspanEngine::new(grid_graph(5, 5), TreeAlgo::Mis { r: 2 });
        let mut router = DeltaRouter::new(&engine);
        let delta = engine.commit(&[]);
        let stats = router.apply(&engine, &[], &delta);
        assert_eq!(stats.rows_recomputed, 0);
        assert_eq!(stats.repaired_fraction(25), 0.0);
        assert_matches_full_build(&router, &engine, "empty commit");
    }

    #[test]
    #[should_panic(expected = "missed a delta")]
    fn skipping_a_delta_panics() {
        let mut engine = RspanEngine::new(cycle_graph(8), TreeAlgo::KGreedy { k: 1 });
        let mut router = DeltaRouter::new(&engine);
        engine.commit(&[]); // epoch 1, never given to the router
        let batch = [TopologyChange::AddEdge(0, 4)];
        let delta = engine.commit(&batch); // epoch 2
        router.apply(&engine, &batch, &delta);
    }

    #[test]
    fn observed_apply_matches_plain_and_attributes_rows() {
        use rspan_obs::ObsConfig;
        let g = gnp_connected(50, 0.08, 5);
        let algo = TreeAlgo::KGreedy { k: 1 };
        let mut engine_a = RspanEngine::new(g.clone(), algo);
        let mut engine_b = RspanEngine::new(g.clone(), algo);
        let mut plain = DeltaRouter::new(&engine_a);
        let mut observed = DeltaRouter::new(&engine_b);
        let (eu, ev) = g.edges().next().unwrap();
        let batch = [TopologyChange::RemoveEdge(eu, ev)];
        let delta_a = engine_a.commit(&batch);
        let delta_b = engine_b.commit(&batch);
        assert_eq!(delta_a, delta_b);
        let obs = ObsHandle::mem(ObsConfig::default());
        let stats_plain = plain.apply(&engine_a, &batch, &delta_a);
        let stats_obs = observed.apply_observed(&engine_b, &batch, &delta_b, &obs);
        assert_eq!(stats_plain, stats_obs, "observation changed the repair");
        assert_eq!(plain.tables(), observed.tables());
        let report = obs.take_report().expect("recorder attached");
        assert_eq!(report.lines.len(), 1);
        let line = &report.lines[0];
        assert!(line.contains("\"kind\":\"repair\""), "{line}");
        assert!(line.contains(&format!("\"repaired\":{}", stats_obs.rows_recomputed)));
        assert!(report
            .phases
            .iter()
            .any(|p| p.phase == Phase::RepairFill && p.items == stats_obs.rows_recomputed as u64));
    }

    #[test]
    fn routing_through_repaired_tables_stays_consistent() {
        let g = gnp_connected(40, 0.1, 9);
        let mut engine = RspanEngine::new(g.clone(), TreeAlgo::KGreedy { k: 2 });
        let mut router = DeltaRouter::new(&engine);
        let (eu, ev) = g.edges().nth(3).unwrap();
        let batch = [TopologyChange::RemoveEdge(eu, ev)];
        let delta = engine.commit(&batch);
        router.apply(&engine, &batch, &delta);
        for t in 0..router.n() as Node {
            if t == 0 {
                continue;
            }
            match (router.table_distance(0, t), router.forward(0, t)) {
                (Some(d), Some(path)) => {
                    assert!(path.len() as u32 - 1 <= d);
                    assert_eq!(path[0], 0);
                    assert_eq!(*path.last().unwrap(), t);
                    assert_eq!(router.next_hop(0, t), Some(path[1]));
                }
                (None, None) => {}
                other => panic!("inconsistent table entries for (0, {t}): {other:?}"),
            }
        }
    }
}
