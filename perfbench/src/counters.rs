//! Deterministic work counters. The untraced session run and the traced
//! layer-by-layer run fill the same struct, and the two must be equal.

use std::ops::AddAssign;

#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Topology changes committed.
    pub changes: u64,
    /// Nodes whose dominating tree the engine recomputed.
    pub dirty: u64,
    /// Spanner edges that entered or left.
    pub flips: u64,
    /// `DeltaRouter` rows recomputed.
    pub rows_recomputed: u64,
    /// `CompactRouter` ball rows rebuilt.
    pub ball_rows: u64,
    /// `CompactRouter` landmark trees rebuilt.
    pub landmark_trees: u64,
    /// Exact-query row-cache hits and misses.
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Sync flood transmissions and rounds.
    pub messages: u64,
    pub flood_rounds: u64,
    /// Async simulator events, transmissions, deliveries and bytes sent.
    pub events: u64,
    pub transmissions: u64,
    pub delivered: u64,
    pub bytes: u64,
    /// Async rounds that quiesced before the next churn instant, and the
    /// sum of their convergence ticks.
    pub converged: u64,
    pub convergence_ticks: u64,
    /// Final spanner size and compact-router state.
    pub spanner_edges: u64,
    pub state_bytes: u64,
}

impl AddAssign<&Counters> for Counters {
    fn add_assign(&mut self, o: &Counters) {
        self.changes += o.changes;
        self.dirty += o.dirty;
        self.flips += o.flips;
        self.rows_recomputed += o.rows_recomputed;
        self.ball_rows += o.ball_rows;
        self.landmark_trees += o.landmark_trees;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.messages += o.messages;
        self.flood_rounds += o.flood_rounds;
        self.events += o.events;
        self.transmissions += o.transmissions;
        self.delivered += o.delivered;
        self.bytes += o.bytes;
        self.converged += o.converged;
        self.convergence_ticks += o.convergence_ticks;
        self.spanner_edges += o.spanner_edges;
        self.state_bytes += o.state_bytes;
    }
}
