//! The loopback cluster harness: churn-driven stabilisation on live
//! concurrency.
//!
//! [`NetCluster::run`] mirrors the asim `RepairChurnDriver` round protocol
//! exactly — same seeded engine commits, same topology mirroring, same
//! "arm a wave only on recomputed roots" rule — but the waves execute on
//! real OS threads (and, with [`NetBackend::Tcp`], real sockets) instead of
//! a virtual-time event queue.  Because every node runs
//! [`RepairNode::with_monotone`] and the harness quiesces between the
//! link-flip phase and the wave phase of each round, the per-node end state
//! is independent of physical message interleaving and **bit-identical** to
//! the asim run for the same topology, churn scenario and seed (asserted by
//! the equivalence tests via [`repair_end_state`]).

use crate::tcp::spawn_tcp;
use crate::worker::Cluster;
use rspan_distributed::{RepairNode, WaveNode};
use rspan_engine::{ChurnScenario, RspanEngine, TopologyChange};
use rspan_graph::{Adjacency, Node};
use rspan_telemetry::TelemetryHandle;
use std::time::{Duration, Instant};

/// Which real transport carries protocol frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetBackend {
    /// One OS thread per node, in-process mpsc delivery.
    Threaded,
    /// One OS thread per node plus TCP loopback sockets between them.
    Tcp,
}

impl NetBackend {
    /// Stable label for benchmarks and telemetry.
    pub fn label(self) -> &'static str {
        match self {
            NetBackend::Threaded => "threaded",
            NetBackend::Tcp => "tcp",
        }
    }
}

/// Configuration for a [`NetCluster`] run.
#[derive(Clone)]
pub struct NetChurnConfig {
    /// Transport backend.
    pub backend: NetBackend,
    /// Tick width of the shared monotonic clock (the `Transport::now` unit).
    pub tick: Duration,
    /// How long to wait for message quiescence per phase before declaring a
    /// round non-converged.
    pub quiesce_timeout: Duration,
    /// Telemetry sink shared by all nodes and the in-flight gauge.
    pub telemetry: TelemetryHandle,
}

impl Default for NetChurnConfig {
    fn default() -> Self {
        NetChurnConfig {
            backend: NetBackend::Threaded,
            tick: Duration::from_micros(100),
            quiesce_timeout: Duration::from_secs(30),
            telemetry: TelemetryHandle::off(),
        }
    }
}

/// Per-round outcome of a net churn run.
#[derive(Clone, Debug)]
pub struct NetRoundReport {
    /// Round index (0-based).
    pub round: usize,
    /// Topology changes committed this round.
    pub batch_len: usize,
    /// Recomputed roots (wave origins) this round.
    pub dirty: usize,
    /// Wall-clock nanoseconds from first wave injection to quiescence.
    pub wall_ns: u64,
    /// Did the cluster quiesce within the configured timeout?
    pub converged: bool,
}

/// Whole-run summary returned by [`NetCluster::run`].
#[derive(Clone, Debug)]
pub struct NetChurnRun {
    /// Per-round reports, in order.
    pub rounds: Vec<NetRoundReport>,
    /// Total recomputed roots across all rounds.
    pub dirty_total: usize,
    /// Total wall-clock nanoseconds spent in wave phases.
    pub wall_ns_total: u64,
    /// Final quiescence: no frame, command or timer outstanding anywhere.
    pub drained: bool,
}

impl NetChurnRun {
    /// Did every round converge and the final drain succeed?
    pub fn fully_converged(&self) -> bool {
        self.drained && self.rounds.iter().all(|r| r.converged)
    }
}

/// The churn harness over a real-transport cluster of [`RepairNode`]s.
pub struct NetCluster {
    cfg: NetChurnConfig,
}

impl NetCluster {
    /// A harness with the given configuration.
    pub fn new(cfg: NetChurnConfig) -> Self {
        NetCluster { cfg }
    }

    /// Runs `rounds` churn rounds against `engine`, with the protocol
    /// executing on live threads/sockets, and returns the run summary plus
    /// the final per-node protocol states (in node-id order).
    ///
    /// Per round, mirroring the asim driver's `commit_round`:
    /// 1. draw the next batch from `scenario` and commit it to the engine
    ///    (the controller-side recompute, deterministic in the seed),
    /// 2. mirror each flip onto both endpoints' live neighbor lists and
    ///    **wait for quiescence** so every worker sees the new topology
    ///    before any wave reaches it,
    /// 3. inject `arm_wave` + `fire_wave` on exactly the recomputed roots,
    /// 4. wait for message quiescence again — that wall-clock interval is
    ///    the round's real convergence time.
    ///
    /// Nodes are *not* started via `on_start`: the asim reference driver
    /// never calls `start()` either, and a clean `RepairNode::on_start` is a
    /// no-op by construction.
    pub fn run(
        &self,
        engine: &mut RspanEngine,
        scenario: &mut dyn ChurnScenario,
        rounds: usize,
    ) -> (NetChurnRun, Vec<RepairNode>) {
        let graph = engine.graph();
        let n = graph.num_nodes();
        let mut neighbors: Vec<Vec<Node>> = vec![Vec::new(); n];
        for (v, list) in neighbors.iter_mut().enumerate() {
            graph.for_each_neighbor(v as Node, &mut |u| list.push(u));
        }
        let radius = engine.dirty_radius();
        let make_node = |_v: Node| RepairNode::with_monotone(radius);
        let cluster: Cluster<RepairNode> = match self.cfg.backend {
            NetBackend::Threaded => Cluster::spawn_threaded(
                neighbors,
                make_node,
                self.cfg.tick,
                self.cfg.telemetry.clone(),
            ),
            NetBackend::Tcp => spawn_tcp(
                neighbors,
                make_node,
                self.cfg.tick,
                self.cfg.telemetry.clone(),
            ),
        };

        let mut reports = Vec::with_capacity(rounds);
        let mut dirty_total = 0usize;
        let mut wall_ns_total = 0u64;
        for round in 0..rounds {
            let batch = scenario.next_batch(engine.graph());
            let delta = engine.commit(&batch);
            // Phase 1: mirror topology onto the live cluster, then barrier —
            // a wave must never race a link flip it logically follows.
            for change in &batch {
                match *change {
                    TopologyChange::AddEdge(u, v) => cluster.set_link(u, v, true),
                    TopologyChange::RemoveEdge(u, v) => cluster.set_link(u, v, false),
                }
            }
            let links_ok = cluster.wait_quiesce(self.cfg.quiesce_timeout);
            // Phase 2: waves on exactly the recomputed roots.
            let t0 = Instant::now();
            let epoch = delta.epoch;
            for &d in &delta.recomputed {
                let tree = engine.tree_edges(d).to_vec();
                cluster.inject(d, move |node, net| {
                    node.arm_wave(epoch, Some(tree));
                    node.fire_wave(net);
                });
            }
            let converged = cluster.wait_quiesce(self.cfg.quiesce_timeout) && links_ok;
            let wall_ns = t0.elapsed().as_nanos() as u64;
            dirty_total += delta.recomputed.len();
            wall_ns_total += wall_ns;
            reports.push(NetRoundReport {
                round,
                batch_len: batch.len(),
                dirty: delta.recomputed.len(),
                wall_ns,
                converged,
            });
        }
        let drained = cluster.wait_quiesce(self.cfg.quiesce_timeout);
        let nodes = cluster.shutdown();
        (
            NetChurnRun {
                rounds: reports,
                dirty_total,
                wall_ns_total,
                drained,
            },
            nodes,
        )
    }
}

/// A node's protocol end state in canonical (sorted) form, for bit-identity
/// comparison between a real-transport run and an asim reference run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeEndState {
    /// `(epoch, origin)` link-state waves this node has refreshed.
    pub refreshed_link_state: Vec<(u64, Node)>,
    /// Spanner-incident edge updates this node knows about.
    pub incident_updates: Vec<(Node, Node)>,
    /// Accepted link-state digests per `(epoch, origin)`.
    pub accepted_link_state: Vec<((u64, Node), u64)>,
    /// Accepted tree-advert digests per `(epoch, origin)`.
    pub accepted_tree_adverts: Vec<((u64, Node), u64)>,
}

/// Canonicalises each node's wave knowledge for end-state comparison.
///
/// This is the "converged routing tables / spanner knowledge" equality the
/// harness asserts: same refreshed wave set, same incident-edge knowledge
/// and the same content digests for every accepted flood — regardless of
/// the physical order frames arrived in.
pub fn repair_end_state(nodes: &[RepairNode]) -> Vec<NodeEndState> {
    nodes
        .iter()
        .map(|node| {
            let mut refreshed_link_state: Vec<_> = node.refreshed_link_state().collect();
            refreshed_link_state.sort_unstable();
            let mut incident_updates: Vec<_> = node.incident_updates().iter().copied().collect();
            incident_updates.sort_unstable();
            let mut accepted_link_state: Vec<_> = node.accepted_link_state().into_iter().collect();
            accepted_link_state.sort_unstable();
            let mut accepted_tree_adverts: Vec<_> =
                node.accepted_tree_adverts().into_iter().collect();
            accepted_tree_adverts.sort_unstable();
            NodeEndState {
                refreshed_link_state,
                incident_updates,
                accepted_link_state,
                accepted_tree_adverts,
            }
        })
        .collect()
}
