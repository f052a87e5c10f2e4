//! The `RemSpan_{r,β}` protocol (Algorithm 3) as a per-node state machine.
//!
//! Each node runs four operations, realised here as message-driven
//! [`ProtocolNode`] callbacks:
//!
//! 1. **Hello** — broadcast its identity, learn its neighbor list;
//! 2. **Link-state flooding** — flood its neighbor list to every node within
//!    `R = r − 1 + β` hops (TTL-limited flooding);
//! 3. **Local tree computation** — `R` time units after the hello exchange
//!    (a [`Transport::set_timer`] deadline), rebuild the local view from the
//!    collected neighbor lists and run the chosen dominating-tree algorithm;
//! 4. **Tree advertisement** — flood the computed tree within `R` hops so
//!    every node learns which of its incident edges belong to the spanner.
//!
//! The node logic is scheduler-agnostic: under the synchronous rounds of
//! [`SyncNetwork::run_protocol`] the protocol finishes in `2R + 1 =
//! 2r − 1 + 2β` rounds, matching the paper's time bound, and the union of
//! advertised trees is asserted (in the tests) to equal the centralized
//! [`rspan_core::rem_span`] construction.  The same state machines run
//! unchanged on the `rspan-asim` event scheduler, where latency spread and
//! packet loss make the timer fire against a *partial* view — exactly the
//! degradation a real asynchronous deployment exhibits, now measurable.
//!
//! Under churn the full protocol never re-runs: [`restabilise_flood`] plays
//! §2.3's stabilisation — after an [`rspan_engine::RspanEngine::commit`],
//! only the recomputed nodes re-flood (their link state and new trees, to
//! distance `R`), over the engine's live topology, so per-change message
//! cost is proportional to the dirty balls rather than to `n`.  The
//! [`RepairNode`] state machine is epoch-stamped ([`RepairMsg`]) so that
//! successive stabilisation waves stay distinguishable when they interleave
//! on one asynchronous event timeline.

use crate::sim::{RunStats, SyncNetwork};
use crate::transport::{Outgoing, ProtocolNode, Transport, WireSize};
use rspan_domtree::{DomScratch, DominatingTree, TreeAlgo};
use rspan_engine::{RspanEngine, SpannerDelta};
use rspan_graph::{CsrGraph, EdgeSet, GraphBuilder, Node, Subgraph};
use rspan_obs::{DropCause, FrameKind, FrameMeta, WaveId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Which dominating-tree algorithm each node runs on its local view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeStrategy {
    /// Algorithm 1, `DomTreeGdy_{r,β}`.
    Greedy {
        /// Dominating-tree radius `r`.
        r: u32,
        /// Dominating-tree slack `β`.
        beta: u32,
    },
    /// Algorithm 2, `DomTreeMIS_{r,1}`.
    Mis {
        /// Dominating-tree radius `r`.
        r: u32,
    },
    /// Algorithm 4, `DomTreeGdy_{2,0,k}`.
    KGreedy {
        /// Coverage / connectivity parameter `k`.
        k: usize,
    },
    /// Algorithm 5, `DomTreeMIS_{2,1,k}`.
    KMis {
        /// Coverage / connectivity parameter `k`.
        k: usize,
    },
}

impl TreeStrategy {
    /// The equivalent [`TreeAlgo`] handle (the pooled build entry point).
    pub fn algo(&self) -> TreeAlgo {
        match *self {
            TreeStrategy::Greedy { r, beta } => TreeAlgo::Greedy { r, beta },
            TreeStrategy::Mis { r } => TreeAlgo::Mis { r },
            TreeStrategy::KGreedy { k } => TreeAlgo::KGreedy { k },
            TreeStrategy::KMis { k } => TreeAlgo::KMis { k },
        }
    }

    /// The knowledge radius `R = r − 1 + β` Algorithm 3 floods to for this
    /// strategy.
    pub fn knowledge_radius(&self) -> u32 {
        self.algo().knowledge_radius()
    }

    /// Runs the strategy on a concrete graph for a root node.
    pub fn build_tree(&self, graph: &CsrGraph, root: Node) -> DominatingTree {
        self.algo().build(graph, root)
    }

    /// Pooled form of [`TreeStrategy::build_tree`]; the result borrows from
    /// `scratch` until the next build.
    pub fn build_tree_with_scratch<'s>(
        &self,
        graph: &CsrGraph,
        root: Node,
        scratch: &'s mut DomScratch,
    ) -> &'s DominatingTree {
        self.algo().build_with_scratch(graph, root, scratch)
    }

    /// Expected protocol duration in rounds: `2R + 1`.
    pub fn expected_rounds(&self) -> u32 {
        2 * self.knowledge_radius() + 1
    }
}

/// Protocol messages.
#[derive(Clone, Debug)]
pub enum RemSpanMsg {
    /// Neighbor discovery beacon.
    Hello(Node),
    /// Link-state advertisement: `(origin, origin's neighbor list, remaining ttl)`.
    LinkState(Node, Vec<Node>, u32),
    /// Tree advertisement: `(origin, tree edges, remaining ttl)`.
    TreeAdvert(Node, Vec<(Node, Node)>, u32),
}

impl WireSize for RemSpanMsg {
    fn wire_bytes(&self) -> u64 {
        // 4-byte node ids, 4-byte ttl, 4-byte tag.
        match self {
            RemSpanMsg::Hello(_) => 8,
            RemSpanMsg::LinkState(_, list, _) => 12 + 4 * list.len() as u64,
            RemSpanMsg::TreeAdvert(_, edges, _) => 12 + 8 * edges.len() as u64,
        }
    }
}

/// Timer token: the link-state collection deadline after which a node
/// computes its dominating tree.
const COMPUTE_TIMER: u32 = 0;

/// Per-node state of the RemSpan protocol.
pub struct RemSpanNode {
    strategy: TreeStrategy,
    /// Learned neighbor lists, keyed by origin.
    link_state: HashMap<Node, Vec<Node>>,
    /// Origins already re-flooded (duplicate suppression).
    seen_ls: HashSet<Node>,
    /// Tree advertisements already re-flooded.
    seen_tree: HashSet<Node>,
    /// The tree this node computed for itself (after the flooding phase).
    computed_tree_edges: Vec<(Node, Node)>,
    /// Spanner edges incident to this node, learned from tree advertisements.
    incident_spanner_edges: HashSet<(Node, Node)>,
    computed: bool,
    done: bool,
    /// Neighbor list (filled after the hello round).
    my_neighbors: Vec<Node>,
}

impl RemSpanNode {
    /// Creates the initial state for one node.
    pub fn new(strategy: TreeStrategy) -> Self {
        RemSpanNode {
            strategy,
            link_state: HashMap::new(),
            seen_ls: HashSet::new(),
            seen_tree: HashSet::new(),
            computed_tree_edges: Vec::new(),
            incident_spanner_edges: HashSet::new(),
            computed: false,
            done: false,
            my_neighbors: Vec::new(),
        }
    }

    /// Tree edges this node computed for itself (empty before the computation
    /// deadline).
    pub fn tree_edges(&self) -> &[(Node, Node)] {
        &self.computed_tree_edges
    }

    /// Whether the computation deadline has passed for this node.
    pub fn has_computed(&self) -> bool {
        self.computed
    }

    /// Spanner edges incident to this node that it learned from tree
    /// advertisements (including its own tree's edges).
    pub fn incident_spanner_edges(&self) -> &HashSet<(Node, Node)> {
        &self.incident_spanner_edges
    }

    /// Link-state origins collected so far (including this node itself).
    pub fn link_state_count(&self) -> usize {
        self.link_state.len()
    }

    /// Reconstructs the local view graph from the collected link state and
    /// computes this node's dominating tree.
    fn compute_tree(&mut self, me: Node) {
        // Known nodes: every origin plus every node mentioned in a list.
        let mut known: Vec<Node> = Vec::new();
        for (&origin, list) in &self.link_state {
            known.push(origin);
            known.extend_from_slice(list);
        }
        known.push(me);
        known.sort_unstable();
        known.dedup();
        let index_of = |g: Node| known.binary_search(&g).expect("known node") as Node;
        let mut builder = GraphBuilder::new(known.len());
        for (&origin, list) in &self.link_state {
            let lo = index_of(origin);
            for &w in list {
                builder.add_edge(lo, index_of(w));
            }
        }
        let local = builder.build();
        let tree = self.strategy.build_tree(&local, index_of(me));
        self.computed_tree_edges = tree
            .edges()
            .into_iter()
            .map(|(p, c)| (known[p as usize], known[c as usize]))
            .collect();
        // A node's own tree edges incident to itself count as learned.
        for &(a, b) in &self.computed_tree_edges {
            if a == me || b == me {
                self.incident_spanner_edges.insert(ordered(a, b));
            }
        }
        self.computed = true;
    }
}

fn ordered(a: Node, b: Node) -> (Node, Node) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

impl ProtocolNode for RemSpanNode {
    type Msg = RemSpanMsg;

    fn on_start(&mut self, net: &mut dyn Transport<RemSpanMsg>) {
        if net.neighbors().is_empty() {
            // An isolated node has nothing to dominate and nobody to talk to.
            self.computed = true;
            self.done = true;
            return;
        }
        net.send(Outgoing::Broadcast(RemSpanMsg::Hello(net.me())));
    }

    fn on_message(&mut self, net: &mut dyn Transport<RemSpanMsg>, from: Node, msg: &RemSpanMsg) {
        let me = net.me();
        let radius = self.strategy.knowledge_radius();
        match msg {
            RemSpanMsg::Hello(origin) => {
                debug_assert_eq!(*origin, from);
                if !self.my_neighbors.is_empty() {
                    return; // only the first hello starts the flooding phase
                }
                // The hello exchange just completed: record neighbors, start
                // the link-state flooding of our own list, and arm the
                // collection deadline `R` time units out.
                self.my_neighbors = net.neighbors().to_vec();
                self.link_state.insert(me, self.my_neighbors.clone());
                self.seen_ls.insert(me);
                if radius >= 1 {
                    net.send(Outgoing::Broadcast(RemSpanMsg::LinkState(
                        me,
                        self.my_neighbors.clone(),
                        radius,
                    )));
                    net.set_timer(u64::from(radius), COMPUTE_TIMER);
                } else {
                    // Degenerate radius 0: compute from the neighbor list alone.
                    self.compute_tree(me);
                    self.done = true;
                }
            }
            RemSpanMsg::LinkState(origin, list, ttl) => {
                if self.seen_ls.insert(*origin) {
                    self.link_state.insert(*origin, list.clone());
                    if *ttl > 1 {
                        net.send(Outgoing::Broadcast(RemSpanMsg::LinkState(
                            *origin,
                            list.clone(),
                            ttl - 1,
                        )));
                    }
                }
            }
            RemSpanMsg::TreeAdvert(origin, edges, ttl) => {
                if self.seen_tree.insert(*origin) {
                    for &(a, b) in edges {
                        if a == me || b == me {
                            self.incident_spanner_edges.insert(ordered(a, b));
                        }
                    }
                    if *ttl > 1 {
                        net.send(Outgoing::Broadcast(RemSpanMsg::TreeAdvert(
                            *origin,
                            edges.clone(),
                            ttl - 1,
                        )));
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, net: &mut dyn Transport<RemSpanMsg>, _token: u32) {
        if self.computed {
            return;
        }
        // The collection deadline: every neighbor list within the knowledge
        // radius has arrived (always true under the synchronous schedule;
        // best-effort under loss/latency), so compute the dominating tree
        // and start advertising it.
        let me = net.me();
        self.compute_tree(me);
        if !self.computed_tree_edges.is_empty() {
            net.send(Outgoing::Broadcast(RemSpanMsg::TreeAdvert(
                me,
                self.computed_tree_edges.clone(),
                self.strategy.knowledge_radius(),
            )));
        }
        self.done = true;
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// Result of a full distributed RemSpan execution.
pub struct DistributedRun<'g> {
    /// The spanner assembled from every node's computed tree.
    pub spanner: Subgraph<'g>,
    /// Simulator statistics (rounds, transmissions).
    pub stats: RunStats,
    /// Per-node count of spanner edges each node learned to be incident to it.
    pub incident_edge_counts: Vec<usize>,
}

/// Runs the RemSpan protocol on `graph` with the given per-node strategy and
/// assembles the resulting remote-spanner.
pub fn run_remspan_protocol(graph: &CsrGraph, strategy: TreeStrategy) -> DistributedRun<'_> {
    let net = SyncNetwork::new(graph);
    let max_rounds = strategy.expected_rounds() + 4;
    let (states, stats) = net.run_protocol(|_u| RemSpanNode::new(strategy), max_rounds);
    let mut edges = EdgeSet::empty(graph);
    for (u, st) in states.iter().enumerate() {
        for &(a, b) in st.tree_edges() {
            let e = graph
                .edge_id(a, b)
                .unwrap_or_else(|| panic!("node {u} computed a tree edge ({a},{b}) not in G"));
            edges.insert(e);
        }
    }
    let incident_edge_counts = states
        .iter()
        .map(|s| s.incident_spanner_edges().len())
        .collect();
    DistributedRun {
        spanner: Subgraph::new(graph, edges),
        stats,
        incident_edge_counts,
    }
}

/// Messages of the §2.3 stabilisation floods.  Every wave is stamped with
/// the engine epoch that produced it: under the synchronous one-shot
/// [`restabilise_flood`] the stamp is constant, but on an asynchronous event
/// timeline successive waves from the same origin interleave and the stamp
/// keeps their duplicate suppression separate.
///
/// Payloads are immutable shared slices.  A broadcast hands every neighbour
/// a clone of one frame and a relay forwards the slice it received with the
/// TTL decremented, so fan-out bumps a reference count instead of copying
/// the list.  The wire size, the codec bytes and the content digest depend
/// only on the slice contents, never on how the slice is shared.
#[derive(Clone, Debug)]
pub enum RepairMsg {
    /// Refreshed link state: `(epoch, origin, origin's neighbor list, ttl)`.
    LinkState(u64, Node, Arc<[Node]>, u32),
    /// New-tree advertisement: `(epoch, origin, tree edges, ttl)`.
    TreeAdvert(u64, Node, Arc<[(Node, Node)]>, u32),
}

impl RepairMsg {
    /// The `(epoch, origin)` wave key, the wave-table slot and the TTL.
    fn header(&self) -> ((u64, Node), usize, u32) {
        match *self {
            RepairMsg::LinkState(e, o, _, ttl) => ((e, o), LINK_STATE, ttl),
            RepairMsg::TreeAdvert(e, o, _, ttl) => ((e, o), TREE_ADVERT, ttl),
        }
    }

    /// The same frame one hop further — shared payload, TTL decremented —
    /// or `None` when its TTL allows no further hop.
    fn relayed(&self) -> Option<RepairMsg> {
        match self {
            RepairMsg::LinkState(e, o, list, ttl) if *ttl > 1 => {
                Some(RepairMsg::LinkState(*e, *o, Arc::clone(list), ttl - 1))
            }
            RepairMsg::TreeAdvert(e, o, edges, ttl) if *ttl > 1 => {
                Some(RepairMsg::TreeAdvert(*e, *o, Arc::clone(edges), ttl - 1))
            }
            _ => None,
        }
    }
}

impl WireSize for RepairMsg {
    fn wire_bytes(&self) -> u64 {
        // RemSpanMsg layout plus the 8-byte epoch stamp.
        match self {
            RepairMsg::LinkState(_, _, list, _) => 20 + 4 * list.len() as u64,
            RepairMsg::TreeAdvert(_, _, edges, _) => 20 + 8 * edges.len() as u64,
        }
    }

    fn meta(&self) -> FrameMeta {
        // The wave identity `(origin, epoch)` is already on the wire — the
        // observability layer reads it, it never adds bytes.
        let kind = match self {
            RepairMsg::LinkState(..) => FrameKind::LinkState,
            RepairMsg::TreeAdvert(..) => FrameKind::TreeAdvert,
        };
        let ((epoch, origin), _, ttl) = self.header();
        FrameMeta {
            kind,
            wave: Some(WaveId { origin, epoch }),
            ttl,
        }
    }
}

/// Wave-table slot of the link-state flood (the [`crate::rb::RbPayload`]
/// slot numbering).
const LINK_STATE: usize = 0;
/// Wave-table slot of the tree-advert flood.
const TREE_ADVERT: usize = 1;

/// What a node accepted from one flood of one wave.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Accepted {
    /// Content digest of the accepted frame ([`crate::rb::RbPayload::digest`]).
    digest: u64,
    /// TTL of the accepted frame; `u32::MAX` for the node's own flood.
    best_ttl: u32,
}

/// One wave-table entry, indexed by slot ([`LINK_STATE`], [`TREE_ADVERT`]):
/// `Some` iff the node accepted that flood of the `(epoch, origin)` wave.
type WaveSeen = [Option<Accepted>; 2];

/// Per-node state of the *incremental* restabilisation flood (§2.3): after
/// an engine commit, only the nodes whose dominating tree was recomputed
/// re-flood — their current neighbor list and their new tree, both to
/// distance `R = r − 1 + β` — while every other node merely forwards and
/// refreshes its incident-spanner-edge knowledge.  This is the protocol-level
/// counterpart of the engine's dirty ball: transmission cost is proportional
/// to the dirty nodes' `R`-ball sizes, not to `n`.
///
/// A `RepairNode` is long-lived across commits: each commit arms one *wave*
/// ([`RepairNode::begin_wave`]) that dirty nodes originate
/// ([`RepairNode::originate`], or [`ProtocolNode::on_start`] for one-shot
/// runs).  A dirty node that is crashed when its wave begins originates it
/// on recovery instead ([`ProtocolNode::on_recover`]).
///
/// Everything a node knows about the waves it has seen lives in one *wave
/// table*, keyed by `(epoch, origin)`, with one slot per flood (link state,
/// tree advert) holding the accepted content digest and TTL.  Dedup, the
/// refreshed set, the agreement digests and the monotone-mode TTL floor are
/// all read from that one slot.  They used to be seven containers (seen,
/// refreshed, accepted and best-TTL sets per flood kind), but their key sets
/// always coincided: every accept and every origination inserted the same
/// key into all of a kind's containers, and the window prune dropped the
/// same keys from all of them.  The one difference was a monotone-mode
/// best-TTL entry of 0 left by a rejected `ttl == 0` frame, and a floor of 0
/// behaves exactly like no entry.  So `begin_wave` prunes one table, and
/// the accessors are views over it.
pub struct RepairNode {
    radius: u32,
    /// Wave currently armed on this node.
    epoch: u64,
    /// `Some(tree edges)` iff this node was recomputed by the commit that
    /// armed the current wave; shared by every advert of that tree.
    dirty_tree: Option<Arc<[(Node, Node)]>>,
    /// Whether this node already originated the current wave.
    originated: bool,
    /// The wave table: per `(epoch, origin)`, what this node accepted from
    /// each flood (its own record, for waves it originated).
    waves: HashMap<(u64, Node), WaveSeen>,
    /// Spanner edges incident to this node learned from the re-adverts.
    incident_updates: HashSet<(Node, Node)>,
    /// Disposition of the most recent delivery (consumed vs dedup), exposed
    /// through [`ProtocolNode::last_rx`] for trace/observability attribution.
    last_rx: DropCause,
    /// Monotone-relay mode (real transports): accept and re-relay a frame
    /// whenever its TTL strictly exceeds the best TTL seen for the same
    /// `(epoch, origin)`, overwriting the accepted digest.  See
    /// [`RepairNode::with_monotone`].
    monotone: bool,
}

impl RepairNode {
    /// Creates an idle repair node flooding to the given radius.
    pub fn new(radius: u32) -> Self {
        RepairNode {
            radius,
            epoch: 0,
            dirty_tree: None,
            originated: true, // nothing to originate until a wave is armed
            waves: HashMap::new(),
            incident_updates: HashSet::new(),
            last_rx: DropCause::None,
            monotone: false,
        }
    }

    /// Creates a repair node in **monotone-relay** mode, the arrival-order-
    /// insensitive variant real transports need.
    ///
    /// Under the deterministic simulators the *first* copy of a flood frame
    /// to arrive at a node at hop distance `d` always travelled a shortest
    /// path and therefore carries the maximal TTL `R − d + 1`; first-copy
    /// dedup is exact.  On real threads or sockets a lower-TTL copy routed
    /// via a longer path can win the race, which would both shrink the
    /// flood's coverage and change the accepted digest.  Monotone mode
    /// restores order-insensitivity: a frame is accepted (digest overwritten,
    /// knowledge merged, re-relayed at `ttl − 1`) whenever its TTL strictly
    /// exceeds the best TTL previously accepted for the same
    /// `(epoch, origin)`.  TTLs strictly decrease per hop and the per-key
    /// best strictly increases per accept, so the flood still terminates;
    /// the fixpoint every node converges to is the shortest-path TTL
    /// `R − d + 1` — exactly the simulators' first-copy value — making the
    /// end state identical to a [`RepairNode::new`] run under unit latency
    /// regardless of real-time interleaving.
    pub fn with_monotone(radius: u32) -> Self {
        let mut node = RepairNode::new(radius);
        node.monotone = true;
        node
    }

    /// Arms one stabilisation wave: `dirty_tree` is `Some(new tree edges)`
    /// iff this node was recomputed by the commit stamped `epoch`.
    pub fn begin_wave(&mut self, epoch: u64, dirty_tree: Option<Vec<(Node, Node)>>) {
        self.epoch = epoch;
        self.originated = dirty_tree.is_none();
        self.dirty_tree = dirty_tree.map(Arc::from);
        // Keep the wave table bounded on long-lived nodes: a wave more than
        // two epochs stale has no frames in flight worth suppressing (and a
        // straggler that slipped past the window is merely re-forwarded
        // once, TTL-bounded), so its entries are dead weight.
        let keep = epoch.saturating_sub(2);
        self.waves.retain(|&(e, _), _| e >= keep);
    }

    /// Originates the armed wave (no-op for clean nodes): records the node's
    /// own refreshed state and floods its link state plus new tree to the
    /// repair radius.
    pub fn originate(&mut self, net: &mut dyn Transport<RepairMsg>) {
        self.originated = true;
        let Some(tree) = self.dirty_tree.clone() else {
            return; // clean nodes originate nothing
        };
        let me = net.me();
        for &(a, b) in tree.iter() {
            if a == me || b == me {
                self.incident_updates.insert(ordered(a, b));
            }
        }
        let ls = RepairMsg::LinkState(self.epoch, me, net.neighbors().into(), self.radius);
        let ta = RepairMsg::TreeAdvert(self.epoch, me, tree, self.radius);
        // Record what this node itself floods — the agreement reference the
        // Byzantine harness compares every honest acceptor against — with
        // the TTL floor pinned at the ceiling, so relayed copies of its own
        // flood (ttl ≤ radius − 1) can never overwrite it in monotone mode.
        let own = |msg: &RepairMsg| {
            Some(Accepted {
                digest: crate::rb::RbPayload::digest(msg),
                best_ttl: u32::MAX,
            })
        };
        self.waves.insert((self.epoch, me), [own(&ls), own(&ta)]);
        if self.radius == 0 || net.neighbors().is_empty() {
            return;
        }
        net.send(Outgoing::Broadcast(ls));
        net.send(Outgoing::Broadcast(ta));
    }

    /// How many `(epoch, origin)` refreshed link-state advertisements this
    /// node collected in total (dirty nodes count themselves).
    pub fn refreshed_link_state_count(&self) -> usize {
        self.accepted_link_state().len()
    }

    /// Whether this node collected `origin`'s refreshed link state for the
    /// wave stamped `epoch`.
    pub fn has_refreshed(&self, epoch: u64, origin: Node) -> bool {
        self.accepted_link_state().contains_key(&(epoch, origin))
    }

    /// Spanner edges incident to this node learned from re-adverts (all waves).
    pub fn incident_update_count(&self) -> usize {
        self.incident_updates.len()
    }

    /// Per `(epoch, origin)`: content digest of the link state this node
    /// accepted (its own, for waves it originated).  Honest nodes agreeing
    /// on every shared key is the Byzantine-harness acceptance criterion.
    pub fn accepted_link_state(&self) -> AcceptedDigests<'_> {
        AcceptedDigests {
            waves: &self.waves,
            slot: LINK_STATE,
        }
    }

    /// Per `(epoch, origin)`: content digest of the tree advert accepted.
    pub fn accepted_tree_adverts(&self) -> AcceptedDigests<'_> {
        AcceptedDigests {
            waves: &self.waves,
            slot: TREE_ADVERT,
        }
    }

    /// The `(epoch, origin)` pairs whose refreshed link state this node
    /// collected (dirty nodes include themselves) — the end-state set real
    /// transports compare bit-for-bit against the simulator's.
    pub fn refreshed_link_state(&self) -> impl Iterator<Item = (u64, Node)> + '_ {
        self.accepted_link_state().into_iter().map(|(key, _)| key)
    }

    /// Spanner edges incident to this node learned from re-adverts.
    pub fn incident_updates(&self) -> &HashSet<(Node, Node)> {
        &self.incident_updates
    }

    /// Decides acceptance of a flood frame and, on accept, records its
    /// digest and TTL in the frame's wave-table slot.  First-copy mode:
    /// accept iff the slot is empty.  Monotone mode: accept iff `ttl`
    /// strictly exceeds the slot's best TTL, an empty slot counting as 0 —
    /// so a `ttl == 0` frame is never accepted there, while first-copy mode
    /// accepts it as a new key (see [`RepairNode::with_monotone`]).
    fn accept(&mut self, msg: &RepairMsg) -> bool {
        let (key, slot, ttl) = msg.header();
        if self.monotone && ttl == 0 {
            return false;
        }
        let entry = &mut self.waves.entry(key).or_default()[slot];
        let fresh = match entry {
            None => true,
            Some(prev) => self.monotone && ttl > prev.best_ttl,
        };
        if fresh {
            *entry = Some(Accepted {
                digest: crate::rb::RbPayload::digest(msg),
                best_ttl: ttl,
            });
        }
        fresh
    }
}

/// Read-only view of one flood's column of a [`RepairNode`]'s wave table:
/// per `(epoch, origin)`, the content digest the node accepted.  Compares
/// equal to another view with the same key → digest pairs.
#[derive(Clone, Copy)]
pub struct AcceptedDigests<'a> {
    waves: &'a HashMap<(u64, Node), WaveSeen>,
    slot: usize,
}

impl<'a> AcceptedDigests<'a> {
    /// The accepted digest for `key`, if any.
    pub fn get(&self, key: &(u64, Node)) -> Option<u64> {
        self.accepted(key).map(|a| a.digest)
    }

    /// Whether a frame of this flood was accepted for `key`.
    pub fn contains_key(&self, key: &(u64, Node)) -> bool {
        self.accepted(key).is_some()
    }

    /// Number of keys with an accepted digest.
    pub fn len(&self) -> usize {
        self.waves
            .values()
            .filter(|w| w[self.slot].is_some())
            .count()
    }

    /// Whether no frame of this flood was accepted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn accepted(&self, key: &(u64, Node)) -> Option<&'a Accepted> {
        self.waves.get(key).and_then(|w| w[self.slot].as_ref())
    }
}

impl<'a> IntoIterator for AcceptedDigests<'a> {
    type Item = ((u64, Node), u64);
    type IntoIter = AcceptedIter<'a>;

    /// `(key, digest)` pairs in unspecified order.
    fn into_iter(self) -> AcceptedIter<'a> {
        AcceptedIter {
            inner: self.waves.iter(),
            slot: self.slot,
        }
    }
}

impl std::ops::Index<&(u64, Node)> for AcceptedDigests<'_> {
    type Output = u64;

    fn index(&self, key: &(u64, Node)) -> &u64 {
        &self
            .accepted(key)
            .expect("no accepted digest for key")
            .digest
    }
}

impl PartialEq for AcceptedDigests<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.into_iter().all(|(k, d)| other.get(&k) == Some(d))
    }
}

impl std::fmt::Debug for AcceptedDigests<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(*self).finish()
    }
}

/// Iterator over an [`AcceptedDigests`] view.
pub struct AcceptedIter<'a> {
    inner: std::collections::hash_map::Iter<'a, (u64, Node), WaveSeen>,
    slot: usize,
}

impl Iterator for AcceptedIter<'_> {
    type Item = ((u64, Node), u64);

    fn next(&mut self) -> Option<Self::Item> {
        let slot = self.slot;
        self.inner
            .find_map(|(&key, w)| w[slot].map(|a| (key, a.digest)))
    }
}

impl ProtocolNode for RepairNode {
    type Msg = RepairMsg;

    fn on_start(&mut self, net: &mut dyn Transport<RepairMsg>) {
        self.originate(net);
    }

    fn on_message(&mut self, net: &mut dyn Transport<RepairMsg>, _from: Node, msg: &RepairMsg) {
        if !self.accept(msg) {
            self.last_rx = DropCause::Dedup;
            return;
        }
        self.last_rx = DropCause::None;
        if let RepairMsg::TreeAdvert(_, _, edges, _) = msg {
            let me = net.me();
            for &(a, b) in edges.iter() {
                if a == me || b == me {
                    self.incident_updates.insert(ordered(a, b));
                }
            }
        }
        if let Some(next) = msg.relayed() {
            net.send(Outgoing::Broadcast(next));
        }
    }

    fn on_recover(&mut self, net: &mut dyn Transport<RepairMsg>) {
        // A dirty node that was down when its wave began re-floods now; its
        // neighbors' duplicate suppression has never seen this (epoch,
        // origin), so the late flood propagates like a fresh one.
        if !self.originated {
            self.originate(net);
        }
    }

    fn is_done(&self) -> bool {
        // Purely reactive after origination: forwarding imposes no further
        // obligations of its own.
        self.originated
    }

    fn last_rx(&self) -> DropCause {
        self.last_rx
    }
}

/// A protocol node a churn driver (virtual-time or real-transport) can arm
/// and fire §2.3 repair waves on — the seam that lets one driver run both
/// the plain [`RepairNode`] flood and its Byzantine-tolerant
/// [`crate::rb::RbNode`] wrapping without duplicating the
/// commit/crash/window machinery.
pub trait WaveNode: ProtocolNode {
    /// Arms one stabilisation wave (cf. [`RepairNode::begin_wave`]).
    fn arm_wave(&mut self, epoch: u64, dirty_tree: Option<Vec<(Node, Node)>>);

    /// Originates the armed wave on the wire (cf. [`RepairNode::originate`]).
    fn fire_wave(&mut self, net: &mut dyn Transport<Self::Msg>);
}

impl WaveNode for RepairNode {
    fn arm_wave(&mut self, epoch: u64, dirty_tree: Option<Vec<(Node, Node)>>) {
        self.begin_wave(epoch, dirty_tree);
    }

    fn fire_wave(&mut self, net: &mut dyn Transport<Self::Msg>) {
        self.originate(net);
    }
}

impl<A: crate::rb::Auth> WaveNode for crate::rb::RbNode<RepairNode, A> {
    fn arm_wave(&mut self, epoch: u64, dirty_tree: Option<Vec<(Node, Node)>>) {
        // Arming also advances the wrapper's replay-rejection epoch (and
        // garbage-collects its instance state) in lockstep with the inner
        // node's dedup window.
        self.advance_epoch(epoch);
        self.inner_mut().begin_wave(epoch, dirty_tree);
    }

    fn fire_wave(&mut self, net: &mut dyn Transport<Self::Msg>) {
        self.with_inner(net, |inner, t| inner.originate(t));
    }
}

/// Transcript of one incremental restabilisation flood.
pub struct IncrementalRun {
    /// Simulator statistics (rounds, transmissions).
    pub stats: RunStats,
    /// Nodes that originated re-floods (the commit's recomputed set).
    pub dirty_nodes: usize,
    /// Per node: how many dirty origins' refreshed link state it collected
    /// (dirty nodes count themselves).
    pub refreshed_link_state_counts: Vec<usize>,
    /// Per node: spanner edges incident to it learned from the re-adverts.
    pub incident_update_counts: Vec<usize>,
}

/// Runs the §2.3 restabilisation flood for one engine commit: the simulator
/// is built straight over the engine's live overlay topology
/// ([`SyncNetwork::from_adjacency`] — no CSR snapshot), the commit's
/// recomputed nodes re-flood their link state and new trees to distance
/// `R = r − 1 + β`, and everyone else forwards.  An empty delta floods
/// nothing.
///
/// `engine` must be the engine that produced `delta`, *after* that commit
/// (asserted via the epoch).
pub fn restabilise_flood(engine: &RspanEngine, delta: &SpannerDelta) -> IncrementalRun {
    assert_eq!(
        engine.epoch(),
        delta.epoch,
        "delta does not match the engine's current epoch"
    );
    let radius = engine.dirty_radius();
    let n = engine.graph().n();
    if delta.recomputed.is_empty() {
        // Nothing re-floods: skip the whole network materialisation (a
        // no-churn round must cost nothing, not Θ(n + m)).
        return IncrementalRun {
            stats: RunStats {
                rounds: 0,
                messages: 0,
                messages_per_round: Vec::new(),
                all_done: true,
            },
            dirty_nodes: 0,
            refreshed_link_state_counts: vec![0; n],
            incident_update_counts: vec![0; n],
        };
    }
    let dirty: HashSet<Node> = delta.recomputed.iter().copied().collect();
    let net = SyncNetwork::from_adjacency(engine.graph());
    // One round per TTL hop, plus the originating round and quiescence.
    let (states, stats) = net.run_protocol(
        |u| {
            let mut node = RepairNode::new(radius);
            node.begin_wave(
                delta.epoch,
                dirty.contains(&u).then(|| engine.tree_edges(u).to_vec()),
            );
            node
        },
        radius + 2,
    );
    IncrementalRun {
        stats,
        dirty_nodes: dirty.len(),
        refreshed_link_state_counts: states
            .iter()
            .map(|s| s.refreshed_link_state_count())
            .collect(),
        incident_update_counts: states.iter().map(|s| s.incident_update_count()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{BufferedTransport, PendingOps};
    use rspan_core::{rem_span, verify_remote_stretch, StretchGuarantee};
    use rspan_graph::generators::er::gnp_connected;
    use rspan_graph::generators::structured::{cycle_graph, grid_graph, path_graph, petersen};
    use rspan_graph::generators::udg::uniform_udg;

    #[test]
    fn strategy_metadata() {
        assert_eq!(TreeStrategy::KGreedy { k: 1 }.knowledge_radius(), 1);
        assert_eq!(TreeStrategy::KGreedy { k: 3 }.expected_rounds(), 3);
        assert_eq!(TreeStrategy::KMis { k: 2 }.knowledge_radius(), 2);
        assert_eq!(TreeStrategy::Mis { r: 3 }.knowledge_radius(), 3);
        assert_eq!(TreeStrategy::Greedy { r: 3, beta: 1 }.knowledge_radius(), 3);
        assert_eq!(TreeStrategy::Greedy { r: 2, beta: 0 }.expected_rounds(), 3);
    }

    #[test]
    fn distributed_matches_centralized_kgreedy() {
        for g in [cycle_graph(12), grid_graph(5, 5), petersen()] {
            let run = run_remspan_protocol(&g, TreeStrategy::KGreedy { k: 1 });
            let central = rem_span(&g, |g, u| rspan_domtree::dom_tree_k_greedy(g, u, 1));
            assert_eq!(run.spanner.edge_set(), central.edge_set());
        }
    }

    #[test]
    fn distributed_matches_centralized_on_random_udg() {
        let inst = uniform_udg(120, 4.0, 1.0, 5);
        let g = &inst.graph;
        for strategy in [
            TreeStrategy::KGreedy { k: 2 },
            TreeStrategy::KMis { k: 2 },
            TreeStrategy::Mis { r: 3 },
            TreeStrategy::Greedy { r: 3, beta: 1 },
        ] {
            let run = run_remspan_protocol(g, strategy);
            let central = rem_span(g, |g, u| strategy.build_tree(g, u));
            assert_eq!(
                run.spanner.edge_set(),
                central.edge_set(),
                "strategy {strategy:?} diverged from the centralized construction"
            );
        }
    }

    #[test]
    fn deadline_fires_even_after_floods_die_early() {
        // On a tiny graph the TTL floods die before the compute deadline
        // (R = 3 but the flood quiesces by round 2): the round scheduler
        // must keep the clock alive for the pending timers instead of
        // stranding every node uncomputed.
        let strategy = TreeStrategy::Greedy { r: 3, beta: 1 };
        for g in [path_graph(2), path_graph(4), cycle_graph(5)] {
            let run = run_remspan_protocol(&g, strategy);
            let central = rem_span(&g, |g, u| strategy.build_tree(g, u));
            assert_eq!(
                run.spanner.edge_set(),
                central.edge_set(),
                "n={}: deadline never fired",
                g.n()
            );
            assert!(run.stats.all_done);
        }
    }

    #[test]
    fn round_count_matches_paper_bound_and_is_independent_of_n() {
        // Theorem 2's construction takes 2r−1+2β = 3 rounds of useful work;
        // allow the +1 quiescence round the simulator needs to detect
        // termination.
        let mut rounds_seen = Vec::new();
        for n in [40usize, 80, 160] {
            let g = gnp_connected(n, 8.0 / n as f64, 7);
            let run = run_remspan_protocol(&g, TreeStrategy::KGreedy { k: 1 });
            let bound = TreeStrategy::KGreedy { k: 1 }.expected_rounds() + 1;
            assert!(
                run.stats.rounds <= bound,
                "n={n}: {} rounds > {bound}",
                run.stats.rounds
            );
            rounds_seen.push(run.stats.rounds);
        }
        // Constant in n: all sizes take the same number of rounds.
        assert!(rounds_seen.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn distributed_spanner_satisfies_the_stretch_guarantee() {
        let g = gnp_connected(60, 0.08, 3);
        let run = run_remspan_protocol(&g, TreeStrategy::KGreedy { k: 1 });
        let guarantee = StretchGuarantee {
            alpha: 1.0,
            beta: 0.0,
            k: 1,
        };
        assert!(verify_remote_stretch(&run.spanner, &guarantee).holds());
    }

    #[test]
    fn incident_edge_knowledge_covers_the_spanner() {
        // Every spanner edge must be known by both its endpoints after the
        // tree-advertisement phase (this is what lets a node advertise the
        // right links in a link-state protocol).
        let g = grid_graph(6, 6);
        let run = run_remspan_protocol(&g, TreeStrategy::KGreedy { k: 2 });
        let mut per_node: Vec<HashSet<(Node, Node)>> = vec![HashSet::new(); g.n()];
        for (u, v) in run.spanner.edges() {
            per_node[u as usize].insert((u, v));
            per_node[v as usize].insert((u, v));
        }
        for (u, count) in run.incident_edge_counts.iter().enumerate() {
            assert!(
                *count >= per_node[u].len(),
                "node {u} learned {count} incident spanner edges, expected at least {}",
                per_node[u].len()
            );
        }
    }

    #[test]
    fn restabilise_flood_reaches_exactly_the_dirty_balls() {
        use rspan_engine::TopologyChange;
        let inst = uniform_udg(120, 5.0, 1.0, 21);
        let mut engine = RspanEngine::new(inst.graph.clone(), TreeAlgo::KGreedy { k: 2 });
        let (eu, ev) = inst.graph.edges().next().unwrap();
        let batch = [TopologyChange::RemoveEdge(eu, ev)];
        let delta = engine.commit(&batch);
        let run = restabilise_flood(&engine, &delta);
        assert_eq!(run.dirty_nodes, delta.recomputed.len());
        let radius = engine.dirty_radius();
        // Each flood is TTL-bounded, so the whole repair quiesces within
        // radius + 1 rounds (§2.3's "one period plus two floodings" — the
        // floods run concurrently here).
        assert!(
            run.stats.rounds <= radius + 1,
            "rounds {}",
            run.stats.rounds
        );
        assert!(run.stats.messages > 0);
        // A node hears a dirty origin's refreshed link state iff it lies
        // within the flood radius of that origin in the *new* topology.
        let csr = engine.to_csr();
        let mut scratch = rspan_graph::TraversalScratch::with_capacity(csr.n());
        let mut expect = vec![0usize; csr.n()];
        for &d in &delta.recomputed {
            rspan_graph::bfs_into(&csr, d, radius, &mut scratch);
            for &v in scratch.visited() {
                expect[v as usize] += 1;
            }
        }
        assert_eq!(run.refreshed_link_state_counts, expect);
        // The incremental flood is far cheaper than re-running the full
        // protocol on the new topology.
        let full = run_remspan_protocol(&csr, TreeStrategy::KGreedy { k: 2 });
        assert!(
            run.stats.messages < full.stats.messages / 2,
            "incremental {} vs full {}",
            run.stats.messages,
            full.stats.messages
        );
    }

    #[test]
    fn restabilise_flood_of_empty_delta_is_silent() {
        let mut engine = RspanEngine::new(grid_graph(5, 5), TreeAlgo::KGreedy { k: 1 });
        let delta = engine.commit(&[]);
        let run = restabilise_flood(&engine, &delta);
        assert_eq!(run.dirty_nodes, 0);
        assert_eq!(run.stats.messages, 0);
        assert_eq!(run.stats.rounds, 0);
        assert!(run.incident_update_counts.iter().all(|&c| c == 0));
    }

    #[test]
    fn messages_scale_with_ball_sizes_not_n_squared() {
        // Flooding with TTL R costs Θ(Σ_u |B(u, R)| · deg) messages; on a
        // bounded-degree graph this is linear in n, far from n².
        let g = cycle_graph(100);
        let run = run_remspan_protocol(&g, TreeStrategy::KGreedy { k: 1 });
        assert!(run.stats.messages < (g.n() * g.n()) as u64 / 4);
        assert!(run.stats.messages >= g.n() as u64);
    }

    #[test]
    fn wire_sizes_scale_with_payloads() {
        assert_eq!(RemSpanMsg::Hello(3).wire_bytes(), 8);
        assert_eq!(RemSpanMsg::LinkState(0, vec![1, 2, 3], 2).wire_bytes(), 24);
        assert_eq!(RemSpanMsg::TreeAdvert(0, vec![(0, 1)], 2).wire_bytes(), 20);
        assert_eq!(
            RepairMsg::LinkState(9, 0, vec![1, 2].into(), 2).wire_bytes(),
            RemSpanMsg::LinkState(0, vec![1, 2], 2).wire_bytes() + 8
        );
        assert_eq!(
            RepairMsg::TreeAdvert(9, 0, vec![].into(), 1).wire_bytes(),
            20
        );
    }

    #[test]
    fn on_recover_originates_once_and_duplicate_waves_dedup() {
        // A dirty node that was down when its wave began: the first
        // on_recover must originate the armed wave, a second must not.
        let mut dirty = RepairNode::new(2);
        dirty.begin_wave(1, Some(vec![(0, 1)]));
        let mut ops = PendingOps::default();
        let neighbors = [1 as Node];
        let mut t = BufferedTransport {
            me: 0,
            now: 0,
            neighbors: &neighbors,
            ops: &mut ops,
        };
        dirty.on_recover(&mut t);
        let first_flood = t.ops.sends.len();
        assert!(first_flood >= 2, "recovery floods link state + tree advert");
        dirty.on_recover(&mut t);
        dirty.on_recover(&mut t);
        assert_eq!(
            t.ops.sends.len(),
            first_flood,
            "repeated recovery must not re-originate the same wave"
        );

        // A receiver that already collected the wave: replaying the same
        // epoch's frames is absorbed without relays or state changes.
        let mut recv = RepairNode::new(2);
        recv.begin_wave(1, None);
        let ls = RepairMsg::LinkState(1, 0, vec![1].into(), 2);
        let ta = RepairMsg::TreeAdvert(1, 0, vec![(0, 1)].into(), 2);
        let mut rops = PendingOps::default();
        let rneighbors = [0 as Node, 2];
        let mut rt = BufferedTransport {
            me: 1,
            now: 0,
            neighbors: &rneighbors,
            ops: &mut rops,
        };
        recv.on_message(&mut rt, 0, &ls);
        recv.on_message(&mut rt, 0, &ta);
        let accepted_ls: HashMap<_, _> = recv.accepted_link_state().into_iter().collect();
        let accepted_ta: HashMap<_, _> = recv.accepted_tree_adverts().into_iter().collect();
        let relays = rt.ops.sends.len();
        assert!(relays > 0, "the first copy is relayed");
        for _ in 0..3 {
            recv.on_message(&mut rt, 0, &ls);
            recv.on_message(&mut rt, 0, &ta);
        }
        assert_eq!(rt.ops.sends.len(), relays, "duplicates are not relayed");
        assert_eq!(
            recv.accepted_link_state()
                .into_iter()
                .collect::<HashMap<_, _>>(),
            accepted_ls
        );
        assert_eq!(
            recv.accepted_tree_adverts()
                .into_iter()
                .collect::<HashMap<_, _>>(),
            accepted_ta
        );
        assert_eq!(recv.refreshed_link_state_count(), 1);

        // The origin re-originating the same epoch (a recovered node whose
        // wave already circulated) changes nothing at the receiver either.
        recv.on_message(&mut rt, 0, &ls.clone());
        assert_eq!(rt.ops.sends.len(), relays);

        // A stale replay after a newer commit, inside the retain window:
        // the epoch-2 wave supersedes epoch 1 but keeps its dedup entries
        // (two-epoch window), so replayed epoch-1 frames are absorbed.
        recv.begin_wave(2, None);
        let ls2 = RepairMsg::LinkState(2, 0, vec![1, 2].into(), 2);
        recv.on_message(&mut rt, 0, &ls2);
        let digest2 = recv.accepted_link_state()[&(2, 0)];
        let count2 = recv.refreshed_link_state_count();
        let relays2 = rt.ops.sends.len();
        recv.on_message(&mut rt, 0, &ls);
        recv.on_message(&mut rt, 0, &ta);
        assert_eq!(
            rt.ops.sends.len(),
            relays2,
            "in-window replays are deduped, not re-relayed"
        );
        assert_eq!(recv.refreshed_link_state_count(), count2);
        assert_eq!(recv.accepted_link_state()[&(2, 0)], digest2);

        // Beyond the window (epoch 9 commits, epoch-1 entries pruned) a
        // straggler is re-forwarded once, TTL-bounded — but it must never
        // regress the newer wave's accepted state.
        recv.begin_wave(9, None);
        let ls9 = RepairMsg::LinkState(9, 0, vec![1, 2].into(), 2);
        recv.on_message(&mut rt, 0, &ls9);
        let digest9 = recv.accepted_link_state()[&(9, 0)];
        recv.on_message(&mut rt, 0, &ls);
        assert_eq!(
            recv.accepted_link_state()[&(9, 0)],
            digest9,
            "a stale replay must not overwrite the newer wave's digest"
        );
        assert!(recv.has_refreshed(9, 0));
        assert!(
            !recv.accepted_link_state().contains_key(&(2, 0)),
            "the superseded epoch was garbage-collected"
        );
    }

    /// A repair frame with owned payloads: `(epoch, origin, list, edges, ttl)`.
    type Frame = (u64, Node, Vec<Node>, Vec<(Node, Node)>, u32);

    fn frame(msg: RepairMsg) -> Frame {
        match msg {
            RepairMsg::LinkState(e, o, list, ttl) => (e, o, list.to_vec(), Vec::new(), ttl),
            RepairMsg::TreeAdvert(e, o, edges, ttl) => (e, o, Vec::new(), edges.to_vec(), ttl),
        }
    }

    /// The frames a callback sent, drained from its buffer.
    fn sent(ops: &mut PendingOps<RepairMsg>) -> Vec<Frame> {
        ops.sends
            .drain(..)
            .map(|out| match out {
                Outgoing::Broadcast(msg) => frame(msg),
                Outgoing::Unicast(..) => panic!("repair floods only broadcast"),
            })
            .collect()
    }

    /// Reference model of the wave table: the seven-container accept and
    /// prune logic it replaced, verbatim in behaviour (one dedup set, one
    /// digest map and one best-TTL map per flood kind, plus the refreshed
    /// set), emitting owned copies of every relayed payload.
    struct SevenSets {
        radius: u32,
        monotone: bool,
        epoch: u64,
        dirty_tree: Option<Vec<(Node, Node)>>,
        originated: bool,
        seen_ls: HashSet<(u64, Node)>,
        seen_tree: HashSet<(u64, Node)>,
        refreshed_link_state: HashSet<(u64, Node)>,
        incident_updates: HashSet<(Node, Node)>,
        accepted_ls: HashMap<(u64, Node), u64>,
        accepted_tree: HashMap<(u64, Node), u64>,
        best_ls: HashMap<(u64, Node), u32>,
        best_tree: HashMap<(u64, Node), u32>,
        last_rx: DropCause,
    }

    impl SevenSets {
        fn new(radius: u32, monotone: bool) -> Self {
            SevenSets {
                radius,
                monotone,
                epoch: 0,
                dirty_tree: None,
                originated: true,
                seen_ls: HashSet::new(),
                seen_tree: HashSet::new(),
                refreshed_link_state: HashSet::new(),
                incident_updates: HashSet::new(),
                accepted_ls: HashMap::new(),
                accepted_tree: HashMap::new(),
                best_ls: HashMap::new(),
                best_tree: HashMap::new(),
                last_rx: DropCause::None,
            }
        }

        fn begin_wave(&mut self, epoch: u64, dirty_tree: Option<Vec<(Node, Node)>>) {
            self.epoch = epoch;
            self.originated = dirty_tree.is_none();
            self.dirty_tree = dirty_tree;
            let keep = epoch.saturating_sub(2);
            self.seen_ls.retain(|&(e, _)| e >= keep);
            self.seen_tree.retain(|&(e, _)| e >= keep);
            self.refreshed_link_state.retain(|&(e, _)| e >= keep);
            self.accepted_ls.retain(|&(e, _), _| e >= keep);
            self.accepted_tree.retain(|&(e, _), _| e >= keep);
            self.best_ls.retain(|&(e, _), _| e >= keep);
            self.best_tree.retain(|&(e, _), _| e >= keep);
        }

        fn originate(&mut self, me: Node, neighbors: &[Node], out: &mut Vec<RepairMsg>) {
            self.originated = true;
            let Some(tree) = self.dirty_tree.clone() else {
                return;
            };
            self.seen_ls.insert((self.epoch, me));
            self.seen_tree.insert((self.epoch, me));
            self.best_ls.insert((self.epoch, me), u32::MAX);
            self.best_tree.insert((self.epoch, me), u32::MAX);
            self.refreshed_link_state.insert((self.epoch, me));
            for &(a, b) in &tree {
                if a == me || b == me {
                    self.incident_updates.insert(ordered(a, b));
                }
            }
            let ls = RepairMsg::LinkState(self.epoch, me, neighbors.to_vec().into(), self.radius);
            let ta = RepairMsg::TreeAdvert(self.epoch, me, tree.into(), self.radius);
            self.accepted_ls
                .insert((self.epoch, me), crate::rb::RbPayload::digest(&ls));
            self.accepted_tree
                .insert((self.epoch, me), crate::rb::RbPayload::digest(&ta));
            if self.radius == 0 || neighbors.is_empty() {
                return;
            }
            out.push(ls);
            out.push(ta);
        }

        fn accept(
            seen: &mut HashSet<(u64, Node)>,
            best: &mut HashMap<(u64, Node), u32>,
            monotone: bool,
            key: (u64, Node),
            ttl: u32,
        ) -> bool {
            if monotone {
                let slot = best.entry(key).or_insert(0);
                if ttl > *slot {
                    *slot = ttl;
                    seen.insert(key);
                    true
                } else {
                    false
                }
            } else {
                seen.insert(key)
            }
        }

        fn on_message(&mut self, me: Node, msg: &RepairMsg, out: &mut Vec<RepairMsg>) {
            self.last_rx = DropCause::None;
            match msg {
                RepairMsg::LinkState(epoch, origin, list, ttl) => {
                    let key = (*epoch, *origin);
                    if Self::accept(
                        &mut self.seen_ls,
                        &mut self.best_ls,
                        self.monotone,
                        key,
                        *ttl,
                    ) {
                        self.refreshed_link_state.insert(key);
                        self.accepted_ls
                            .insert(key, crate::rb::RbPayload::digest(msg));
                        if *ttl > 1 {
                            let copy: Vec<Node> = list.to_vec();
                            out.push(RepairMsg::LinkState(*epoch, *origin, copy.into(), ttl - 1));
                        }
                    } else {
                        self.last_rx = DropCause::Dedup;
                    }
                }
                RepairMsg::TreeAdvert(epoch, origin, edges, ttl) => {
                    let key = (*epoch, *origin);
                    if Self::accept(
                        &mut self.seen_tree,
                        &mut self.best_tree,
                        self.monotone,
                        key,
                        *ttl,
                    ) {
                        self.accepted_tree
                            .insert(key, crate::rb::RbPayload::digest(msg));
                        for &(a, b) in edges.iter() {
                            if a == me || b == me {
                                self.incident_updates.insert(ordered(a, b));
                            }
                        }
                        if *ttl > 1 {
                            let copy: Vec<(Node, Node)> = edges.to_vec();
                            out.push(RepairMsg::TreeAdvert(*epoch, *origin, copy.into(), ttl - 1));
                        }
                    } else {
                        self.last_rx = DropCause::Dedup;
                    }
                }
            }
        }
    }

    /// SplitMix64: a seeded, dependency-free stream for the model test.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Asserts the wave-table node and the reference model agree on every
    /// observable piece of state.
    fn assert_same(node: &RepairNode, model: &SevenSets, ctx: &str) {
        assert_eq!(node.last_rx(), model.last_rx, "{ctx}: last_rx");
        assert_eq!(node.is_done(), model.originated, "{ctx}: originated");
        let ls: HashMap<_, _> = node.accepted_link_state().into_iter().collect();
        assert_eq!(ls, model.accepted_ls, "{ctx}: accepted link state");
        let ta: HashMap<_, _> = node.accepted_tree_adverts().into_iter().collect();
        assert_eq!(ta, model.accepted_tree, "{ctx}: accepted tree adverts");
        let refreshed: HashSet<_> = node.refreshed_link_state().collect();
        assert_eq!(
            refreshed, model.refreshed_link_state,
            "{ctx}: refreshed set"
        );
        assert_eq!(
            node.refreshed_link_state_count(),
            model.refreshed_link_state.len()
        );
        assert_eq!(
            node.incident_updates(),
            &model.incident_updates,
            "{ctx}: incident updates"
        );
    }

    #[test]
    fn wave_table_matches_the_seven_container_model() {
        const ME: Node = 0;
        let neighbor_sets: [&[Node]; 2] = [&[1, 2, 3], &[]];
        // Small payload pools so equal-key frames both repeat and differ.
        let lists: [Vec<Node>; 3] = [vec![1, 2], vec![0, 3], vec![]];
        let trees: [Vec<(Node, Node)>; 3] = [vec![(0, 1), (1, 4)], vec![(2, 3)], vec![(0, 4)]];
        for seed in 0..48u64 {
            for monotone in [false, true] {
                let mut rng = Mix(seed);
                let radius = rng.below(4) as u32;
                let neighbors = neighbor_sets[(seed % 5 == 4) as usize];
                let mut node = if monotone {
                    RepairNode::with_monotone(radius)
                } else {
                    RepairNode::new(radius)
                };
                let mut model = SevenSets::new(radius, monotone);
                let mut ops = PendingOps::default();
                let mut history: Vec<RepairMsg> = Vec::new();
                let mut epoch = 1u64;
                for step in 0..300 {
                    let ctx = format!("seed {seed} monotone {monotone} step {step}");
                    let mut expect = Vec::new();
                    let mut t = BufferedTransport {
                        me: ME,
                        now: step,
                        neighbors,
                        ops: &mut ops,
                    };
                    match rng.below(20) {
                        0 | 1 => {
                            epoch += [0, 1, 1, 2, 5][rng.below(5) as usize];
                            let tree =
                                (rng.below(5) < 2).then(|| trees[rng.below(3) as usize].clone());
                            node.begin_wave(epoch, tree.clone());
                            model.begin_wave(epoch, tree);
                        }
                        2 => {
                            node.originate(&mut t);
                            model.originate(ME, neighbors, &mut expect);
                        }
                        3 => {
                            node.on_recover(&mut t);
                            if !model.originated {
                                model.originate(ME, neighbors, &mut expect);
                            }
                        }
                        _ => {
                            let msg = if !history.is_empty() && rng.below(4) == 0 {
                                history[rng.below(history.len() as u64) as usize].clone()
                            } else {
                                let e = (epoch + 1).saturating_sub(rng.below(6));
                                // Origin 0 is this node: its own flood echoed back.
                                let o = rng.below(4) as Node;
                                let ttl = rng.below(u64::from(radius) + 2) as u32;
                                if rng.below(2) == 0 {
                                    let list = lists[rng.below(3) as usize].clone();
                                    RepairMsg::LinkState(e, o, list.into(), ttl)
                                } else {
                                    let tree = trees[rng.below(3) as usize].clone();
                                    RepairMsg::TreeAdvert(e, o, tree.into(), ttl)
                                }
                            };
                            node.on_message(&mut t, 1, &msg);
                            model.on_message(ME, &msg, &mut expect);
                            history.push(msg);
                        }
                    }
                    assert_eq!(
                        sent(&mut ops),
                        expect.into_iter().map(frame).collect::<Vec<_>>(),
                        "{ctx}: sent frames"
                    );
                    assert_same(&node, &model, &ctx);
                }
            }
        }
    }

    #[test]
    fn monotone_rejects_a_new_key_at_ttl_zero() {
        // An empty slot counts as TTL 0 in monotone mode, so a first frame
        // at ttl 0 does not improve it; first-copy mode accepts any new key.
        let frames = [
            RepairMsg::LinkState(1, 3, vec![1].into(), 0),
            RepairMsg::TreeAdvert(1, 3, vec![(0, 3)].into(), 0),
        ];
        for monotone in [false, true] {
            let mut node = if monotone {
                RepairNode::with_monotone(2)
            } else {
                RepairNode::new(2)
            };
            let mut model = SevenSets::new(2, monotone);
            node.begin_wave(1, None);
            model.begin_wave(1, None);
            let mut ops = PendingOps::default();
            let neighbors = [1 as Node];
            for msg in &frames {
                let mut t = BufferedTransport {
                    me: 0,
                    now: 0,
                    neighbors: &neighbors,
                    ops: &mut ops,
                };
                node.on_message(&mut t, 1, msg);
                let mut expect = Vec::new();
                model.on_message(0, msg, &mut expect);
                let want = if monotone {
                    DropCause::Dedup
                } else {
                    DropCause::None
                };
                assert_eq!(node.last_rx(), want, "monotone {monotone}");
                assert_same(&node, &model, &format!("monotone {monotone}"));
                assert!(sent(&mut ops).is_empty(), "a ttl-0 frame is never relayed");
            }
            assert_eq!(node.has_refreshed(1, 3), !monotone);
            assert_eq!(
                node.accepted_tree_adverts().contains_key(&(1, 3)),
                !monotone
            );
            // A later copy with a positive TTL is accepted in both modes.
            let mut t = BufferedTransport {
                me: 0,
                now: 1,
                neighbors: &neighbors,
                ops: &mut ops,
            };
            node.on_message(&mut t, 1, &RepairMsg::LinkState(1, 3, vec![1].into(), 1));
            assert!(node.has_refreshed(1, 3));
        }
    }

    #[test]
    fn relays_and_reoriginations_share_payloads() {
        let neighbors = [0 as Node, 2];
        for monotone in [false, true] {
            let mut node = if monotone {
                RepairNode::with_monotone(3)
            } else {
                RepairNode::new(3)
            };
            node.begin_wave(1, None);
            let list: Arc<[Node]> = vec![1, 5].into();
            let edges: Arc<[(Node, Node)]> = vec![(0, 1), (0, 5)].into();
            let mut ops = PendingOps::default();
            let mut t = BufferedTransport {
                me: 1,
                now: 0,
                neighbors: &neighbors,
                ops: &mut ops,
            };
            node.on_message(&mut t, 0, &RepairMsg::LinkState(1, 0, Arc::clone(&list), 3));
            node.on_message(
                &mut t,
                0,
                &RepairMsg::TreeAdvert(1, 0, Arc::clone(&edges), 3),
            );
            match &ops.sends[..] {
                [Outgoing::Broadcast(RepairMsg::LinkState(1, 0, l, 2)), Outgoing::Broadcast(RepairMsg::TreeAdvert(1, 0, e, 2))] =>
                {
                    assert!(Arc::ptr_eq(l, &list), "link-state relay copied its payload");
                    assert!(
                        Arc::ptr_eq(e, &edges),
                        "tree-advert relay copied its payload"
                    );
                }
                other => panic!("expected one relay per kind, got {other:?}"),
            }
        }

        // A dirty node down at wave start originates on recovery, sending
        // the wave's own tree allocation; re-originating sends it again.
        let mut dirty = RepairNode::new(2);
        dirty.begin_wave(1, Some(vec![(0, 1)]));
        let wave_tree = Arc::clone(dirty.dirty_tree.as_ref().expect("armed dirty"));
        let mut ops = PendingOps::default();
        let mut t = BufferedTransport {
            me: 0,
            now: 0,
            neighbors: &neighbors,
            ops: &mut ops,
        };
        dirty.on_recover(&mut t);
        dirty.originate(&mut t);
        let adverts: Vec<&Arc<[(Node, Node)]>> = ops
            .sends
            .iter()
            .filter_map(|out| match out {
                Outgoing::Broadcast(RepairMsg::TreeAdvert(_, _, e, _)) => Some(e),
                _ => None,
            })
            .collect();
        assert_eq!(adverts.len(), 2);
        for e in adverts {
            assert!(
                Arc::ptr_eq(e, &wave_tree),
                "origination copied the wave's tree"
            );
        }
    }
}
