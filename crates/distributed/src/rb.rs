//! Byzantine-tolerant stabilisation: authenticated echo-quorum floods.
//!
//! The §2.3 repair waves ([`crate::protocol::RepairNode`]) trust every frame:
//! one node forging link state, equivocating, or suppressing a wave can
//! corrupt spanner/table agreement network-wide.  This module wraps any
//! [`ProtocolNode`] in a Bracha-style **reliable broadcast**: a wave payload
//! is delivered to the inner node only after an *echo quorum* of distinct,
//! MAC-authenticated witnesses vouches for exactly that payload, so up to
//! `f` Byzantine peers (with `n > 3f`) cannot make two honest nodes accept
//! different payloads for the same `(origin, epoch, slot)` instance.
//!
//! The state machine is the classic INIT / ECHO / READY pattern, adapted to
//! the multi-hop TTL-flooded regime the repair waves live in:
//!
//! * the origin floods `Init(payload)` signed with its key; every RB frame is
//!   itself dedup-flooded, TTL-bounded, and forwarded at most once per
//!   *signer* per instance — a second frame from the same signer carrying a
//!   different digest is equivocation evidence and is dropped on the spot,
//!   which caps what an adversary minting per-link payload variants can
//!   amplify to one processed frame per (instance, signer, kind),
//! * on the first `Init` for an instance, a node floods one `Echo` carrying
//!   the payload (echoes carry the payload so any quorum-reacher can deliver),
//! * on an echo quorum `max(2f + 1, ⌈(n + f + 1) / 2⌉)` — or `f + 1` readys —
//!   a node floods one `Ready`,
//! * on a ready quorum `2f + 1` it delivers the payload to the inner node,
//!   exactly once per instance.  With `f = 0` both quorums collapse to 1 and
//!   a node's own echo suffices: under the lockstep scheduler delivery times
//!   equal plain TTL flooding, so the wrapper costs only messages (pinned by
//!   a property test).
//!
//! Instances are keyed `(origin, epoch, slot)` — the same epoch-stamp idiom
//! [`RepairNode`](crate::protocol::RepairNode) uses for duplicate
//! suppression — and garbage-collected with the same two-epoch retain
//! window; frames whose epoch is more than two behind the armed wave are
//! rejected as replays.  Authentication is the lightweight keyed-MAC
//! [`Auth`] trait with the seeded [`SeededAuth`] stub (no registry access
//! for real crypto crates; see the README fault model for what the stub
//! does and does not guarantee).

use crate::protocol::RepairMsg;
use crate::transport::{
    BufferedTransport, Outgoing, PendingOps, ProtocolNode, Transport, WireSize,
};
use rspan_graph::Node;
use rspan_obs::{DropCause, FrameKind, FrameMeta, ObsEvent, ObsHandle, WaveId};
use rspan_telemetry::{Counter, TelemetryHandle};
use std::collections::{HashMap, HashSet};

/// Incremental 64-bit FNV-1a: the deterministic hash primitive behind
/// payload digests and the [`SeededAuth`] MAC stub.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Starts a fresh hash at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Folds one `u64` into the hash, byte by byte.
    #[must_use]
    pub fn write_u64(mut self, x: u64) -> Self {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Folds one node id into the hash.
    #[must_use]
    pub fn write_node(self, v: Node) -> Self {
        self.write_u64(u64::from(v))
    }

    /// The accumulated hash value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Keyed message authentication, abstracted so a real deployment can swap in
/// an HMAC.  `tag` is what `signer` computes with its own key; `verify` is
/// what a receiver holding the verification material checks.
pub trait Auth {
    /// MAC tag `signer` computes over `data` with its key.
    fn tag(&self, signer: Node, data: u64) -> u64;

    /// Whether `tag` is `signer`'s MAC over `data`.
    fn verify(&self, signer: Node, data: u64, tag: u64) -> bool {
        self.tag(signer, data) == tag
    }
}

/// The seeded test MAC: per-node keys derived from one master seed by
/// hashing.  This models *unforgeability of other nodes' tags* for fault
/// injection (an adversary that does not run the key-derivation cannot
/// produce a valid tag for a tampered frame), but is **not** cryptographic —
/// a real adversary holding the master seed forges everything.
#[derive(Clone, Debug)]
pub struct SeededAuth {
    master: u64,
}

impl SeededAuth {
    /// Derives the per-node key universe from one master seed.
    pub fn new(master: u64) -> Self {
        SeededAuth { master }
    }

    /// The derived key of node `v` (exposed so fault injectors can sign
    /// *as the Byzantine node itself* — its own key is legitimately its).
    pub fn node_key(&self, v: Node) -> u64 {
        Fnv64::new().write_u64(self.master).write_node(v).finish()
    }
}

impl Auth for SeededAuth {
    fn tag(&self, signer: Node, data: u64) -> u64 {
        Fnv64::new()
            .write_u64(self.node_key(signer))
            .write_u64(data)
            .finish()
    }
}

/// What a payload must expose for reliable broadcast: its instance identity
/// (who floods it, in which wave, in which per-wave slot) and a content
/// digest.  One origin may flood several independent payloads per epoch
/// (e.g. link state *and* tree advert); the slot keeps their instances
/// separate.
pub trait RbPayload: Clone {
    /// The node this payload claims to originate from.
    fn origin(&self) -> Node;

    /// The wave epoch stamped on the payload.
    fn epoch(&self) -> u64;

    /// Which of the origin's per-epoch floods this is (0-based).
    fn slot(&self) -> u8;

    /// Content digest.  Must not cover hop-mutable fields (TTL): every relay
    /// of one flood frame digests identically.
    fn digest(&self) -> u64;
}

impl RbPayload for RepairMsg {
    fn origin(&self) -> Node {
        match *self {
            RepairMsg::LinkState(_, o, _, _) | RepairMsg::TreeAdvert(_, o, _, _) => o,
        }
    }

    fn epoch(&self) -> u64 {
        match *self {
            RepairMsg::LinkState(e, _, _, _) | RepairMsg::TreeAdvert(e, _, _, _) => e,
        }
    }

    fn slot(&self) -> u8 {
        match self {
            RepairMsg::LinkState(..) => 0,
            RepairMsg::TreeAdvert(..) => 1,
        }
    }

    fn digest(&self) -> u64 {
        // TTL excluded: hop-decremented copies of one flood frame must
        // digest identically, so plain flooding and reliable broadcast
        // agree on what was accepted.
        match self {
            RepairMsg::LinkState(e, o, list, _) => {
                let mut h = Fnv64::new().write_u64(0).write_u64(*e).write_node(*o);
                for &v in list.iter() {
                    h = h.write_node(v);
                }
                h.finish()
            }
            RepairMsg::TreeAdvert(e, o, edges, _) => {
                let mut h = Fnv64::new().write_u64(1).write_u64(*e).write_node(*o);
                for &(a, b) in edges.iter() {
                    h = h.write_node(a).write_node(b);
                }
                h.finish()
            }
        }
    }
}

/// The wrapper's wire messages.  Echoes and readys *carry the payload* (the
/// `pb`-style formulation): any node that assembles a quorum can deliver
/// without a separate retrieval round, which matters under loss and churn.
#[derive(Clone, Debug)]
pub enum RbMsg<M> {
    /// The origin's proposal: `(payload, origin MAC, flood ttl)`.
    Init(M, u64, u32),
    /// A witness vouching it saw the origin's `Init` with exactly this
    /// payload: `(signer, payload, signer MAC, flood ttl)`.
    Echo(Node, M, u64, u32),
    /// A witness vouching an echo quorum backs this payload:
    /// `(signer, payload, signer MAC, flood ttl)`.
    Ready(Node, M, u64, u32),
}

impl<M: RbPayload> RbMsg<M> {
    /// The node whose MAC the frame carries (the origin, for `Init`).
    pub fn signer(&self) -> Node {
        match self {
            RbMsg::Init(p, _, _) => p.origin(),
            RbMsg::Echo(s, _, _, _) | RbMsg::Ready(s, _, _, _) => *s,
        }
    }

    /// The carried payload.
    pub fn payload(&self) -> &M {
        match self {
            RbMsg::Init(p, _, _) | RbMsg::Echo(_, p, _, _) | RbMsg::Ready(_, p, _, _) => p,
        }
    }

    /// The MAC a frame of this kind/signer/payload must carry to pass
    /// verification.  Exposed so fault injectors can model the *strongest*
    /// admissible adversary: a Byzantine node legitimately re-signing its
    /// own tampered frames (its key is its own), while tampered relays of
    /// other nodes' frames necessarily keep a stale MAC.
    pub fn expected_mac<A: Auth>(&self, auth: &A) -> u64 {
        let kind = match self {
            RbMsg::Init(..) => KIND_INIT,
            RbMsg::Echo(..) => KIND_ECHO,
            RbMsg::Ready(..) => KIND_READY,
        };
        auth.tag(self.signer(), mac_data(kind, self.payload().digest()))
    }

    /// The same frame carrying `payload` with `mac` (signer and TTL kept).
    pub fn with_payload(&self, payload: M, mac: u64) -> RbMsg<M> {
        match self {
            RbMsg::Init(_, _, ttl) => RbMsg::Init(payload, mac, *ttl),
            RbMsg::Echo(s, _, _, ttl) => RbMsg::Echo(*s, payload, mac, *ttl),
            RbMsg::Ready(s, _, _, ttl) => RbMsg::Ready(*s, payload, mac, *ttl),
        }
    }
}

impl<M: WireSize + RbPayload> WireSize for RbMsg<M> {
    fn wire_bytes(&self) -> u64 {
        // 4-byte tag + 8-byte MAC + 4-byte ttl (+ 4-byte signer id for
        // echo/ready) on top of the carried payload.
        match self {
            RbMsg::Init(m, _, _) => 16 + m.wire_bytes(),
            RbMsg::Echo(_, m, _, _) | RbMsg::Ready(_, m, _, _) => 20 + m.wire_bytes(),
        }
    }

    fn meta(&self) -> FrameMeta {
        let (kind, ttl) = match self {
            RbMsg::Init(_, _, ttl) => (FrameKind::RbInit, *ttl),
            RbMsg::Echo(_, _, _, ttl) => (FrameKind::RbEcho, *ttl),
            RbMsg::Ready(_, _, _, ttl) => (FrameKind::RbReady, *ttl),
        };
        let p = self.payload();
        FrameMeta {
            kind,
            wave: Some(WaveId {
                origin: p.origin(),
                epoch: p.epoch(),
            }),
            ttl,
        }
    }
}

/// MAC domain separators: an echo tag can never be replayed as a ready tag.
const KIND_INIT: u8 = 0;
const KIND_ECHO: u8 = 1;
const KIND_READY: u8 = 2;

fn mac_data(kind: u8, digest: u64) -> u64 {
    Fnv64::new()
        .write_u64(u64::from(kind))
        .write_u64(digest)
        .finish()
}

/// RB instance identity: `(origin, epoch, slot)`.
type Key = (Node, u64, u8);

fn key_of<M: RbPayload>(m: &M) -> Key {
    (m.origin(), m.epoch(), m.slot())
}

struct Candidate<M> {
    payload: M,
    /// Distinct signers whose (authenticated) echo carried this digest.
    echoes: HashSet<Node>,
    /// Distinct signers whose (authenticated) ready carried this digest.
    readys: HashSet<Node>,
}

impl<M> Candidate<M> {
    fn new(payload: M) -> Self {
        Candidate {
            payload,
            echoes: HashSet::new(),
            readys: HashSet::new(),
        }
    }
}

/// Per-instance quorum state.  An equivocating origin produces several
/// candidates under one key; honest nodes echo and ready at most once per
/// *key*, so at most one candidate can ever assemble a quorum.
struct Instance<M> {
    candidates: HashMap<u64, Candidate<M>>,
    echoed: bool,
    readied: bool,
    delivered: bool,
}

impl<M> Default for Instance<M> {
    fn default() -> Self {
        Instance {
            candidates: HashMap::new(),
            echoed: false,
            readied: false,
            delivered: false,
        }
    }
}

/// Message accounting of one [`RbNode`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RbStats {
    /// `Init` broadcasts originated by this node.
    pub init_sent: u64,
    /// `Echo` broadcasts originated by this node.
    pub echo_sent: u64,
    /// `Ready` broadcasts originated by this node.
    pub ready_sent: u64,
    /// RB frames this node re-flooded (dedup-forwarded).
    pub relayed: u64,
    /// Payloads delivered to the inner node after a ready quorum.
    pub delivered: u64,
    /// Inner forward-sends the wrapper suppressed (RB's own dedup-flood
    /// replaces the inner TTL forwarding).
    pub suppressed_inner: u64,
    /// Frames rejected because their MAC did not verify.
    pub rejected_mac: u64,
    /// Frames rejected as stale-epoch replays.
    pub rejected_stale: u64,
}

impl RbStats {
    /// Folds another node's accounting into this one (fleet totals).
    pub fn absorb(&mut self, other: &RbStats) {
        self.init_sent += other.init_sent;
        self.echo_sent += other.echo_sent;
        self.ready_sent += other.ready_sent;
        self.relayed += other.relayed;
        self.delivered += other.delivered;
        self.suppressed_inner += other.suppressed_inner;
        self.rejected_mac += other.rejected_mac;
        self.rejected_stale += other.rejected_stale;
    }
}

/// The reliable-broadcast wrapper: runs any inner [`ProtocolNode`] unchanged,
/// but intercepts its flood sends and gates its deliveries behind the
/// echo-quorum state machine.
///
/// * Inner sends whose payload originates *here* start an RB instance
///   (`Init` + the origin's own `Echo`); inner *forward* sends are
///   suppressed — RB's dedup-flood replaces TTL forwarding.
/// * A payload reaches the inner node's `on_message` (with `from` = the
///   payload origin) exactly once per instance, after a ready quorum.
///
/// With `f > 0` the flood TTL must cover the whole network (quorum counting
/// is global); with `f = 0` the wave radius suffices and the wrapper is
/// delivery-equivalent to plain flooding under lockstep.
pub struct RbNode<N: ProtocolNode, A: Auth> {
    inner: N,
    auth: A,
    f: usize,
    n: usize,
    ttl: u32,
    /// Latest armed wave epoch: the staleness reference for replay rejection.
    epoch: u64,
    instances: HashMap<Key, Instance<N::Msg>>,
    fwd_init: HashSet<Key>,
    fwd_echo: HashSet<(Key, Node)>,
    fwd_ready: HashSet<(Key, Node)>,
    stats: RbStats,
    inner_ops: PendingOps<N::Msg>,
    /// Disposition of the last received frame (advisory, for tracing).
    last_rx: DropCause,
    /// Observability sink: quorum-progress events flow here when attached.
    obs: ObsHandle,
    tel: TelemetryHandle,
}

impl<N, A> RbNode<N, A>
where
    N: ProtocolNode,
    N::Msg: RbPayload,
    A: Auth,
{
    /// Wraps `inner` for a network of `n` nodes tolerating `f` Byzantine
    /// peers, flooding RB frames with the given TTL.
    ///
    /// Panics unless `f == 0` or `n > 3f` (quorum arithmetic), and unless
    /// `ttl >= 1`.  The session builder's `FaultPlan::check` is the
    /// non-panicking validation path.
    pub fn new(inner: N, auth: A, f: usize, n: usize, ttl: u32) -> Self {
        assert!(f == 0 || n > 3 * f, "echo quorums need n > 3f");
        assert!(ttl >= 1, "the RB flood needs at least one hop");
        RbNode {
            inner,
            auth,
            f,
            n,
            ttl,
            epoch: 0,
            instances: HashMap::new(),
            fwd_init: HashSet::new(),
            fwd_echo: HashSet::new(),
            fwd_ready: HashSet::new(),
            stats: RbStats::default(),
            inner_ops: PendingOps::default(),
            last_rx: DropCause::None,
            obs: ObsHandle::off(),
            tel: TelemetryHandle::off(),
        }
    }

    /// Attaches an observability recorder: quorum-echo / quorum-deliver
    /// transitions of every RB instance are emitted through it, keyed by the
    /// wave id `(origin, epoch)` and slot that name the instance.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// Installs a live telemetry handle: quorum transitions bump the
    /// [`Counter::RbEchoQuorums`] / [`Counter::RbDelivers`] counters.
    pub fn set_telemetry(&mut self, tel: TelemetryHandle) {
        self.tel = tel;
    }

    /// Echoes required before a node turns ready:
    /// `max(2f + 1, ⌈(n + f + 1) / 2⌉)` — the larger form makes two echo
    /// quorums intersect in an honest node, so an equivocating origin can
    /// never get two payloads past the echo stage.  `1` when `f = 0`.
    pub fn echo_quorum(&self) -> usize {
        if self.f == 0 {
            1
        } else {
            (2 * self.f + 1).max((self.n + self.f + 2) / 2)
        }
    }

    /// Readys required before delivery: `2f + 1` (so at least `f + 1` honest
    /// witnesses back the delivered payload).  `1` when `f = 0`.
    pub fn ready_quorum(&self) -> usize {
        if self.f == 0 {
            1
        } else {
            2 * self.f + 1
        }
    }

    /// The wrapped node, shared.
    pub fn inner(&self) -> &N {
        &self.inner
    }

    /// The wrapped node, exclusive (out-of-band arming, e.g. `begin_wave`).
    pub fn inner_mut(&mut self) -> &mut N {
        &mut self.inner
    }

    /// Unwraps the inner node.
    pub fn into_inner(self) -> N {
        self.inner
    }

    /// Message accounting so far.
    pub fn stats(&self) -> &RbStats {
        &self.stats
    }

    /// Advances the replay-rejection epoch and garbage-collects instance
    /// and dedup state older than the two-epoch retain window — the same
    /// bound [`crate::protocol::RepairNode::begin_wave`] applies.
    pub fn advance_epoch(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
        let keep = self.epoch.saturating_sub(2);
        self.instances.retain(|k, _| k.1 >= keep);
        self.fwd_init.retain(|k| k.1 >= keep);
        self.fwd_echo.retain(|(k, _)| k.1 >= keep);
        self.fwd_ready.retain(|(k, _)| k.1 >= keep);
    }

    /// Runs `action` on the inner node with a capturing transport, then
    /// interprets its requests: timers pass through, sends whose payload
    /// originates here start an RB instance, forward sends are suppressed.
    pub fn with_inner<F>(&mut self, net: &mut dyn Transport<RbMsg<N::Msg>>, action: F)
    where
        F: FnOnce(&mut N, &mut dyn Transport<N::Msg>),
    {
        let me = net.me();
        let now = net.now();
        let mut ops = std::mem::take(&mut self.inner_ops);
        {
            let mut capture = BufferedTransport {
                me,
                now,
                neighbors: net.neighbors(),
                ops: &mut ops,
            };
            action(&mut self.inner, &mut capture);
        }
        for (delay, token) in ops.timers.drain(..) {
            net.set_timer(delay, token);
        }
        for out in ops.sends.drain(..) {
            let payload = match out {
                Outgoing::Unicast(_, m) | Outgoing::Broadcast(m) => m,
            };
            if payload.origin() == me {
                self.originate_rb(net, payload);
            } else {
                self.stats.suppressed_inner += 1;
            }
        }
        self.inner_ops = ops;
    }

    /// Starts an RB instance for a payload this node originates: floods the
    /// signed `Init` plus (for `f > 0`) the origin's own `Echo`, and marks
    /// the instance delivered (the origin accepts its own payload by
    /// construction).
    ///
    /// With `f = 0` both quorums are 1 and every node's own witness
    /// suffices, so no `Echo`/`Ready` frames go on the wire at all — the
    /// state machine runs on self-witnesses and the flood degenerates to
    /// exactly the plain TTL flood (witness frames would otherwise *extend*
    /// delivery up to one radius beyond the plain flood's reach).
    fn originate_rb(&mut self, net: &mut dyn Transport<RbMsg<N::Msg>>, payload: N::Msg) {
        let me = net.me();
        let key = key_of(&payload);
        let digest = payload.digest();
        {
            let inst = self.instances.entry(key).or_default();
            if inst.delivered && inst.echoed {
                return; // duplicate origination of the same instance
            }
            inst.delivered = true;
            inst.echoed = true;
            let cand = inst
                .candidates
                .entry(digest)
                .or_insert_with(|| Candidate::new(payload.clone()));
            cand.echoes.insert(me);
        }
        self.fwd_init.insert(key);
        let init_mac = self.auth.tag(me, mac_data(KIND_INIT, digest));
        net.send(Outgoing::Broadcast(RbMsg::Init(
            payload.clone(),
            init_mac,
            self.ttl,
        )));
        self.stats.init_sent += 1;
        if self.f > 0 {
            self.fwd_echo.insert((key, me));
            let echo_mac = self.auth.tag(me, mac_data(KIND_ECHO, digest));
            net.send(Outgoing::Broadcast(RbMsg::Echo(
                me, payload, echo_mac, self.ttl,
            )));
            self.stats.echo_sent += 1;
        }
        self.progress(net, key, digest);
    }

    /// Re-checks the quorum state machine for one candidate after its
    /// witness sets changed: turn ready on an echo quorum (or `f + 1`
    /// readys), deliver on a ready quorum.
    fn progress(&mut self, net: &mut dyn Transport<RbMsg<N::Msg>>, key: Key, digest: u64) {
        let me = net.me();
        let q_echo = self.echo_quorum();
        let q_ready = self.ready_quorum();
        let amplify = self.f + 1;
        let (send_ready, deliver) = {
            let Some(inst) = self.instances.get_mut(&key) else {
                return;
            };
            let Some(cand) = inst.candidates.get_mut(&digest) else {
                return;
            };
            let mut send_ready = None;
            if !inst.readied && (cand.echoes.len() >= q_echo || cand.readys.len() >= amplify) {
                inst.readied = true;
                cand.readys.insert(me);
                send_ready = Some(cand.payload.clone());
            }
            let mut deliver = None;
            if !inst.delivered && cand.readys.len() >= q_ready {
                inst.delivered = true;
                deliver = Some(cand.payload.clone());
            }
            (send_ready, deliver)
        };
        if self.tel.on() {
            if send_ready.is_some() {
                self.tel.incr(Counter::RbEchoQuorums);
            }
            if deliver.is_some() {
                self.tel.incr(Counter::RbDelivers);
            }
        }
        if self.obs.on() {
            let wave = WaveId {
                origin: key.0,
                epoch: key.1,
            };
            if send_ready.is_some() {
                self.obs.emit(ObsEvent::QuorumEcho {
                    node: me,
                    wave,
                    slot: u64::from(key.2),
                });
            }
            if deliver.is_some() {
                self.obs.emit(ObsEvent::QuorumDeliver {
                    node: me,
                    wave,
                    slot: u64::from(key.2),
                });
            }
        }
        if let Some(payload) = send_ready.filter(|_| self.f > 0) {
            let mac = self.auth.tag(me, mac_data(KIND_READY, digest));
            self.fwd_ready.insert((key, me));
            net.send(Outgoing::Broadcast(RbMsg::Ready(
                me, payload, mac, self.ttl,
            )));
            self.stats.ready_sent += 1;
        }
        if let Some(payload) = deliver {
            self.stats.delivered += 1;
            let origin = key.0;
            self.with_inner(net, |inner, t| inner.on_message(t, origin, &payload));
            // A committed wave is proof the network reached its epoch:
            // advance the replay window even on nodes the driver never
            // armed, so stale re-stamps cannot target bystanders.
            self.advance_epoch(key.1);
        }
    }

    /// The RB receive path: authenticate, dedup-relay, count, progress.
    fn handle_rb(&mut self, net: &mut dyn Transport<RbMsg<N::Msg>>, msg: &RbMsg<N::Msg>) {
        let me = net.me();
        self.last_rx = DropCause::None;
        let (payload, kind, signer, mac, ttl) = match msg {
            RbMsg::Init(p, mac, ttl) => (p, KIND_INIT, p.origin(), *mac, *ttl),
            RbMsg::Echo(s, p, mac, ttl) => (p, KIND_ECHO, *s, *mac, *ttl),
            RbMsg::Ready(s, p, mac, ttl) => (p, KIND_READY, *s, *mac, *ttl),
        };
        // Replay suppression: a frame stamped more than two epochs behind
        // the armed wave is outside every retain window — reject it before
        // it can re-create collected state.
        if payload.epoch().saturating_add(2) < self.epoch {
            self.stats.rejected_stale += 1;
            self.last_rx = DropCause::Stale;
            return;
        }
        let digest = payload.digest();
        // Authenticate before anything else: a tampered relay (payload
        // modified in flight) digests differently and the original signer's
        // MAC no longer verifies.  Honest nodes never relay such frames.
        if !self.auth.verify(signer, mac_data(kind, digest), mac) {
            self.stats.rejected_mac += 1;
            self.last_rx = DropCause::MacReject;
            return;
        }
        let key = key_of(payload);
        // Dedup per *signer*, not per digest: one Init per instance, one
        // Echo/Ready per (instance, signer).  The first frame wins; a later
        // frame from the same signer with a different digest is proof of
        // equivocation and is dropped, so a Byzantine node minting a fresh
        // payload variant per link cannot multiply honest relay work.
        let fresh = match kind {
            KIND_INIT => self.fwd_init.insert(key),
            KIND_ECHO => self.fwd_echo.insert((key, signer)),
            _ => self.fwd_ready.insert((key, signer)),
        };
        if !fresh {
            // Either a plain dedup-flood duplicate or equivocation evidence
            // (same signer, different digest) — dropped identically either
            // way, and attributed as a dedup for the trace.
            self.last_rx = DropCause::Dedup;
            return;
        }
        if ttl > 1 {
            let fwd = match msg {
                RbMsg::Init(p, m, _) => RbMsg::Init(p.clone(), *m, ttl - 1),
                RbMsg::Echo(s, p, m, _) => RbMsg::Echo(*s, p.clone(), *m, ttl - 1),
                RbMsg::Ready(s, p, m, _) => RbMsg::Ready(*s, p.clone(), *m, ttl - 1),
            };
            net.send(Outgoing::Broadcast(fwd));
            self.stats.relayed += 1;
        }
        let echo_payload = {
            let inst = self.instances.entry(key).or_default();
            let cand = inst
                .candidates
                .entry(digest)
                .or_insert_with(|| Candidate::new(payload.clone()));
            match kind {
                KIND_INIT => {
                    if !inst.echoed {
                        inst.echoed = true;
                        cand.echoes.insert(me);
                        Some(cand.payload.clone())
                    } else {
                        None
                    }
                }
                KIND_ECHO => {
                    cand.echoes.insert(signer);
                    None
                }
                _ => {
                    cand.readys.insert(signer);
                    None
                }
            }
        };
        if let Some(p) = echo_payload.filter(|_| self.f > 0) {
            let mac = self.auth.tag(me, mac_data(KIND_ECHO, digest));
            self.fwd_echo.insert((key, me));
            net.send(Outgoing::Broadcast(RbMsg::Echo(me, p, mac, self.ttl)));
            self.stats.echo_sent += 1;
        }
        self.progress(net, key, digest);
    }
}

impl<N, A> ProtocolNode for RbNode<N, A>
where
    N: ProtocolNode,
    N::Msg: RbPayload,
    A: Auth,
{
    type Msg = RbMsg<N::Msg>;

    fn on_start(&mut self, net: &mut dyn Transport<Self::Msg>) {
        self.with_inner(net, |inner, t| inner.on_start(t));
    }

    fn on_message(&mut self, net: &mut dyn Transport<Self::Msg>, _from: Node, msg: &Self::Msg) {
        self.handle_rb(net, msg);
    }

    fn last_rx(&self) -> DropCause {
        self.last_rx
    }

    fn on_timer(&mut self, net: &mut dyn Transport<Self::Msg>, token: u32) {
        self.with_inner(net, |inner, t| inner.on_timer(t, token));
    }

    fn on_recover(&mut self, net: &mut dyn Transport<Self::Msg>) {
        self.with_inner(net, |inner, t| inner.on_recover(t));
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::RepairNode;
    use crate::sim::SyncNetwork;
    use rspan_graph::generators::er::gnp_connected;
    use rspan_graph::generators::structured::path_graph;

    fn quorums(f: usize, n: usize) -> (usize, usize) {
        let node: RbNode<RepairNode, SeededAuth> =
            RbNode::new(RepairNode::new(2), SeededAuth::new(1), f, n, 4);
        (node.echo_quorum(), node.ready_quorum())
    }

    #[test]
    fn quorum_arithmetic() {
        assert_eq!(quorums(0, 5), (1, 1));
        // Minimal n = 3f + 1: the two quorum forms coincide at 2f + 1.
        assert_eq!(quorums(1, 4), (3, 3));
        assert_eq!(quorums(2, 7), (5, 5));
        // Larger n: the majority form takes over for equivocation safety.
        assert_eq!(quorums(1, 10), (6, 3));
        assert_eq!(quorums(2, 20), (12, 5));
    }

    #[test]
    #[should_panic(expected = "n > 3f")]
    fn too_many_byzantine_panics() {
        let _ = quorums(2, 6);
    }

    #[test]
    fn seeded_auth_separates_signers_and_data() {
        let auth = SeededAuth::new(0xfeed);
        let t = auth.tag(3, 99);
        assert!(auth.verify(3, 99, t));
        assert!(!auth.verify(4, 99, t), "another signer's tag must differ");
        assert!(!auth.verify(3, 98, t), "another payload's tag must differ");
        assert_ne!(
            mac_data(KIND_ECHO, 7),
            mac_data(KIND_READY, 7),
            "echo tags must not replay as ready tags"
        );
        assert_ne!(SeededAuth::new(1).tag(0, 5), SeededAuth::new(2).tag(0, 5));
    }

    #[test]
    fn repair_payload_identity_ignores_ttl() {
        let a = RepairMsg::LinkState(4, 2, vec![1, 3].into(), 5);
        let b = RepairMsg::LinkState(4, 2, vec![1, 3].into(), 1);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(key_of(&a), (2, 4, 0));
        let c = RepairMsg::LinkState(4, 2, vec![1, 4].into(), 5);
        assert_ne!(a.digest(), c.digest(), "content must move the digest");
        let t = RepairMsg::TreeAdvert(4, 2, vec![(1, 3)].into(), 5);
        assert_eq!(key_of(&t), (2, 4, 1), "slots keep the two floods apart");
    }

    #[test]
    fn rb_wire_sizes_add_the_auth_overhead() {
        let p = RepairMsg::LinkState(1, 0, vec![1, 2].into(), 3);
        assert_eq!(
            RbMsg::Init(p.clone(), 0, 3).wire_bytes(),
            p.wire_bytes() + 16
        );
        assert_eq!(
            RbMsg::Echo(5, p.clone(), 0, 3).wire_bytes(),
            p.wire_bytes() + 20
        );
        assert_eq!(
            RbMsg::Ready(5, p.clone(), 0, 3).wire_bytes(),
            p.wire_bytes() + 20
        );
    }

    fn rb_wave_net(
        g: &rspan_graph::CsrGraph,
        f: usize,
        ttl: u32,
        radius: u32,
        dirty: Node,
        tree: Vec<(Node, Node)>,
    ) -> Vec<RbNode<RepairNode, SeededAuth>> {
        let n = g.n();
        let net = SyncNetwork::new(g);
        let (states, _) = net.run_protocol(
            |u| {
                let mut node =
                    RbNode::new(RepairNode::new(radius), SeededAuth::new(0xAB), f, n, ttl);
                node.advance_epoch(1);
                node.inner_mut()
                    .begin_wave(1, (u == dirty).then(|| tree.clone()));
                node
            },
            2 * ttl + 4,
        );
        states
    }

    #[test]
    fn quorum_wave_reaches_every_honest_node() {
        // Dense graph, f = 1: every node must assemble the quorums and
        // deliver the dirty origin's refreshed link state and tree.
        let g = gnp_connected(8, 0.9, 3);
        let states = rb_wave_net(&g, 1, g.n() as u32, 2, 0, vec![(0, 1)]);
        for (u, st) in states.iter().enumerate() {
            assert!(
                st.inner().has_refreshed(1, 0),
                "node {u} missed the wave under RB"
            );
            if u != 0 {
                assert_eq!(st.stats().delivered, 2, "link state + tree advert");
            }
            assert_eq!(st.stats().rejected_mac, 0);
        }
    }

    #[test]
    fn f0_wrapper_matches_plain_flooding_node_for_node() {
        // With f = 0 and TTL = wave radius, the wrapper must leave every
        // inner node in exactly the state plain flooding produces.
        let g = path_graph(7);
        let radius = 3;
        let tree = vec![(2, 3)];
        let wrapped = rb_wave_net(&g, 0, radius, radius, 2, tree.clone());

        let plain_net = SyncNetwork::new(&g);
        let (plain, _) = plain_net.run_protocol(
            |u| {
                let mut node = RepairNode::new(radius);
                node.begin_wave(1, (u == 2).then(|| tree.clone()));
                node
            },
            radius + 2,
        );
        for (u, (rb, pl)) in wrapped.iter().zip(plain.iter()).enumerate() {
            assert_eq!(
                rb.inner().refreshed_link_state_count(),
                pl.refreshed_link_state_count(),
                "node {u} refreshed sets diverged"
            );
            assert_eq!(
                rb.inner().incident_update_count(),
                pl.incident_update_count(),
                "node {u} incident knowledge diverged"
            );
            assert_eq!(
                rb.inner().accepted_link_state(),
                pl.accepted_link_state(),
                "node {u} accepted digests diverged"
            );
            assert_eq!(
                rb.inner().accepted_tree_adverts(),
                pl.accepted_tree_adverts()
            );
        }
    }

    #[test]
    fn tampered_relay_is_rejected_not_forwarded() {
        let auth = SeededAuth::new(0xAB);
        let mut node: RbNode<RepairNode, SeededAuth> =
            RbNode::new(RepairNode::new(2), auth.clone(), 1, 4, 4);
        node.advance_epoch(1);
        node.inner_mut().begin_wave(1, None);

        let genuine = RepairMsg::LinkState(1, 0, vec![1, 2].into(), 2);
        let mac = auth.tag(0, mac_data(KIND_INIT, genuine.digest()));
        // A Byzantine relay swapped the neighbor list but cannot re-sign.
        let forged = RepairMsg::LinkState(1, 0, vec![1, 3].into(), 2);

        let mut ops = PendingOps::default();
        let neighbors = [0 as Node, 2, 3];
        let mut t = BufferedTransport {
            me: 1,
            now: 0,
            neighbors: &neighbors,
            ops: &mut ops,
        };
        node.on_message(&mut t, 0, &RbMsg::Init(forged, mac, 4));
        assert_eq!(node.stats().rejected_mac, 1);
        assert!(t.ops.sends.is_empty(), "forged frames must not be relayed");
        assert!(!node.inner().has_refreshed(1, 0));

        // The genuine frame still flows: relayed + echoed.
        node.on_message(&mut t, 0, &RbMsg::Init(genuine, mac, 4));
        assert_eq!(node.stats().rejected_mac, 1);
        assert_eq!(t.ops.sends.len(), 2, "relay the Init, flood our Echo");

        // A stale replay (epoch fell out of the retain window) is rejected.
        node.advance_epoch(9);
        let old = RepairMsg::LinkState(1, 0, vec![1, 2].into(), 2);
        let old_mac = auth.tag(0, mac_data(KIND_INIT, old.digest()));
        node.on_message(&mut t, 0, &RbMsg::Init(old, old_mac, 4));
        assert_eq!(node.stats().rejected_stale, 1);
    }

    #[test]
    fn equivocating_origin_never_gets_two_payloads_delivered() {
        // Feed one node two conflicting Inits from a Byzantine origin that
        // signs both (its own key is legitimately its): the node echoes only
        // the first, and neither payload is delivered without a quorum.
        let auth = SeededAuth::new(0xAB);
        let mut node: RbNode<RepairNode, SeededAuth> =
            RbNode::new(RepairNode::new(2), auth.clone(), 1, 4, 4);
        node.advance_epoch(1);
        node.inner_mut().begin_wave(1, None);

        let a = RepairMsg::LinkState(1, 0, vec![1].into(), 2);
        let b = RepairMsg::LinkState(1, 0, vec![2].into(), 2);
        let mac_a = auth.tag(0, mac_data(KIND_INIT, a.digest()));
        let mac_b = auth.tag(0, mac_data(KIND_INIT, b.digest()));

        let mut ops = PendingOps::default();
        let neighbors = [0 as Node, 2, 3];
        let mut t = BufferedTransport {
            me: 1,
            now: 0,
            neighbors: &neighbors,
            ops: &mut ops,
        };
        node.on_message(&mut t, 0, &RbMsg::Init(a, mac_a, 4));
        node.on_message(&mut t, 0, &RbMsg::Init(b, mac_b, 4));
        // Only the first variant is relayed and echoed: the second Init from
        // the same origin is equivocation evidence and is dropped outright.
        assert_eq!(node.stats().relayed, 1);
        assert_eq!(node.stats().echo_sent, 1);
        assert_eq!(node.stats().delivered, 0, "no quorum, no delivery");
        assert!(!node.inner().has_refreshed(1, 0));
    }
}
