//! Byzantine fault plans, wire-level injectors and honest-agreement checks.
//!
//! [`FaultPlan`] marks up to `f` nodes Byzantine with a pluggable
//! [`ByzBehaviour`] each; the plan compiles into a [`FaultHook`] installed
//! on the [`AsyncNetwork`](crate::AsyncNetwork), which rewrites or
//! suppresses the marked nodes' transmissions *in their radio* — before
//! the channel's loss/latency draws, from a dedicated seeded stream, so a
//! faulty run is exactly as replay-deterministic as an honest one.
//!
//! Two injectors cover the two broadcast modes:
//!
//! * [`RepairFaultInjector`] tampers with plain [`RepairMsg`] floods — the
//!   undefended §2.3 protocol, where a single forger corrupts honest
//!   agreement network-wide (the companion property test pins this);
//! * [`RbFaultInjector`] tampers with [`RbMsg`] frames under reliable
//!   broadcast, modelling the *strongest* admissible adversary: frames the
//!   Byzantine node signs itself are legitimately re-signed with its own
//!   key, while tampered relays of other nodes' frames necessarily carry a
//!   stale MAC and are rejected by honest receivers.
//!
//! [`honest_agreement`] is the acceptance criterion: across the honest
//! nodes, every `(epoch, origin)` wave key must map to one digest — and to
//! the origin's own digest when the origin is honest.

use crate::sim::{FaultHook, FaultVerdict};
use rand::rngs::SmallRng;
use rand::Rng;
use rspan_distributed::protocol::RepairMsg;
use rspan_distributed::rb::{RbMsg, SeededAuth};
use rspan_graph::Node;
use std::collections::{HashMap, HashSet};

/// How a Byzantine node misbehaves on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ByzBehaviour {
    /// Forge content: every outgoing wave frame is rewritten (link state /
    /// tree edges replaced), keeping origin and epoch.
    Forge,
    /// Equivocate: send the genuine frame to half its peers and a forged
    /// one to the other half (split by receiver-id parity).
    Equivocate,
    /// Suppress: silently drop every outgoing wave frame (selective
    /// denial — the node looks alive but relays nothing).
    Suppress,
    /// Replay: re-stamp every outgoing wave frame three epochs stale,
    /// resurrecting state honest dedup windows have already collected.
    Replay,
}

impl ByzBehaviour {
    /// Stable label for benchmark tables.
    pub fn label(&self) -> &'static str {
        match self {
            ByzBehaviour::Forge => "forge",
            ByzBehaviour::Equivocate => "equivocate",
            ByzBehaviour::Suppress => "suppress",
            ByzBehaviour::Replay => "replay",
        }
    }
}

/// Which nodes are Byzantine, how each misbehaves, and the tolerance `f`
/// the reliable-broadcast quorums are sized for.
///
/// `f` and the marked set are intentionally separate: `f` is what the
/// *defence* assumes (quorum arithmetic needs `n > 3f`), the marked set is
/// what the *attack* actually does — running fewer faulty nodes than the
/// defence tolerates is a legitimate experiment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Byzantine nodes the quorums must tolerate (sizing parameter).
    pub f: usize,
    /// The marked nodes and their behaviours (at most `f` of them).
    pub byzantine: Vec<(Node, ByzBehaviour)>,
    /// Seed of the injectors' RNG stream (combined with the sim seed).
    pub seed: u64,
}

impl FaultPlan {
    /// The all-honest plan (`f = 0`, nobody marked).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether any node is actually marked Byzantine.
    pub fn is_active(&self) -> bool {
        !self.byzantine.is_empty()
    }

    /// Checks the plan against an `n`-node network, returning a description
    /// of the first problem instead of panicking (the session builder's
    /// validation path, matching the `check()` convention of the other
    /// configuration types).
    pub fn check(&self, n: usize) -> Result<(), String> {
        if self.f > 0 && n <= 3 * self.f {
            return Err(format!(
                "echo quorums need n > 3f (n = {n}, f = {})",
                self.f
            ));
        }
        if self.byzantine.len() > self.f {
            return Err(format!(
                "{} nodes marked Byzantine but the plan only tolerates f = {}",
                self.byzantine.len(),
                self.f
            ));
        }
        let mut seen = HashSet::new();
        for &(v, _) in &self.byzantine {
            if (v as usize) >= n {
                return Err(format!("Byzantine node {v} outside the node range 0..{n}"));
            }
            if !seen.insert(v) {
                return Err(format!("node {v} marked Byzantine twice"));
            }
        }
        Ok(())
    }

    /// The marked node set.
    pub fn byzantine_nodes(&self) -> HashSet<Node> {
        self.byzantine.iter().map(|&(v, _)| v).collect()
    }

    /// Stable label for benchmark tables, e.g. `f2_forge3_replay7`.
    pub fn label(&self) -> String {
        if !self.is_active() {
            return "honest".into();
        }
        let mut parts: Vec<String> = self
            .byzantine
            .iter()
            .map(|(v, b)| format!("{}{v}", b.label()))
            .collect();
        parts.sort();
        format!("f{}_{}", self.f, parts.join("_"))
    }

    fn behaviour_of(&self, v: Node) -> Option<ByzBehaviour> {
        self.byzantine
            .iter()
            .find(|&&(b, _)| b == v)
            .map(|&(_, b)| b)
    }
}

/// Forged replacement for a wave payload: same origin, same epoch, same
/// TTL — content rewritten to a bogus but well-formed claim, salted by the
/// injector's RNG so repeated forgeries differ.
fn forge_payload(msg: &RepairMsg, rng: &mut SmallRng) -> RepairMsg {
    let salt: u32 = rng.gen_range(0u32..1_000_000);
    match msg {
        RepairMsg::LinkState(e, o, list, ttl) => {
            // Claim a rotated neighbor list with one fabricated entry: a
            // plausible shape that digests differently.
            let mut forged: Vec<Node> = list.iter().rev().copied().collect();
            forged.push(o.wrapping_add(salt % 7 + 1));
            RepairMsg::LinkState(*e, *o, forged.into(), *ttl)
        }
        RepairMsg::TreeAdvert(e, o, edges, ttl) => {
            let mut forged = edges.to_vec();
            forged.push((*o, o.wrapping_add(salt % 5 + 1)));
            RepairMsg::TreeAdvert(*e, *o, forged.into(), *ttl)
        }
    }
}

/// Replayed re-stamp: the same content three epochs stale (saturating).
fn replay_payload(msg: &RepairMsg) -> RepairMsg {
    match msg {
        RepairMsg::LinkState(e, o, list, ttl) => {
            RepairMsg::LinkState(e.saturating_sub(3), *o, list.clone(), *ttl)
        }
        RepairMsg::TreeAdvert(e, o, edges, ttl) => {
            RepairMsg::TreeAdvert(e.saturating_sub(3), *o, edges.clone(), *ttl)
        }
    }
}

/// Whether an equivocator sends `to` the genuine frame (even ids) or the
/// forged one (odd ids).
fn equivocate_towards(to: Node) -> bool {
    to & 1 == 1
}

/// [`FaultHook`] over plain [`RepairMsg`] floods: the undefended protocol.
/// Every transmission leaving a marked node is subject to its behaviour —
/// both frames it originates and frames it relays for others, which is
/// what makes a single forger poison honest agreement network-wide.
pub struct RepairFaultInjector {
    plan: FaultPlan,
}

impl RepairFaultInjector {
    /// Compiles a plan (assumed checked) into the injector.
    pub fn new(plan: FaultPlan) -> Self {
        RepairFaultInjector { plan }
    }
}

impl FaultHook<RepairMsg> for RepairFaultInjector {
    fn intercept(
        &mut self,
        from: Node,
        to: Node,
        msg: &RepairMsg,
        rng: &mut SmallRng,
    ) -> FaultVerdict<RepairMsg> {
        let Some(behaviour) = self.plan.behaviour_of(from) else {
            return FaultVerdict::Pass;
        };
        match behaviour {
            ByzBehaviour::Forge => FaultVerdict::Replace(forge_payload(msg, rng)),
            ByzBehaviour::Equivocate => {
                if equivocate_towards(to) {
                    FaultVerdict::Replace(forge_payload(msg, rng))
                } else {
                    FaultVerdict::Pass
                }
            }
            ByzBehaviour::Suppress => FaultVerdict::Drop,
            ByzBehaviour::Replay => FaultVerdict::Replace(replay_payload(msg)),
        }
    }
}

/// [`FaultHook`] over [`RbMsg`] frames: the same behaviours against the
/// reliable-broadcast defence, at the adversary's full strength — the
/// injector holds the [`SeededAuth`] key material so frames the Byzantine
/// node signs *itself* (its own `Init`/`Echo`/`Ready`) are re-signed
/// correctly after tampering, while tampered relays of other nodes' frames
/// keep the original signer's now-invalid MAC.
pub struct RbFaultInjector {
    plan: FaultPlan,
    auth: SeededAuth,
}

impl RbFaultInjector {
    /// Compiles a plan (assumed checked) into the injector.  `auth` must be
    /// the same key universe the [`RbNode`](rspan_distributed::rb::RbNode)s
    /// run, or the Byzantine nodes' own signatures stop verifying and the
    /// attack degenerates.
    pub fn new(plan: FaultPlan, auth: SeededAuth) -> Self {
        RbFaultInjector { plan, auth }
    }

    fn tamper(&self, msg: &RbMsg<RepairMsg>, from: Node, forged: RepairMsg) -> RbMsg<RepairMsg> {
        // A Byzantine node can only produce a valid MAC with its own key:
        // re-sign frames it is the signer of, leave the (now stale) MAC on
        // tampered relays of other nodes' frames.
        let stale_mac = match msg {
            RbMsg::Init(_, mac, _) => *mac,
            RbMsg::Echo(_, _, mac, _) | RbMsg::Ready(_, _, mac, _) => *mac,
        };
        let tampered = msg.with_payload(forged, stale_mac);
        if msg.signer() == from {
            let mac = tampered.expected_mac(&self.auth);
            msg.with_payload(tampered.payload().clone(), mac)
        } else {
            tampered
        }
    }
}

impl FaultHook<RbMsg<RepairMsg>> for RbFaultInjector {
    fn intercept(
        &mut self,
        from: Node,
        to: Node,
        msg: &RbMsg<RepairMsg>,
        rng: &mut SmallRng,
    ) -> FaultVerdict<RbMsg<RepairMsg>> {
        let Some(behaviour) = self.plan.behaviour_of(from) else {
            return FaultVerdict::Pass;
        };
        match behaviour {
            ByzBehaviour::Forge => {
                let forged = forge_payload(msg.payload(), rng);
                FaultVerdict::Replace(self.tamper(msg, from, forged))
            }
            ByzBehaviour::Equivocate => {
                if equivocate_towards(to) {
                    let forged = forge_payload(msg.payload(), rng);
                    FaultVerdict::Replace(self.tamper(msg, from, forged))
                } else {
                    FaultVerdict::Pass
                }
            }
            ByzBehaviour::Suppress => FaultVerdict::Drop,
            ByzBehaviour::Replay => {
                let replayed = replay_payload(msg.payload());
                FaultVerdict::Replace(self.tamper(msg, from, replayed))
            }
        }
    }
}

/// Outcome of an [`honest_agreement`] sweep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AgreementReport {
    /// `(wave key, honest acceptor)` pairs inspected.
    pub checks: usize,
    /// Pairs whose accepted digest disagreed with the reference digest
    /// (the honest origin's own, or the first honest acceptor's for a
    /// Byzantine origin).
    pub violations: usize,
}

impl AgreementReport {
    /// Whether every inspected acceptance agreed.
    pub fn agreement_ok(&self) -> bool {
        self.violations == 0
    }
}

/// Checks honest-node agreement over accepted wave digests.
///
/// `per_node[v]` yields node `v`'s accepted digests (key `(epoch,
/// origin)` → content digest), e.g. the view
/// [`RepairNode::accepted_link_state`](rspan_distributed::RepairNode::accepted_link_state);
/// `byz` is the marked node set.  For every key, the reference digest is
/// the honest origin's own record when present (an origin always records
/// what it flooded); for Byzantine origins it is the first honest
/// acceptor's, so the check degrades to pairwise honest consistency —
/// exactly what reliable broadcast promises for a faulty sender.
pub fn honest_agreement<D>(per_node: &[D], byz: &HashSet<Node>) -> AgreementReport
where
    D: IntoIterator<Item = ((u64, Node), u64)> + Clone,
{
    let mut reference: HashMap<(u64, Node), u64> = HashMap::new();
    // Pass 1: honest origins' own records are the ground truth.
    for (v, accepted) in per_node.iter().enumerate() {
        let v = v as Node;
        if byz.contains(&v) {
            continue;
        }
        for (key, digest) in accepted.clone() {
            if key.1 == v {
                reference.insert(key, digest);
            }
        }
    }
    // Pass 2: every honest acceptance must match the reference (first
    // honest acceptor seeds it for Byzantine origins).
    let mut report = AgreementReport::default();
    for (v, accepted) in per_node.iter().enumerate() {
        let v = v as Node;
        if byz.contains(&v) {
            continue;
        }
        for (key, digest) in accepted.clone() {
            report.checks += 1;
            match reference.get(&key) {
                Some(&expect) => {
                    if digest != expect {
                        report.violations += 1;
                    }
                }
                None => {
                    reference.insert(key, digest);
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rspan_distributed::rb::{Auth, RbPayload};

    #[test]
    fn plan_check_covers_quorums_range_and_duplicates() {
        FaultPlan::none().check(1).unwrap();
        let plan = FaultPlan {
            f: 1,
            byzantine: vec![(2, ByzBehaviour::Forge)],
            seed: 7,
        };
        plan.check(4).unwrap();
        assert!(plan.check(3).is_err(), "n = 3f must be rejected");
        let oob = FaultPlan {
            f: 1,
            byzantine: vec![(9, ByzBehaviour::Forge)],
            seed: 7,
        };
        assert!(oob.check(4).is_err(), "node outside range");
        let dup = FaultPlan {
            f: 2,
            byzantine: vec![(1, ByzBehaviour::Forge), (1, ByzBehaviour::Replay)],
            seed: 7,
        };
        assert!(dup.check(7).is_err(), "duplicate marking");
        let over = FaultPlan {
            f: 1,
            byzantine: vec![(1, ByzBehaviour::Forge), (2, ByzBehaviour::Forge)],
            seed: 7,
        };
        assert!(over.check(9).is_err(), "more marked than tolerated");
    }

    #[test]
    fn plan_labels_are_stable() {
        assert_eq!(FaultPlan::none().label(), "honest");
        let plan = FaultPlan {
            f: 2,
            byzantine: vec![(7, ByzBehaviour::Replay), (3, ByzBehaviour::Forge)],
            seed: 0,
        };
        assert_eq!(plan.label(), "f2_forge3_replay7");
    }

    #[test]
    fn plain_injector_applies_each_behaviour() {
        let mut rng = SmallRng::seed_from_u64(5);
        let msg = RepairMsg::LinkState(4, 0, vec![1, 2].into(), 3);
        let plan = |b| FaultPlan {
            f: 1,
            byzantine: vec![(0, b)],
            seed: 1,
        };

        let mut forge = RepairFaultInjector::new(plan(ByzBehaviour::Forge));
        match forge.intercept(0, 1, &msg, &mut rng) {
            FaultVerdict::Replace(RepairMsg::LinkState(4, 0, list, 3)) => {
                assert_ne!(list[..], [1, 2]);
            }
            _ => panic!("forger must rewrite"),
        }
        assert!(matches!(
            forge.intercept(2, 1, &msg, &mut rng),
            FaultVerdict::Pass
        ));

        let mut equiv = RepairFaultInjector::new(plan(ByzBehaviour::Equivocate));
        assert!(matches!(
            equiv.intercept(0, 2, &msg, &mut rng),
            FaultVerdict::Pass
        ));
        assert!(matches!(
            equiv.intercept(0, 1, &msg, &mut rng),
            FaultVerdict::Replace(_)
        ));

        let mut supp = RepairFaultInjector::new(plan(ByzBehaviour::Suppress));
        assert!(matches!(
            supp.intercept(0, 1, &msg, &mut rng),
            FaultVerdict::Drop
        ));

        let mut replay = RepairFaultInjector::new(plan(ByzBehaviour::Replay));
        match replay.intercept(0, 1, &msg, &mut rng) {
            FaultVerdict::Replace(RepairMsg::LinkState(1, 0, list, 3)) => {
                assert_eq!(list[..], [1, 2], "replay keeps content, moves epoch");
            }
            _ => panic!("replayer must re-stamp"),
        }
    }

    #[test]
    fn rb_injector_resigns_own_frames_but_not_relays() {
        let auth = SeededAuth::new(0xAB);
        let plan = FaultPlan {
            f: 1,
            byzantine: vec![(3, ByzBehaviour::Forge)],
            seed: 1,
        };
        let mut inj = RbFaultInjector::new(plan, auth.clone());
        let mut rng = SmallRng::seed_from_u64(5);

        // A frame node 3 signs itself: tampered AND validly re-signed.
        let own = RepairMsg::LinkState(4, 3, vec![1, 2].into(), 3);
        let own_frame = RbMsg::Echo(3, own, 0, 3);
        let own_frame =
            own_frame.with_payload(own_frame.payload().clone(), own_frame.expected_mac(&auth));
        match inj.intercept(3, 1, &own_frame, &mut rng) {
            FaultVerdict::Replace(t) => {
                assert_ne!(t.payload().digest(), own_frame.payload().digest());
                let mac = match &t {
                    RbMsg::Echo(_, _, mac, _) => *mac,
                    _ => panic!("frame kind must be preserved"),
                };
                assert!(
                    auth.verify(3, t.expected_mac(&auth), t.expected_mac(&auth))
                        || mac == t.expected_mac(&auth),
                    "own tampered frame must carry a valid self-signature"
                );
            }
            _ => panic!("forger must rewrite"),
        }

        // A relay of node 0's Init: tampered, MAC left stale (unforgeable).
        let other = RepairMsg::LinkState(4, 0, vec![1, 2].into(), 3);
        let relay = RbMsg::Init(other, 0, 3);
        let relay = relay.with_payload(relay.payload().clone(), relay.expected_mac(&auth));
        match inj.intercept(3, 1, &relay, &mut rng) {
            FaultVerdict::Replace(t) => {
                assert_ne!(
                    match &t {
                        RbMsg::Init(_, mac, _) => *mac,
                        _ => panic!("frame kind must be preserved"),
                    },
                    t.expected_mac(&auth),
                    "tampered relay must carry a stale MAC"
                );
            }
            _ => panic!("forger must rewrite"),
        }
    }

    #[test]
    fn agreement_detects_forged_acceptance() {
        // Origin 0 (honest) flooded digest 10; node 2 accepted 99 instead.
        let honest0: HashMap<(u64, Node), u64> = [((1, 0), 10)].into();
        let honest1: HashMap<(u64, Node), u64> = [((1, 0), 10)].into();
        let poisoned: HashMap<(u64, Node), u64> = [((1, 0), 99)].into();
        let byz = HashSet::new();
        let ok = honest_agreement(&[honest0.clone(), honest1.clone()], &byz);
        assert!(ok.agreement_ok());
        assert_eq!(ok.checks, 2);
        let bad = honest_agreement(&[honest0, honest1, poisoned], &byz);
        assert_eq!(bad.violations, 1);

        // Byzantine origin: honest acceptors must still agree pairwise.
        let byz: HashSet<Node> = [9].into();
        let a: HashMap<(u64, Node), u64> = [((2, 9), 5)].into();
        let b: HashMap<(u64, Node), u64> = [((2, 9), 6)].into();
        let split = honest_agreement(&[a, b], &byz);
        assert_eq!(split.violations, 1, "equivocation splits honest nodes");
    }
}
