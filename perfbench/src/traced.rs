//! The traced run: the same pipeline as the session run, driven through
//! each layer's public functions so that every layer boundary gets a span
//! recorded here, in the benchmark's own code. Spans stay in memory and are
//! written once, when the run ends.

use crate::counters::Counters;
use crate::e2e::sim_config;
use crate::inputs::{Inputs, Kind, Replay, Spec, ALGO, CHURN_INTERVAL};
use rspan_asim::{AsyncChurnConfig, DropCause, RepairChurnDriver};
use rspan_distributed::{
    restabilise_flood, CompactRouter, DeltaRouter, LocalConfig, ProtocolNode, RepairNode,
    Transport, WaveNode,
};
use rspan_engine::RspanEngine;
use rspan_graph::Node;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// One recorded span. Handler spans are aggregates: `calls` callbacks whose
/// summed busy time is laid out from the start of their parent span.
pub struct Span {
    pub name: &'static str,
    pub pass: u32,
    /// Churn round, or `None` for set-up spans.
    pub round: Option<u32>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
    pub aggregate: bool,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        name: &'static str,
        pass: u32,
        round: Option<u32>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        calls: u64,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            pass,
            round,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
            calls,
            aggregate: false,
        });
        self.spans.len() - 1
    }

    /// Records `calls` handler callbacks that were busy `busy_ns` in total
    /// inside span `parent`.
    fn aggregate(&mut self, name: &'static str, parent: usize, busy_ns: u64, calls: u64) {
        if calls == 0 {
            return;
        }
        let p = &self.spans[parent];
        let span = Span {
            name,
            pass: p.pass,
            round: p.round,
            parent: Some(parent),
            start_ns: p.start_ns,
            end_ns: p.start_ns + busy_ns,
            calls,
            aggregate: true,
        };
        self.spans.push(span);
    }

    /// Per span name: total time, self time (total minus the time of its
    /// child spans) and calls, over the spans `keep` selects.
    pub fn totals(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, LayerTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if !keep(s) {
                continue;
            }
            let t = out.entry(s.name).or_default();
            t.total_ns += s.dur();
            t.self_ns += s.dur().saturating_sub(child_ns[i]);
            t.calls += s.calls;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let round = s.round.map_or("null".to_string(), |r| r.to_string());
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"pass\":{},\"round\":{round},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"calls\":{},\"aggregate\":{}}}",
                s.name, s.pass, s.start_ns, s.end_ns, s.calls, s.aggregate
            );
        }
        out
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotal {
    pub total_ns: u64,
    pub self_ns: u64,
    pub calls: u64,
}

/// Busy time and outcomes of the protocol callbacks, shared by every
/// [`TimedNode`] of a run.
#[derive(Default)]
pub struct HandlerClock {
    msg_ns: Cell<u64>,
    msg_calls: Cell<u64>,
    useful: Cell<u64>,
    /// Timer, recover and wave-origination callbacks.
    other_ns: Cell<u64>,
    other_calls: Cell<u64>,
    /// When the first wave of the current commit was armed: the end of the
    /// engine commit inside `RepairChurnDriver::commit_round`.
    first_arm: Cell<Option<Instant>>,
}

impl HandlerClock {
    fn add(cell: &Cell<u64>, v: u64) {
        cell.set(cell.get() + v);
    }

    fn take(&self) -> Handlers {
        (
            self.msg_ns.take(),
            self.msg_calls.take(),
            self.useful.take(),
            self.other_ns.take(),
            self.other_calls.take(),
        )
    }
}

/// Times every callback of the wrapped protocol node and counts the
/// deliveries it consumed (`last_rx() == DropCause::None`).
pub struct TimedNode<P> {
    inner: P,
    clock: Rc<HandlerClock>,
}

impl<P> TimedNode<P> {
    fn other<T>(&mut self, f: impl FnOnce(&mut P) -> T) -> T {
        let start = Instant::now();
        let out = f(&mut self.inner);
        HandlerClock::add(&self.clock.other_ns, start.elapsed().as_nanos() as u64);
        HandlerClock::add(&self.clock.other_calls, 1);
        out
    }
}

impl<P: ProtocolNode> ProtocolNode for TimedNode<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, net: &mut dyn Transport<Self::Msg>) {
        self.other(|p| p.on_start(net));
    }

    fn on_message(&mut self, net: &mut dyn Transport<Self::Msg>, from: Node, msg: &Self::Msg) {
        let start = Instant::now();
        self.inner.on_message(net, from, msg);
        HandlerClock::add(&self.clock.msg_ns, start.elapsed().as_nanos() as u64);
        HandlerClock::add(&self.clock.msg_calls, 1);
        if self.inner.last_rx() == DropCause::None {
            HandlerClock::add(&self.clock.useful, 1);
        }
    }

    fn on_timer(&mut self, net: &mut dyn Transport<Self::Msg>, token: u32) {
        self.other(|p| p.on_timer(net, token));
    }

    fn on_recover(&mut self, net: &mut dyn Transport<Self::Msg>) {
        self.other(|p| p.on_recover(net));
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn last_rx(&self) -> DropCause {
        self.inner.last_rx()
    }
}

impl<P: WaveNode> WaveNode for TimedNode<P> {
    fn arm_wave(&mut self, epoch: u64, dirty_tree: Option<Vec<(Node, Node)>>) {
        if self.clock.first_arm.get().is_none() {
            self.clock.first_arm.set(Some(Instant::now()));
        }
        self.inner.arm_wave(epoch, dirty_tree);
    }

    fn fire_wave(&mut self, net: &mut dyn Transport<Self::Msg>) {
        self.other(|p| p.fire_wave(net));
    }
}

/// What one traced pass produced.
#[derive(Default)]
pub struct TracedPass {
    /// Counters over the whole pass (compared with the session run).
    pub counters: Counters,
    /// Counters over the timed rounds (per-layer work per round).
    pub timed: Counters,
    /// Deliveries the protocol consumed, over the timed rounds.
    pub useful: u64,
    pub on_message_calls: u64,
}

impl TracedPass {
    fn add_round(&mut self, c: &Counters, timed: bool, handlers: Handlers) {
        self.counters += c;
        if timed {
            self.timed += c;
            self.useful += handlers.2;
            self.on_message_calls += handlers.1;
        }
    }
}

/// `(msg_ns, msg_calls, useful, other_ns, other_calls)` of one phase.
type Handlers = (u64, u64, u64, u64, u64);

/// The simulator's cumulative counters at the last look.
#[derive(Default)]
struct SimSeen(Counters);

impl SimSeen {
    /// Simulator work since the last look.
    fn delta(&mut self, s: &rspan_asim::AsimStats) -> Counters {
        let delta = Counters {
            events: s.events - self.0.events,
            transmissions: s.transmissions - self.0.transmissions,
            delivered: s.delivered - self.0.delivered,
            bytes: s.bytes_sent - self.0.bytes,
            ..Counters::default()
        };
        self.0 = Counters {
            events: s.events,
            transmissions: s.transmissions,
            delivered: s.delivered,
            bytes: s.bytes_sent,
            ..Counters::default()
        };
        delta
    }
}

/// Records a drain span of the simulator's event loop with the protocol
/// callbacks it ran.
fn record_drain(
    tracer: &mut Tracer,
    root: usize,
    start: Instant,
    end: Instant,
    events: u64,
    (msg_ns, msg_calls, _, other_ns, other_calls): Handlers,
) {
    let (pass, round) = (tracer.spans[root].pass, tracer.spans[root].round);
    let drain = tracer.record("asim.drain", pass, round, Some(root), start, end, events);
    tracer.aggregate("protocol.on_message", drain, msg_ns, msg_calls);
    tracer.aggregate("protocol.other", drain, other_ns, other_calls);
}

/// Per-round router state of a sync pass.
enum Router {
    None,
    Delta(Box<DeltaRouter>),
    Compact(Box<CompactRouter>),
}

/// Drives one traced pass, recording its spans into `tracer`.
pub fn pass(spec: &Spec, inputs: &Inputs, pass: u32, tracer: &mut Tracer) -> TracedPass {
    if spec.kind == Kind::FloodAsync {
        return async_pass(spec, inputs, pass, tracer);
    }
    let tree_algo = ALGO.tree_algo().expect("incremental construction");
    let setup_start = Instant::now();
    let mut engine = RspanEngine::new(inputs.graph.clone(), tree_algo);
    let engine_built = Instant::now();
    let mut router = match spec.kind {
        Kind::RouteDense => Router::Delta(Box::new(DeltaRouter::new(&engine))),
        Kind::RouteLocal => Router::Compact(Box::new(CompactRouter::new(
            &engine,
            LocalConfig::default(),
        ))),
        _ => Router::None,
    };
    let setup_end = Instant::now();
    let setup = tracer.record("setup", pass, None, None, setup_start, setup_end, 0);
    tracer.record(
        "engine.init",
        pass,
        None,
        Some(setup),
        setup_start,
        engine_built,
        0,
    );
    let router_init = match router {
        Router::Delta(_) => Some("delta.init"),
        Router::Compact(_) => Some("compact.init"),
        Router::None => None,
    };
    if let Some(name) = router_init {
        tracer.record(name, pass, None, Some(setup), engine_built, setup_end, 0);
    }

    let mut out = TracedPass::default();
    for (r, batch) in inputs.batches.iter().enumerate() {
        let mut c = Counters {
            changes: batch.len() as u64,
            ..Counters::default()
        };
        let round_start = Instant::now();
        let commit_start = Instant::now();
        let delta = engine.commit_parallel(batch, spec.threads);
        let commit_end = Instant::now();
        c.dirty = delta.recomputed.len() as u64;
        c.flips = (delta.added.len() + delta.removed.len()) as u64;
        let layer_start = Instant::now();
        let layer = match &mut router {
            Router::Delta(router) => {
                c.rows_recomputed = router.apply(&engine, batch, &delta).rows_recomputed as u64;
                "delta.apply"
            }
            Router::Compact(router) => {
                let stats = router.apply(&engine, batch, &delta);
                c.ball_rows = stats.ball_rows as u64;
                c.landmark_trees = stats.landmark_trees as u64;
                "compact.apply"
            }
            Router::None => {
                let run = restabilise_flood(&engine, &delta);
                c.messages = run.stats.messages;
                c.flood_rounds = u64::from(run.stats.rounds);
                "sim.flood"
            }
        };
        let layer_end = Instant::now();
        let round_end = Instant::now();
        let round = Some(r as u32);
        let root = tracer.record("round", pass, round, None, round_start, round_end, 1);
        tracer.record(
            "engine.commit",
            pass,
            round,
            Some(root),
            commit_start,
            commit_end,
            c.dirty,
        );
        tracer.record(layer, pass, round, Some(root), layer_start, layer_end, 1);

        if let Router::Compact(router) = &mut router {
            let mix = &inputs.reads[r];
            let before = router.cache_stats();
            let start = Instant::now();
            for &(u, v) in &mix.uniform {
                black_box(router.next_hop(u, v));
            }
            for &(u, v) in &mix.exact {
                black_box(router.exact_next_hop(&engine, u, v));
            }
            let end = Instant::now();
            let after = router.cache_stats();
            c.cache_hits = after.hits - before.hits;
            c.cache_misses = after.misses - before.misses;
            let issued = (mix.uniform.len() + mix.exact.len()) as u64;
            tracer.record("compact.query", pass, round, None, start, end, issued);
        }
        out.add_round(&c, r >= spec.warmup, Handlers::default());
    }
    out.counters.spanner_edges = engine.spanner_len() as u64;
    if let Router::Compact(router) = &router {
        out.counters.state_bytes = router.state_bytes() as u64;
    }
    out
}

fn async_pass(spec: &Spec, inputs: &Inputs, pass: u32, tracer: &mut Tracer) -> TracedPass {
    let tree_algo = ALGO.tree_algo().expect("incremental construction");
    let clock = Rc::new(HandlerClock::default());
    let handed: Rc<Cell<Option<Instant>>> = Rc::default();
    let cfg = AsyncChurnConfig {
        sim: sim_config(inputs),
        churn_interval: CHURN_INTERVAL,
        rounds: 0,
        ..AsyncChurnConfig::default()
    };
    let setup_start = Instant::now();
    let mut engine = RspanEngine::new(inputs.graph.clone(), tree_algo);
    let engine_built = Instant::now();
    let radius = engine.dirty_radius();
    let mut driver = RepairChurnDriver::with_nodes(&engine, cfg, |_| TimedNode {
        inner: RepairNode::new(radius),
        clock: clock.clone(),
    });
    let setup_end = Instant::now();
    let setup = tracer.record("setup", pass, None, None, setup_start, setup_end, 0);
    tracer.record(
        "engine.init",
        pass,
        None,
        Some(setup),
        setup_start,
        engine_built,
        0,
    );
    tracer.record(
        "asim.init",
        pass,
        None,
        Some(setup),
        engine_built,
        setup_end,
        0,
    );
    clock.take();

    let mut replay = Replay::timed(inputs.batches.clone(), handed.clone());
    let mut out = TracedPass::default();
    let mut seen = SimSeen::default();
    let rounds = inputs.batches.len();
    for r in 0..rounds {
        let round = Some(r as u32);
        let round_start = Instant::now();
        let drain_start = Instant::now();
        driver.begin_round();
        let drained = Instant::now();
        let handlers = clock.take();
        let mut c = seen.delta(driver.stats());
        let commit_start = Instant::now();
        let committed = driver.commit_round(&mut engine, &mut replay);
        let commit_end = Instant::now();
        c.changes = committed.batch.len() as u64;
        c.dirty = committed.report.dirty as u64;
        c.flips = committed.report.spanner_flips as u64;
        let round_end = Instant::now();

        let root = tracer.record("round", pass, round, None, round_start, round_end, 1);
        record_drain(tracer, root, drain_start, drained, c.events, handlers);
        let commit = tracer.record(
            "asim.commit_round",
            pass,
            round,
            Some(root),
            commit_start,
            commit_end,
            1,
        );
        let engine_start = handed.take().expect("commit_round draws one batch");
        let engine_end = clock.first_arm.take().unwrap_or(commit_end);
        tracer.record(
            "engine.commit",
            pass,
            round,
            Some(commit),
            engine_start,
            engine_end,
            c.dirty,
        );
        let (_, _, _, fire_ns, fire_calls) = clock.take();
        tracer.aggregate("protocol.other", commit, fire_ns, fire_calls);
        out.add_round(&c, r >= spec.warmup, handlers);
    }
    // The tail: the last round's window and the final drain.
    let tail_start = Instant::now();
    let drain_start = Instant::now();
    let (run, _nodes) = driver.finish_with_nodes();
    let drained = Instant::now();
    let handlers = clock.take();
    let mut c = seen.delta(&run.stats);
    c.converged = run.converged_rounds() as u64;
    c.convergence_ticks = run
        .rounds
        .iter()
        .filter_map(|r| r.convergence_ticks())
        .sum();
    let tail_end = Instant::now();
    let root = tracer.record(
        "round",
        pass,
        Some(rounds as u32),
        None,
        tail_start,
        tail_end,
        1,
    );
    record_drain(tracer, root, drain_start, drained, c.events, handlers);
    out.add_round(&c, true, handlers);
    out.counters.spanner_edges = engine.spanner_len() as u64;
    out
}
