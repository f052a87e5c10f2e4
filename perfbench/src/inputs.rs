//! Workload definitions and the seeded inputs each pass receives: a
//! unit-disk graph with average degree 12, the pass's churn batches (drawn
//! over a mirror of the topology before the pass starts) and, for
//! `route_local`, its per-round read mix.
//!
//! Every pass draws a graph and churn of its own from the run's seed, so a
//! run samples more graphs and distinct rounds the longer it measures: the
//! round-time percentiles of one graph depend on the graph, and pooling
//! several narrows their spread from seed to seed. Pass 0 is the same in every
//! run of a seed; the deterministic figures come from it.

use rspan_engine::{ChurnScenario, LinkFlapScenario, MobilityScenario, TopologyChange};
use rspan_graph::generators::udg::udg_with_density;
use rspan_graph::{CsrGraph, DynamicGraph, Node};
use rspan_session::SpannerAlgo;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Every workload maintains the paper's 2-connecting remote-spanner.
pub const ALGO: SpannerAlgo = SpannerAlgo::KConnecting { k: 2 };
/// Average degree of the generated unit-disk graphs.
pub const AVG_DEGREE: f64 = 12.0;
/// Virtual ticks between churn commits on the async timeline.
pub const CHURN_INTERVAL: u64 = 16;
/// Measured-stretch ceiling `route_local` asserts at p99.
pub const STRETCH_BOUND: f64 = 4.0;

/// Pass 0 draws its graph from `seed`, churn from `seed + 4` and the event
/// simulator from `seed + 9`, the offsets the repository's other benchmark
/// harnesses use.
const SCENARIO_SEED_OFFSET: u64 = 4;
const SIM_SEED_OFFSET: u64 = 9;
const QUERY_SEED_XOR: u64 = 0x51EE_D0F0_0D15_EA5E;
/// Stride between the seeds of successive passes.
const PASS_SEED_STRIDE: u64 = 7919;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    RouteDense,
    RouteLocal,
    FloodSync,
    FloodAsync,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::RouteDense,
        Kind::RouteLocal,
        Kind::FloodSync,
        Kind::FloodAsync,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::RouteDense => "route_dense",
            Kind::RouteLocal => "route_local",
            Kind::FloodSync => "flood_sync",
            Kind::FloodAsync => "flood_async",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The size of one workload. A pass builds a session and drives `rounds`
/// churn rounds; the first `warmup` rounds of every pass are not timed.
#[derive(Clone, Debug)]
pub struct Spec {
    pub kind: Kind,
    pub n: usize,
    pub rounds: usize,
    pub warmup: usize,
    /// Commit worker threads of the sync workloads (0 = available
    /// parallelism); the async scheduler always commits sequentially.
    pub threads: usize,
    /// `route_local`: uniform compact `next_hop` reads per round.
    pub uniform_reads: usize,
    /// `route_local`: exact `exact_next_hop` reads per round, between nodes
    /// of the hot set.
    pub exact_reads: usize,
    /// `route_local`: size of the hot node set.
    pub hot: usize,
    /// `route_local`: sources whose exact rows are checked against BFS.
    pub check_sources: usize,
    /// `route_local`: pairs sampled for the stretch check.
    pub stretch_samples: usize,
}

impl Spec {
    /// The benchmarked sizes.
    pub fn full(kind: Kind) -> Spec {
        let base = Spec {
            kind,
            n: 0,
            rounds: 0,
            warmup: 0,
            threads: 0,
            uniform_reads: 0,
            exact_reads: 0,
            hot: 0,
            check_sources: 0,
            stretch_samples: 0,
        };
        match kind {
            Kind::RouteDense => Spec {
                n: 1000,
                rounds: 100,
                warmup: 5,
                ..base
            },
            Kind::RouteLocal => Spec {
                n: 2000,
                rounds: 100,
                warmup: 5,
                uniform_reads: 20480,
                exact_reads: 64,
                hot: 16,
                check_sources: 12,
                stretch_samples: 300,
                ..base
            },
            // Sequential commits: on two shared vCPUs a two-worker commit
            // waits for the slower core every round, which doubled the
            // run-to-run spread of this commit-heavy workload and made it
            // slower.
            Kind::FloodSync => Spec {
                n: 8000,
                rounds: 60,
                warmup: 4,
                threads: 1,
                ..base
            },
            Kind::FloodAsync => Spec {
                n: 2000,
                rounds: 60,
                warmup: 4,
                ..base
            },
        }
    }

    /// Small sizes for the smoke test.
    #[cfg(test)]
    pub fn tiny(kind: Kind) -> Spec {
        let full = Spec::full(kind);
        Spec {
            n: 300,
            rounds: 6,
            warmup: 1,
            uniform_reads: full.uniform_reads.min(64),
            exact_reads: full.exact_reads.min(16),
            hot: full.hot.min(6),
            check_sources: full.check_sources.min(4),
            stretch_samples: full.stretch_samples.min(40),
            ..full
        }
    }

    /// Link flips (`LinkFlapScenario` Poisson mean) or movers per round.
    fn churn_per_round(&self) -> f64 {
        match self.kind {
            Kind::RouteDense | Kind::RouteLocal => 4.0,
            Kind::FloodSync => (self.n as f64 / 200.0).max(1.0),
            Kind::FloodAsync => (self.n / 100).max(1) as f64,
        }
    }
}

/// One round's reads for `route_local`.
#[derive(Clone, Debug, Default)]
pub struct Reads {
    pub uniform: Vec<(Node, Node)>,
    pub exact: Vec<(Node, Node)>,
}

/// Everything one pass feeds the program.
pub struct Inputs {
    pub graph: CsrGraph,
    pub batches: Rc<Vec<Vec<TopologyChange>>>,
    pub reads: Vec<Reads>,
    pub sim_seed: u64,
    pub seed: u64,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64, pass: u64) -> Inputs {
        let pass_seed = seed + pass * PASS_SEED_STRIDE;
        let inst = udg_with_density(spec.n, AVG_DEGREE, pass_seed);
        let scenario_seed = pass_seed + SCENARIO_SEED_OFFSET;
        let mut scenario: Box<dyn ChurnScenario> = match spec.kind {
            Kind::FloodAsync => Box::new(MobilityScenario::from_udg(
                &inst,
                spec.churn_per_round() as usize,
                inst.radius * 0.25,
                scenario_seed,
            )),
            _ => Box::new(LinkFlapScenario::new(
                &inst.graph,
                spec.churn_per_round(),
                scenario_seed,
            )),
        };
        let mut mirror = DynamicGraph::new(inst.graph.clone());
        let batches: Vec<Vec<TopologyChange>> = (0..spec.rounds)
            .map(|_| {
                let batch = scenario.next_batch(&mirror);
                for change in &batch {
                    change.apply_to(&mut mirror);
                }
                batch
            })
            .collect();
        let reads = if spec.kind == Kind::RouteLocal {
            read_mix(spec, pass_seed ^ QUERY_SEED_XOR)
        } else {
            Vec::new()
        };
        Inputs {
            graph: inst.graph,
            batches: Rc::new(batches),
            reads,
            sim_seed: pass_seed + SIM_SEED_OFFSET,
            seed: pass_seed,
        }
    }
}

/// SplitMix64: the benchmark's own stream for read pairs.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> Node {
        (self.next() % n as u64) as Node
    }

    /// A pair of distinct nodes drawn from `0..n`.
    fn pair(&mut self, n: usize) -> (Node, Node) {
        loop {
            let (u, v) = (self.below(n), self.below(n));
            if u != v {
                return (u, v);
            }
        }
    }
}

fn read_mix(spec: &Spec, seed: u64) -> Vec<Reads> {
    let mut rng = SplitMix::new(seed);
    let hot: Vec<Node> = (0..spec.hot).map(|_| rng.below(spec.n)).collect();
    (0..spec.rounds)
        .map(|_| Reads {
            uniform: (0..spec.uniform_reads).map(|_| rng.pair(spec.n)).collect(),
            exact: (0..spec.exact_reads)
                .map(|_| {
                    let (i, j) = rng.pair(hot.len());
                    (hot[i as usize], hot[j as usize])
                })
                .collect(),
        })
        .collect()
}

/// Replays a pass's pre-drawn batches to the async scheduler, which draws
/// its batches itself. The optional clock records when each batch is handed
/// over, i.e. when the engine commit inside `commit_round` starts.
pub struct Replay {
    batches: Rc<Vec<Vec<TopologyChange>>>,
    next: usize,
    handed: Option<Rc<Cell<Option<Instant>>>>,
}

impl Replay {
    pub fn new(batches: Rc<Vec<Vec<TopologyChange>>>) -> Self {
        Replay {
            batches,
            next: 0,
            handed: None,
        }
    }

    pub fn timed(batches: Rc<Vec<Vec<TopologyChange>>>, handed: Rc<Cell<Option<Instant>>>) -> Self {
        Replay {
            batches,
            next: 0,
            handed: Some(handed),
        }
    }
}

impl ChurnScenario for Replay {
    fn label(&self) -> &str {
        "replay"
    }

    fn next_batch(&mut self, _graph: &DynamicGraph) -> Vec<TopologyChange> {
        let batch = self.batches[self.next].clone();
        self.next += 1;
        if let Some(handed) = &self.handed {
            handed.set(Some(Instant::now()));
        }
        batch
    }
}
