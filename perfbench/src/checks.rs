//! Output checks, run once per pass outside the timed rounds. Each compares
//! the program's final state with a reference computed from scratch.

use crate::inputs::{SplitMix, STRETCH_BOUND};
use rspan_core::rem_span_algo;
use rspan_distributed::RoutingTables;
use rspan_engine::RspanEngine;
use rspan_graph::{CsrGraph, Node};
use rspan_session::Session;

/// Outcome of one check: its name and what went wrong, if anything.
pub struct Check {
    pub name: &'static str,
    pub failure: Option<String>,
}

impl Check {
    fn new(name: &'static str, failure: Option<String>) -> Check {
        Check { name, failure }
    }
}

/// The maintained spanner equals `rem_span_algo` on the final topology.
pub fn spanner(engine: &RspanEngine) -> Check {
    let csr = engine.to_csr();
    let full = rem_span_algo(&csr, engine.algo());
    let ok = engine.spanner_on(&csr).edge_set() == full.edge_set();
    Check::new(
        "spanner_equals_full_recompute",
        (!ok).then(|| format!("{} maintained edges differ", engine.spanner_len())),
    )
}

/// The repaired next-hop tables equal a from-scratch `RoutingTables::build`.
pub fn dense_tables(session: &Session) -> Check {
    let csr = session.to_csr();
    let full = RoutingTables::build(&session.spanner_on(&csr));
    let ok = session.tables() == Some(&full);
    Check::new(
        "tables_equal_full_build",
        (!ok).then(|| "repaired tables differ from the full build".to_string()),
    )
}

/// Breadth-first distances from `src` over `H_u`: the spanner plus every
/// link of `u` (the graph a node routes on in the paper's model).
fn bfs_h_u(
    spanner: &[Vec<Node>],
    graph: &CsrGraph,
    u: Node,
    src: Node,
    dist: &mut Vec<u32>,
    queue: &mut Vec<Node>,
) {
    dist.clear();
    dist.resize(spanner.len(), u32::MAX);
    queue.clear();
    dist[src as usize] = 0;
    queue.push(src);
    let mut head = 0;
    while head < queue.len() {
        let x = queue[head];
        head += 1;
        let d = dist[x as usize] + 1;
        let mut visit = |y: Node| {
            if dist[y as usize] == u32::MAX {
                dist[y as usize] = d;
                queue.push(y);
            }
        };
        spanner[x as usize].iter().copied().for_each(&mut visit);
        if x == u {
            graph.neighbors(u).iter().copied().for_each(&mut visit);
        } else if graph.neighbors(x).binary_search(&u).is_ok() {
            visit(u);
        }
    }
}

/// For `sources` sampled from the seed, every exact next hop the compact
/// router's row cache answers is the smallest first hop over all shortest
/// `u → v` paths in `H_u`, computed here by breadth-first search.
pub fn exact_hops(session: &mut Session, sources: usize, seed: u64) -> Check {
    let engine = session.engine();
    let csr = engine.to_csr();
    let n = csr.n();
    let mut spanner: Vec<Vec<Node>> = vec![Vec::new(); n];
    for (a, b) in engine.spanner_pairs() {
        spanner[a as usize].push(b);
        spanner[b as usize].push(a);
    }
    let mut rng = SplitMix::new(seed ^ 0xC4EC_0000_0000_0001);
    let (mut du, mut dw, mut queue) = (Vec::new(), Vec::new(), Vec::new());
    let mut expected = vec![u32::MAX; n];
    for _ in 0..sources {
        let u = rng.below(n);
        bfs_h_u(&spanner, &csr, u, u, &mut du, &mut queue);
        expected.fill(u32::MAX);
        for &w in csr.neighbors(u) {
            bfs_h_u(&spanner, &csr, u, w, &mut dw, &mut queue);
            for v in 0..n {
                if v != u as usize && du[v] != u32::MAX && dw[v] != u32::MAX && dw[v] + 1 == du[v] {
                    expected[v] = expected[v].min(w);
                }
            }
        }
        for v in 0..n as Node {
            let want = (v != u && expected[v as usize] != u32::MAX).then(|| expected[v as usize]);
            let got = session.exact_next_hop(u, v);
            if got != want {
                return Check::new(
                    "exact_next_hop_equals_bfs",
                    Some(format!("({u}, {v}): router {got:?}, bfs {want:?}")),
                );
            }
        }
    }
    Check::new("exact_next_hop_equals_bfs", None)
}

/// Measured compact-forwarding stretch against true graph distances stays
/// within [`STRETCH_BOUND`] at p99; returns the check and the p99.
pub fn stretch(session: &mut Session, samples: usize, seed: u64) -> (Check, f64) {
    let taken = session.sample_local_stretch(samples, seed ^ 0x57E7);
    let p99 = session
        .metrics()
        .local
        .map_or(f64::NAN, |local| local.stretch_p99);
    let failure = if taken == 0 {
        Some("no connected pair sampled".to_string())
    } else if p99.is_nan() || p99 > STRETCH_BOUND {
        Some(format!("stretch p99 {p99} above {STRETCH_BOUND}"))
    } else {
        None
    };
    (Check::new("stretch_p99_within_bound", failure), p99)
}
