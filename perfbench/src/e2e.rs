//! The end-to-end run: the pipeline as a user drives it, through the
//! `rspan-session` façade with telemetry and observation off, in a closed
//! loop (the next batch is committed only after the previous round ends).

use crate::checks::{self, Check};
use crate::counters::Counters;
use crate::inputs::{Inputs, Kind, Replay, Spec, ALGO, CHURN_INTERVAL};
use rspan_asim::{AsimConfig, LatencyModel};
use rspan_session::{LocalConfig, Repair, Scheduler, Session};
use std::hint::black_box;
use std::time::Instant;

/// The async simulator's link model: uniform latency of 1 to 4 ticks.
pub fn sim_config(inputs: &Inputs) -> AsimConfig {
    AsimConfig {
        seed: inputs.sim_seed,
        latency: LatencyModel::Uniform { lo: 1, hi: 4 },
        ..AsimConfig::default()
    }
}

/// Builds the workload's session; returns it with its build time in seconds.
pub fn build(spec: &Spec, inputs: &Inputs) -> (Session, f64) {
    let builder = Session::builder(inputs.graph.clone()).algo(ALGO);
    let builder = match spec.kind {
        Kind::RouteDense => builder.routing(Repair::Delta).threads(spec.threads),
        Kind::RouteLocal => builder
            .routing(Repair::Local(LocalConfig::default()))
            .threads(spec.threads),
        Kind::FloodSync => builder.flood(true).threads(spec.threads),
        Kind::FloodAsync => builder
            .churn(Replay::new(inputs.batches.clone()))
            .scheduler(Scheduler::Async(sim_config(inputs)))
            .churn_interval(CHURN_INTERVAL),
    };
    let start = Instant::now();
    let session = builder
        .build()
        .expect("the workload configuration is valid");
    (session, start.elapsed().as_secs_f64())
}

/// What one pass measured.
#[derive(Default)]
pub struct Pass {
    pub setup_s: f64,
    /// Wall time of each timed round, in milliseconds.
    pub round_ms: Vec<f64>,
    /// Changes committed in the timed rounds.
    pub timed_changes: u64,
    /// Reads issued after the timed rounds, and their total time.
    pub reads: u64,
    pub read_s: f64,
    /// Rounds that failed: unconverged async rounds, or every round of a
    /// pass whose output checks failed.
    pub failed: usize,
    pub counters: Counters,
    pub checks: Vec<Check>,
    /// `route_local` and `flood_async` figures; 0 on other workloads.
    pub stretch_p99: f64,
    pub state_bytes_per_node: f64,
    pub convergence_ticks_mean: f64,
    /// `VmHWM` before the checks ran, when read.
    pub peak_rss_mb: f64,
}

/// Issues round `r`'s `route_local` reads; returns how many.
fn reads(session: &mut Session, inputs: &Inputs, r: usize) -> u64 {
    let mix = &inputs.reads[r];
    let router = session
        .local_router()
        .expect("route_local configures Repair::Local");
    for &(u, v) in &mix.uniform {
        black_box(router.next_hop(u, v));
    }
    for &(u, v) in &mix.exact {
        black_box(session.exact_next_hop(u, v));
    }
    (mix.uniform.len() + mix.exact.len()) as u64
}

/// Builds a session, drives one pass of `spec.rounds` rounds, then runs the
/// output checks; with `read_rss`, reads the peak RSS before the checks.
pub fn pass(spec: &Spec, inputs: &Inputs, read_rss: bool) -> Pass {
    let (mut session, setup_s) = build(spec, inputs);
    let mut out = Pass {
        setup_s,
        peak_rss_mb: f64::NAN,
        ..Pass::default()
    };
    for (r, batch) in inputs.batches.iter().enumerate() {
        let start = Instant::now();
        if spec.kind == Kind::FloodAsync {
            session.step().expect("the session owns a scenario");
        } else {
            session.commit(batch).expect("sync sessions take batches");
        }
        let round_s = start.elapsed().as_secs_f64();
        let timed = r >= spec.warmup;
        if timed {
            out.round_ms.push(round_s * 1e3);
            out.timed_changes += batch.len() as u64;
        }
        if spec.kind == Kind::RouteLocal {
            let start = Instant::now();
            let issued = reads(&mut session, inputs, r);
            if timed {
                out.read_s += start.elapsed().as_secs_f64();
                out.reads += issued;
            }
        }
    }
    if read_rss {
        out.peak_rss_mb = crate::stats::peak_rss_mb();
    }
    out.checks.push(checks::spanner(session.engine()));
    let metrics = session.metrics();
    let c = &mut out.counters;
    c.changes = metrics.batch_changes as u64;
    c.dirty = metrics.dirty_total as u64;
    c.flips = metrics.spanner_flips as u64;
    c.spanner_edges = metrics.spanner_edges as u64;
    if let Some(repair) = &metrics.repair {
        c.rows_recomputed = repair.rows_recomputed as u64;
    }
    if let Some(local) = &metrics.local {
        c.ball_rows = local.ball_rows_repaired as u64;
        c.landmark_trees = local.landmark_trees_rebuilt as u64;
        c.cache_hits = local.cache_hits;
        c.cache_misses = local.cache_misses;
        c.state_bytes = local.state_bytes as u64;
        out.state_bytes_per_node = local.state_bytes_per_node;
    }
    if let Some(flood) = &metrics.flood {
        c.messages = flood.messages;
        c.flood_rounds = flood.rounds;
    }
    match spec.kind {
        Kind::RouteDense => out.checks.push(checks::dense_tables(&session)),
        Kind::RouteLocal => {
            out.checks.push(checks::exact_hops(
                &mut session,
                spec.check_sources,
                inputs.seed,
            ));
            let (check, p99) = checks::stretch(&mut session, spec.stretch_samples, inputs.seed);
            out.checks.push(check);
            out.stretch_p99 = p99;
        }
        _ => {}
    }
    if spec.kind == Kind::FloodAsync {
        let metrics = session.finish();
        let asim = metrics.asim.expect("async session");
        let s = &asim.stats;
        c.events = s.events;
        c.transmissions = s.transmissions;
        c.delivered = s.delivered;
        c.bytes = s.bytes_sent;
        c.converged = asim.converged_rounds() as u64;
        c.convergence_ticks = asim
            .rounds
            .iter()
            .filter_map(|r| r.convergence_ticks())
            .sum();
        out.convergence_ticks_mean = asim.mean_convergence_ticks();
        out.failed = asim.rounds.len() - asim.converged_rounds();
        out.checks.push(Check {
            name: "async_run_drained",
            failure: (asim.drained != Some(true))
                .then(|| "events left after the event budget".to_string()),
        });
    }
    if out.checks.iter().any(|c| c.failure.is_some()) {
        out.failed = spec.rounds;
    }
    out
}
