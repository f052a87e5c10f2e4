//! Benchmark of the remote-spanner churn pipeline: engine commit → router
//! repair → repair flood, under four churn workloads.
//!
//! ```text
//! rspan-perfbench --workload <route_dense|route_local|flood_sync|flood_async>
//!                 [--seed N] [--seconds S] [--trace 0|1] [--spans-out PATH]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the `rspan-session`
//! façade. `--trace 1` alternates that run with a traced run that calls each
//! layer directly and records spans around the calls, then reports the
//! per-layer metrics and writes the spans to `--spans-out`. Either way the
//! program's outputs are checked, and the last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. A failed check
//! makes the exit code 1.

mod checks;
mod counters;
mod e2e;
mod inputs;
mod stats;
mod traced;

use inputs::{Inputs, Kind, Spec};
use stats::{median, percentile, ratio};
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics (`--trace 0`), every one emitted on every workload.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("round_ms_p50", "ms"),
    ("round_ms_p90", "ms"),
    ("changes_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("spanner_edges_per_node", "edges/node"),
];

/// Per-layer metrics (`--trace 1`), every one emitted on every workload; a
/// layer the workload does not run reports 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("engine.init_ms", "ms"),
    ("engine.commit_ms", "ms"),
    ("engine.dirty_nodes", "count"),
    ("engine.spanner_flips", "count"),
    ("delta.init_ms", "ms"),
    ("delta.apply_ms", "ms"),
    ("delta.rows_recomputed", "count"),
    ("compact.init_ms", "ms"),
    ("compact.apply_ms", "ms"),
    ("compact.ball_rows", "count"),
    ("compact.landmark_trees", "count"),
    ("compact.query_ms", "ms"),
    ("compact.cache_hit_ratio", "ratio"),
    ("compact.queries_per_s", "1/s"),
    ("compact.stretch_p99", "ratio"),
    ("compact.state_bytes_per_node", "B/node"),
    ("sim.flood_ms", "ms"),
    ("sim.messages", "count"),
    ("sim.rounds", "count"),
    ("sim.msgs_per_change", "count"),
    ("asim.init_ms", "ms"),
    ("asim.drain_ms", "ms"),
    ("asim.commit_round_ms", "ms"),
    ("asim.commit_self_ms", "ms"),
    ("asim.self_ms", "ms"),
    ("asim.events", "count"),
    ("asim.ns_per_event", "ns"),
    ("asim.msgs_per_change", "count"),
    ("asim.bytes_per_change", "B"),
    ("asim.convergence_ticks_mean", "ticks"),
    ("protocol.on_message_ms", "ms"),
    ("protocol.on_message_calls", "count"),
    ("protocol.useful_ratio", "ratio"),
    ("session.unattributed_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Passes continue until the run has measured `--seconds`, and at least
/// this many run, so that set-up time is a median of several builds.
const MIN_PASSES: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace, mut spans_out) = (None, 3, 10.0, false, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--spans-out" => spans_out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        spans_out,
    })
}

/// One run's result: the final JSON line's fields.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Fills `names` from `values`; a missing or non-finite value is an error.
fn collect(
    names: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
    problems: &mut Vec<String>,
) -> Vec<(&'static str, &'static str, f64)> {
    names
        .iter()
        .map(|&(name, unit)| {
            let v = values.get(name).copied().unwrap_or(f64::NAN);
            if !v.is_finite() {
                problems.push(format!("metric {name} was not measured"));
            }
            (name, unit, if v.is_finite() { v } else { 0.0 })
        })
        .collect()
}

/// Whether the pass loop should stop after `passes` passes.
fn done(start: Instant, seconds: f64, passes: usize) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    (elapsed >= seconds && passes >= MIN_PASSES) || elapsed >= 6.0 * seconds.max(1.0)
}

/// The run's result from its session passes. Rounds fail per pass (see
/// `e2e::Pass::failed`); any other problem fails every round.
fn outcome(
    spec: &Spec,
    passes: &[e2e::Pass],
    mut problems: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
) -> Outcome {
    let attempted = passes.len() * spec.rounds;
    let mut failed: usize = passes.iter().map(|p| p.failed).sum();
    if !problems.is_empty() {
        failed = attempted;
    }
    for c in passes.iter().flat_map(|p| &p.checks) {
        if let Some(why) = &c.failure {
            problems.push(format!("check {} failed: {why}", c.name));
        }
    }
    for p in &problems {
        eprintln!("error: {p}");
    }
    println!(
        "# round_fail_rate = {} ({failed} of {attempted} rounds)",
        ratio(failed as f64, attempted as f64)
    );
    Outcome {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
    }
}

/// The end-to-end run.
pub fn run_e2e(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let start = Instant::now();
    let mut passes: Vec<e2e::Pass> = Vec::new();
    while !done(start, seconds, passes.len()) {
        let inputs = Inputs::generate(spec, seed, passes.len() as u64);
        passes.push(e2e::pass(spec, &inputs, passes.is_empty()));
    }
    for (k, p) in passes.iter().enumerate() {
        println!(
            "# pass {k}: setup {:.4} s, round p50 {:.4} ms, p90 {:.4} ms",
            p.setup_s,
            percentile(&p.round_ms, 0.5),
            percentile(&p.round_ms, 0.9)
        );
    }
    let mut problems = Vec::new();
    // Deterministic figures come from pass 0, the same in every run.
    let first = &passes[0];
    let setup: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let rounds: Vec<f64> = passes.iter().flat_map(|p| p.round_ms.clone()).collect();
    let round_s: f64 = rounds.iter().sum::<f64>() / 1e3;
    let changes: u64 = passes.iter().map(|p| p.timed_changes).sum();
    let c = &first.counters;
    let mut values = BTreeMap::new();
    values.insert("setup_s", median(&setup));
    values.insert("round_ms_p50", percentile(&rounds, 0.5));
    values.insert("round_ms_p90", percentile(&rounds, 0.9));
    values.insert("changes_per_s", ratio(changes as f64, round_s));
    values.insert("peak_rss_mb", first.peak_rss_mb);
    values.insert(
        "spanner_edges_per_node",
        c.spanner_edges as f64 / spec.n as f64,
    );
    let metrics = collect(&END_TO_END, &values, &mut problems);

    // Workload-specific figures: printed, not part of the gated set.
    let reads: u64 = passes.iter().map(|p| p.reads).sum();
    let read_s: f64 = passes.iter().map(|p| p.read_s).sum();
    let extra: Vec<(&str, f64, &str)> = match spec.kind {
        Kind::RouteDense => vec![],
        Kind::RouteLocal => vec![
            ("queries_per_s", ratio(reads as f64, read_s), "1/s"),
            ("stretch_p99", first.stretch_p99, "ratio"),
            ("state_bytes_per_node", first.state_bytes_per_node, "B/node"),
        ],
        Kind::FloodSync => vec![(
            "msgs_per_change",
            ratio(c.messages as f64, c.changes as f64),
            "count",
        )],
        Kind::FloodAsync => vec![
            (
                "msgs_per_change",
                ratio(c.transmissions as f64, c.changes as f64),
                "count",
            ),
            (
                "bytes_per_change",
                ratio(c.bytes as f64, c.changes as f64),
                "B",
            ),
            (
                "convergence_ticks_mean",
                first.convergence_ticks_mean,
                "ticks",
            ),
        ],
    };
    println!(
        "# {} passes of {} timed rounds, {} round samples",
        passes.len(),
        spec.rounds - spec.warmup,
        rounds.len()
    );
    for (name, v, unit) in extra {
        println!("# {name} = {v} {unit}");
    }
    outcome(spec, &passes, problems, metrics)
}

/// The traced run, alternating with untraced session passes: per-layer
/// metrics, tracing overhead, and the traced-vs-session counter equality.
pub fn run_traced(spec: &Spec, seed: u64, seconds: f64) -> (Outcome, traced::Tracer) {
    let start = Instant::now();
    let mut tracer = traced::Tracer::new();
    let mut passes: Vec<e2e::Pass> = Vec::new();
    let mut traced_passes: Vec<traced::TracedPass> = Vec::new();
    while !done(start, seconds, passes.len()) {
        let k = passes.len();
        let inputs = Inputs::generate(spec, seed, k as u64);
        passes.push(e2e::pass(spec, &inputs, false));
        traced_passes.push(traced::pass(spec, &inputs, k as u32, &mut tracer));
    }
    let mut problems = Vec::new();
    for (k, (p, t)) in passes.iter().zip(&traced_passes).enumerate() {
        if t.counters != p.counters {
            problems.push(format!(
                "pass {k}: traced counters {:?} differ from the session run's {:?}",
                t.counters, p.counters
            ));
        }
    }

    let timed_rounds = ((spec.rounds - spec.warmup) * traced_passes.len()) as f64;
    let warmup = spec.warmup as u32;
    let totals = tracer.totals(|s| s.round.is_some_and(|r| r >= warmup));
    let per_round = |name: &str, self_time: bool| {
        totals.get(name).map_or(0.0, |t| {
            (if self_time { t.self_ns } else { t.total_ns }) as f64 / 1e6 / timed_rounds
        })
    };
    let init_ms = |name: &str| {
        let v: Vec<f64> = tracer
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    // Work counts come from pass 0, the same in every run; times from all.
    let pass0 = &traced_passes[0];
    let timed = &pass0.timed;
    let events: u64 = traced_passes.iter().map(|t| t.timed.events).sum();
    let traced_rounds: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|s| {
            s.name == "round"
                && s.round
                    .is_some_and(|r| r >= warmup && (r as usize) < spec.rounds)
        })
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    let untraced_rounds: Vec<f64> = passes.iter().flat_map(|p| p.round_ms.clone()).collect();
    let query = totals.get("compact.query").copied().unwrap_or_default();
    let drain_ns = totals.get("asim.drain").map_or(0, |t| t.total_ns);
    let per = |v: u64| v as f64 / (spec.rounds - spec.warmup) as f64;
    let first = &passes[0];

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    v.insert("engine.init_ms", init_ms("engine.init"));
    v.insert("engine.commit_ms", per_round("engine.commit", false));
    v.insert("engine.dirty_nodes", per(timed.dirty));
    v.insert("engine.spanner_flips", per(timed.flips));
    v.insert("delta.init_ms", init_ms("delta.init"));
    v.insert("delta.apply_ms", per_round("delta.apply", false));
    v.insert("delta.rows_recomputed", per(timed.rows_recomputed));
    v.insert("compact.init_ms", init_ms("compact.init"));
    v.insert("compact.apply_ms", per_round("compact.apply", false));
    v.insert("compact.ball_rows", per(timed.ball_rows));
    v.insert("compact.landmark_trees", per(timed.landmark_trees));
    v.insert("compact.query_ms", per_round("compact.query", false));
    v.insert(
        "compact.cache_hit_ratio",
        ratio(
            timed.cache_hits as f64,
            (timed.cache_hits + timed.cache_misses) as f64,
        ),
    );
    v.insert(
        "compact.queries_per_s",
        ratio(query.calls as f64, query.total_ns as f64 / 1e9),
    );
    v.insert("compact.stretch_p99", first.stretch_p99);
    v.insert("compact.state_bytes_per_node", first.state_bytes_per_node);
    v.insert("sim.flood_ms", per_round("sim.flood", false));
    v.insert("sim.messages", per(timed.messages));
    v.insert("sim.rounds", per(timed.flood_rounds));
    v.insert(
        "sim.msgs_per_change",
        ratio(timed.messages as f64, timed.changes as f64),
    );
    v.insert("asim.init_ms", init_ms("asim.init"));
    v.insert("asim.drain_ms", per_round("asim.drain", false));
    v.insert(
        "asim.commit_round_ms",
        per_round("asim.commit_round", false),
    );
    v.insert("asim.commit_self_ms", per_round("asim.commit_round", true));
    v.insert("asim.self_ms", per_round("asim.drain", true));
    v.insert("asim.events", per(timed.events));
    v.insert("asim.ns_per_event", ratio(drain_ns as f64, events as f64));
    v.insert(
        "asim.msgs_per_change",
        ratio(timed.transmissions as f64, timed.changes as f64),
    );
    v.insert(
        "asim.bytes_per_change",
        ratio(timed.bytes as f64, timed.changes as f64),
    );
    v.insert("asim.convergence_ticks_mean", first.convergence_ticks_mean);
    v.insert(
        "protocol.on_message_ms",
        per_round("protocol.on_message", false),
    );
    v.insert("protocol.on_message_calls", per(pass0.on_message_calls));
    v.insert(
        "protocol.useful_ratio",
        ratio(pass0.useful as f64, pass0.on_message_calls as f64),
    );
    v.insert("session.unattributed_ms", per_round("round", true));
    v.insert(
        "trace.overhead_ratio",
        ratio(median(&traced_rounds), median(&untraced_rounds)),
    );
    let metrics = collect(&PER_LAYER, &v, &mut problems);

    println!(
        "# {} traced passes, {} untraced passes, {} traced round samples",
        traced_passes.len(),
        passes.len(),
        traced_rounds.len()
    );
    let round_ms: f64 = traced_rounds.iter().sum::<f64>() / traced_rounds.len().max(1) as f64;
    println!("# traced round mean = {round_ms} ms; layer self times per round:");
    for (name, t) in &totals {
        println!(
            "#   {name:<22} total {:>10.4} ms  self {:>10.4} ms",
            t.total_ns as f64 / 1e6 / timed_rounds,
            t.self_ns as f64 / 1e6 / timed_rounds
        );
    }
    (outcome(spec, &passes, problems, metrics), tracer)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let spec = Spec::full(args.kind);
    let threads = match spec.kind {
        Kind::FloodAsync => 1,
        _ => rspan_graph::resolve_threads(spec.threads),
    };
    println!(
        "# workload {} seed {} n {} rounds/pass {} (warm-up {}); commits on {threads} thread(s)",
        spec.kind.name(),
        args.seed,
        spec.n,
        spec.rounds,
        spec.warmup,
    );
    let outcome = if args.trace {
        let (outcome, tracer) = run_traced(&spec, args.seed, args.seconds);
        if let Some(path) = &args.spans_out {
            let header = format!(
                "{{\"workload\":\"{}\",\"seed\":{},\"n\":{},\"threads\":{threads}}}\n",
                spec.kind.name(),
                args.seed,
                spec.n
            );
            if let Err(e) = std::fs::write(path, header + &tracer.to_jsonl()) {
                eprintln!("error: writing {path}: {e}");
                std::process::exit(1);
            }
        }
        outcome
    } else {
        run_e2e(&spec, args.seed, args.seconds)
    };
    for (name, unit, v) in &outcome.metrics {
        println!("# {name} = {v} {unit}");
    }
    println!("{}", outcome.to_json());
    if !outcome.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each workload at tiny n emits every named metric, finite, and passes
    /// its checks, in both modes; the metric lists match `BENCHMARK.json`.
    #[test]
    fn smoke_every_workload() {
        for kind in Kind::ALL {
            let spec = Spec::tiny(kind);
            let e2e = run_e2e(&spec, 3, 0.0);
            assert!(e2e.correct, "{} end-to-end run failed", kind.name());
            assert_eq!(e2e.metrics.len(), END_TO_END.len());
            let (traced, tracer) = run_traced(&spec, 3, 0.0);
            assert!(traced.correct, "{} traced run failed", kind.name());
            assert_eq!(traced.metrics.len(), PER_LAYER.len());
            assert!(tracer.to_jsonl().lines().count() > spec.rounds);
        }
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(
                compact.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
