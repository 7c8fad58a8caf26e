//! Determinism of the intra-run banded mode, and offline verification
//! of the engine's trace stream.
//!
//! The banded mode ([`BuschConfig::parallel_bands`]) draws from per-band
//! rng streams, so it is not stream-compatible with the sequential
//! driver, but it must be a pure function of (problem, seed): sweeping
//! `HOTPOTATO_THREADS` across {1, 2, 8} — which toggles between
//! in-thread band execution and the worker pool — must not move a single
//! event. The sequential runs themselves are pinned by the goldens in
//! `tests/golden_equivalence.rs`.

use busch_router::{BuschConfig, BuschOutcome, BuschRouter, Params};
use hotpotato_sim::{JsonlTraceObserver, RouteStats};
use hotpotato_trace::schema::{self, Trace};
use hotpotato_trace::verify::verify_trace;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::spec;
use routing_core::RoutingProblem;
use std::sync::Arc;

/// Runs the busch router on `problem`, capturing the JSONL event stream.
fn run(
    problem: &Arc<RoutingProblem>,
    params: Params,
    parallel_bands: bool,
    seed: u64,
) -> (BuschOutcome, Vec<u8>) {
    let cfg = BuschConfig {
        parallel_bands,
        record: true,
        trace: true,
        ..BuschConfig::new(params)
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut trace = JsonlTraceObserver::new(Vec::new());
    let out = BuschRouter::with_config(cfg).route_observed(problem, &mut rng, &mut trace);
    (out, trace.finish().expect("no io errors"))
}

/// Asserts every field of two `RouteStats` equal, naming the first
/// divergent one.
fn assert_stats_identical(a: &RouteStats, b: &RouteStats) {
    assert_eq!(a.injected_at, b.injected_at, "injected_at");
    assert_eq!(a.delivered_at, b.delivered_at, "delivered_at");
    assert_eq!(a.deflections, b.deflections, "deflections");
    assert_eq!(a.max_deviation, b.max_deviation, "max_deviation");
    assert_eq!(a.steps_run, b.steps_run, "steps_run");
    assert_eq!(a.counters, b.counters, "counters");
    assert_eq!(a.active_trace, b.active_trace, "active_trace");
}

fn assert_outcomes_identical(a: &BuschOutcome, b: &BuschOutcome) {
    assert_stats_identical(&a.stats, &b.stats);
    assert_eq!(a.invariants, b.invariants, "invariant reports");
    assert_eq!(a.set_assignment, b.set_assignment, "set assignment");
    assert_eq!(a.phases_elapsed, b.phases_elapsed, "phases elapsed");
    let (ra, rb) = (
        a.record.as_ref().expect("recording on"),
        b.record.as_ref().expect("recording on"),
    );
    assert_eq!(ra.moves, rb.moves, "movement records");
    assert_eq!(ra.trivial, rb.trivial, "trivial deliveries");
}

/// The engine's trace stream passes the offline verifier: wrap the
/// events in the meta/stats envelope the CLI writes and re-run the
/// whole stream against the model from scratch.
#[test]
fn soa_trace_verifies_offline() {
    let (topo, problem) = spec::reconstruct_problem("butterfly:10", "bitrev", 42).unwrap();
    let params = Params::auto(&problem);
    let (out, events) = run(&problem, params, false, 7);
    let meta = schema::Meta {
        schema: schema::SCHEMA_VERSION,
        topo: "butterfly:10".into(),
        workload: "bitrev".into(),
        algo: "busch".into(),
        seed: 42,
        arrival: String::new(),
        packets: problem.num_packets() as u64,
        levels: topo.net.num_levels() as u64,
        congestion: u64::from(problem.congestion()),
        dilation: u64::from(problem.dilation()),
    };
    let mut text = schema::meta_line(&meta);
    text.push('\n');
    text.push_str(std::str::from_utf8(&events).unwrap());
    text.push_str(&schema::stats_line(&out.stats));
    text.push('\n');
    let trace = Trace::parse(&text).expect("trace parses");
    let report = verify_trace(&trace).expect("trace verifies clean");
    assert_eq!(report.delivered, problem.num_packets());
    assert!(report.replay_cross_checked);
}

/// Banded (intra-run sharded) runs are a pure function of (problem,
/// seed): sweeping the worker budget across {1, 2, 8} — in-thread band
/// execution at 1, pool execution above — reproduces byte-identical
/// outcomes. Env manipulation stays inside this one test: integration
/// tests in this binary run concurrently, and `HOTPOTATO_THREADS` is
/// read per run.
#[test]
fn banded_runs_identical_across_thread_counts() {
    let (_, problem) = spec::reconstruct_problem("butterfly:9", "bitrev", 5).unwrap();
    let params = Params::auto(&problem);
    let mut outcomes: Vec<(BuschOutcome, Vec<u8>)> = Vec::new();
    for threads in ["1", "2", "8"] {
        std::env::set_var("HOTPOTATO_THREADS", threads);
        outcomes.push(run(&problem, params, true, 99));
    }
    std::env::remove_var("HOTPOTATO_THREADS");
    let (first, first_trace) = &outcomes[0];
    assert!(first.stats.all_delivered(), "banded run must deliver");
    for (other, other_trace) in &outcomes[1..] {
        assert_outcomes_identical(first, other);
        assert_eq!(first_trace, other_trace, "banded JSONL trace streams");
    }
}

/// Banded mode must still deliver everything with clean audit machinery
/// on a conflict-free instance (sanity that sharding does not perturb
/// the invariant counters themselves).
#[test]
fn banded_mode_keeps_invariants_clean_on_line() {
    let (_, problem) = spec::reconstruct_problem("linear:12", "level:0:11", 3).unwrap();
    let params = Params::scaled(4, 12, 0.05, 1);
    let (out, _) = run(&problem, params, true, 13);
    assert!(out.stats.all_delivered());
    assert!(out.invariants.is_clean(), "{}", out.invariants.summary());
}
