//! The Busch driver's wait-state fast-forward (`DESIGN.md` §11): once
//! every packet in flight has oscillated for three steps, the driver
//! repeats the last two steps in closed form up to the phase's last
//! step instead of dispatching them.
//!
//! The goldens in `tests/golden_equivalence.rs` (blessed before the
//! fast-forward existed) pin that the repeated stretches are bit-for-bit
//! what dispatching them produced. These tests pin the other half: the
//! fast-forward really fires on the canonical instances, and what it
//! emits passes every offline auditor — the replay auditor, the
//! sequential trace verifier, and the sharded one at several job counts.

use busch_router::{BuschConfig, BuschOutcome, BuschRouter, Params};
use hotpotato_sim::{replay, JsonlTraceObserver, RouteObserver, Section, StepReport, Time};
use hotpotato_trace::schema::{self, Trace};
use hotpotato_trace::{verify_trace, verify_trace_sharded, ShardOptions};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::{spec, RoutingProblem};
use std::sync::Arc;

/// Tells dispatched steps from repeated ones: the driver reports one
/// `Section::Conflict` span per dispatched step, and the engine calls
/// `on_step_end` for every step, dispatched, repeated or idle.
#[derive(Default)]
struct StepCounter {
    /// Steps in which something moved.
    moving: u64,
    /// Steps that went through conflict dispatch.
    dispatched: u64,
}

impl RouteObserver for StepCounter {
    fn on_step_end(&mut self, _t: Time, report: &StepReport, _active: usize) {
        if report.moved > 0 {
            self.moving += 1;
        }
    }

    fn wants_timing(&self) -> bool {
        true
    }

    fn on_section(&mut self, section: Section, _nanos: u64) {
        if section == Section::Conflict {
            self.dispatched += 1;
        }
    }
}

/// Routes `topo`/`workload` under `seed` the way `hotpotato route
/// --trace-out` does (one rng for the workload and the run, snapshot
/// checkpoints on), with the movement record on, and returns the
/// outcome, the enveloped JSONL trace and the step counts.
fn record(
    topo: &str,
    workload: &str,
    seed: u64,
    banded: bool,
) -> (Arc<RoutingProblem>, BuschOutcome, String, StepCounter) {
    let topo_built = spec::parse_topo(topo).expect("topology spec");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let problem = spec::parse_workload(workload, &topo_built, &mut rng).expect("workload spec");
    let cfg = BuschConfig {
        record: true,
        parallel_bands: banded,
        ..BuschConfig::new(Params::auto(&problem))
    };
    let mut observer = (
        StepCounter::default(),
        JsonlTraceObserver::with_snapshots(Vec::new(), &problem),
    );
    let out = BuschRouter::with_config(cfg).route_observed(&problem, &mut rng, &mut observer);
    let (counter, jsonl) = observer;
    let meta = schema::Meta {
        schema: schema::SCHEMA_VERSION,
        topo: topo.into(),
        workload: workload.into(),
        algo: "busch".into(),
        seed,
        arrival: String::new(),
        packets: problem.num_packets() as u64,
        levels: topo_built.net.num_levels() as u64,
        congestion: u64::from(problem.congestion()),
        dilation: u64::from(problem.dilation()),
    };
    let mut text = schema::meta_line(&meta);
    text.push('\n');
    text.push_str(std::str::from_utf8(&jsonl.finish().expect("in-memory sink")).unwrap());
    text.push_str(&schema::stats_line(&out.stats));
    text.push('\n');
    (problem, out, text, counter)
}

/// Most moving steps of `topo`/`workload` are repeated rather than
/// dispatched, sequential and banded, and every recorded run passes the
/// replay auditor and the trace verifier at job counts 1, 2 and 4.
fn fast_forward_fires_and_verifies(topo: &str, workload: &str, seed: u64) {
    for banded in [false, true] {
        let (problem, out, text, steps) = record(topo, workload, seed, banded);
        let label = format!("{topo}/{workload} banded={banded}");
        assert!(out.stats.all_delivered(), "{label}: must deliver");
        assert!(
            out.invariants.is_clean(),
            "{label}: {}",
            out.invariants.summary()
        );
        let repeated = steps.moving.saturating_sub(steps.dispatched);
        assert!(
            2 * repeated > steps.moving,
            "{label}: {repeated} of {} moving steps repeated ({} dispatched)",
            steps.moving,
            steps.dispatched
        );
        let record = out.record.as_ref().expect("recording on");
        assert_eq!(
            record.moves.len() as u64,
            out.stats.counter("moves"),
            "{label}: moves counter"
        );
        replay::verify(&problem, record, &out.stats)
            .unwrap_or_else(|e| panic!("{label}: replay audit: {e}"));

        let trace = Trace::parse(&text).expect("recorded trace parses");
        let seq = verify_trace(&trace).unwrap_or_else(|e| panic!("{label}: verify: {e}"));
        assert_eq!(seq.delivered, problem.num_packets(), "{label}");
        assert!(seq.replay_cross_checked, "{label}");
        let trace = Arc::new(trace);
        for jobs in [1, 2, 4] {
            let opts = ShardOptions {
                jobs,
                progress: false,
            };
            let run = verify_trace_sharded(&trace, &opts)
                .unwrap_or_else(|e| panic!("{label}: sharded verify at {jobs} jobs: {e}"));
            assert_eq!(run.report.delivered, seq.delivered, "{label} jobs={jobs}");
            assert_eq!(run.report.steps, seq.steps, "{label} jobs={jobs}");
            assert_eq!(run.report.timelines, seq.timelines, "{label} jobs={jobs}");
        }
    }
}

#[test]
fn fast_forward_fires_on_butterfly_bit_reversal() {
    fast_forward_fires_and_verifies("bf:10", "bitrev", 7);
}

#[test]
fn fast_forward_fires_on_mesh_transpose() {
    fast_forward_fires_and_verifies("mesh:8x8", "transpose", 7);
}
