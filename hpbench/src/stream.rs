//! `stream-greedy`: the CLI run-spec path for a streaming run —
//! `bf:14/permutation/greedy/SEED/poisson:20` parsed and instantiated,
//! its Poisson arrival schedule drawn, and routed by `route_streaming`
//! under the default admission control (256 in flight, 1024 deferred).
//! Arrivals are open-loop in *simulated* time: the schedule is fixed
//! before the route, and the admission cap binds (the deferred queue
//! fills and ~7% of arrivals are dropped). This is the only workload on
//! the scalar engine and the admission loop.
//!
//! The bf(16) form of the spec (a 1.1M-node network at `poisson:16`)
//! cannot be measured steadily on a host whose memory system is shared:
//! its route time flips between ~0.10 s and ~0.17 s regimes lasting up to
//! 20 s. bf(14) at a rate past its saturation throughput (~17 packets per
//! step) keeps the same code path and a binding cap.

use crate::spans::Tracer;
use crate::stats::{self, median, SimPrint};
use crate::yardstick::Yardstick;
use crate::{Config, Report, SetUps, MIN_RUNS, SECOND_SEED_OFFSET};
use hotpotato_sim::{route_streaming, StreamPriority, StreamingConfig, StreamingOutcome};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::spec::{parse_run_spec, parse_topo, parse_workload};
use routing_core::RoutingProblem;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

struct Instance {
    problem: Arc<RoutingProblem>,
    schedule: Vec<u64>,
    /// The run's rng after the workload and the schedule were drawn: the
    /// stream routing continues from.
    rng: ChaCha8Rng,
    config: StreamingConfig,
    cl: u64,
}

/// Parses and instantiates the run spec exactly as `RunSpec::instantiate`
/// does (topology, then the workload from an rng seeded with the run
/// seed), split so each layer gets its own span, then draws the arrival
/// schedule from the same rng.
fn setup(seed: u64, t: &mut Tracer) -> Instance {
    t.run("setup", |t| {
        let spec = parse_run_spec(&format!("bf:14/permutation/greedy/{seed}/poisson:20"))
            .expect("the workload's run spec parses");
        let topo = t
            .span("leveled_net.build", |_| parse_topo(&spec.topo))
            .expect("bf:14 is a valid topology");
        let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
        let problem = t
            .span("routing_core.workload", |_| {
                parse_workload(&spec.workload, &topo, &mut rng)
            })
            .expect("a butterfly admits a permutation");
        let (c, d) = t.span("routing_core.congestion", |_| {
            (problem.congestion(), problem.dilation())
        });
        black_box(d);
        let process = spec
            .arrival_process()
            .expect("the arrival segment parses")
            .expect("the spec has an arrival segment");
        let schedule = t.span("routing_core.schedule", |_| {
            process.schedule(problem.num_packets(), &mut rng)
        });
        let config = StreamingConfig {
            priority: StreamPriority::for_algo(&spec.algo).expect("greedy streams"),
            ..StreamingConfig::default()
        };
        Instance {
            cl: u64::from(c) + u64::from(problem.network().depth()),
            problem,
            schedule,
            rng,
            config,
        }
    })
}

fn route(inst: &Instance, config: &StreamingConfig) -> StreamingOutcome {
    route_streaming(&inst.problem, &inst.schedule, config, &mut inst.rng.clone())
}

fn delivered(out: &StreamingOutcome) -> u64 {
    out.stats.delivered_count() as u64
}

fn moves(out: &StreamingOutcome) -> u64 {
    stats::derived_moves(&out.stats.injected_at, &out.stats.delivered_at)
}

fn valid(out: &StreamingOutcome) -> bool {
    out.drained && delivered(out) + out.dropped == out.arrivals
}

/// Streams routed back to back in one timed unit. An untimed stream
/// precedes each unit and a yardstick pass follows it: a ~15 ms stream
/// right after a pass or a set-up spends much of its time refilling the
/// caches, which the host's memory contention slows far more than it
/// slows the yardstick.
const GROUP: usize = 8;

/// Runs the streaming workload; see the module docs.
pub fn run(cfg: &Config, t: &mut Tracer, report: &mut Report) {
    let (mut setups, inst) = SetUps::first(|| setup(cfg.seed, t));

    // Warm-up: the first stream fills the caches and is the reference
    // every later stream must repeat exactly. A `--rss-probe` process
    // reports its peak RSS here and stops.
    let first = black_box(route(&inst, &inst.config));
    let reference = SimPrint::of(&first.stats, moves(&first));
    report.check(valid(&first), || {
        format!("first stream {reference:?} did not drain")
    });
    report.metric("peak_rss_mb", crate::host::peak_rss_mb());
    if cfg.rss_probe {
        return;
    }
    let mut yard = Yardstick::new();

    // Walls and traced walls per stream: a unit's wall over `GROUP`.
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let start = Instant::now();
    while walls.len() < MIN_RUNS || start.elapsed() < cfg.budget {
        setups.sample(|| setup(cfg.seed, t));
        black_box(route(&inst, &inst.config));
        let (prints, wall) = yard.bracket(|| {
            (0..GROUP)
                .map(|_| {
                    let out = route(&inst, &inst.config);
                    (valid(&out), SimPrint::of(&out.stats, moves(&out)))
                })
                .collect::<Vec<_>>()
        });
        walls.push(wall / GROUP as f64);
        for (ok, print) in prints {
            report.check(ok && print == reference, || {
                format!("stream: {print:?} differs from {reference:?} or did not drain")
            });
        }
        if cfg.trace {
            yard.pass();
            black_box(route(&inst, &inst.config));
            for _ in 0..GROUP {
                let out = t.run("run", |t| {
                    t.span("hotpotato_sim.stream_route", |_| route(&inst, &inst.config))
                });
                let span = t.spans().last().expect("the route span was just recorded");
                traced_walls.push((span.end - span.start) as f64 * 1e-9);
                let print = SimPrint::of(&out.stats, moves(&out));
                report.check(valid(&out) && print == reference, || {
                    format!("traced stream {print:?} differs from untraced {reference:?}")
                });
            }
        }
    }

    setups.report(report);
    let fast_s = stats::quantile(&walls, crate::FAST_QUANTILE);
    crate::report_runs(
        report,
        "streams",
        reference.moves as f64,
        1.0,
        &walls,
        fast_s,
        &yard,
    );
    report.metric("sim_steps_over_cl", reference.steps as f64 / inst.cl as f64);
    report.metric(
        "sim_delivered_frac",
        delivered(&first) as f64 / first.arrivals as f64,
    );
    let mut lat = stats::latencies(&first.stats);
    lat.sort_unstable();
    report.metric(
        "sim_latency_p99",
        stats::percentile_sorted(&lat, 0.99) as f64,
    );
    println!(
        "# {} streams, {} arrivals, {} dropped, {} derived moves, {} steps",
        walls.len() * GROUP,
        first.arrivals,
        first.dropped,
        reference.moves,
        reference.steps
    );

    if cfg.trace {
        for (metric, span) in [
            ("leveled_net.build_s", "leveled_net.build"),
            ("routing_core.workload_s", "routing_core.workload"),
            ("routing_core.congestion_s", "routing_core.congestion"),
            ("routing_core.schedule_s", "routing_core.schedule"),
        ] {
            report.metric(metric, median(&t.self_seconds(span)));
        }
        report.metric("unattributed_s", median(&t.self_seconds("run")));
        crate::report_tail(report, &walls);
        report.metric(
            "tracing_overhead",
            median(&traced_walls) / median(&walls) - 1.0,
        );
        let route_s = median(&t.self_seconds("hotpotato_sim.stream_route"));
        report.metric("hotpotato_sim.stream_route_s", route_s);
        report.metric(
            "hotpotato_sim.stream_ns_per_move",
            route_s * 1e9 / reference.moves as f64,
        );
        report.metric(
            "hotpotato_sim.stream_ns_per_step",
            route_s * 1e9 / reference.steps as f64,
        );
        report.metric("hotpotato_sim.arrivals", first.arrivals as f64);
        report.metric("hotpotato_sim.admitted", first.admitted as f64);
        report.metric("hotpotato_sim.dropped", first.dropped as f64);
        report.metric("hotpotato_sim.peak_deferred", first.peak_deferred as f64);
        report.metric("hotpotato_sim.peak_in_flight", first.peak_in_flight as f64);

        // The derived move count against the engine's own movement record.
        let recording = StreamingConfig {
            record: true,
            ..inst.config
        };
        let out = t.run("record_check", |t| {
            t.span("hotpotato_sim.stream_route_recorded", |_| {
                route(&inst, &recording)
            })
        });
        let recorded = out.record.as_ref().map_or(0, |r| r.len() as u64);
        report.check(
            recorded == reference.moves && SimPrint::of(&out.stats, moves(&out)) == reference,
            || {
                format!(
                    "record holds {recorded} moves, derived count is {}",
                    reference.moves
                )
            },
        );
        println!(
            "# record length {recorded} == derived moves {}",
            reference.moves
        );
    }

    drop(inst);
    let seed2 = cfg.seed + SECOND_SEED_OFFSET;
    let inst2 = setup(seed2, &mut Tracer::new(false));
    let out2 = route(&inst2, &inst2.config);
    report.check(valid(&out2), || {
        format!("second seed {seed2}: stream invalid")
    });
    println!(
        "# second seed {seed2}: drained={} arrivals={} dropped={}",
        out2.drained, out2.arrivals, out2.dropped
    );
}
