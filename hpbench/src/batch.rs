//! The two batch workloads: the audited Busch router on the SoA engine,
//! in its library-default sequential mode.
//!
//! * `bitrev-busch` — the paper's canonical instance, bf(12) bit-reversal
//!   (N = 4096, C = 32, L = 12). Its working set fits in cache and only
//!   ~43 packets move per step, so conflict resolution and per-step
//!   overhead dominate.
//! * `walks-busch` — bf(14) saturation random walks, one packet on every
//!   non-final node (229,376 packets). Its ~100 MiB working set is about
//!   the size of a shared L3, so kinematics (memory traffic) dominates.

use crate::spans::Tracer;
use crate::stats::{self, median, SimPrint};
use crate::yardstick::Yardstick;
use crate::{Config, Report, SetUps, MIN_RUNS, SECOND_SEED_OFFSET};
use busch_router::{BuschConfig, BuschOutcome, BuschRouter, Params};
use hotpotato_sim::{Section, SectionProfiler};
use leveled_net::builders::{self, ButterflyCoords};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::{workloads, RoutingProblem};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Which batch instance to route.
#[derive(Clone, Copy)]
pub enum Shape {
    /// bf(12) bit-reversal; the seed drives routing only.
    Bitrev,
    /// bf(14) saturation random walks; the seed draws the walks too.
    Walks,
}

impl Shape {
    fn k(self) -> u32 {
        match self {
            Shape::Bitrev => 12,
            Shape::Walks => 14,
        }
    }
}

struct Instance {
    problem: Arc<RoutingProblem>,
    params: Params,
    /// `C + L`, with `L` the network depth.
    cl: u64,
}

/// Network build, workload, congestion/dilation and `Params::auto`.
fn setup(shape: Shape, seed: u64, t: &mut Tracer) -> Instance {
    t.run("setup", |t| {
        let k = shape.k();
        let net = t.span("leveled_net.build", |_| Arc::new(builders::butterfly(k)));
        let problem = t.span("routing_core.workload", |_| match shape {
            Shape::Bitrev => workloads::butterfly_bit_reversal(&net, &ButterflyCoords { k }),
            Shape::Walks => {
                let n = net
                    .nodes()
                    .filter(|&v| !net.fwd_edges(v).is_empty())
                    .count();
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                workloads::random_walks(&net, n, &mut rng)
                    .expect("every non-final butterfly node has a forward edge")
            }
        });
        let (c, d) = t.span("routing_core.congestion", |_| {
            (problem.congestion(), problem.dilation())
        });
        let params = t.span("core.params", |_| Params::auto(&problem));
        black_box(d);
        Instance {
            cl: u64::from(c) + u64::from(problem.network().depth()),
            problem,
            params,
        }
    })
}

/// The routing stream of a seed, distinct from the stream that drew the
/// walks.
fn route_rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(stats::fnv1a([seed, 1]))
}

/// The library-default audited router; `banded` opts into intra-run
/// band sharding.
fn router(inst: &Instance, banded: bool) -> BuschRouter {
    let mut cfg = BuschConfig::new(inst.params);
    cfg.parallel_bands = banded;
    BuschRouter::with_config(cfg)
}

fn route(inst: &Instance, seed: u64, banded: bool) -> BuschOutcome {
    router(inst, banded).route(&inst.problem, &mut route_rng(seed))
}

fn moves(out: &BuschOutcome) -> u64 {
    out.stats.counter("moves")
}

fn valid(out: &BuschOutcome) -> bool {
    out.stats.all_delivered() && out.invariants.is_clean()
}

/// Runs one batch workload; see the module docs.
pub fn run(shape: Shape, cfg: &Config, t: &mut Tracer, report: &mut Report) {
    let (mut setups, inst) = SetUps::first(|| setup(shape, cfg.seed, t));

    // Warm-up: the first route fills the caches and is the reference
    // every later route, traced or not, must repeat exactly. A
    // `--rss-probe` process reports its peak RSS here and stops.
    let first = black_box(route(&inst, cfg.seed, false));
    let reference = SimPrint::of(&first.stats, moves(&first));
    report.check(valid(&first), || {
        format!("first route {reference:?} is invalid")
    });
    report.metric("peak_rss_mb", crate::host::peak_rss_mb());
    if cfg.rss_probe {
        return;
    }
    let mut yard = Yardstick::new();

    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut sections: Vec<[f64; 5]> = Vec::new();
    let start = Instant::now();
    while walls.len() < MIN_RUNS || start.elapsed() < cfg.budget {
        setups.sample(|| setup(shape, cfg.seed, t));
        let (out, wall) = yard.bracket(|| route(&inst, cfg.seed, false));
        walls.push(wall);
        let print = SimPrint::of(&out.stats, moves(&out));
        report.check(valid(&out) && print == reference, || {
            format!(
                "route {}: {print:?} differs from {reference:?} or is invalid",
                walls.len()
            )
        });
        drop(out);
        if cfg.trace {
            yard.pass();
            let mut prof = SectionProfiler::new();
            let out = t.run("run", |t| {
                t.span("core.route", |_| {
                    router(&inst, false).route_observed(
                        &inst.problem,
                        &mut route_rng(cfg.seed),
                        &mut prof,
                    )
                })
            });
            let span = t.spans().last().expect("the route span was just recorded");
            let wall_ns = (span.end - span.start) as f64;
            traced_walls.push(wall_ns * 1e-9);
            let print = SimPrint::of(&out.stats, moves(&out));
            report.check(valid(&out) && print == reference, || {
                format!("traced route {print:?} differs from untraced {reference:?}")
            });
            let m = reference.moves as f64;
            let mut row = [0.0; 5];
            for (slot, s) in row.iter_mut().zip(Section::ALL) {
                *slot = prof.nanos(s) as f64 / m;
            }
            let attributed: u64 = Section::ALL.into_iter().map(|s| prof.nanos(s)).sum();
            row[4] = (wall_ns - attributed as f64) / m;
            sections.push(row);
        }
    }

    setups.report(report);
    let fast_s = stats::quantile(&walls, crate::FAST_QUANTILE);
    crate::report_runs(
        report,
        "routes",
        reference.moves as f64,
        1.0,
        &walls,
        fast_s,
        &yard,
    );
    let run_s = median(&walls);
    report.metric("sim_steps_over_cl", reference.steps as f64 / inst.cl as f64);
    report.metric(
        "sim_delivered_frac",
        first.stats.delivered_count() as f64 / first.stats.num_packets() as f64,
    );
    let mut lat = stats::latencies(&first.stats);
    lat.sort_unstable();
    report.metric(
        "sim_latency_p99",
        stats::percentile_sorted(&lat, 0.99) as f64,
    );
    println!(
        "# {} routes, {} moves/route, {} steps/route",
        walls.len(),
        reference.moves,
        reference.steps
    );

    if cfg.trace {
        report_layers(t, report, &walls, &traced_walls, &sections, &first);
        // Banding: the same route sharded across level bands on the
        // worker pool. Its rng streams differ by design, so only
        // validity is checked.
        let mut banded_walls = Vec::new();
        for _ in 0..MIN_RUNS {
            let t0 = Instant::now();
            let banded = t.run("banded", |t| {
                t.span("core.route_banded", |_| route(&inst, cfg.seed, true))
            });
            banded_walls.push(t0.elapsed().as_secs_f64());
            report.check(valid(&banded), || "banded route invalid".to_string());
        }
        report.metric(
            "hotpotato_sim.banded_over_sequential",
            median(&banded_walls) / run_s,
        );
    }

    drop(inst);
    let seed2 = cfg.seed + SECOND_SEED_OFFSET;
    let inst2 = setup(shape, seed2, &mut Tracer::new(false));
    let out2 = route(&inst2, seed2, false);
    report.check(valid(&out2), || {
        format!("second seed {seed2}: route invalid")
    });
    println!(
        "# second seed {seed2}: delivered={} clean={} steps/(C+L)={:.3}",
        out2.stats.all_delivered(),
        out2.invariants.is_clean(),
        out2.stats.steps_run as f64 / inst2.cl as f64
    );
}

fn report_layers(
    t: &Tracer,
    report: &mut Report,
    walls: &[f64],
    traced_walls: &[f64],
    sections: &[[f64; 5]],
    first: &BuschOutcome,
) {
    for (metric, span) in [
        ("leveled_net.build_s", "leveled_net.build"),
        ("routing_core.workload_s", "routing_core.workload"),
        ("routing_core.congestion_s", "routing_core.congestion"),
        ("core.params_s", "core.params"),
        ("core.route_s", "core.route"),
    ] {
        report.metric(metric, median(&t.self_seconds(span)));
    }
    report.metric("unattributed_s", median(&t.self_seconds("run")));
    crate::report_tail(report, walls);
    report.metric(
        "tracing_overhead",
        median(traced_walls) / median(walls) - 1.0,
    );
    let route_s = median(&t.self_seconds("core.route"));
    let m = moves(first) as f64;
    report.metric("core.ns_per_move", route_s * 1e9 / m);
    report.metric(
        "core.ns_per_step",
        route_s * 1e9 / first.stats.steps_run as f64,
    );
    report.metric("core.steps", first.stats.steps_run as f64);
    report.metric("core.moves", m);
    report.metric("core.deflections", first.stats.total_deflections() as f64);
    report.metric("core.phase_checks", first.invariants.phase_checks as f64);
    report.metric(
        "core.invariant_violations",
        first.invariants.total_violations() as f64,
    );
    for (i, name) in [
        "hotpotato_sim.conflict_ns_per_move",
        "hotpotato_sim.kinematics_ns_per_move",
        "hotpotato_sim.audit_ns_per_move",
        "hotpotato_sim.injection_ns_per_move",
        "hotpotato_sim.unattributed_ns_per_move",
    ]
    .into_iter()
    .enumerate()
    {
        let col: Vec<f64> = sections.iter().map(|r| r[i]).collect();
        report.metric(name, median(&col));
    }
}
