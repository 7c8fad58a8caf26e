//! `sweep-trace`: a fleet ladder through `serve::run_fleet_spec(spec,
//! verify = true)`, one run at a time, each pass folded into a
//! `FleetAggregator`. The ladder is bf(6..8) bit-reversal plus an 8×8 mesh
//! transpose, all Busch, over three seeds from `--seed` — the shapes of
//! the `t1` table and the CI fleet smoke. Every run records a JSONL trace
//! in memory and reads it back through parse, replay verification and
//! analysis; the route itself is a few percent of a run, so this workload
//! measures the `trace` crate and bypasses the engine.
//!
//! The ladder mixes four instance sizes, so a per-run median would fall
//! between size clusters: `run_s.p50` is taken per ladder pass (pass
//! wall / runs in the pass), `run_rel.p10` from the sum of each run's own
//! p10 over the passes, and per-layer times are totals per pass.

use crate::spans::Tracer;
use crate::stats::{self, median, SimPrint};
use crate::yardstick::Yardstick;
use crate::{Config, Report, SetUps, MIN_RUNS, SECOND_SEED_OFFSET};
use busch_router::Params;
use hotpotato_sim::{JsonlTraceObserver, NoopObserver, RouteStats};
use hotpotato_trace::fleet::{FleetAggregator, FleetSample};
use hotpotato_trace::{analyze, decode_trace, encode_trace, schema, verify_trace, Trace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::spec::{expand_sweep, parse_topo, parse_workload, RunSpec};
use serve::service::build_router;
use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

/// Seeds per ladder shape.
const SEEDS: u64 = 3;

fn ladder(seed: u64) -> Vec<RunSpec> {
    let last = seed + SEEDS - 1;
    [
        format!("bf:6..8/bitrev/busch/{seed}..{last}"),
        format!("mesh:8x8/transpose/busch/{seed}..{last}"),
    ]
    .iter()
    .flat_map(|expr| expand_sweep(expr).expect("the ladder's sweep expressions parse"))
    .collect()
}

/// Set-up: every instance of the ladder (topology, workload, C/D and
/// `Params::auto`), the share `run_fleet_spec` repeats inside each run.
fn setup(specs: &[RunSpec], t: &mut Tracer) {
    t.run("setup", |t| {
        for spec in specs {
            let topo = t
                .span("leveled_net.build", |_| parse_topo(&spec.topo))
                .expect("ladder topologies parse");
            let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
            let problem = t
                .span("routing_core.workload", |_| {
                    parse_workload(&spec.workload, &topo, &mut rng)
                })
                .expect("ladder workloads instantiate");
            let cd = t.span("routing_core.congestion", |_| {
                (problem.congestion(), problem.dilation())
            });
            let params = t.span("core.params", |_| Params::auto(&problem));
            black_box((cd, params));
        }
    });
}

/// `steps / (C + L)` with `L` the network depth (levels − 1).
fn ratio(s: &FleetSample) -> f64 {
    s.steps as f64 / (s.congestion + s.levels.saturating_sub(1)) as f64
}

/// One untraced ladder pass: per-run walls and samples. With a
/// yardstick, a yardstick pass follows every run.
fn pass(
    specs: &[RunSpec],
    mut yard: Option<&mut Yardstick>,
    report: &mut Report,
) -> (Vec<f64>, Vec<Option<FleetSample>>) {
    let mut agg = FleetAggregator::new();
    let mut walls = Vec::with_capacity(specs.len());
    let mut samples = Vec::with_capacity(specs.len());
    for spec in specs {
        let run = || serve::run_fleet_spec(spec, true);
        let (result, wall) = match yard.as_deref_mut() {
            Some(y) => y.bracket(run),
            None => {
                let t0 = Instant::now();
                let result = black_box(run());
                (result, t0.elapsed().as_secs_f64())
            }
        };
        match result {
            Ok(sample) => {
                agg.record(sample.clone());
                samples.push(Some(sample));
            }
            Err(e) => {
                agg.record_failure();
                report.check(false, || format!("{}: {e}", spec.name()));
                samples.push(None);
            }
        }
        walls.push(wall);
    }
    report.check(agg.failed() == 0, || {
        format!("ladder aggregate: {} runs failed", agg.failed())
    });
    (walls, samples)
}

/// Routes `spec` with no observer attached, as `run_fleet_spec` would
/// route it, under a `core.route` span.
fn plain_route(spec: &RunSpec, t: &mut Tracer) -> RouteStats {
    let topo = parse_topo(&spec.topo).expect("ladder topologies parse");
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
    let problem =
        parse_workload(&spec.workload, &topo, &mut rng).expect("ladder workloads instantiate");
    let router =
        build_router(&spec.algo, &problem, spec.engine_kind()).expect("busch is a known router");
    t.span("core.route", |_| {
        router.route(&problem, &mut rng, &mut NoopObserver).stats
    })
}

/// Splits a pass's violation counts. A fleet sample's `violations` adds
/// the router's own invariant audit (`I_a..I_f` events, which the
/// auto-scaled parameters do not rule out on small instances) and one per
/// trace that failed replay verification. The audit count is re-derived
/// from a plain route of each run that reports any; an excess means a
/// trace did not verify, which fails the check. Returns the pass's
/// invariant events.
fn audit_pass(specs: &[RunSpec], samples: &[Option<FleetSample>], report: &mut Report) -> u64 {
    let mut events = 0;
    for (spec, sample) in specs.iter().zip(samples) {
        let Some(sample) = sample.as_ref().filter(|s| s.violations > 0) else {
            continue;
        };
        let audited = plain_route(spec, &mut Tracer::new(false)).counter("invariant_violations");
        report.check(sample.violations == audited, || {
            format!("{}: trace failed replay verification", spec.name())
        });
        println!(
            "# {}: {audited} invariant event(s) in the router's audit",
            spec.name()
        );
        events += audited;
    }
    events
}

/// Per-pass totals of the traced replica.
#[derive(Default)]
struct Traced {
    envelope_s: f64,
    events: u64,
    jsonl_bytes: u64,
    hpt_bytes: u64,
    moves: u64,
    steps: u64,
    deflections: u64,
    phase_checks: u64,
}

/// One traced ladder pass: each run replays `run_fleet_spec`'s envelope
/// stage by stage under spans and must yield the very sample the
/// untraced run produced; then the parsed trace goes through the `.hpt`
/// codec, and the route runs once more with no observer attached. A
/// yardstick pass precedes every run, as in the untraced passes.
fn traced_pass(
    specs: &[RunSpec],
    reference: &[Option<FleetSample>],
    yard: &mut Yardstick,
    t: &mut Tracer,
    report: &mut Report,
) -> Traced {
    let mut agg = FleetAggregator::new();
    let mut tot = Traced::default();
    for (spec, want) in specs.iter().zip(reference) {
        yard.pass();
        let runs_before = t.spans().len();
        let replica = t.run("run", |t| envelope(spec, &mut agg, t));
        let root = &t.spans()[runs_before];
        tot.envelope_s += (root.end - root.start) as f64 * 1e-9;
        let (sample, verified, text_len, trace, recorded) = match replica {
            Ok(r) => r,
            Err(e) => {
                report.check(false, || format!("traced {}: {e}", spec.name()));
                continue;
            }
        };
        report.check(verified && Some(&sample) == want.as_ref(), || {
            format!(
                "traced {}: replay verified {verified}, sample equal to run_fleet_spec's {}",
                spec.name(),
                Some(&sample) == want.as_ref()
            )
        });
        tot.events += trace.events.len() as u64;
        tot.jsonl_bytes += text_len as u64;

        let decoded = t.run("codec", |t| {
            let bytes = t.span("trace.encode", |_| encode_trace(&trace));
            tot.hpt_bytes += bytes.len() as u64;
            t.span("trace.decode", |_| decode_trace(&bytes))
        });
        report.check(decoded.is_ok_and(|d| d.events == trace.events), || {
            format!("{}: .hpt round trip changed the trace", spec.name())
        });
        drop(trace);

        let plain = t.run("route_only", |t| plain_route(spec, t));
        let moves = plain.counter("moves");
        report.check(
            SimPrint::of(&plain, moves) == SimPrint::of(&recorded, recorded.counter("moves"))
                && plain.all_delivered(),
            || format!("{}: the trace observer changed the route", spec.name()),
        );
        tot.moves += moves;
        tot.steps += plain.steps_run;
        tot.deflections += plain.total_deflections();
        tot.phase_checks += plain.counter("inv_phase_checks");
    }
    report.check(agg.failed() == 0, || {
        "traced ladder aggregate has failed runs".to_string()
    });
    tot
}

/// What the traced envelope yields: the sample, whether the trace passed
/// replay verification, the JSONL length, the parsed trace and the
/// route's statistics.
type Envelope = (FleetSample, bool, usize, Trace, RouteStats);

/// `run_fleet_spec`'s in-memory envelope, one span per stage.
fn envelope(spec: &RunSpec, agg: &mut FleetAggregator, t: &mut Tracer) -> Result<Envelope, String> {
    let topo = t.span("leveled_net.build", |_| parse_topo(&spec.topo))?;
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
    let problem = t.span("routing_core.workload", |_| {
        parse_workload(&spec.workload, &topo, &mut rng)
    })?;
    let (c, d) = t.span("routing_core.congestion", |_| {
        (problem.congestion(), problem.dilation())
    });
    let router = t.span("core.params", |_| {
        build_router(&spec.algo, &problem, spec.engine_kind())
    })?;
    let meta = schema::Meta {
        schema: schema::SCHEMA_VERSION,
        topo: spec.topo.clone(),
        workload: spec.workload.clone(),
        algo: spec.algo.clone(),
        seed: spec.seed,
        arrival: spec.arrival.clone().unwrap_or_default(),
        packets: problem.num_packets() as u64,
        levels: topo.net.num_levels() as u64,
        congestion: u64::from(c),
        dilation: u64::from(d),
    };
    let (text, stats) = t.span("trace.record", |_| -> Result<_, String> {
        let mut buf = Vec::new();
        writeln!(buf, "{}", schema::meta_line(&meta)).map_err(|e| e.to_string())?;
        let mut obs = JsonlTraceObserver::with_snapshots(buf, &problem);
        let stats = router.route(&problem, &mut rng, &mut obs).stats;
        let mut buf = obs.finish().map_err(|e| format!("trace sink: {e}"))?;
        writeln!(buf, "{}", schema::stats_line(&stats)).map_err(|e| e.to_string())?;
        let text = String::from_utf8(buf).map_err(|_| "trace is not UTF-8".to_string())?;
        Ok((text, stats))
    })?;
    let trace = t
        .span("trace.parse", |_| Trace::parse(&text))
        .map_err(|e| format!("trace parse: {e}"))?;
    let verified = t.span("trace.verify", |_| verify_trace(&trace).is_ok());
    let analysis = t.span("trace.analyze", |_| analyze(&trace));
    let violations = stats.counter("invariant_violations") + u64::from(!verified);
    let sample = t.span("trace.fleet_fold", |_| -> Result<_, String> {
        let sample = FleetSample::from_trace(&trace, &analysis, violations)?;
        agg.record(sample.clone());
        Ok(sample)
    })?;
    Ok((sample, verified, text.len(), trace, stats))
}

/// Runs the sweep workload; see the module docs.
pub fn run(cfg: &Config, t: &mut Tracer, report: &mut Report) {
    let specs = ladder(cfg.seed);
    let (mut setups, ()) = SetUps::first(|| setup(&specs, t));

    // Warm-up: the first pass fills the caches and gives the samples
    // every later pass must repeat exactly. A `--rss-probe` process
    // reports its peak RSS here and stops.
    let (_, want) = pass(&specs, None, report);
    report.metric("peak_rss_mb", crate::host::peak_rss_mb());
    if cfg.rss_probe {
        return;
    }
    let events = audit_pass(&specs, &want, report);
    let mut yard = Yardstick::new();

    let mut pass_walls = Vec::new();
    let mut run_walls = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    while pass_walls.len() < MIN_RUNS || start.elapsed() < cfg.budget {
        setups.sample(|| setup(&specs, t));
        let (walls, samples) = pass(&specs, Some(&mut yard), report);
        pass_walls.push(walls.iter().sum());
        run_walls.extend(walls);
        for ((spec, got), want) in specs.iter().zip(&samples).zip(&want) {
            report.check(got.is_some() && got == want, || {
                format!("{} did not repeat its first sample", spec.name())
            });
        }
        if cfg.trace {
            let from = t.spans().len();
            let tot = traced_pass(&specs, &want, &mut yard, t, report);
            traced.push((from, tot));
        }
    }
    let reference: Vec<FleetSample> = want.into_iter().flatten().collect();

    setups.report(report);
    let n = specs.len() as f64;
    let sum = |f: fn(&FleetSample) -> u64| reference.iter().map(f).sum::<u64>();
    // The ladder mixes four instance sizes, so its fast pass is the sum
    // of each run's own fast quantile over the passes.
    let fast_s = (0..specs.len())
        .map(|i| {
            let runs: Vec<f64> = run_walls
                .iter()
                .skip(i)
                .step_by(specs.len())
                .copied()
                .collect();
            stats::quantile(&runs, crate::FAST_QUANTILE)
        })
        .sum();
    crate::report_runs(
        report,
        "passes",
        sum(|s| s.moves) as f64,
        n,
        &pass_walls,
        fast_s,
        &yard,
    );
    report.metric(
        "sim_steps_over_cl",
        reference.iter().map(ratio).sum::<f64>() / n,
    );
    report.metric(
        "sim_delivered_frac",
        sum(|s| s.delivered) as f64 / sum(|s| s.packets) as f64,
    );
    report.metric("sim_latency_p99", sum(|s| s.latency_p99) as f64 / n);
    println!(
        "# {} passes of {} runs, {} moves/pass",
        pass_walls.len(),
        specs.len(),
        sum(|s| s.moves)
    );

    if cfg.trace {
        report_layers(t, report, &traced, &pass_walls, &run_walls);
        report.metric("core.invariant_violations", events as f64);
    }

    let seed2 = cfg.seed + SECOND_SEED_OFFSET;
    let specs2 = ladder(seed2);
    let (_, samples2) = pass(&specs2, Some(&mut yard), report);
    audit_pass(&specs2, &samples2, report);
    println!(
        "# second seed {seed2}: {} of {} runs sampled, mean steps/(C+L) {:.3}",
        samples2.iter().flatten().count(),
        samples2.len(),
        samples2.iter().flatten().map(ratio).sum::<f64>() / samples2.len() as f64
    );
}

fn report_layers(
    t: &Tracer,
    report: &mut Report,
    traced: &[(usize, Traced)],
    pass_walls: &[f64],
    run_walls: &[f64],
) {
    for (metric, span) in [
        ("leveled_net.build_s", "leveled_net.build"),
        ("routing_core.workload_s", "routing_core.workload"),
        ("routing_core.congestion_s", "routing_core.congestion"),
        ("core.params_s", "core.params"),
    ] {
        report.metric(metric, median(&t.per_run_seconds("setup", span)));
    }
    crate::report_tail(report, run_walls);
    // Span self times summed per traced pass (spans `from..` of the next
    // pass's start belong to it).
    let selfs = t.self_times();
    let bounds: Vec<usize> = traced
        .iter()
        .map(|(from, _)| *from)
        .chain([t.spans().len()])
        .collect();
    let per_pass = |name: &str| -> Vec<f64> {
        bounds
            .windows(2)
            .map(|w| {
                (w[0]..w[1])
                    .filter(|&i| t.spans()[i].name == name)
                    .map(|i| selfs[i] as f64 * 1e-9)
                    .sum()
            })
            .collect()
    };
    for (metric, span) in [
        ("core.route_s", "core.route"),
        ("trace.record_s", "trace.record"),
        ("trace.parse_s", "trace.parse"),
        ("trace.verify_s", "trace.verify"),
        ("trace.analyze_s", "trace.analyze"),
        ("trace.fleet_fold_s", "trace.fleet_fold"),
        ("trace.encode_s", "trace.encode"),
        ("trace.decode_s", "trace.decode"),
        ("unattributed_s", "run"),
    ] {
        report.metric(metric, median(&per_pass(span)));
    }
    let last = &traced.last().expect("a traced run has traced passes").1;
    let route_s = median(&per_pass("core.route"));
    report.metric("core.ns_per_move", route_s * 1e9 / last.moves as f64);
    report.metric("core.ns_per_step", route_s * 1e9 / last.steps as f64);
    report.metric("core.steps", last.steps as f64);
    report.metric("core.moves", last.moves as f64);
    report.metric("core.deflections", last.deflections as f64);
    report.metric("core.phase_checks", last.phase_checks as f64);
    let events = last.events as f64;
    report.metric("trace.events", events);
    report.metric(
        "trace.jsonl_bytes_per_event",
        last.jsonl_bytes as f64 / events,
    );
    report.metric("trace.hpt_bytes_per_event", last.hpt_bytes as f64 / events);
    let pass_s = median(pass_walls);
    report.metric("trace.events_per_s", events / pass_s);
    let envelopes: Vec<f64> = traced.iter().map(|(_, tot)| tot.envelope_s).collect();
    report.metric("tracing_overhead", median(&envelopes) / pass_s - 1.0);
}
