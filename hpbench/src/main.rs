//! `hpbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path hpbench/Cargo.toml -- \
//!     --workload bitrev-busch --seed 1 --seconds 35 --trace 0
//! ```
//!
//! One invocation runs one workload in its own process as a closed loop
//! (one client; the next routed run starts when the previous returns),
//! checks every output, and prints as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics from untraced runs, with run times measured
//! against a fixed yardstick (see `yardstick`); `--trace 1` reports the
//! per-layer metrics from a traced run plus the tracing overhead, and
//! writes the recorded spans as JSON lines under the cargo target
//! directory. Every invocation also routes its workload once on a second
//! seed (`seed + SECOND_SEED_OFFSET`) and checks it. The exit code is 1
//! when any check failed, 2 on a usage error.

mod batch;
mod host;
mod spans;
mod stats;
mod stream;
mod sweep;
mod yardstick;

use std::time::{Duration, Instant};

/// End-to-end metrics, reported with `--trace 0` on every workload. Run
/// times are in yardstick passes (see `yardstick` and `FAST_QUANTILE`),
/// because the host's speed drifts too much for wall seconds to compare
/// between runs.
const END_TO_END: &[(&str, &str)] = &[
    ("moves_per_yardstick", "1/yardstick"),
    ("run_rel.p10", "yardstick"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
    ("sim_steps_over_cl", "ratio"),
    ("sim_delivered_frac", "ratio"),
    ("sim_latency_p99", "steps"),
];

/// Per-layer metrics, reported with `--trace 1` on every workload. A
/// layer the workload bypasses reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("moves_per_s", "1/s"),
    ("run_s.p50", "s"),
    ("yardstick_s.p10", "s"),
    ("tracing_overhead", "ratio"),
    ("failed_frac", "ratio"),
    ("unattributed_s", "s"),
    ("run_s.samples", "count"),
    ("run_s.tail", "s"),
    ("run_s.tail_pct", "pct"),
    ("run_s.tail_beyond", "count"),
    ("leveled_net.build_s", "s"),
    ("routing_core.workload_s", "s"),
    ("routing_core.congestion_s", "s"),
    ("routing_core.schedule_s", "s"),
    ("core.params_s", "s"),
    ("core.route_s", "s"),
    ("core.ns_per_move", "ns/move"),
    ("core.ns_per_step", "ns/step"),
    ("core.steps", "steps"),
    ("core.moves", "count"),
    ("core.deflections", "count"),
    ("core.phase_checks", "count"),
    ("core.invariant_violations", "count"),
    ("hotpotato_sim.conflict_ns_per_move", "ns/move"),
    ("hotpotato_sim.kinematics_ns_per_move", "ns/move"),
    ("hotpotato_sim.audit_ns_per_move", "ns/move"),
    ("hotpotato_sim.injection_ns_per_move", "ns/move"),
    ("hotpotato_sim.unattributed_ns_per_move", "ns/move"),
    ("hotpotato_sim.banded_over_sequential", "ratio"),
    ("hotpotato_sim.stream_route_s", "s"),
    ("hotpotato_sim.stream_ns_per_move", "ns/move"),
    ("hotpotato_sim.stream_ns_per_step", "ns/step"),
    ("hotpotato_sim.arrivals", "count"),
    ("hotpotato_sim.admitted", "count"),
    ("hotpotato_sim.dropped", "count"),
    ("hotpotato_sim.peak_deferred", "count"),
    ("hotpotato_sim.peak_in_flight", "count"),
    ("trace.record_s", "s"),
    ("trace.jsonl_bytes_per_event", "bytes/event"),
    ("trace.parse_s", "s"),
    ("trace.verify_s", "s"),
    ("trace.analyze_s", "s"),
    ("trace.fleet_fold_s", "s"),
    ("trace.encode_s", "s"),
    ("trace.decode_s", "s"),
    ("trace.hpt_bytes_per_event", "bytes/event"),
    ("trace.events", "count"),
    ("trace.events_per_s", "1/s"),
];

/// Added to `--seed` for the one extra checked run on a second seed.
pub const SECOND_SEED_OFFSET: u64 = 1_000_003;

/// Routed runs every timed loop makes, however short `--seconds` is, so
/// that a median exists.
pub const MIN_RUNS: usize = 3;

/// Set-up times sampled across the whole run: five set-ups before the
/// timed loop, then one more each time a second of the loop has passed,
/// so that `setup_s` (their median) sees the same drifting host
/// conditions as the timed runs rather than only the first second's.
pub struct SetUps {
    times: Vec<f64>,
    last: Instant,
}

impl SetUps {
    /// Sets the workload up five times and returns the last instance;
    /// each instance is dropped before the next is built.
    pub fn first<T>(mut build: impl FnMut() -> T) -> (SetUps, T) {
        let mut times = Vec::new();
        let mut instance = None;
        for _ in 0..5 {
            drop(instance.take());
            let t0 = Instant::now();
            instance = Some(std::hint::black_box(build()));
            times.push(t0.elapsed().as_secs_f64());
        }
        let setups = SetUps {
            times,
            last: Instant::now(),
        };
        (setups, instance.expect("five set-ups ran"))
    }

    /// Times one more set-up, discarding its instance, when a second has
    /// passed since the last one.
    pub fn sample<T>(&mut self, build: impl FnOnce() -> T) {
        if self.last.elapsed().as_secs_f64() >= 1.0 {
            let t0 = Instant::now();
            drop(std::hint::black_box(build()));
            self.times.push(t0.elapsed().as_secs_f64());
            self.last = Instant::now();
        }
    }

    /// Reports `setup_s`, the median set-up time.
    pub fn report(&self, report: &mut Report) {
        report.metric("setup_s", stats::median(&self.times));
    }
}

/// What one invocation was asked to do.
pub struct Config {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed loop.
    pub budget: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Whether this process only sets up, runs the warm-up unit and
    /// reports its peak RSS (see `host::probe_peak_rss`).
    pub rss_probe: bool,
}

/// Metrics and check outcomes of one invocation.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Counts one checked operation; `what` names it when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Sets metric `name` (a later value replaces an earlier one).
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Prints the spread of the timed runs: minimum, p25, median, mean and
/// maximum.
pub fn print_walls(what: &str, walls: &[f64]) {
    let lo = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = walls.iter().copied().fold(0.0, f64::max);
    let mut v = walls.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p: f64| v[((v.len() - 1) as f64 * p).round() as usize];
    println!(
        "# {} {what}: min {lo:.4} s, p25 {:.4} s, median {:.4} s, mean {:.4} s, max {hi:.4} s",
        walls.len(),
        q(0.25),
        stats::median(walls),
        walls.iter().sum::<f64>() / walls.len() as f64
    );
}

/// The quantile of the timed runs and of the yardstick passes whose
/// ratio is the end-to-end run time. A low quantile leaves out the runs
/// that other tenants slowed; taking the same quantile of the yardstick,
/// measured in the same stretch of time, cancels a slow-down that holds
/// for the whole run.
pub const FAST_QUANTILE: f64 = 0.1;

/// Reports the timed loop of one workload. A unit of work is a route, a
/// stream, or a ladder pass of `runs` runs; `moves` is the simulated
/// moves of one unit, `walls` the wall seconds of every timed unit, and
/// `fast_s` the unit's `FAST_QUANTILE` wall time.
pub fn report_runs(
    report: &mut Report,
    what: &str,
    moves: f64,
    runs: f64,
    walls: &[f64],
    fast_s: f64,
    yard: &yardstick::Yardstick,
) {
    print_walls(what, walls);
    print_walls("yardstick passes", yard.passes());
    let yard_s = stats::quantile(yard.passes(), FAST_QUANTILE);
    let rel = fast_s / yard_s;
    println!(
        "# {what}: p10 {fast_s:.4} s over yardstick p10 {yard_s:.5} s = {rel:.4} passes per unit"
    );
    report.metric("run_rel.p10", rel / runs);
    report.metric("moves_per_yardstick", moves / rel);
    let unit_s = stats::median(walls);
    report.metric("run_s.p50", unit_s / runs);
    report.metric("moves_per_s", moves / unit_s);
    report.metric("yardstick_s.p10", yard_s);
}

/// Reports the sample count of `walls` and its tail: the highest
/// percentile with at least ten samples beyond it (all zero when there
/// are too few samples for one).
pub fn report_tail(report: &mut Report, walls: &[f64]) {
    report.metric("run_s.samples", walls.len() as f64);
    let tail = stats::tail(walls, 10);
    report.metric("run_s.tail", tail.map_or(0.0, |t| t.value));
    report.metric("run_s.tail_pct", tail.map_or(0.0, |t| f64::from(t.pct)));
    report.metric("run_s.tail_beyond", tail.map_or(0.0, |t| t.beyond as f64));
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: hpbench --workload <bitrev-busch|walks-busch|stream-greedy|sweep-trace> \
         --seed <n> --seconds <n> --trace <0|1>"
    );
    std::process::exit(2)
}

fn parse_args() -> (String, Config) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rss_probe = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--rss-probe" => rss_probe = value == "1",
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let config = Config {
        seed: seed.unwrap_or_else(|| usage("--seed needs a whole number")),
        budget: Duration::from_secs_f64(
            seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        ),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
        rss_probe,
    };
    (
        workload.unwrap_or_else(|| usage("--workload is required")),
        config,
    )
}

/// Where the traced run's spans are written: under the cargo target
/// directory, which the checkout ignores.
fn spans_path(workload: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "hpbench/target".to_string()),
    )
    .join("hpbench-spans");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{workload}-seed{seed}.jsonl"))
}

fn run_workload(workload: &str, cfg: &Config, tracer: &mut spans::Tracer, report: &mut Report) {
    match workload {
        "bitrev-busch" => batch::run(batch::Shape::Bitrev, cfg, tracer, report),
        "walks-busch" => batch::run(batch::Shape::Walks, cfg, tracer, report),
        "stream-greedy" => stream::run(cfg, tracer, report),
        "sweep-trace" => sweep::run(cfg, tracer, report),
        other => usage(&format!("unknown workload '{other}'")),
    }
}

fn main() {
    let (workload, cfg) = parse_args();
    // The banded comparison uses the worker pool; keep it within the
    // cores this process may use.
    let cap = host::nproc();
    let threads = std::env::var("HOTPOTATO_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map_or(cap, |n| n.clamp(1, cap));
    std::env::set_var("HOTPOTATO_THREADS", threads.to_string());

    if cfg.rss_probe {
        let mut report = Report::default();
        let mut tracer = spans::Tracer::new(false);
        run_workload(&workload, &cfg, &mut tracer, &mut report);
        println!("{}", report.value("peak_rss_mb").unwrap_or(f64::NAN));
        std::process::exit(i32::from(report.failed != 0));
    }

    println!(
        "# hpbench workload={workload} seed={} seconds={} trace={}",
        cfg.seed,
        cfg.budget.as_secs_f64(),
        u8::from(cfg.trace)
    );
    println!("# host {}", host::fingerprint_json());

    let mut report = Report::default();
    let mut tracer = spans::Tracer::new(cfg.trace);
    run_workload(&workload, &cfg, &mut tracer, &mut report);

    let wanted = if cfg.trace {
        let unbalanced = tracer.unbalanced_runs();
        report.check(unbalanced.is_empty(), || {
            format!("span self times do not add up to run wall time: {unbalanced:?}")
        });
        let path = spans_path(&workload, cfg.seed);
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("# spans {}", path.display()),
            Err(e) => report.check(false, || format!("writing {}: {e}", path.display())),
        }
        report.metric(
            "failed_frac",
            report.failed as f64 / report.attempted as f64,
        );
        PER_LAYER
    } else {
        match host::probe_peak_rss(&workload, cfg.seed) {
            Ok(peaks) => {
                println!("# peak RSS of fresh processes: {peaks:?} MiB");
                report.metric("peak_rss_mb", peaks.into_iter().fold(0.0, f64::max));
            }
            Err(e) => report.check(false, || format!("peak RSS probe: {e}")),
        }
        report.metric(
            "ok_frac",
            1.0 - report.failed as f64 / report.attempted as f64,
        );
        END_TO_END
    };

    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let value = match report.value(name) {
            Some(v) if v.is_finite() => v,
            // A layer this workload bypasses reads 0.
            None if cfg.trace => 0.0,
            other => {
                report.check(false, || format!("metric {name} is {other:?}"));
                0.0
            }
        };
        println!("# {name:<42} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    for f in &report.failures {
        println!("# FAILED: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    std::process::exit(i32::from(report.failed != 0));
}
