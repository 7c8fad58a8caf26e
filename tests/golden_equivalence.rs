//! Golden-equivalence tests: fixed seeds must produce bit-identical run
//! records across engine refactors.
//!
//! The engine's hot path is optimization territory (arena arrivals,
//! maintained occupied lists, scratch-based conflict resolution), but the
//! *semantics* — which packet crosses which edge at which step — must not
//! drift: iteration order feeds the tie-breaking RNG, so any accidental
//! reordering silently changes every downstream experiment. These tests
//! pin two full runs (one butterfly, one mesh) against committed golden
//! records.
//!
//! To regenerate after an *intentional* semantic change:
//!
//! ```text
//! HOTPOTATO_BLESS=1 cargo test --test golden_equivalence
//! ```

use busch_router::{BuschConfig, BuschOutcome, BuschRouter, Params};
use hotpotato_sim::{
    route_streaming_observed, AdmissionControl, ExitKind, JsonlTraceObserver, RouteStats,
    RunRecord, StreamPriority, StreamingConfig,
};
use leveled_net::builders::{self, ButterflyCoords, MeshCorner};
use leveled_net::Direction;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::spec::parse_run_spec;
use routing_core::workloads;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// Canonical, line-oriented text encoding of a run: stable across
/// platforms, readable in diffs, independent of serde details.
fn encode(stats: &RouteStats, record: &RunRecord) -> String {
    let mut out = String::new();
    writeln!(out, "# golden run record v1").unwrap();
    writeln!(
        out,
        "stats steps={} delivered={} makespan={} deflections={}",
        stats.steps_run,
        stats.delivered_count(),
        stats.makespan().unwrap_or(0),
        stats.total_deflections(),
    )
    .unwrap();
    for tv in &record.trivial {
        writeln!(out, "trivial t={} pkt={}", tv.time, tv.pkt.0).unwrap();
    }
    for ev in &record.moves {
        let dir = match ev.mv.dir {
            Direction::Forward => "F",
            Direction::Backward => "B",
        };
        let kind = match ev.kind {
            ExitKind::Advance => "adv",
            ExitKind::Deflect { safe: true } => "def-safe",
            ExitKind::Deflect { safe: false } => "def-free",
            ExitKind::Oscillate => "osc",
            ExitKind::Inject => "inj",
        };
        writeln!(
            out,
            "move t={} pkt={} edge={} dir={dir} kind={kind}",
            ev.time, ev.pkt.0, ev.mv.edge.0
        )
        .unwrap();
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

/// Compares the encoded run against the committed golden file; with
/// `HOTPOTATO_BLESS=1`, rewrites the golden instead.
fn check_golden(name: &str, stats: &RouteStats, record: &RunRecord) {
    check_encoded(name, &encode(stats, record));
}

/// Compares `encoded` against the committed golden `name` (or blesses
/// it under `HOTPOTATO_BLESS=1`), naming the first diverging line.
fn check_encoded(name: &str, encoded: &str) {
    let path = golden_path(name);
    if std::env::var("HOTPOTATO_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, encoded).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); bless with HOTPOTATO_BLESS=1"));
    if encoded != want {
        // Locate the first diverging line for a readable failure.
        let first_diff = encoded
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| encoded.lines().count().min(want.lines().count()));
        panic!(
            "run diverged from golden {name} at line {} \
             (got {:?}, want {:?}); if the change is intentional, \
             re-bless with HOTPOTATO_BLESS=1",
            first_diff + 1,
            encoded.lines().nth(first_diff),
            want.lines().nth(first_diff),
        );
    }
}

/// FNV-1a (64-bit) over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest encoding for runs too large to pin move by move: a readable
/// summary line, the FNV-1a of the JSONL event stream, and the FNV-1a
/// of every `RouteStats` array and counter (as JSON). The `moves`
/// counter is left out of the digest: it is derived from the event
/// stream, which the digest already pins.
fn encode_digest(stats: &RouteStats, events: &[u8], extra: &[String]) -> String {
    let mut pinned = stats.clone();
    pinned.counters.remove("moves");
    let arrays = serde_json::to_string(&pinned).expect("stats serialize");
    let mut out = String::new();
    writeln!(out, "# golden run digest v1").unwrap();
    writeln!(
        out,
        "stats steps={} delivered={} makespan={} deflections={}",
        stats.steps_run,
        stats.delivered_count(),
        stats.makespan().unwrap_or(0),
        stats.total_deflections(),
    )
    .unwrap();
    for line in extra {
        writeln!(out, "{line}").unwrap();
    }
    writeln!(
        out,
        "events lines={} fnv1a={:016x}",
        events.iter().filter(|&&b| b == b'\n').count(),
        fnv1a(events)
    )
    .unwrap();
    writeln!(out, "stats-arrays fnv1a={:016x}", fnv1a(arrays.as_bytes())).unwrap();
    out
}

/// Number of oscillation moves in a record.
fn oscillations(record: &RunRecord) -> usize {
    record
        .moves
        .iter()
        .filter(|m| m.kind == ExitKind::Oscillate)
        .count()
}

/// Busch router on a butterfly(4) random-pairs instance: exercises
/// scheduled injections, frame phases and wait oscillations. No packet
/// is deflected at this seed (`deflections=0` in the golden); the
/// deflection paths are pinned by `busch_deflections_match_golden`.
#[test]
fn busch_butterfly_matches_golden() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0FFEE);
    let net = Arc::new(builders::butterfly(4));
    let prob = workloads::random_pairs(&net, 14, &mut rng).unwrap();
    let cfg = BuschConfig {
        record: true,
        ..BuschConfig::new(Params::scaled(4, 16, 0.15, 2))
    };
    let out = BuschRouter::with_config(cfg).route(&prob, &mut rng);
    assert!(out.stats.all_delivered(), "golden run must deliver");
    assert!(
        oscillations(out.record.as_ref().unwrap()) > 0,
        "run must oscillate"
    );
    check_golden(
        "busch_butterfly4.txt",
        &out.stats,
        out.record.as_ref().expect("recording on"),
    );
}

/// Busch router on the §5 mesh-transpose instance (C = D = n - 1):
/// deterministic workload, randomized set assignment and tie-breaks.
#[test]
fn busch_mesh_matches_golden() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xBEEF);
    let (raw, coords) = builders::mesh(6, 6, MeshCorner::TopLeft);
    let net = Arc::new(raw);
    let prob = workloads::mesh_transpose(&net, &coords).unwrap();
    let cfg = BuschConfig {
        record: true,
        ..BuschConfig::new(Params::auto(&prob))
    };
    let out = BuschRouter::with_config(cfg).route(&prob, &mut rng);
    assert!(out.stats.all_delivered(), "golden run must deliver");
    check_golden(
        "busch_mesh6.txt",
        &out.stats,
        out.record.as_ref().expect("recording on"),
    );
}

/// Greedy router on a butterfly bit-reversal: covers the baseline loop's
/// rng consumption and conflict ordering too.
#[test]
fn greedy_bit_reversal_matches_golden() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xFEED);
    let net = Arc::new(builders::butterfly(5));
    let coords = ButterflyCoords { k: 5 };
    let prob = workloads::butterfly_bit_reversal(&net, &coords);
    let cfg = baselines::GreedyConfig {
        record: true,
        ..Default::default()
    };
    let out = baselines::GreedyRouter::with_config(cfg).route(&prob, &mut rng);
    assert!(out.stats.all_delivered(), "golden run must deliver");
    check_golden(
        "greedy_bitrev5.txt",
        &out.stats,
        out.record.as_ref().expect("recording on"),
    );
}

/// Attaching observers must not change routing by a single bit: the same
/// seeded run with a `MetricsObserver` and a `JsonlTraceObserver` feeding
/// off every event must reproduce the committed golden exactly.
#[test]
fn observed_run_matches_unobserved_golden() {
    use hotpotato_sim::{JsonlTraceObserver, MetricsObserver};

    let mut rng = ChaCha8Rng::seed_from_u64(0xC0FFEE);
    let net = Arc::new(builders::butterfly(4));
    let prob = workloads::random_pairs(&net, 14, &mut rng).unwrap();
    let cfg = BuschConfig {
        record: true,
        ..BuschConfig::new(Params::scaled(4, 16, 0.15, 2))
    };
    let mut observer = (
        MetricsObserver::new(&prob),
        JsonlTraceObserver::new(Vec::new()),
    );
    let out = BuschRouter::with_config(cfg).route_observed(&prob, &mut rng, &mut observer);
    assert!(out.stats.all_delivered(), "golden run must deliver");
    check_golden(
        "busch_butterfly4.txt",
        &out.stats,
        out.record.as_ref().expect("recording on"),
    );

    // The sinks really observed the run they did not perturb.
    let (metrics, trace) = observer;
    let hist: u64 = metrics
        .deflection_histogram()
        .iter()
        .map(|&(d, c)| u64::from(d) * u64::from(c))
        .sum();
    assert_eq!(hist, out.stats.total_deflections(), "histogram mass");
    let jsonl = String::from_utf8(trace.finish().expect("no io errors")).unwrap();
    assert_eq!(
        jsonl
            .lines()
            .filter(|l| l.contains("\"ev\":\"deliver\""))
            .count(),
        out.stats.delivered_count(),
        "one deliver event per delivered packet"
    );
    for line in jsonl.lines() {
        serde_json::from_str(line).expect("trace lines are valid JSON");
    }
}

/// Busch router with recording and the active trace on, its JSONL event
/// stream captured: the shape of the large digest goldens.
fn busch_run(spec: &str, seed: u64) -> (BuschOutcome, Vec<u8>) {
    let (_, problem, _) = parse_run_spec(spec).unwrap().instantiate().unwrap();
    let cfg = BuschConfig {
        record: true,
        trace: true,
        ..BuschConfig::new(Params::auto(&problem))
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut trace = JsonlTraceObserver::new(Vec::new());
    let out = BuschRouter::with_config(cfg).route_observed(&problem, &mut rng, &mut trace);
    (out, trace.finish().expect("no io errors"))
}

/// The digest of a Busch run: stats, events, and the invariant report.
fn busch_digest(out: &BuschOutcome, events: &[u8]) -> String {
    encode_digest(
        &out.stats,
        events,
        &[
            format!("invariants {}", out.invariants.summary()),
            format!("phases {}", out.phases_elapsed),
        ],
    )
}

/// Busch on butterfly(10) bit-reversal (problem seed 42, router rng 7):
/// ~1k packets with heavy conflicts, so deflections and wait
/// oscillations both occur. Pinned as a digest.
#[test]
fn busch_bitrev10_matches_golden() {
    let (out, events) = busch_run("butterfly:10/bitrev/busch/42", 7);
    assert!(out.stats.all_delivered(), "golden run must deliver");
    assert!(out.stats.total_deflections() > 0, "run must deflect");
    assert!(
        oscillations(out.record.as_ref().unwrap()) > 0,
        "run must oscillate"
    );
    check_encoded("busch_bitrev10.digest", &busch_digest(&out, &events));
}

/// Busch on the §5 mesh application, 8×8 transpose (problem seed 0,
/// router rng 11): wait oscillations on every diagonal. Pinned as a
/// digest.
#[test]
fn busch_mesh8_transpose_matches_golden() {
    let (out, events) = busch_run("mesh:8x8/transpose/busch/0", 11);
    assert!(out.stats.all_delivered(), "golden run must deliver");
    assert!(
        oscillations(out.record.as_ref().unwrap()) > 0,
        "run must oscillate"
    );
    check_encoded("busch_mesh8_transpose.digest", &busch_digest(&out, &events));
}

/// Busch on butterfly(5) bit-reversal with `Params::auto`: conflicts
/// that end in safe backward deflections, pinned move by move.
#[test]
fn busch_deflections_match_golden() {
    let (_, prob, mut rng) = parse_run_spec("bf:5/bitrev/busch/3")
        .unwrap()
        .instantiate()
        .unwrap();
    let cfg = BuschConfig {
        record: true,
        ..BuschConfig::new(Params::auto(&prob))
    };
    let out = BuschRouter::with_config(cfg).route(&prob, &mut rng);
    assert!(out.stats.all_delivered(), "golden run must deliver");
    assert!(out.stats.total_deflections() > 0, "run must deflect");
    check_golden(
        "busch_deflect_bitrev5.txt",
        &out.stats,
        out.record.as_ref().expect("recording on"),
    );
}

/// Greedy with furthest-to-go priority on a congested funnel
/// (complete 8×4, 12 packets): priority-decided conflicts and
/// deflections, pinned move by move.
#[test]
fn greedy_ftg_funnel_matches_golden() {
    let (_, prob, mut rng) = parse_run_spec("complete:8x4/funnel:12/ftg/3")
        .unwrap()
        .instantiate()
        .unwrap();
    let cfg = baselines::GreedyConfig {
        priority: baselines::GreedyPriority::FurthestToGo,
        record: true,
        ..Default::default()
    };
    let out = baselines::GreedyRouter::with_config(cfg).route(&prob, &mut rng);
    assert!(out.stats.all_delivered(), "golden run must deliver");
    assert!(out.stats.total_deflections() > 0, "run must deflect");
    check_golden(
        "greedy_ftg_funnel.txt",
        &out.stats,
        out.record.as_ref().expect("recording on"),
    );
}

/// Random-rank greedy on butterfly(5) bit-reversal: the rank draw, then
/// rank-decided conflicts and deflections, pinned move by move.
#[test]
fn rank_bitrev_matches_golden() {
    let (_, prob, mut rng) = parse_run_spec("bf:5/bitrev/rank/3")
        .unwrap()
        .instantiate()
        .unwrap();
    let router = baselines::RandomPriorityRouter {
        record: true,
        ..Default::default()
    };
    let out = router.route(&prob, &mut rng);
    assert!(out.stats.all_delivered(), "golden run must deliver");
    assert!(out.stats.total_deflections() > 0, "run must deflect");
    check_golden(
        "rank_bitrev5.txt",
        &out.stats,
        out.record.as_ref().expect("recording on"),
    );
}

/// Runs a streaming spec through the same path as `hotpotato route`
/// (instance, then the arrival schedule from the post-workload rng)
/// and returns the digest golden text plus the outcome's drop and
/// deflection counts.
fn streaming_digest(spec: &str, admission: AdmissionControl) -> (String, u64, u64) {
    let run = parse_run_spec(spec).unwrap();
    let (_, problem, mut rng) = run.instantiate().unwrap();
    let process = run.arrival_process().unwrap().expect("streaming spec");
    let schedule = process.schedule(problem.num_packets(), &mut rng);
    let cfg = StreamingConfig {
        admission,
        priority: StreamPriority::for_algo(&run.algo).unwrap(),
        record: true,
        trace: true,
        ..StreamingConfig::default()
    };
    let mut trace = JsonlTraceObserver::new(Vec::new());
    let out = route_streaming_observed(&problem, &schedule, &cfg, &mut rng, &mut trace);
    assert!(out.drained, "{spec}: golden stream must drain");
    let record = out.record.as_ref().expect("recording on");
    assert_eq!(
        record.moves.len() as u64,
        out.stats.counter("moves"),
        "{spec}: moves counter"
    );
    let events = trace.finish().expect("no io errors");
    let text = encode_digest(
        &out.stats,
        &events,
        &[format!(
            "stream arrivals={} admitted={} dropped={} peak_deferred={} peak_in_flight={}",
            out.arrivals, out.admitted, out.dropped, out.peak_deferred, out.peak_in_flight
        )],
    );
    (text, out.dropped, out.stats.total_deflections())
}

/// Streaming greedy under Poisson arrivals: conflicts and deflections
/// among packets that entered at different times.
#[test]
fn streaming_greedy_poisson_matches_golden() {
    let (text, _, deflections) = streaming_digest(
        "bf:6/pairs:256/greedy/7/poisson:16",
        AdmissionControl::default(),
    );
    assert!(deflections > 0, "stream must deflect");
    check_encoded("stream_greedy_poisson.digest", &text);
}

/// Streaming furthest-to-go under bursts with a tight injection queue:
/// admission control drops the overflow.
#[test]
fn streaming_ftg_burst_drops_match_golden() {
    let (text, dropped, _) = streaming_digest(
        "bf:5/pairs:64/ftg/3/burst:16:4",
        AdmissionControl {
            max_in_flight: 8,
            max_deferred: 6,
        },
    );
    assert!(dropped > 0, "stream must drop");
    check_encoded("stream_ftg_burst.digest", &text);
}

/// Streaming aging under adversarial burst trains: the most-deflected
/// packet wins, so conflicts and deflections are decided by history.
#[test]
fn streaming_aging_adversarial_matches_golden() {
    let (text, _, deflections) = streaming_digest(
        "bf:6/pairs:96/aging/5/adversarial:16:3",
        AdmissionControl::default(),
    );
    assert!(deflections > 0, "stream must deflect");
    check_encoded("stream_aging_adversarial.digest", &text);
}
