//! The live snapshot payload and the observer that publishes it.
//!
//! [`LiveObserver`] sits in the engine's observer slot (composing a
//! [`MetricsObserver`] and a [`StreamingAggregator`]) and, every
//! `publish_every` steps, copies the current aggregates into a
//! [`LiveSnapshot`] through the never-blocking
//! [`SnapshotPublisher`] exchange. HTTP handler threads read the other
//! side. The publish path is `// lint: hot-path`: it only copies —
//! `clear()` + `extend_from_slice` into buffers pre-sized at exchange
//! creation — so the steady state allocates nothing and a contended
//! publish is skipped rather than waited on.

use hotpotato_sim::{
    snapshot_exchange, ExitKind, MetricsObserver, RouteObserver, RouteStats, Section,
    SnapshotPublisher, SnapshotReader, StepReport, Time,
};
use hotpotato_trace::{Bucket, StreamingAggregator};
use leveled_net::ids::DirectedEdge;
use routing_core::RoutingProblem;

/// Upper bounds of the deflections-per-packet histogram buckets
/// (`le="0"`, `le="1"`, `le="2"`, `le="4"`, … — powers of two); counts
/// above the last bound land in the `+Inf` overflow bucket.
pub const DEFL_BUCKET_BOUNDS: [u32; 10] = [0, 1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Number of histogram slots: one per bound plus the overflow bucket.
pub const DEFL_BUCKETS: usize = DEFL_BUCKET_BOUNDS.len() + 1;

/// The histogram slot a deflection count falls into.
fn defl_bucket(deflections: u32) -> usize {
    DEFL_BUCKET_BOUNDS
        .iter()
        .position(|&bound| deflections <= bound)
        .unwrap_or(DEFL_BUCKET_BOUNDS.len())
}

/// Upper bounds of the delivery-latency histogram buckets (steps from
/// injection to absorption; powers of two). Latencies above the last
/// bound land in the `+Inf` overflow bucket.
pub const LAT_BUCKET_BOUNDS: [u64; 12] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];

/// Number of latency histogram slots: one per bound plus overflow.
pub const LAT_BUCKETS: usize = LAT_BUCKET_BOUNDS.len() + 1;

/// Capacity of the sliding window of recent delivery latencies that
/// backs the live percentile gauges. A fixed ring: the window always
/// holds the most recent `LAT_WINDOW` deliveries (fewer early on).
pub const LAT_WINDOW: usize = 512;

/// The histogram slot a delivery latency falls into.
fn lat_bucket(latency: u64) -> usize {
    LAT_BUCKET_BOUNDS
        .iter()
        .position(|&bound| latency <= bound)
        .unwrap_or(LAT_BUCKET_BOUNDS.len())
}

/// One coherent view of a running (or finished) simulation: everything
/// `/metrics` and `/rollup` serve, copied under the exchange lock so a
/// reader never observes half of one step and half of another.
#[derive(Clone, Debug)]
pub struct LiveSnapshot {
    /// Total packets in the instance.
    pub packets: u64,
    /// Steps completed.
    pub steps: u64,
    /// Moves staged (injections included).
    pub moves: u64,
    /// Packets delivered (trivial deliveries included).
    pub delivered: u64,
    /// Trivial (source == destination) deliveries.
    pub trivial: u64,
    /// Packets injected into the network.
    pub injected: u64,
    /// Oscillation moves.
    pub oscillations: u64,
    /// Safe (edge-recycling) deflections.
    pub safe_deflections: u64,
    /// Unsafe (fallback) deflections.
    pub unsafe_deflections: u64,
    /// In-flight packets after the last completed step.
    pub active: u64,
    /// Phases seen so far (0 for phase-less routers).
    pub phases: u64,
    /// Streaming: packets surfaced by the arrival process (0 in batch
    /// mode, where the whole workload is available at step 0).
    pub arrivals: u64,
    /// Streaming: packets dropped by admission control (queue full).
    pub drops: u64,
    /// The publisher's skipped publishes as of this snapshot, `(fills,
    /// flips)`: a skipped fill dropped that snapshot (a reader held the
    /// back buffer), a skipped flip was retried on the next publish (a
    /// reader held the front index).
    pub skipped: (u64, u64),
    /// Deliveries counted into the latency histogram.
    pub lat_count: u64,
    /// Sum of all counted delivery latencies (steps).
    pub lat_sum: u64,
    /// Delivery-latency histogram, per-bucket counts aligned with
    /// [`LAT_BUCKET_BOUNDS`] plus the overflow slot.
    pub lat_hist: [u64; LAT_BUCKETS],
    /// Sliding window of the most recent delivery latencies (unordered;
    /// readers sort their own copy for percentiles).
    pub lat_window: Vec<u64>,
    /// Deflections-per-packet histogram, per-bucket counts aligned with
    /// [`DEFL_BUCKET_BOUNDS`] plus the overflow slot.
    pub defl_hist: [u64; DEFL_BUCKETS],
    /// Live per-level packet count.
    pub occupancy: Vec<u32>,
    /// Max per-level occupancy observed at any step end.
    pub level_watermark: Vec<u32>,
    /// Initial per-frontier-set congestion (Lemma 2.2 quantity).
    pub congestion_initial: Vec<u32>,
    /// Max audited per-set congestion across phase ends.
    pub congestion_watermark: Vec<u32>,
    /// The `ln(L·N)` Lemma 2.2 bound the watermarks are measured against.
    pub ln_ln_bound: f64,
    /// `true` once the run quiesced (this snapshot is final and exact).
    pub finished: bool,
    /// Rollup: what the aggregator keys buckets by (`phase` or `step`).
    pub rollup_keyed_by: &'static str,
    /// Rollup: hard bucket cap.
    pub rollup_cap: usize,
    /// Rollup: keys per bucket after merges.
    pub rollup_scale: u64,
    /// Rollup: merge sweeps that have run.
    pub rollup_merges: u64,
    /// Rollup: exact run totals.
    pub rollup_totals: Bucket,
    /// Rollup: the current buckets.
    pub rollup_buckets: Vec<Bucket>,
}

impl LiveSnapshot {
    /// An empty seed snapshot with every buffer pre-sized so steady-state
    /// publishes never allocate (`levels` per-level slots, `rollup_cap`
    /// bucket slots, and a generous frontier-set reserve).
    fn seed(levels: usize, packets: u64, rollup_cap: usize) -> Self {
        // Frontier-set counts are small (the paper uses O(1) sets); 64
        // covers anything the CLI can configure without reallocating.
        const SET_RESERVE: usize = 64;
        LiveSnapshot {
            packets,
            steps: 0,
            moves: 0,
            delivered: 0,
            trivial: 0,
            injected: 0,
            oscillations: 0,
            safe_deflections: 0,
            unsafe_deflections: 0,
            active: 0,
            phases: 0,
            arrivals: 0,
            drops: 0,
            skipped: (0, 0),
            lat_count: 0,
            lat_sum: 0,
            lat_hist: [0; LAT_BUCKETS],
            lat_window: Vec::with_capacity(LAT_WINDOW),
            defl_hist: [0; DEFL_BUCKETS],
            occupancy: Vec::with_capacity(levels),
            level_watermark: Vec::with_capacity(levels),
            congestion_initial: Vec::with_capacity(SET_RESERVE),
            congestion_watermark: Vec::with_capacity(SET_RESERVE),
            ln_ln_bound: 0.0,
            finished: false,
            rollup_keyed_by: "step",
            rollup_cap,
            rollup_scale: 1,
            rollup_merges: 0,
            rollup_totals: Bucket::default(),
            rollup_buckets: Vec::with_capacity(rollup_cap),
        }
    }

    /// Total deflections (safe + unsafe).
    pub fn total_deflections(&self) -> u64 {
        self.safe_deflections + self.unsafe_deflections
    }

    /// Streaming injection-queue depth: packets that have arrived but
    /// are neither dropped nor in the network nor trivially delivered.
    /// Always 0 in batch mode (no arrival events).
    pub fn queue_depth(&self) -> u64 {
        self.arrivals
            .saturating_sub(self.drops + self.injected + self.trivial)
    }
}

/// Scalar counters the observer maintains itself (the vectors live in
/// the composed [`MetricsObserver`]).
#[derive(Clone, Copy, Default)]
struct Counts {
    steps: u64,
    moves: u64,
    delivered: u64,
    trivial: u64,
    injected: u64,
    oscillations: u64,
    active: u64,
    phases: u64,
    arrivals: u64,
    drops: u64,
    /// The publisher's skip counts as of the last fill.
    skipped: (u64, u64),
}

/// Incremental delivery-latency aggregates: the histogram, the running
/// sum/count, and the fixed-capacity ring of recent latencies.
struct Latency {
    hist: [u64; LAT_BUCKETS],
    sum: u64,
    count: u64,
    ring: Vec<u64>,
    pos: usize,
}

impl Latency {
    fn new() -> Self {
        Latency {
            hist: [0; LAT_BUCKETS],
            sum: 0,
            count: 0,
            ring: Vec::with_capacity(LAT_WINDOW),
            pos: 0,
        }
    }

    // lint: hot-path
    fn record(&mut self, latency: u64) {
        self.hist[lat_bucket(latency)] += 1;
        self.sum += latency;
        self.count += 1;
        if self.ring.len() < LAT_WINDOW {
            self.ring.push(latency);
        } else {
            self.ring[self.pos] = latency;
            self.pos = (self.pos + 1) % LAT_WINDOW;
        }
    }
}

/// Copies the current aggregates into `snap`. Split out so the same
/// fill drives both the non-blocking periodic publish and the final
/// blocking flush; everything here is a scalar store or a copy into a
/// pre-sized buffer.
// lint: hot-path
fn fill_snapshot(
    snap: &mut LiveSnapshot,
    counts: &Counts,
    defl_hist: &[u64; DEFL_BUCKETS],
    latency: &Latency,
    metrics: &MetricsObserver,
    agg: &StreamingAggregator,
    finished: bool,
) {
    snap.steps = counts.steps;
    snap.moves = counts.moves;
    snap.delivered = counts.delivered;
    snap.trivial = counts.trivial;
    snap.injected = counts.injected;
    snap.oscillations = counts.oscillations;
    snap.active = counts.active;
    snap.phases = counts.phases;
    snap.arrivals = counts.arrivals;
    snap.drops = counts.drops;
    snap.skipped = counts.skipped;
    snap.lat_count = latency.count;
    snap.lat_sum = latency.sum;
    snap.lat_hist = latency.hist;
    snap.lat_window.clear();
    snap.lat_window.extend_from_slice(&latency.ring);
    snap.safe_deflections = metrics.safe_deflections();
    snap.unsafe_deflections = metrics.unsafe_deflections();
    snap.defl_hist = *defl_hist;
    snap.occupancy.clear();
    snap.occupancy.extend_from_slice(metrics.occupancy());
    snap.level_watermark.clear();
    snap.level_watermark
        .extend_from_slice(metrics.level_watermarks());
    snap.congestion_initial.clear();
    snap.congestion_initial
        .extend_from_slice(metrics.congestion_initial());
    snap.congestion_watermark.clear();
    snap.congestion_watermark
        .extend_from_slice(metrics.congestion_watermarks());
    snap.ln_ln_bound = metrics.ln_ln_bound();
    snap.finished = finished;
    snap.rollup_keyed_by = agg.keyed_by();
    snap.rollup_cap = agg.cap();
    snap.rollup_scale = agg.scale();
    snap.rollup_merges = agg.merges();
    snap.rollup_totals = *agg.totals();
    snap.rollup_buckets.clear();
    snap.rollup_buckets.extend_from_slice(agg.buckets());
}

/// The serving observer: forwards every event to a [`MetricsObserver`]
/// and a [`StreamingAggregator`], maintains the fixed-bucket deflection
/// histogram incrementally, and publishes a [`LiveSnapshot`] every
/// `publish_every` steps through the exchange.
pub struct LiveObserver {
    metrics: MetricsObserver,
    agg: StreamingAggregator,
    publisher: SnapshotPublisher<LiveSnapshot>,
    publish_every: u64,
    /// Optional per-step sleep (microseconds) — stretches short runs so
    /// CI can scrape them mid-flight deterministically.
    throttle_us: u64,
    counts: Counts,
    /// Deflections per packet (drives the incremental histogram).
    defl_counts: Vec<u32>,
    defl_hist: [u64; DEFL_BUCKETS],
    /// Injection step per packet (`u64::MAX` = not injected yet);
    /// delivery latency is absorb time minus this.
    injected_step: Vec<Time>,
    latency: Latency,
}

impl LiveObserver {
    /// Creates the observer plus the reader half of its exchange.
    /// Snapshots are published every `publish_every` steps (min 1) and
    /// the internal rollup aggregator holds at most `rollup_cap` buckets.
    pub fn new(
        problem: &RoutingProblem,
        publish_every: u64,
        rollup_cap: usize,
    ) -> (Self, SnapshotReader<LiveSnapshot>) {
        let levels = problem.network_arc().num_levels();
        let packets = problem.num_packets() as u64;
        let n = problem.num_packets();
        let seed_a = LiveSnapshot::seed(levels, packets, rollup_cap.max(2));
        let seed_b = seed_a.clone();
        let (publisher, reader) = snapshot_exchange(seed_a, seed_b);
        let mut defl_hist = [0u64; DEFL_BUCKETS];
        // Every packet starts with zero deflections.
        defl_hist[0] = packets;
        (
            LiveObserver {
                metrics: MetricsObserver::new(problem),
                agg: StreamingAggregator::new(rollup_cap),
                publisher,
                publish_every: publish_every.max(1),
                throttle_us: 0,
                counts: Counts::default(),
                defl_counts: vec![0; n],
                defl_hist,
                injected_step: vec![u64::MAX; n],
                latency: Latency::new(),
            },
            reader,
        )
    }

    /// Sleeps `us` microseconds at every step end (0 disables). Only for
    /// demonstrations and CI smoke runs that must be scrapable mid-run.
    pub fn with_throttle_us(mut self, us: u64) -> Self {
        self.throttle_us = us;
        self
    }

    /// `(skipped_fills, skipped_flips)` of the underlying publisher.
    pub fn skipped_publishes(&self) -> (u64, u64) {
        self.publisher.skipped()
    }

    /// Read access to the composed aggregator (the quiesce-consistency
    /// tests compare the served rollup against exactly this state).
    pub fn aggregator(&self) -> &StreamingAggregator {
        &self.agg
    }

    /// Final blocking flush: overwrites the headline counters with the
    /// authoritative [`RouteStats`] and marks the snapshot finished.
    /// After this returns, every acquire observes the final state.
    pub fn finish(mut self, stats: &RouteStats) -> StreamingAggregator {
        self.counts.steps = stats.steps_run;
        self.counts.delivered = stats.delivered_count() as u64;
        self.counts.active = 0;
        let Self {
            metrics,
            agg,
            publisher,
            counts,
            defl_hist,
            latency,
            ..
        } = &mut self;
        counts.skipped = publisher.skipped();
        publisher.flush_with(|snap| {
            fill_snapshot(snap, counts, defl_hist, latency, metrics, agg, true);
        });
        self.agg
    }

    /// Periodic non-blocking publish (and optional throttle sleep).
    // lint: hot-path
    fn publish_if_due(&mut self) {
        if self.counts.steps.is_multiple_of(self.publish_every) {
            let Self {
                metrics,
                agg,
                publisher,
                counts,
                defl_hist,
                latency,
                ..
            } = self;
            counts.skipped = publisher.skipped();
            publisher.publish_with(|snap| {
                fill_snapshot(snap, counts, defl_hist, latency, metrics, agg, false);
            });
        }
    }
}

impl RouteObserver for LiveObserver {
    fn on_move(&mut self, t: Time, pkt: u32, mv: DirectedEdge, kind: ExitKind) {
        self.counts.moves += 1;
        match kind {
            ExitKind::Inject => {
                self.counts.injected += 1;
                self.injected_step[pkt as usize] = t;
            }
            ExitKind::Oscillate => self.counts.oscillations += 1,
            ExitKind::Deflect { .. } => {
                let d = &mut self.defl_counts[pkt as usize];
                let from = defl_bucket(*d);
                *d += 1;
                let to = defl_bucket(*d);
                if from != to {
                    self.defl_hist[from] -= 1;
                    self.defl_hist[to] += 1;
                }
            }
            ExitKind::Advance => {}
        }
        self.metrics.on_move(t, pkt, mv, kind);
        self.agg.on_move(t, pkt, mv, kind);
    }

    fn on_trivial(&mut self, t: Time, pkt: u32) {
        self.counts.trivial += 1;
        self.counts.delivered += 1;
        // Source == destination: delivered the step it was admitted.
        self.latency.record(0);
        self.metrics.on_trivial(t, pkt);
        self.agg.on_trivial(t, pkt);
    }

    fn on_deliver(&mut self, t: Time, pkt: u32) {
        self.counts.delivered += 1;
        let injected = self.injected_step[pkt as usize];
        if injected != u64::MAX {
            self.latency.record(t.saturating_sub(injected));
        }
        self.metrics.on_deliver(t, pkt);
        self.agg.on_deliver(t, pkt);
    }

    fn on_arrival(&mut self, t: Time, pkt: u32) {
        self.counts.arrivals += 1;
        self.metrics.on_arrival(t, pkt);
        self.agg.on_arrival(t, pkt);
    }

    fn on_drop(&mut self, t: Time, pkt: u32) {
        self.counts.drops += 1;
        self.metrics.on_drop(t, pkt);
        self.agg.on_drop(t, pkt);
    }

    fn on_step_end(&mut self, t: Time, report: &StepReport, active: usize) {
        self.counts.steps += 1;
        self.counts.active = active as u64;
        self.metrics.on_step_end(t, report, active);
        self.agg.on_step_end(t, report, active);
        self.publish_if_due();
        if self.throttle_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(self.throttle_us));
        }
    }

    fn on_sets_assigned(&mut self, sets: &[u32], num_sets: u32) {
        self.metrics.on_sets_assigned(sets, num_sets);
        self.agg.on_sets_assigned(sets, num_sets);
    }

    fn on_phase_start(&mut self, phase: u64, t: Time) {
        self.counts.phases = self.counts.phases.max(phase + 1);
        self.metrics.on_phase_start(phase, t);
        self.agg.on_phase_start(phase, t);
    }

    fn on_phase_end(&mut self, phase: u64, t: Time) {
        self.metrics.on_phase_end(phase, t);
        self.agg.on_phase_end(phase, t);
    }

    fn on_frontier(&mut self, phase: u64, set: u32, frontier: i64) {
        self.metrics.on_frontier(phase, set, frontier);
        self.agg.on_frontier(phase, set, frontier);
    }

    fn on_set_congestion(&mut self, phase: u64, set: u32, congestion: u32, initial: u32) {
        self.metrics
            .on_set_congestion(phase, set, congestion, initial);
        self.agg.on_set_congestion(phase, set, congestion, initial);
    }

    fn on_section(&mut self, section: Section, nanos: u64) {
        self.metrics.on_section(section, nanos);
        self.agg.on_section(section, nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defl_buckets_partition_the_counts() {
        assert_eq!(defl_bucket(0), 0);
        assert_eq!(defl_bucket(1), 1);
        assert_eq!(defl_bucket(2), 2);
        assert_eq!(defl_bucket(3), 3);
        assert_eq!(defl_bucket(4), 3);
        assert_eq!(defl_bucket(5), 4);
        assert_eq!(defl_bucket(256), 9);
        assert_eq!(defl_bucket(257), 10);
        assert_eq!(defl_bucket(u32::MAX), DEFL_BUCKETS - 1);
    }

    #[test]
    fn latency_buckets_and_ring_window() {
        assert_eq!(lat_bucket(0), 0);
        assert_eq!(lat_bucket(1), 0);
        assert_eq!(lat_bucket(2), 1);
        assert_eq!(lat_bucket(2048), LAT_BUCKET_BOUNDS.len() - 1);
        assert_eq!(lat_bucket(2049), LAT_BUCKETS - 1);

        let mut lat = Latency::new();
        for i in 0..(LAT_WINDOW as u64 + 10) {
            lat.record(i);
        }
        assert_eq!(lat.count, LAT_WINDOW as u64 + 10);
        assert_eq!(lat.hist.iter().sum::<u64>(), lat.count);
        // The ring holds exactly the most recent LAT_WINDOW latencies.
        assert_eq!(lat.ring.len(), LAT_WINDOW);
        assert!(!lat.ring.contains(&9));
        assert!(lat.ring.contains(&10));
        assert!(lat.ring.contains(&(LAT_WINDOW as u64 + 9)));
    }

    #[test]
    fn histogram_counts_always_sum_to_packets() {
        // Simulate deflection count increments and check conservation.
        let mut hist = [0u64; DEFL_BUCKETS];
        let mut counts = [0u32; 7];
        hist[0] = counts.len() as u64;
        for (i, steps) in [
            (0usize, 1u32),
            (1, 3),
            (2, 9),
            (3, 300),
            (4, 0),
            (5, 2),
            (6, 257),
        ] {
            for _ in 0..steps {
                let from = defl_bucket(counts[i]);
                counts[i] += 1;
                let to = defl_bucket(counts[i]);
                if from != to {
                    hist[from] -= 1;
                    hist[to] += 1;
                }
            }
        }
        assert_eq!(hist.iter().sum::<u64>(), counts.len() as u64);
        // 300 and 257 overflow the last bound.
        assert_eq!(hist[DEFL_BUCKETS - 1], 2);
    }

    #[test]
    fn skipped_publishes_reach_the_next_snapshot() {
        let (_, problem, _) = routing_core::spec::parse_run_spec("bf:3/bitrev/busch/1")
            .unwrap()
            .instantiate()
            .unwrap();
        let (mut live, reader) = LiveObserver::new(&problem, 1, 8);
        let report = StepReport::default();
        reader.acquire(|_, _| {
            // The first publish fills the free slot and flips it front;
            // the second finds its back slot (the one held here) locked.
            live.on_step_end(0, &report, 0);
            live.on_step_end(1, &report, 0);
        });
        assert_eq!(live.skipped_publishes(), (1, 0));
        live.on_step_end(2, &report, 0);
        assert_eq!(reader.acquire(|_, s| s.skipped), (1, 0));
    }
}
