//! Continuous-injection (streaming) routing: the open-ended step loop.
//!
//! Batch mode injects every packet per a schedule decided up front and
//! runs to quiesce. Streaming mode instead models the online setting of
//! the Even–Medina line: packets *arrive over time* per an
//! [`routing_core::workloads::ArrivalProcess`] and pass through
//! **admission control** before injection —
//!
//! * a packet whose arrival step has been reached enters the injection
//!   queue, unless the queue is already at its bound, in which case the
//!   packet is **dropped** (never injected, counted, reported via
//!   [`RouteObserver::on_drop`]);
//! * queued packets are injected whenever the in-flight count is below
//!   the **in-flight cap** and their source port is free — a queued
//!   packet is **deferred**, not dropped, for as long as that takes.
//!
//! In-network packets obey the unchanged hot-potato constraints (every
//! active packet moves every step, one packet per edge per direction,
//! absorb on arrival), dispatched by the greedy step the batch baselines
//! use ([`GreedyStep`]) on the [`SoaEngine`]. The run ends when every
//! arrival has been delivered or dropped and the network has drained, or
//! at the step cap.
//!
//! The driver emits the standard engine events plus the two streaming
//! events ([`RouteObserver::on_arrival`] / [`RouteObserver::on_drop`]),
//! so metrics, JSONL traces, live serving, and replay verification all
//! work on open-ended runs through the existing observer path.

use crate::engine::InjectOutcome;
use crate::greedy_step::GreedyStep;
use crate::observe::{NoopObserver, RouteObserver};
use crate::record::RunRecord;
use crate::soa::SoaEngine;
use crate::stats::{RouteStats, Time};
use rand::Rng;
use routing_core::RoutingProblem;
use std::sync::Arc;

/// Bounds on the injection queue: how much sustained load the stream
/// admits before deferring, and how much it defers before dropping.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionControl {
    /// Maximum packets in the network at once; arrivals beyond it wait
    /// in the injection queue.
    pub max_in_flight: usize,
    /// Maximum length of the injection queue; arrivals beyond it are
    /// dropped.
    pub max_deferred: usize,
}

impl Default for AdmissionControl {
    fn default() -> Self {
        AdmissionControl {
            max_in_flight: 256,
            max_deferred: 1024,
        }
    }
}

/// Conflict-resolution priority rule of the greedy step, shared by the
/// streaming driver and the greedy baseline.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StreamPriority {
    /// All packets equal; conflicts resolved uniformly at random.
    Uniform,
    /// The packet with the most remaining current-path edges wins.
    #[default]
    FurthestToGo,
    /// The packet deflected most often wins (starvation freedom).
    Aging,
}

impl StreamPriority {
    /// The priority of packet `pkt` under this rule (higher wins): its
    /// remaining current-path length under furthest-to-go, its
    /// deflections so far under aging.
    #[inline]
    pub fn priority_of<O: RouteObserver>(self, sim: &SoaEngine<O>, pkt: u32) -> u32 {
        let i = pkt as usize;
        match self {
            StreamPriority::Uniform => 0,
            StreamPriority::FurthestToGo => sim
                .shared()
                .flight
                .get(i)
                .map_or(0, |f| f.dev_depth + (f.path_end - f.path_next)),
            StreamPriority::Aging => sim.stats().deflections.get(i).copied().unwrap_or(0),
        }
    }

    /// The priority rule a run spec's algorithm name selects in
    /// streaming mode. The streaming driver runs the greedy step, so
    /// only the priority-rule algorithms map onto it (the Busch phase
    /// algorithm and the store-and-forward baselines are batch-only).
    pub fn for_algo(algo: &str) -> Result<StreamPriority, String> {
        match algo {
            "greedy" => Ok(StreamPriority::Uniform),
            "ftg" => Ok(StreamPriority::FurthestToGo),
            "aging" => Ok(StreamPriority::Aging),
            other => Err(format!(
                "algorithm '{other}' does not support streaming arrivals \
                 (streaming algos: greedy|ftg|aging)"
            )),
        }
    }
}

/// Configuration of a streaming run.
#[derive(Clone, Copy, Debug)]
pub struct StreamingConfig {
    /// Injection-queue bounds.
    pub admission: AdmissionControl,
    /// Conflict priority rule.
    pub priority: StreamPriority,
    /// Safety cap on simulated steps (the loop is open-ended; a cap
    /// keeps adversarial schedules finite).
    pub max_steps: u64,
    /// Record the per-step active-packet trace.
    pub trace: bool,
    /// Record every movement event for independent replay auditing.
    pub record: bool,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            admission: AdmissionControl::default(),
            priority: StreamPriority::default(),
            max_steps: 5_000_000,
            trace: false,
            record: false,
        }
    }
}

/// Result of a streaming run: the standard statistics plus the
/// injection/admission accounting.
#[derive(Clone, Debug)]
pub struct StreamingOutcome {
    /// Standard routing statistics. Dropped packets stay uninjected and
    /// undelivered; delivered-vs-dropped accounting is exact:
    /// `delivered + dropped == arrivals` when the run drained.
    pub stats: RouteStats,
    /// The movement record, when [`StreamingConfig::record`] was set.
    pub record: Option<RunRecord>,
    /// Packets made available by the arrival schedule.
    pub arrivals: u64,
    /// Packets admitted into the network (injected or trivially
    /// delivered at injection).
    pub admitted: u64,
    /// Packets dropped by admission control.
    pub dropped: u64,
    /// Peak injection-queue length observed.
    pub peak_deferred: usize,
    /// Peak in-flight count observed at a step end.
    pub peak_in_flight: usize,
    /// Whether every arrival was resolved (delivered or dropped) and
    /// the network drained before the step cap.
    pub drained: bool,
}

impl StreamingOutcome {
    /// Delivered packets per step over the whole run — the steady-state
    /// throughput once the run is long enough to amortize ramp-up.
    pub fn throughput(&self) -> f64 {
        let steps = self.stats.steps_run.max(1);
        self.stats.delivered_at.iter().flatten().count() as f64 / steps as f64
    }
}

/// Routes `problem` in streaming mode: packet `i` becomes available at
/// step `schedule[i]` and flows through admission control. Deterministic
/// given the rng state. `schedule.len()` must equal the problem's packet
/// count.
pub fn route_streaming<R: Rng + ?Sized>(
    problem: &Arc<RoutingProblem>,
    schedule: &[Time],
    cfg: &StreamingConfig,
    rng: &mut R,
) -> StreamingOutcome {
    route_streaming_observed(problem, schedule, cfg, rng, &mut NoopObserver)
}

/// [`route_streaming`] with an attached event sink.
// lint: no-panic
pub fn route_streaming_observed<R: Rng + ?Sized, O: RouteObserver + ?Sized>(
    problem: &Arc<RoutingProblem>,
    schedule: &[Time],
    cfg: &StreamingConfig,
    rng: &mut R,
    observer: &mut O,
) -> StreamingOutcome {
    let n = problem.num_packets();
    // lint: allow-panic(api precondition: the schedule/packet arity contract is the fn's one caller-facing assert)
    assert_eq!(schedule.len(), n, "arrival schedule must time every packet");
    let mut sim = SoaEngine::new(Arc::clone(problem), cfg.trace, cfg.record, observer);
    let mut step = GreedyStep::new(problem.network_arc());

    // Arrival order: by step, ties by packet id (generators emit
    // non-decreasing schedules, but an explicit schedule need not be).
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&p| (schedule.get(p as usize).copied(), p));
    let mut next_arrival = 0usize;

    // The injection queue, in arrival order. `retain` keeps blocked
    // packets queued without head-of-line blocking across sources.
    let mut queue: Vec<u32> = Vec::new();
    let mut arrivals = 0u64;
    let mut admitted = 0u64;
    let mut dropped = 0u64;
    let mut peak_deferred = 0usize;
    let mut peak_in_flight = 0usize;

    loop {
        let all_arrived = next_arrival >= n;
        if all_arrived && queue.is_empty() && sim.active_count() == 0 {
            break;
        }
        if sim.now() >= cfg.max_steps {
            break;
        }
        let now = sim.now();

        // 1. Every in-network packet must be staged an exit (no rest).
        step.dispatch(&mut sim, |sim, p| cfg.priority.priority_of(sim, p), rng);

        // 2. Arrival intake: packets whose step has come enter the
        // queue, or are dropped if the queue is at its bound.
        while let Some(&p) = order.get(next_arrival) {
            if schedule.get(p as usize).is_some_and(|&t| t > now) {
                break;
            }
            next_arrival += 1;
            arrivals += 1;
            sim.observer_mut().on_arrival(now, p);
            if queue.len() >= cfg.admission.max_deferred {
                dropped += 1;
                sim.observer_mut().on_drop(now, p);
                sim.stats_mut().bump("dropped");
            } else {
                queue.push(p);
            }
        }
        peak_deferred = peak_deferred.max(queue.len());

        // 3. Injection under the in-flight cap, oldest arrivals first.
        let mut budget = cfg
            .admission
            .max_in_flight
            .saturating_sub(sim.active_count());
        queue.retain(|&p| {
            if budget == 0 {
                return true;
            }
            match sim.try_inject(p) {
                InjectOutcome::Injected => {
                    budget -= 1;
                    admitted += 1;
                    false
                }
                InjectOutcome::DeliveredTrivially => {
                    admitted += 1;
                    false
                }
                InjectOutcome::Blocked => true,
            }
        });

        step.commit(&mut sim);
        peak_in_flight = peak_in_flight.max(sim.active_count());
    }

    let drained = next_arrival >= n && queue.is_empty() && sim.active_count() == 0;
    let (mut stats, record) = step.into_parts(sim);
    stats.bump_by("arrivals", arrivals);
    stats.bump_by("admitted", admitted);
    StreamingOutcome {
        stats,
        record,
        arrivals,
        admitted,
        dropped,
        peak_deferred,
        peak_in_flight,
        drained,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leveled_net::builders;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use routing_core::workloads::{self, ArrivalProcess};

    fn poisson_instance(
        pkts: usize,
        rate: f64,
        seed: u64,
    ) -> (Arc<RoutingProblem>, Vec<Time>, ChaCha8Rng) {
        let net = Arc::new(builders::butterfly(5));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let prob = workloads::random_pairs(&net, pkts, &mut rng).unwrap();
        let schedule = ArrivalProcess::Poisson { rate }.schedule(pkts, &mut rng);
        (prob, schedule, rng)
    }

    #[test]
    fn poisson_stream_drains_and_delivers() {
        let (prob, schedule, mut rng) = poisson_instance(24, 0.5, 1);
        let out = route_streaming(&prob, &schedule, &StreamingConfig::default(), &mut rng);
        assert!(out.drained, "{}", out.stats.summary());
        assert!(out.stats.all_delivered());
        assert_eq!(out.arrivals, 24);
        assert_eq!(out.admitted, 24);
        assert_eq!(out.dropped, 0);
        assert!(out.throughput() > 0.0);
        // No packet is injected before its arrival step.
        for (i, inj) in out.stats.injected_at.iter().enumerate() {
            assert!(inj.unwrap() >= schedule[i], "packet {i} injected early");
        }
    }

    #[test]
    fn moves_counter_matches_per_packet_flight_times() {
        // Bufferless: a packet moves on every step from its injection to
        // its delivery, so the drained run's move count is the sum of
        // the packets' flight times.
        let (prob, schedule, mut rng) = poisson_instance(40, 2.0, 4);
        let out = route_streaming(&prob, &schedule, &StreamingConfig::default(), &mut rng);
        assert!(out.drained && out.stats.all_delivered());
        let flight: u64 = out
            .stats
            .injected_at
            .iter()
            .zip(&out.stats.delivered_at)
            .map(|(i, d)| d.unwrap() - i.unwrap())
            .sum();
        assert!(flight > 0);
        assert_eq!(out.stats.counter("moves"), flight);
    }

    #[test]
    fn burst_with_tight_queue_drops_the_overflow() {
        let net = Arc::new(builders::butterfly(4));
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let prob = workloads::random_pairs(&net, 16, &mut rng).unwrap();
        // Everyone arrives at step 0; the queue holds 4 and the network 2.
        let schedule = vec![0; 16];
        let cfg = StreamingConfig {
            admission: AdmissionControl {
                max_in_flight: 2,
                max_deferred: 4,
            },
            ..Default::default()
        };
        let out = route_streaming(&prob, &schedule, &cfg, &mut rng);
        assert!(out.drained);
        assert_eq!(out.dropped, 12, "16 arrivals, 2 injectable + 4 queued");
        assert_eq!(out.admitted + out.dropped, out.arrivals);
        assert!(out.peak_in_flight <= 2);
        assert!(out.peak_deferred <= 4);
        let delivered = out.stats.delivered_at.iter().flatten().count() as u64;
        assert_eq!(delivered, out.admitted);
        assert_eq!(out.stats.counter("dropped"), 12);
    }

    #[test]
    fn streaming_is_deterministic_given_seed() {
        let (prob, schedule, _) = poisson_instance(20, 0.3, 5);
        let mut r1 = ChaCha8Rng::seed_from_u64(9);
        let mut r2 = ChaCha8Rng::seed_from_u64(9);
        let o1 = route_streaming(&prob, &schedule, &StreamingConfig::default(), &mut r1);
        let o2 = route_streaming(&prob, &schedule, &StreamingConfig::default(), &mut r2);
        assert_eq!(o1.stats.delivered_at, o2.stats.delivered_at);
        assert_eq!(o1.stats.injected_at, o2.stats.injected_at);
    }

    #[test]
    fn streaming_record_passes_replay_audit() {
        let (prob, schedule, mut rng) = poisson_instance(18, 0.4, 7);
        let cfg = StreamingConfig {
            record: true,
            ..Default::default()
        };
        let out = route_streaming(&prob, &schedule, &cfg, &mut rng);
        let record = out.record.as_ref().expect("recording on");
        let rep = crate::replay::verify(&prob, record, &out.stats).expect("clean replay");
        assert_eq!(rep.delivered, 18);
    }

    #[test]
    fn max_steps_caps_open_ended_runs() {
        let (prob, schedule, mut rng) = poisson_instance(20, 0.1, 11);
        let cfg = StreamingConfig {
            max_steps: 2,
            ..Default::default()
        };
        let out = route_streaming(&prob, &schedule, &cfg, &mut rng);
        assert!(!out.drained);
        assert!(out.stats.steps_run <= 2);
    }

    #[test]
    fn observer_sees_arrivals_and_drops() {
        #[derive(Default)]
        struct Counter {
            arrivals: Vec<(Time, u32)>,
            drops: Vec<(Time, u32)>,
        }
        impl RouteObserver for Counter {
            fn on_arrival(&mut self, t: Time, pkt: u32) {
                self.arrivals.push((t, pkt));
            }
            fn on_drop(&mut self, t: Time, pkt: u32) {
                self.drops.push((t, pkt));
            }
        }
        let net = Arc::new(builders::butterfly(4));
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let prob = workloads::random_pairs(&net, 8, &mut rng).unwrap();
        let schedule = vec![0, 0, 1, 1, 2, 2, 3, 3];
        let cfg = StreamingConfig {
            admission: AdmissionControl {
                max_in_flight: 1,
                max_deferred: 2,
            },
            ..Default::default()
        };
        let mut counter = Counter::default();
        let out = route_streaming_observed(&prob, &schedule, &cfg, &mut rng, &mut counter);
        assert_eq!(counter.arrivals.len(), 8);
        assert_eq!(counter.drops.len() as u64, out.dropped);
        for &(t, pkt) in &counter.arrivals {
            assert_eq!(t, schedule[pkt as usize]);
        }
        // Dropped packets were never injected.
        for &(_, pkt) in &counter.drops {
            assert!(out.stats.injected_at[pkt as usize].is_none());
        }
    }
}
