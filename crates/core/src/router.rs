//! The paper's hot-potato routing algorithm (§3).
//!
//! Per step, for every node with arriving packets:
//!
//! 1. **States & priorities.** Each packet is *normal*, *excited* (highest
//!    priority; entered with probability `q` per step) or *wait* (lowest).
//!    Excited packets demote to normal when deflected and at round ends;
//!    wait packets demote when deflected and at phase ends.
//! 2. **Targets.** A packet's target node is the node of its current path
//!    in its frame's target level (which recedes one inner level per
//!    round), or its destination if the path does not cross that level.
//!    Normal/excited packets follow their current path toward the target;
//!    on reaching it (by a forward move) they enter the wait state and
//!    oscillate on their arrival edge.
//! 3. **Conflicts.** One winner per (edge, direction), by priority, ties
//!    uniformly at random; losers are deflected *backward and safely*
//!    (Lemma 2.1) via [`hotpotato_sim::conflict::resolve`].
//! 4. **Injection.** A packet enters the network at the beginning of the
//!    phase in which its source sits at inner level `m − 1` of its frame,
//!    retrying on subsequent steps if its first edge is busy (§3, "Packet
//!    Injection").
//!
//! The run lasts `(num_sets·m + L)` phases of `m·w` steps; under scaled
//! parameters a configurable grace period follows (frames have left the
//! network, targets degenerate to destinations, so stragglers chase their
//! destinations directly with the same conflict rules).

use crate::invariants::InvariantReport;
use crate::params::Params;
use crate::schedule::FrameSchedule;
use hotpotato_sim::{NoopObserver, RouteObserver, RouteOutcome, RouteStats, Router};
use rand::{Rng, RngCore};
use routing_core::RoutingProblem;
use std::sync::Arc;

/// Router configuration beyond the scheduling parameters.
#[derive(Clone, Copy, Debug)]
pub struct BuschConfig {
    /// Scheduling parameters (`m`, `w`, `q`, number of frontier sets).
    pub params: Params,
    /// Run the `O(N·L)` phase-end invariant audits (`I_b..I_f`).
    pub check_invariants: bool,
    /// Permit non-safe deflections when no safe backward edge exists
    /// (needed for scaled parameters, where the w.h.p. preconditions can
    /// fail; every use is counted in the invariant report). With `false`
    /// the router panics where the paper's Lemma 2.1 would be violated.
    pub allow_fallback: bool,
    /// Ablation switch (`A4`): deflect losers to a uniformly random free
    /// link instead of the paper's safe backward rule. Breaks Lemma 2.1
    /// and Lemma 4.10 — exists to *measure* what safe deflections buy.
    pub arbitrary_deflections: bool,
    /// Ablation switch (`A5`): ignore the frame-scheduled injection phases
    /// and admit every packet from step 0 (greedy-style). Destroys
    /// injection isolation (`I_a`) and lets packets of different sets meet
    /// (`I_d`) — exists to *measure* what the paper's injection discipline
    /// buys.
    pub eager_injection: bool,
    /// Record the per-step active-packet trace.
    pub trace: bool,
    /// Record every movement event for independent replay auditing
    /// ([`hotpotato_sim::replay::verify`]).
    pub record: bool,
    /// Shard each step's dispatch across contiguous level bands with
    /// per-band rng streams (see `crate::soa`). Results are deterministic
    /// in (problem, seed) regardless of thread count, but differ from the
    /// sequential stream, so this is opt-in (large-instance benchmarks,
    /// the parallel determinism tests).
    pub parallel_bands: bool,
}

impl BuschConfig {
    /// Default configuration for the given parameters: fallback allowed,
    /// invariants checked, no trace.
    pub fn new(params: Params) -> Self {
        BuschConfig {
            params,
            check_invariants: true,
            allow_fallback: true,
            arbitrary_deflections: false,
            eager_injection: false,
            trace: false,
            record: false,
            parallel_bands: false,
        }
    }
}

/// Result of a routing run.
#[derive(Clone, Debug)]
pub struct BuschOutcome {
    /// Standard routing statistics (makespan, latencies, deflections,
    /// deviation depths, counters).
    pub stats: RouteStats,
    /// Violation counters for the paper's invariants `I_a..I_f`.
    pub invariants: InvariantReport,
    /// The frontier-set each packet was assigned to.
    pub set_assignment: Vec<u32>,
    /// The frame schedule used.
    pub schedule: FrameSchedule,
    /// Phases elapsed when the run ended.
    pub phases_elapsed: u64,
    /// The parameters used.
    pub params: Params,
    /// The movement record, when [`BuschConfig::record`] was set.
    pub record: Option<hotpotato_sim::RunRecord>,
}

/// The paper's routing algorithm, ready to route problems.
#[derive(Clone, Copy, Debug)]
pub struct BuschRouter {
    cfg: BuschConfig,
}

impl BuschRouter {
    /// Creates a router with default configuration for `params`.
    pub fn new(params: Params) -> Self {
        BuschRouter {
            cfg: BuschConfig::new(params),
        }
    }

    /// Creates a router with an explicit configuration.
    pub fn with_config(cfg: BuschConfig) -> Self {
        BuschRouter { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BuschConfig {
        &self.cfg
    }

    /// Routes `problem`, consuming randomness from `rng` (set assignment,
    /// excitation, tie-breaking). Deterministic given the rng state.
    ///
    /// Takes the problem behind an `Arc` so the engine can share it
    /// without deep-cloning the paths (problems are immutable).
    pub fn route<R: Rng + ?Sized>(
        &self,
        problem: &Arc<RoutingProblem>,
        rng: &mut R,
    ) -> BuschOutcome {
        self.route_observed(problem, rng, &mut NoopObserver)
    }

    /// [`BuschRouter::route`] with an attached event sink: besides the
    /// engine's movement events, the router emits the schedule events —
    /// phase boundaries, per-set frontiers `φ_i(k)`, and (when audits are
    /// on) the per-set congestion measured at each phase end. With
    /// [`NoopObserver`] this monomorphizes to exactly [`BuschRouter::route`].
    pub fn route_observed<R: Rng + ?Sized, O: RouteObserver + ?Sized>(
        &self,
        problem: &Arc<RoutingProblem>,
        rng: &mut R,
        observer: &mut O,
    ) -> BuschOutcome {
        crate::soa::route_soa(&self.cfg, problem, rng, observer)
    }
}

impl Router for BuschRouter {
    fn name(&self) -> &'static str {
        "busch"
    }

    fn route(
        &self,
        problem: &Arc<RoutingProblem>,
        rng: &mut dyn RngCore,
        observer: &mut dyn RouteObserver,
    ) -> RouteOutcome {
        let out = self.route_observed(problem, rng, observer);
        let mut stats = out.stats;
        stats.counters.insert("phases", out.phases_elapsed);
        stats
            .counters
            .insert("invariant_violations", out.invariants.total_violations());
        out.invariants.fold_into(&mut stats.counters);
        stats
            .counters
            .insert("num_sets", out.params.num_sets as u64);
        RouteOutcome {
            algorithm: "busch",
            stats,
            record: out.record,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leveled_net::builders::{self, ButterflyCoords, MeshCorner};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use routing_core::workloads;

    fn router(m: u32, w: u32, q: f64, sets: u32) -> BuschRouter {
        BuschRouter::new(Params::scaled(m, w, q, sets))
    }

    #[test]
    fn single_packet_on_a_line_is_delivered() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = Arc::new(builders::linear_array(8));
        let prob = workloads::level_to_level(&net, 0, 7, &mut rng).unwrap();
        let out = router(3, 8, 0.1, 1).route(&prob, &mut rng);
        assert!(out.stats.all_delivered(), "{}", out.stats.summary());
        assert_eq!(out.stats.deflections[0], 0, "no conflicts on a line");
    }

    #[test]
    fn butterfly_random_pairs_all_delivered() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let net = Arc::new(builders::butterfly(4));
        let prob = workloads::random_pairs(&net, 16, &mut rng).unwrap();
        let out = BuschRouter::new(Params::auto(&prob)).route(&prob, &mut rng);
        assert!(out.stats.all_delivered(), "{}", out.stats.summary());
    }

    #[test]
    fn butterfly_permutation_all_delivered() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let k = 4;
        let net = Arc::new(builders::butterfly(k));
        let coords = ButterflyCoords { k };
        let prob = workloads::butterfly_permutation(&net, &coords, &mut rng);
        let out = BuschRouter::new(Params::auto(&prob)).route(&prob, &mut rng);
        assert!(out.stats.all_delivered(), "{}", out.stats.summary());
    }

    #[test]
    fn mesh_transpose_all_delivered() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let (raw, coords) = builders::mesh(6, 6, MeshCorner::TopLeft);
        let net = Arc::new(raw);
        let prob = workloads::mesh_transpose(&net, &coords).unwrap();
        let out = BuschRouter::new(Params::auto(&prob)).route(&prob, &mut rng);
        assert!(out.stats.all_delivered(), "{}", out.stats.summary());
    }

    #[test]
    fn hotspot_on_complete_leveled_delivered() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let net = Arc::new(builders::complete_leveled(8, 4));
        let prob = workloads::hotspot(&net, 10, 2, &mut rng).unwrap();
        let out = BuschRouter::new(Params::auto(&prob)).route(&prob, &mut rng);
        assert!(out.stats.all_delivered(), "{}", out.stats.summary());
    }

    #[test]
    fn determinism_across_identical_seeds() {
        let net = Arc::new(builders::butterfly(3));
        let mut rng_w = ChaCha8Rng::seed_from_u64(6);
        let prob = workloads::random_pairs(&net, 8, &mut rng_w).unwrap();
        let r = router(4, 16, 0.1, 2);
        let mut rng1 = ChaCha8Rng::seed_from_u64(99);
        let mut rng2 = ChaCha8Rng::seed_from_u64(99);
        let o1 = r.route(&prob, &mut rng1);
        let o2 = r.route(&prob, &mut rng2);
        assert_eq!(o1.stats.delivered_at, o2.stats.delivered_at);
        assert_eq!(o1.stats.deflections, o2.stats.deflections);
        assert_eq!(o1.set_assignment, o2.set_assignment);
    }

    #[test]
    fn injection_happens_at_the_scheduled_phase() {
        // On a line with one packet and one set, injection must occur at
        // the start of phase (m - 1 + source_level).
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let net = Arc::new(builders::linear_array(10));
        let prob = workloads::level_to_level(&net, 2, 9, &mut rng).unwrap();
        let params = Params::scaled(3, 6, 0.0, 1);
        let out = BuschRouter::new(params).route(&prob, &mut rng);
        assert!(out.stats.all_delivered());
        let expected_phase = 3 - 1 + 2; // m - 1 + source level
        assert_eq!(
            out.stats.injected_at[0],
            Some(expected_phase * params.phase_len()),
        );
    }

    #[test]
    fn invariants_clean_on_conflict_free_instance() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let net = Arc::new(builders::linear_array(12));
        let prob = workloads::level_to_level(&net, 0, 11, &mut rng).unwrap();
        let out = router(4, 12, 0.05, 1).route(&prob, &mut rng);
        assert!(out.stats.all_delivered());
        assert!(out.invariants.is_clean(), "{}", out.invariants.summary());
    }

    #[test]
    fn wait_state_parks_packets_without_losing_them() {
        // A single packet with a destination in the middle of the network:
        // it must be absorbed during round 0 of the right phase and never
        // linger.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let net = Arc::new(builders::linear_array(9));
        let prob = workloads::level_to_level(&net, 1, 5, &mut rng).unwrap();
        let out = router(3, 8, 0.1, 1).route(&prob, &mut rng);
        assert!(out.stats.all_delivered());
    }

    #[test]
    fn zero_excitation_probability_still_works_on_low_conflict_instances() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let net = Arc::new(builders::butterfly(3));
        let prob = workloads::random_pairs(&net, 4, &mut rng).unwrap();
        let out = router(4, 16, 0.0, 4).route(&prob, &mut rng);
        assert!(out.stats.all_delivered(), "{}", out.stats.summary());
        assert_eq!(out.stats.counter("excitations"), 0);
    }

    #[test]
    fn congested_funnel_is_fully_delivered() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let net = Arc::new(builders::complete_leveled(10, 4));
        let prob = workloads::funnel(&net, 16, &mut rng).unwrap();
        let out = BuschRouter::new(Params::auto(&prob)).route(&prob, &mut rng);
        assert!(out.stats.all_delivered(), "{}", out.stats.summary());
    }

    #[test]
    fn outcome_carries_schedule_and_assignment() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let net = Arc::new(builders::butterfly(3));
        let prob = workloads::random_pairs(&net, 6, &mut rng).unwrap();
        let out = router(4, 16, 0.1, 3).route(&prob, &mut rng);
        assert_eq!(out.set_assignment.len(), 6);
        assert!(out.set_assignment.iter().all(|&s| s < 3));
        assert_eq!(out.schedule.num_sets, 3);
        assert!(out.phases_elapsed > 0);
    }

    #[test]
    fn makespan_within_schedule_plus_grace() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let net = Arc::new(builders::butterfly(4));
        let prob = workloads::random_pairs(&net, 12, &mut rng).unwrap();
        let params = Params::auto(&prob);
        let out = BuschRouter::new(params).route(&prob, &mut rng);
        assert!(out.stats.all_delivered());
        assert!(out.stats.makespan().unwrap() <= params.max_steps(net.depth()));
    }
}
