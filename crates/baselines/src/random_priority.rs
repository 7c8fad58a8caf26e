//! Greedy hot-potato routing with fixed random priorities.
//!
//! Each packet draws a random rank when routing starts; every conflict is
//! decided by rank (higher wins, ranks are distinct by construction), as
//! in randomized greedy hot-potato routing (Busch–Herlihy–Wattenhofer,
//! reference 11 in the paper). A consistent total order avoids the livelock
//! patterns of uniform tie-breaking: the globally top-ranked packet in
//! flight never loses a conflict, so it advances one level per step.

use hotpotato_sim::{
    GreedyStep, InjectOutcome, NoopObserver, RouteObserver, RouteOutcome, Router, SoaEngine,
};
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};
use routing_core::RoutingProblem;
use std::sync::Arc;

/// Greedy hot-potato routing under a fixed random total order.
#[derive(Clone, Copy, Debug)]
pub struct RandomPriorityRouter {
    /// Safety cap on simulated steps.
    pub max_steps: u64,
    /// Record every movement event for independent replay auditing.
    pub record: bool,
}

impl Default for RandomPriorityRouter {
    fn default() -> Self {
        RandomPriorityRouter {
            max_steps: 5_000_000,
            record: false,
        }
    }
}

impl RandomPriorityRouter {
    /// A router with the default step cap.
    pub fn new() -> Self {
        RandomPriorityRouter::default()
    }

    /// Routes `problem`; deterministic given the rng state. Takes the
    /// problem behind an `Arc` so the engine shares it without cloning.
    pub fn route<R: Rng + ?Sized>(
        &self,
        problem: &Arc<RoutingProblem>,
        rng: &mut R,
    ) -> crate::greedy::GreedyOutcome {
        self.route_observed(problem, rng, &mut NoopObserver)
    }

    /// [`RandomPriorityRouter::route`] with an event sink (see
    /// [`crate::GreedyRouter::route_observed`]).
    pub fn route_observed<R: Rng + ?Sized, O: RouteObserver + ?Sized>(
        &self,
        problem: &Arc<RoutingProblem>,
        rng: &mut R,
        observer: &mut O,
    ) -> crate::greedy::GreedyOutcome {
        let n = problem.num_packets();
        // A random permutation gives distinct ranks — a strict total order.
        let mut ranks: Vec<u32> = (0..n as u32).collect();
        ranks.shuffle(rng);

        let mut sim = SoaEngine::new(Arc::clone(problem), false, self.record, observer);
        let mut step = GreedyStep::new(problem.network_arc());
        let mut pending: Vec<u32> = (0..n as u32).collect();
        while !sim.is_done() && sim.now() < self.max_steps {
            step.dispatch(&mut sim, |_, p| ranks[p as usize], rng);
            pending.retain(|&p| sim.try_inject(p) == InjectOutcome::Blocked);
            step.commit(&mut sim);
        }
        let (stats, record) = step.into_parts(sim);
        crate::greedy::GreedyOutcome { stats, record }
    }
}

impl Router for RandomPriorityRouter {
    fn name(&self) -> &'static str {
        "rank"
    }

    fn route(
        &self,
        problem: &Arc<RoutingProblem>,
        rng: &mut dyn RngCore,
        observer: &mut dyn RouteObserver,
    ) -> RouteOutcome {
        let out = self.route_observed(problem, rng, observer);
        RouteOutcome {
            algorithm: "rank",
            stats: out.stats,
            record: out.record,
        }
    }
}

/// Outcome alias: identical shape to the greedy baseline.
pub type RandomPriorityOutcome = crate::greedy::GreedyOutcome;

#[cfg(test)]
mod tests {
    use super::*;
    use leveled_net::builders::{self, ButterflyCoords};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use routing_core::workloads;

    #[test]
    fn delivers_butterfly_permutation() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let k = 5;
        let net = Arc::new(builders::butterfly(k));
        let coords = ButterflyCoords { k };
        let prob = workloads::butterfly_permutation(&net, &coords, &mut rng);
        let out = RandomPriorityRouter::new().route(&prob, &mut rng);
        assert!(out.stats.all_delivered(), "{}", out.stats.summary());
    }

    #[test]
    fn delivers_congested_funnel() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let net = Arc::new(builders::complete_leveled(10, 4));
        let prob = workloads::funnel(&net, 16, &mut rng).unwrap();
        let out = RandomPriorityRouter::new().route(&prob, &mut rng);
        assert!(out.stats.all_delivered(), "{}", out.stats.summary());
    }

    #[test]
    fn delivers_bit_reversal_stress() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let k = 6;
        let net = Arc::new(builders::butterfly(k));
        let coords = ButterflyCoords { k };
        let prob = workloads::butterfly_bit_reversal(&net, &coords);
        let out = RandomPriorityRouter::new().route(&prob, &mut rng);
        assert!(out.stats.all_delivered(), "{}", out.stats.summary());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut wrng = ChaCha8Rng::seed_from_u64(4);
        let net = Arc::new(builders::butterfly(4));
        let prob = workloads::random_pairs(&net, 12, &mut wrng).unwrap();
        let mut r1 = ChaCha8Rng::seed_from_u64(9);
        let mut r2 = ChaCha8Rng::seed_from_u64(9);
        let o1 = RandomPriorityRouter::new().route(&prob, &mut r1);
        let o2 = RandomPriorityRouter::new().route(&prob, &mut r2);
        assert_eq!(o1.stats.delivered_at, o2.stats.delivered_at);
    }
}
