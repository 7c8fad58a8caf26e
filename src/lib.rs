//! # hotpotato-routing
//!
//! A faithful, from-scratch implementation of Costas Busch's SPAA 2002
//! paper *"Õ(Congestion + Dilation) Hot-Potato Routing on Leveled
//! Networks"*, together with the substrates it needs: leveled-network
//! topologies, routing-problem models, synchronous bufferless and
//! store-and-forward simulators, and baseline deflection algorithms.
//!
//! This façade crate re-exports the public API of every workspace crate so
//! downstream users (and the `examples/`) can depend on a single crate.
//!
//! ## Quick start
//!
//! ```
//! use hotpotato_routing::prelude::*;
//! use rand::SeedableRng;
//!
//! // A 3-dimensional butterfly with a random permutation workload.
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let net = std::sync::Arc::new(builders::butterfly(3));
//! let problem = workloads::random_pairs(&net, 8, &mut rng).unwrap();
//!
//! // Route it with the paper's algorithm under scaled parameters.
//! let outcome = BuschRouter::new(Params::auto(&problem)).route(&problem, &mut rng);
//! assert!(outcome.stats.all_delivered());
//! ```

pub mod guide;

pub use baselines;
pub use busch_router;
pub use hotpotato_sim;
pub use leveled_net;
pub use routing_core;

/// Convenient glob-import surface covering the most used items.
pub mod prelude {
    pub use baselines::{GreedyConfig, GreedyRouter, RandomPriorityRouter, StoreForwardRouter};
    pub use busch_router::{BuschConfig, BuschOutcome, BuschRouter, Params};
    pub use hotpotato_sim::{
        JsonlTraceObserver, MetricsObserver, NoopObserver, RouteObserver, RouteOutcome, RouteStats,
        Router, SectionProfiler, SoaEngine,
    };
    pub use leveled_net::{builders, Direction, EdgeId, LeveledNetwork, NodeId};
    pub use routing_core::{paths, workloads, Path, RoutingProblem};
}
