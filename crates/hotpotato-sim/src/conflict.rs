//! Conflict resolution with priority winners and safe backward deflections.
//!
//! This module is the operational form of the paper's Lemma 2.1. At a node
//! `v` at step `t`, several packets may desire the same (edge, direction)
//! slot; exactly one can have it. [`resolve`] picks, per contested slot,
//! the contender with the highest priority (ties broken uniformly at
//! random) and deflects every loser **backward and safely**: onto an edge
//! through which some packet arrived *forward* into `v` this very step, so
//! the edge is "recycled" from the winner's path list into the loser's
//! (the paper's safe deflection). Preference order for a loser's
//! deflection edge:
//!
//! 1. its **own** forward-arrival edge, reversed (go back where it came
//!    from) — always free unless another packet took it;
//! 2. any other free forward-arrival edge of the node, reversed;
//! 3. *(only if `allow_fallback`)* any free exit of the node in any
//!    direction — this breaks Lemma 2.1's guarantees and is counted by the
//!    caller, but keeps scaled-parameter runs and unsafe baselines
//!    well-defined.
//!
//! The counting argument of Lemma 2.1 guarantees that, when packets are
//! injected in isolation, steps 1–2 always succeed for the paper's
//! algorithm; the unit tests exercise exactly the induction's cases.

use leveled_net::ids::{DirectedEdge, Direction};
use leveled_net::{LeveledNetwork, NodeId};
use rand::Rng;

/// The minimal engine surface conflict resolution reads: the network and
/// the per-step (edge, direction) slot occupancy. A step driver's
/// [`crate::soa::BandStage`] implements it, so a resolution sees exactly
/// the slots the driver has claimed so far this step.
pub trait SlotView {
    /// The network topology.
    fn network(&self) -> &LeveledNetwork;
    /// Whether the (edge, direction) slot is still free this step.
    fn slot_free(&self, mv: DirectedEdge) -> bool;
}

/// One packet competing for an exit at a node.
#[derive(Clone, Copy, Debug)]
pub struct Contender {
    /// Packet index in the simulation.
    pub pkt: u32,
    /// The slot the packet wants (its current-path move, or its
    /// oscillation move for wait-state packets).
    pub desired: DirectedEdge,
    /// Priority; higher wins (paper: excited > normal > wait).
    pub priority: u32,
    /// The move that brought the packet here this step (safe-deflection
    /// candidates are the forward ones among these).
    pub arrival: Option<DirectedEdge>,
}

/// The exit assigned to one contender.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ResolvedExit {
    /// Packet index.
    pub pkt: u32,
    /// The assigned move.
    pub mv: DirectedEdge,
    /// Whether the packet won its desired slot.
    pub won: bool,
    /// For losers: whether the deflection was backward-and-safe.
    pub safe: bool,
}

/// Resolution failure: a loser could not be assigned any admissible exit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConflictError {
    /// No safe backward edge was free and fallback was disabled.
    NoSafeExit {
        /// The packet left without an exit.
        pkt: u32,
    },
    /// Even with fallback, no free exit existed (cannot happen when the
    /// per-direction arrival bound holds: arrivals ≤ degree = exits).
    NoExitAtAll {
        /// The packet left without an exit.
        pkt: u32,
    },
}

impl std::fmt::Display for ConflictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConflictError::NoSafeExit { pkt } => {
                write!(
                    f,
                    "packet #{pkt}: no safe backward deflection edge available"
                )
            }
            ConflictError::NoExitAtAll { pkt } => {
                write!(
                    f,
                    "packet #{pkt}: node has no free exits (arrival bound violated?)"
                )
            }
        }
    }
}

impl std::error::Error for ConflictError {}

/// How losers of a conflict are deflected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeflectRule {
    /// The paper's rule: backward along a safely recycled edge, preferring
    /// the loser's own arrival edge. `allow_fallback` permits an arbitrary
    /// free link when no safe edge exists (counted as unsafe).
    SafeBackward {
        /// Fall back to any free link instead of erroring.
        allow_fallback: bool,
    },
    /// Ablation rule (`A4`): losers take a uniformly random free exit in
    /// any direction. This abandons Lemma 2.1 entirely — current paths can
    /// become invalid and per-set congestion can grow (Lemma 4.10 breaks).
    Arbitrary,
}

/// Reusable buffers for [`resolve_into`]. One instance per step loop
/// amortizes every per-resolution allocation away; the contents carry no
/// state between calls.
#[derive(Default)]
pub struct ConflictScratch {
    /// Slots claimed during this resolution (on top of engine state).
    local_used: Vec<usize>,
    /// Contender index permutation, grouped by desired slot.
    order: Vec<usize>,
    /// Per-contender assignment, filled out of order.
    out: Vec<Option<ResolvedExit>>,
    /// Contender indices that lost their group.
    losers: Vec<usize>,
    /// Highest-priority members of the current group (tie candidates).
    top: Vec<usize>,
    /// Safe-deflection pool: forward arrivals into the node, reversed.
    safe_pool: Vec<DirectedEdge>,
    /// Free exits (Arbitrary rule only).
    frees: Vec<DirectedEdge>,
    /// The in-order result handed back to the caller.
    result: Vec<ResolvedExit>,
}

/// Resolves all conflicts at `node` for this step. Returns one exit per
/// contender, in the order given.
///
/// `allow_fallback` permits non-safe deflections (any free link) when no
/// safe backward edge is available — required for baselines that inject
/// without isolation, and for scaled-parameter runs of the paper's
/// algorithm where the w.h.p. preconditions can fail.
///
/// Allocating convenience wrapper around [`resolve_into`].
pub fn resolve<S: SlotView + ?Sized, R: Rng + ?Sized>(
    sim: &S,
    node: NodeId,
    contenders: &[Contender],
    allow_fallback: bool,
    rng: &mut R,
) -> Result<Vec<ResolvedExit>, ConflictError> {
    resolve_with(
        sim,
        node,
        contenders,
        DeflectRule::SafeBackward { allow_fallback },
        rng,
    )
}

/// [`resolve`] with an explicit [`DeflectRule`] (used by the safe-deflection
/// ablation). Allocating convenience wrapper around [`resolve_into`].
pub fn resolve_with<S: SlotView + ?Sized, R: Rng + ?Sized>(
    sim: &S,
    node: NodeId,
    contenders: &[Contender],
    rule: DeflectRule,
    rng: &mut R,
) -> Result<Vec<ResolvedExit>, ConflictError> {
    let mut scratch = ConflictScratch::default();
    resolve_into(sim, node, contenders, rule, rng, &mut scratch).map(<[_]>::to_vec)
}

/// The allocation-free resolution core: like [`resolve_with`], but all
/// working memory lives in the caller's [`ConflictScratch`], and the
/// result is a borrow of the scratch rather than a fresh `Vec`. Step
/// loops call this once per occupied node with a single scratch instance.
///
/// Consumes randomness identically to [`resolve_with`] (one draw per
/// contested group with a free slot, plus one per loser under
/// [`DeflectRule::Arbitrary`]).
// lint: hot-path
// lint: panics-by-design(dense-index invariant surface: packet/node ids are
// validated at construction, so an OOB here is an engine bug caught by the
// golden suites, never a client-input path)
pub fn resolve_into<'s, S: SlotView + ?Sized, R: Rng + ?Sized>(
    sim: &S,
    node: NodeId,
    contenders: &[Contender],
    rule: DeflectRule,
    rng: &mut R,
    scratch: &'s mut ConflictScratch,
) -> Result<&'s [ResolvedExit], ConflictError> {
    let net = sim.network();
    debug_assert!(contenders
        .iter()
        .all(|c| net.move_origin(c.desired) == node));

    // Locally-claimed slots this resolution (on top of engine-level state).
    let local_used = &mut scratch.local_used;
    local_used.clear();
    let free = |local_used: &[usize], mv: DirectedEdge, sim: &S| -> bool {
        sim.slot_free(mv) && !local_used.contains(&mv.slot_index())
    };

    // Group contenders by desired slot (sort a local index permutation).
    let order = &mut scratch.order;
    order.clear();
    order.extend(0..contenders.len());
    order.sort_by_key(|&i| (contenders[i].desired.slot_index(), i));

    let out = &mut scratch.out;
    out.clear();
    out.resize(contenders.len(), None);
    let losers = &mut scratch.losers;
    losers.clear();

    let mut g = 0;
    while g < order.len() {
        let slot = contenders[order[g]].desired.slot_index();
        let mut h = g;
        while h < order.len() && contenders[order[h]].desired.slot_index() == slot {
            h += 1;
        }
        let group = &order[g..h];
        // The slot could already be taken at the engine level (e.g. by an
        // exit staged at this node earlier); then everyone loses.
        let winner = if free(local_used, contenders[group[0]].desired, sim) {
            let best = group
                .iter()
                .map(|&i| contenders[i].priority)
                .max()
                .expect("non-empty group");
            let top = &mut scratch.top;
            top.clear();
            top.extend(
                group
                    .iter()
                    .copied()
                    .filter(|&i| contenders[i].priority == best),
            );
            Some(top[rng.gen_range(0..top.len())])
        } else {
            None
        };
        for &i in group {
            if Some(i) == winner {
                let c = &contenders[i];
                local_used.push(c.desired.slot_index());
                out[i] = Some(ResolvedExit {
                    pkt: c.pkt,
                    mv: c.desired,
                    won: true,
                    safe: true,
                });
            } else {
                losers.push(i);
            }
        }
        g = h;
    }

    // Safe-deflection pool: forward arrivals into this node, reversed.
    let safe_pool = &mut scratch.safe_pool;
    safe_pool.clear();
    safe_pool.extend(contenders.iter().filter_map(|c| match c.arrival {
        Some(a) if a.dir == Direction::Forward => Some(a.reversed()),
        _ => None,
    }));

    for &i in losers.iter() {
        let c = &contenders[i];
        let mut chosen: Option<(DirectedEdge, bool)> = None;
        match rule {
            DeflectRule::SafeBackward { .. } => {
                // 1. Own forward-arrival edge.
                let own = match c.arrival {
                    Some(a) if a.dir == Direction::Forward => Some(a.reversed()),
                    _ => None,
                };
                if let Some(mv) = own {
                    if free(local_used, mv, sim) {
                        chosen = Some((mv, true));
                    }
                }
                // 2. Any other free safe edge.
                if chosen.is_none() {
                    for &mv in safe_pool.iter() {
                        if free(local_used, mv, sim) {
                            chosen = Some((mv, true));
                            break;
                        }
                    }
                }
            }
            DeflectRule::Arbitrary => {
                // Ablation: a uniformly random free exit, any direction.
                let frees = &mut scratch.frees;
                frees.clear();
                frees.extend(net.exits(node).filter(|&mv| free(local_used, mv, sim)));
                if !frees.is_empty() {
                    chosen = Some((frees[rng.gen_range(0..frees.len())], false));
                }
            }
        }
        // 3. Fallback: any free exit.
        if chosen.is_none() {
            if rule
                == (DeflectRule::SafeBackward {
                    allow_fallback: false,
                })
            {
                return Err(ConflictError::NoSafeExit { pkt: c.pkt });
            }
            for mv in net.exits(node) {
                if free(local_used, mv, sim) {
                    chosen = Some((mv, false));
                    break;
                }
            }
        }
        match chosen {
            Some((mv, safe)) => {
                local_used.push(mv.slot_index());
                out[i] = Some(ResolvedExit {
                    pkt: c.pkt,
                    mv,
                    won: false,
                    safe,
                });
            }
            None => return Err(ConflictError::NoExitAtAll { pkt: c.pkt }),
        }
    }

    let result = &mut scratch.result;
    result.clear();
    result.extend(out.iter().map(|e| e.expect("all assigned")));
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::{pack_move, unpack_move, BandStage, SoaEngine, KIND_ADVANCE};
    use crate::NoopObserver;
    use leveled_net::{EdgeId, NetworkBuilder};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use routing_core::{Path, RoutingProblem};
    use std::sync::Arc;

    /// An engine with every packet of `prob` injected and one step
    /// committed, plus an empty stage over its network: the state a step
    /// driver resolves conflicts in.
    fn after_injection(prob: Arc<RoutingProblem>) -> (SoaEngine, BandStage) {
        let net = prob.network_arc();
        let n = prob.num_packets() as u32;
        let mut sim: SoaEngine = SoaEngine::new(prob, false, false, NoopObserver);
        for p in 0..n {
            sim.try_inject(p);
        }
        sim.finish_step().unwrap();
        (sim, BandStage::new(net))
    }

    /// Three-level fan: two level-0 nodes feed one level-1 node, which has
    /// two edges to level 2.
    ///
    /// n0 --e0--> n2 --e2--> n3
    /// n1 --e1--> n2 --e3--> n4
    fn fan() -> Arc<RoutingProblem> {
        let mut b = NetworkBuilder::new("fan");
        let n0 = b.add_node(0);
        let n1 = b.add_node(0);
        let n2 = b.add_node(1);
        let n3 = b.add_node(2);
        let n4 = b.add_node(2);
        let e0 = b.add_edge(n0, n2).unwrap();
        let e1 = b.add_edge(n1, n2).unwrap();
        let e2 = b.add_edge(n2, n3).unwrap();
        let _e3 = b.add_edge(n2, n4).unwrap();
        let net = Arc::new(b.build().unwrap());
        // Both packets want n2 -> n3 (edge e2).
        let p0 = Path::new(&net, n0, vec![e0, e2]).unwrap();
        let p1 = Path::new(&net, n1, vec![e1, e2]).unwrap();
        Arc::new(RoutingProblem::new(net, vec![p0, p1]).unwrap())
    }

    /// Sets up the fan with both packets arrived at n2 (after one step).
    fn fan_sim() -> (SoaEngine, BandStage) {
        let (sim, band) = after_injection(fan());
        assert_eq!(sim.shared().arrivals(2).len(), 2);
        (sim, band)
    }

    /// The move that brought `pkt` to its node.
    fn arrival(sim: &SoaEngine, pkt: u32) -> Option<DirectedEdge> {
        Some(unpack_move(sim.shared().flight[pkt as usize].last_move))
    }

    fn contender(sim: &SoaEngine, pkt: u32, priority: u32) -> Contender {
        Contender {
            pkt,
            desired: unpack_move(sim.shared().next_move(pkt)),
            priority,
            arrival: arrival(sim, pkt),
        }
    }

    #[test]
    fn winner_takes_slot_loser_deflected_safely_backward() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let (sim, band) = fan_sim();
        let cs = vec![contender(&sim, 0, 1), contender(&sim, 1, 1)];
        let exits = resolve(&band, NodeId(2), &cs, false, &mut rng).unwrap();
        let winners: Vec<&ResolvedExit> = exits.iter().filter(|e| e.won).collect();
        assert_eq!(winners.len(), 1);
        assert_eq!(winners[0].mv, DirectedEdge::forward(EdgeId(2)));
        let loser = exits.iter().find(|e| !e.won).unwrap();
        assert!(loser.safe, "deflection must be safe");
        assert_eq!(loser.mv.dir, Direction::Backward);
        // Loser goes back along its own arrival edge.
        let own = if loser.pkt == 0 { EdgeId(0) } else { EdgeId(1) };
        assert_eq!(loser.mv.edge, own);
    }

    #[test]
    fn higher_priority_always_wins() {
        for seed in 0..20 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (sim, band) = fan_sim();
            let cs = vec![contender(&sim, 0, 0), contender(&sim, 1, 2)];
            let exits = resolve(&band, NodeId(2), &cs, false, &mut rng).unwrap();
            assert!(!exits[0].won, "seed {seed}");
            assert!(exits[1].won, "seed {seed}");
        }
    }

    #[test]
    fn equal_priority_ties_are_random() {
        let mut wins0 = 0;
        let trials = 200;
        for seed in 0..trials {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (sim, band) = fan_sim();
            let cs = vec![contender(&sim, 0, 1), contender(&sim, 1, 1)];
            let exits = resolve(&band, NodeId(2), &cs, false, &mut rng).unwrap();
            if exits[0].won {
                wins0 += 1;
            }
        }
        assert!(
            (40..160).contains(&wins0),
            "tie-break badly skewed: {wins0}/{trials}"
        );
    }

    #[test]
    fn distinct_desired_slots_all_win() {
        // Reroute packet 1 to use e3 so there is no conflict.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let (sim, band) = fan_sim();
        let desired1 = DirectedEdge::forward(EdgeId(3));
        let cs = vec![
            contender(&sim, 0, 1),
            Contender {
                pkt: 1,
                desired: desired1,
                priority: 1,
                arrival: arrival(&sim, 1),
            },
        ];
        let exits = resolve(&band, NodeId(2), &cs, false, &mut rng).unwrap();
        assert!(exits.iter().all(|e| e.won));
        // All assigned slots are distinct.
        assert_ne!(exits[0].mv, exits[1].mv);
    }

    #[test]
    fn no_safe_exit_errors_without_fallback() {
        // Both fan packets stand at n2, but we present them with *no*
        // forward-arrival information (as if they had arrived backward):
        // the safe-deflection pool is empty, so the loser fails without
        // fallback and takes an arbitrary free exit with it.
        let (sim, band) = fan_sim();
        let desired = unpack_move(sim.shared().next_move(0)); // e2 forward
        let cs = vec![
            Contender {
                pkt: 0,
                desired,
                priority: 0,
                arrival: None,
            },
            Contender {
                pkt: 1,
                desired,
                priority: 1,
                arrival: None,
            },
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let err = resolve(&band, NodeId(2), &cs, false, &mut rng).unwrap_err();
        assert_eq!(err, ConflictError::NoSafeExit { pkt: 0 });
        // With fallback, the loser takes any free exit (unsafe), here the
        // other forward edge e3.
        let exits = resolve(&band, NodeId(2), &cs, true, &mut rng).unwrap();
        let loser = exits.iter().find(|e| !e.won).unwrap();
        assert!(!loser.safe);
        assert_eq!(loser.mv, DirectedEdge::forward(EdgeId(3)));
    }

    #[test]
    fn pool_edges_used_at_most_once() {
        // Three packets converge on one node and all want the same edge:
        // two losers must take two *distinct* backward edges.
        let mut b = NetworkBuilder::new("tri");
        let s0 = b.add_node(0);
        let s1 = b.add_node(0);
        let s2 = b.add_node(0);
        let mid = b.add_node(1);
        let top = b.add_node(2);
        let e0 = b.add_edge(s0, mid).unwrap();
        let e1 = b.add_edge(s1, mid).unwrap();
        let e2 = b.add_edge(s2, mid).unwrap();
        let e3 = b.add_edge(mid, top).unwrap();
        let net = Arc::new(b.build().unwrap());
        let paths = vec![
            Path::new(&net, s0, vec![e0, e3]).unwrap(),
            Path::new(&net, s1, vec![e1, e3]).unwrap(),
            Path::new(&net, s2, vec![e2, e3]).unwrap(),
        ];
        let prob = Arc::new(RoutingProblem::new(net, paths).unwrap());
        let (sim, band) = after_injection(prob);
        let cs: Vec<Contender> = (0..3).map(|p| contender(&sim, p, 1)).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let exits = resolve(&band, mid, &cs, false, &mut rng).unwrap();
        assert_eq!(exits.iter().filter(|e| e.won).count(), 1);
        let mut slots: Vec<usize> = exits.iter().map(|e| e.mv.slot_index()).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), 3, "all exits distinct");
        for e in exits.iter().filter(|e| !e.won) {
            assert!(e.safe);
            assert_eq!(e.mv.dir, Direction::Backward);
        }
    }

    #[test]
    fn resolution_respects_engine_level_slot_state() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let (sim, mut band) = fan_sim();
        // Claim e2-forward on the stage using packet 0 itself, then
        // resolve only packet 1: it must lose and deflect safely.
        let mv = unpack_move(sim.shared().next_move(0));
        band.stage(0, pack_move(mv), KIND_ADVANCE);
        let cs = vec![contender(&sim, 1, 3)];
        let exits = resolve(&band, NodeId(2), &cs, false, &mut rng).unwrap();
        assert!(!exits[0].won, "engine-level slot already taken");
        assert!(exits[0].safe);
        assert_eq!(exits[0].mv, DirectedEdge::backward(EdgeId(1)));
    }
}
