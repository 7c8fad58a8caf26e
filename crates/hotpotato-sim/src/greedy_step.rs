//! The greedy bufferless step: the dispatch the greedy baselines (uniform,
//! furthest-to-go, aging, random rank) and the streaming driver share.
//!
//! Every arriving packet tries the next move of its current path. At a
//! node with several arrivals, [`conflict::resolve_into`] gives each
//! contested slot to the highest priority — the rule is the caller's —
//! with ties broken uniformly at random, and deflects the losers backward
//! and safely when an edge is free for it, else over any free link
//! (greedy injection gives no isolation guarantee, so Lemma 2.1's
//! precondition can fail). Injection is the caller's too: a step is
//! [`GreedyStep::dispatch`], the caller's [`SoaEngine::try_inject`] calls,
//! then [`GreedyStep::commit`].

use crate::conflict::{self, ConflictScratch, Contender, DeflectRule};
use crate::engine::StepReport;
use crate::observe::RouteObserver;
use crate::record::RunRecord;
use crate::soa::{
    pack_move, unpack_move, BandStage, SoaEngine, KIND_ADVANCE, KIND_DEFLECT_FREE,
    KIND_DEFLECT_SAFE, NO_MOVE,
};
use crate::stats::RouteStats;
use leveled_net::{LeveledNetwork, NodeId};
use rand::Rng;
use std::sync::Arc;

/// The greedy step's working set, persistent across steps: the staging
/// buffer, the resolver's scratch, and the run's move count.
pub struct GreedyStep {
    stage: BandStage,
    scratch: ConflictScratch,
    contenders: Vec<Contender>,
    moves: u64,
}

impl GreedyStep {
    /// An empty working set over `net`'s slot space.
    pub fn new(net: Arc<LeveledNetwork>) -> Self {
        GreedyStep {
            stage: BandStage::new(net),
            scratch: ConflictScratch::default(),
            contenders: Vec::new(),
            moves: 0,
        }
    }

    /// Stages one exit for every arrival of this step and merges them
    /// into `sim`. `priority(sim, pkt)` ranks the contenders of a
    /// contested node (higher wins); a lone arrival advances without
    /// being ranked. Draws from `rng` once per contested slot.
    // lint: hot-path
    // lint: panics-by-design(engine invariant surface: the fallback rule always finds a
    // free exit within the degree bound, and packet/node ids are dense engine indices)
    pub fn dispatch<O: RouteObserver, R: Rng + ?Sized>(
        &mut self,
        sim: &mut SoaEngine<O>,
        priority: impl Fn(&SoaEngine<O>, u32) -> u32,
        rng: &mut R,
    ) {
        let sh = sim.shared();
        for &v in &sh.occupied {
            let arrivals = sh.arrivals(v);
            // A lone packet at a node cannot conflict: its desired slot
            // originates here and nobody else wants it.
            if let [p] = *arrivals {
                self.stage.stage(p, sh.next_move(p), KIND_ADVANCE);
                continue;
            }
            self.contenders.clear();
            for &p in arrivals {
                let last = sh.flight[p as usize].last_move;
                let next = sh.next_move(p);
                debug_assert_ne!(last, NO_MOVE, "an arrival has an arrival move");
                debug_assert_ne!(next, NO_MOVE, "arrivals are not at home");
                self.contenders.push(Contender {
                    pkt: p,
                    desired: unpack_move(next),
                    priority: priority(sim, p),
                    arrival: Some(unpack_move(last)),
                });
            }
            let exits = conflict::resolve_into(
                &self.stage,
                NodeId(v),
                &self.contenders,
                DeflectRule::SafeBackward {
                    allow_fallback: true,
                },
                rng,
                &mut self.scratch,
            )
            .expect("fallback resolution cannot fail within the degree bound");
            for e in exits {
                let kind = if e.won {
                    KIND_ADVANCE
                } else if e.safe {
                    KIND_DEFLECT_SAFE
                } else {
                    KIND_DEFLECT_FREE
                };
                self.stage.stage(e.pkt, pack_move(e.mv), kind);
            }
        }
        sim.merge_band(&mut self.stage);
    }

    /// Commits the step: moves, absorbs and advances the clock, and adds
    /// the step's moves to the run's count.
    // lint: panics-by-design(engine invariant surface: dispatch staged an exit for every
    // arrival, so the bufferless check cannot fail)
    pub fn commit<O: RouteObserver>(&mut self, sim: &mut SoaEngine<O>) -> StepReport {
        let report = sim
            .finish_step()
            .expect("dispatch stages an exit for every arrival");
        self.moves += report.moved as u64;
        report
    }

    /// Ends the run: the statistics, with the `moves` counter set, and
    /// the movement record if `sim` kept one.
    pub fn into_parts<O: RouteObserver>(
        self,
        sim: SoaEngine<O>,
    ) -> (RouteStats, Option<RunRecord>) {
        let (mut stats, record) = sim.into_parts();
        stats.counters.insert("moves", self.moves);
        (stats, record)
    }
}
