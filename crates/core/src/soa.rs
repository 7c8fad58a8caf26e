//! The step driver for [`crate::BuschRouter`].
//!
//! Runs the paper's algorithm — states, targets, conflicts and injection
//! (§3, summarized in `router.rs`) — on [`hotpotato_sim::SoaEngine`].
//! The per-packet algorithm state (state tag, oscillation edge) lives in
//! flat arrays ([`DriverState`]) mirroring the engine's SoA layout.
//!
//! One dispatch body, two decision modes (see `DESIGN.md` §11):
//!
//! * **Sequential** ([`BuschConfig::parallel_bands`] off): a single
//!   [`BandStage`] spans every occupied node and all randomness comes
//!   from the caller's rng, drawn node by node in ascending order and
//!   arrival by arrival — the decision sequence the committed goldens
//!   pin (stats, records, observer streams).
//! * **Banded** (`parallel_bands` on): nodes are partitioned into
//!   [`BANDS`] contiguous level bands, each with a persistent
//!   `ChaCha8Rng` stream seeded from the master rng at run start. Band
//!   count and node→band assignment depend only on the network, so
//!   results are identical whether the bands run on one thread or many
//!   (`HOTPOTATO_THREADS` is a speed knob, not a semantics knob). With
//!   ≥ 2 threads and ≥ 2 non-empty bands, a step's bands are dispatched
//!   concurrently on the process-wide worker pool.
//!
//! Why bands may run concurrently at all: during dispatch nothing
//! mutates the engine — every decision reads [`SoaShared`] and
//! [`DriverState`] behind `Arc`s — and every slot a band claims
//! *originates at a node of that band* (desired moves and oscillations
//! depart the packet's node; safe deflections reverse an edge whose
//! reversal departs it too), and each (edge, direction) slot has exactly
//! one origin node. Disjoint node sets therefore claim disjoint slots:
//! each band tracks its claims in a private bitset and no shared slot
//! state exists until [`SoaEngine::merge_band`] commits the bands — in
//! fixed band-index order, which is the reduction order that keeps the
//! merged staging sequence, and hence every downstream artifact,
//! deterministic. Deferred state updates are equivalent to in-place
//! writes because all same-step reads of a packet's state happen at its
//! own node, inside its own band.
//!
//! Both modes skip work the schedule makes predictable: idle stretches
//! ([`SoaEngine::skip_idle`]), and wait-state stretches in which every
//! packet oscillates until the phase ends. After three such steps the
//! network is period-2, so the driver repeats the last two steps in
//! closed form ([`SoaEngine::repeat_last_two_steps`]) and advances each
//! band's rng by the draws those steps made (`DESIGN.md` §11).

use crate::invariants::{check_phase_end, InvariantReport, PhaseAuditScratch};
use crate::router::{BuschConfig, BuschOutcome};
use crate::schedule::{assign_sets, FrameSchedule};
use hotpotato_sim::conflict::{self, ConflictScratch, Contender, DeflectRule};
use hotpotato_sim::soa::{
    pack_move, unpack_move, KIND_ADVANCE, KIND_DEFLECT_FREE, KIND_DEFLECT_SAFE, KIND_OSCILLATE,
};
use hotpotato_sim::{
    BandStage, InjectOutcome, RouteObserver, Section, SoaEngine, SoaShared, Time, NO_MOVE,
};
use leveled_net::ids::DirectedEdge;
use leveled_net::{EdgeId, LeveledNetwork, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use routing_core::RoutingProblem;
use std::sync::{Arc, Mutex};

/// Number of level bands in banded mode. A constant (rather than the
/// thread count) so banded results are a pure function of (problem,
/// seed); 8 bands keep every machine size busy without fragmenting the
/// per-band rng streams.
pub(crate) const BANDS: usize = 8;

/// Packet state tags; numerically equal to the paper's conflict
/// priorities (excited > normal > wait), so `tag as u32` *is* the
/// [`Contender::priority`].
const TAG_WAIT: u8 = 0;
const TAG_NORMAL: u8 = 1;
const TAG_EXCITED: u8 = 2;

/// The algorithm's per-packet state (§3, "Packet State"): normal,
/// excited, or wait on an oscillation edge. Read-shared with band workers
/// behind an `Arc`; mutated only between dispatches via `Arc::get_mut`
/// (the band workers have dropped their clones by then).
struct DriverState {
    /// Per packet: the state tag (`TAG_*`) in the top 2 bits, and — for
    /// wait-state packets — the edge they oscillate on in the low 30.
    /// One word because every dispatch reads both halves together.
    tagwe: Vec<u32>,
}

/// Packs a (state tag, wait edge) pair into a [`DriverState::tagwe`] word.
#[inline]
fn pack_tagwe(tag: u8, we: u32) -> u32 {
    debug_assert!(we < 1 << 30, "edge id overflows the state word");
    ((tag as u32) << 30) | we
}

/// Everything a band needs per step beyond the shared state: copies of
/// the step clock decomposition and the configuration switches that
/// influence dispatch.
#[derive(Clone, Copy)]
struct StepCtx {
    round_start: bool,
    phase_start: bool,
    /// Integer form of the excitation draw `gen_bool(q)`: the vendored
    /// sampler is `(next_u64() >> 11) as f64 / 2^53 < q`, which for
    /// `0 < q < 1` is exactly `(next_u64() >> 11) < ceil(q · 2^53)` —
    /// both sides of the float compare are exact, so precomputing the
    /// integer threshold removes the float conversion from the hottest
    /// rng call without perturbing the pinned stream. `0` means no draw
    /// (`q = 0` never excites, and draws nothing).
    exc_threshold: u64,
    /// `q >= 1.0`: every normal arrival excites, and — matching
    /// `gen_bool`'s early return — *without* consuming a draw.
    exc_always: bool,
    check_invariants: bool,
    rule: DeflectRule,
}

/// Per-band working set, persistent across steps: the staging buffer
/// (with its band-local slot bitset), resolver scratch, the deferred
/// state-update list, and per-band counters folded into the run totals
/// at merge time.
struct BandCtx {
    stage: BandStage,
    scratch: ConflictScratch,
    contenders: Vec<Contender>,
    /// (tag, wait_edge) per arrival of the node in hand — the node-local
    /// view of the state updates, so same-node reads see them before
    /// they are committed.
    tags_buf: Vec<(u8, u32)>,
    /// Deferred `DriverState` writes: (packet, packed tag + wait edge).
    updates: Vec<(u32, u32)>,
    /// Occupied nodes assigned to this band this step, ascending.
    nodes: Vec<u32>,
    excitations: u64,
    cross_set_meetings: u64,
    unsafe_deflections: u64,
    /// Arrivals at nodes with two or more arrivals this step. In a step
    /// where every packet oscillates, each such arrival wants its own
    /// slot, so `resolve_into` breaks one singleton tie per arrival —
    /// one `next_u64` each — and nothing else draws: this is then the
    /// step's whole rng use.
    group_arrivals: u64,
    /// `(group_arrivals, cross_set_meetings)` of the last two steps,
    /// indexed by step parity: what a fast-forward repeats.
    last_two: [(u64, u64); 2],
}

impl BandCtx {
    fn new(net: Arc<LeveledNetwork>) -> Self {
        BandCtx {
            stage: BandStage::new(net),
            scratch: ConflictScratch::default(),
            contenders: Vec::new(),
            tags_buf: Vec::new(),
            updates: Vec::new(),
            nodes: Vec::new(),
            excitations: 0,
            cross_set_meetings: 0,
            unsafe_deflections: 0,
            group_arrivals: 0,
            last_two: [(0, 0); 2],
        }
    }

    /// Replays the rng use and the `I_d` meetings of the last two steps
    /// `pairs` times: what the band would have drawn and counted had it
    /// dispatched a fast-forwarded stretch.
    fn repeat_tallies<R: Rng + ?Sized>(&self, pairs: u64, rng: &mut R) -> u64 {
        let [(d0, m0), (d1, m1)] = self.last_two;
        for _ in 0..pairs * (d0 + d1) {
            rng.next_u64();
        }
        pairs * (m0 + m1)
    }
}

/// A band's full persistent state; in parallel steps each lives behind
/// its own `Arc<Mutex<..>>`, locked by exactly one worker per step.
struct BandState {
    rng: ChaCha8Rng,
    ctx: BandCtx,
}

/// Dispatches every node in `nodes`: folds the round/phase
/// demotions and excitation draws into the visit, builds contenders,
/// resolves conflicts against the
/// band-local slot bitset, and stages one exit per arrival. Mutates
/// nothing shared — updates and counters accumulate in `ctx` for the
/// merge.
// lint: hot-path
#[allow(clippy::too_many_arguments)]
fn dispatch_band<R: Rng + ?Sized>(
    net: &LeveledNetwork,
    sh: &SoaShared,
    st: &DriverState,
    sets: &[u32],
    targets: &[i64],
    sc: StepCtx,
    rng: &mut R,
    nodes: &[u32],
    ctx: &mut BandCtx,
) {
    for &v in nodes {
        let arrivals = sh.arrivals(v);

        // Most nodes host a single arrival, which cannot conflict: its
        // desired slot originates here and nobody else wants it. Decide
        // its state and exit without building contenders — the rng draw
        // sequence (one excitation draw per normal packet, in arrival
        // order) is exactly the general path's.
        if let [p] = *arrivals {
            let i = p as usize;
            let twe = st.tagwe[i];
            let mut tag = (twe >> 30) as u8;
            let mut we = twe & ((1 << 30) - 1);
            if sc.round_start && (tag == TAG_EXCITED || (tag == TAG_WAIT && sc.phase_start)) {
                tag = TAG_NORMAL;
            }
            if tag == TAG_NORMAL
                && (sc.exc_always
                    || (sc.exc_threshold != 0 && (rng.next_u64() >> 11) < sc.exc_threshold))
            {
                tag = TAG_EXCITED;
                ctx.excitations += 1;
            }
            let last = sh.flight[i].last_move;
            let (mv, kind) = if tag == TAG_WAIT {
                let e = net.edge(EdgeId(we));
                let mv = if v == e.head.0 {
                    (we << 1) | 1
                } else {
                    we << 1
                };
                (mv, KIND_OSCILLATE)
            } else {
                let arrived_fwd = last != NO_MOVE && last & 1 == 0;
                if arrived_fwd && net.level(NodeId(v)) as i64 == targets[sets[i] as usize] {
                    // Reached the target node: enter the wait state on
                    // the arrival edge (§3, "Wait state").
                    tag = TAG_WAIT;
                    we = last >> 1;
                    ((we << 1) | 1, KIND_OSCILLATE)
                } else {
                    let mv = sh.next_move(p);
                    debug_assert_ne!(mv, NO_MOVE, "active packets are not at their destination");
                    (mv, KIND_ADVANCE)
                }
            };
            ctx.stage.stage(p, mv, kind);
            let new_twe = pack_tagwe(tag, we);
            if new_twe != twe {
                ctx.updates.push((p, new_twe));
            }
            continue;
        }

        // Per-packet state pass: demotions at round/phase starts, then
        // the excitation draw — into the node-local tag buffer, since
        // this node's conflict resolution must see the updated states.
        ctx.tags_buf.clear();
        for &p in arrivals {
            let i = p as usize;
            let twe = st.tagwe[i];
            let mut tag = (twe >> 30) as u8;
            if sc.round_start && (tag == TAG_EXCITED || (tag == TAG_WAIT && sc.phase_start)) {
                tag = TAG_NORMAL;
            }
            if tag == TAG_NORMAL
                && (sc.exc_always
                    || (sc.exc_threshold != 0 && (rng.next_u64() >> 11) < sc.exc_threshold))
            {
                tag = TAG_EXCITED;
                ctx.excitations += 1;
            }
            ctx.tags_buf.push((tag, twe & ((1 << 30) - 1)));
        }

        ctx.group_arrivals += arrivals.len() as u64;

        // I_d: packets of different frontier-sets must not meet.
        if sc.check_invariants && arrivals.len() > 1 {
            let first = sets[arrivals[0] as usize];
            if arrivals[1..].iter().any(|&p| sets[p as usize] != first) {
                ctx.cross_set_meetings += 1;
            }
        }

        ctx.contenders.clear();
        for (j, &p) in arrivals.iter().enumerate() {
            let last = sh.flight[p as usize].last_move;
            let (tag, we) = ctx.tags_buf[j];
            let desired = if tag == TAG_WAIT {
                // Oscillate: back from the target (edge head), forward
                // from the rear node (edge tail).
                let e = net.edge(EdgeId(we));
                if v == e.head.0 {
                    DirectedEdge::backward(EdgeId(we))
                } else {
                    debug_assert_eq!(v, e.tail.0);
                    DirectedEdge::forward(EdgeId(we))
                }
            } else {
                let target = targets[sets[p as usize] as usize];
                let arrived_fwd = last != NO_MOVE && last & 1 == 0;
                if net.level(NodeId(v)) as i64 == target && arrived_fwd {
                    // Reached the target node: enter the wait state on
                    // the arrival edge (§3, "Wait state").
                    let edge = last >> 1;
                    ctx.tags_buf[j] = (TAG_WAIT, edge);
                    DirectedEdge::backward(EdgeId(edge))
                } else {
                    let mv = sh.next_move(p);
                    debug_assert_ne!(mv, NO_MOVE, "active packets are not at their destination");
                    unpack_move(mv)
                }
            };
            ctx.contenders.push(Contender {
                pkt: p,
                desired,
                priority: ctx.tags_buf[j].0 as u32,
                arrival: if last == NO_MOVE {
                    None
                } else {
                    Some(unpack_move(last))
                },
            });
        }

        // Fast path: a lone packet at a node cannot conflict — its
        // desired slot originates here and nobody else wants it.
        if let [c] = ctx.contenders[..] {
            let kind = if ctx.tags_buf[0].0 == TAG_WAIT {
                KIND_OSCILLATE
            } else {
                KIND_ADVANCE
            };
            ctx.stage.stage(c.pkt, pack_move(c.desired), kind);
        } else {
            let exits = conflict::resolve_into(
                &ctx.stage,
                NodeId(v),
                &ctx.contenders,
                sc.rule,
                rng,
                &mut ctx.scratch,
            )
            .expect("hot-potato assignment failed: arrival bound violated");
            // `resolve_into` returns exits in contender order, which is
            // arrival order — so exit j is arrival j, no matching needed.
            for (j, exit) in exits.iter().enumerate() {
                debug_assert_eq!(exit.pkt, arrivals[j]);
                let kind = if exit.won {
                    if ctx.tags_buf[j].0 == TAG_WAIT {
                        KIND_OSCILLATE
                    } else {
                        KIND_ADVANCE
                    }
                } else {
                    // Losers demote (§3: deflected excited and wait
                    // packets become normal).
                    ctx.tags_buf[j].0 = TAG_NORMAL;
                    if exit.safe {
                        KIND_DEFLECT_SAFE
                    } else {
                        ctx.unsafe_deflections += 1;
                        KIND_DEFLECT_FREE
                    }
                };
                ctx.stage.stage(exit.pkt, pack_move(exit.mv), kind);
            }
        }

        // Defer the state writes: commit them at merge time, in band
        // order. Equivalent to writing now — no other node reads them
        // this step.
        for (j, &p) in arrivals.iter().enumerate() {
            let (tag, we) = ctx.tags_buf[j];
            let i = p as usize;
            let twe = pack_tagwe(tag, we);
            if twe != st.tagwe[i] {
                ctx.updates.push((p, twe));
            }
        }
    }
}

/// The process-wide band worker pool, sized once from
/// `HOTPOTATO_THREADS` (capped at [`BANDS`] — more workers than bands
/// cannot help). Distinct from the bench sweep pool: a sweep of
/// banded runs uses both, which oversubscribes but cannot deadlock.
mod pool {
    use hotpotato_sim::pool_core::{configured_threads, PoolCore};
    use std::sync::OnceLock;

    static POOL: OnceLock<PoolCore> = OnceLock::new();

    pub(super) fn get() -> &'static PoolCore {
        POOL.get_or_init(|| PoolCore::new(configured_threads().min(super::BANDS), || {}))
    }
}

/// Routes `problem` on the bufferless engine; see the module docs for
/// the sequential/banded split.
// lint: telemetry
// (the `Instant` reads feed `on_section` profiling only; no routing
// decision depends on them)
pub(crate) fn route_soa<R: Rng + ?Sized, O: RouteObserver + ?Sized>(
    cfg: &BuschConfig,
    problem: &Arc<RoutingProblem>,
    rng: &mut R,
    observer: &mut O,
) -> BuschOutcome {
    let params = cfg.params;
    let net = problem.network_arc();
    let depth = net.depth();
    let schedule = FrameSchedule::new(params.m, params.num_sets, depth);
    let phase_len = params.phase_len();
    let max_steps = params.max_steps(depth).max(phase_len);

    // Random uniform frontier-set assignment (§2.4).
    let sets_master = assign_sets(problem.num_packets(), params.num_sets, rng);
    observer.on_sets_assigned(&sets_master, params.num_sets);
    let sets: Arc<Vec<u32>> = Arc::new(sets_master.clone());

    let timing = observer.wants_timing();
    let mut sim = SoaEngine::new(Arc::clone(problem), cfg.trace, cfg.record, observer);
    let mut invariants = InvariantReport::default();
    let initial_per_set = if cfg.check_invariants {
        problem.per_set_congestion(sets.as_slice(), params.num_sets as usize)
    } else {
        Vec::new()
    };

    let n = problem.num_packets();
    let mut state = Arc::new(DriverState {
        tagwe: vec![(TAG_NORMAL as u32) << 30; n],
    });

    // Band setup. Sequential mode is one band over everything, fed by
    // the caller's rng; banded mode fixes BANDS contiguous level bands
    // with persistent per-band rng streams seeded from the master rng.
    let banded = cfg.parallel_bands;
    let num_bands = if banded {
        BANDS.min(net.num_levels())
    } else {
        1
    };
    let bands: Vec<Arc<Mutex<BandState>>> = if banded {
        (0..num_bands)
            .map(|_| {
                Arc::new(Mutex::new(BandState {
                    rng: ChaCha8Rng::seed_from_u64(rng.next_u64()),
                    ctx: BandCtx::new(Arc::clone(&net)),
                }))
            })
            .collect()
    } else {
        Vec::new()
    };
    // Sequential mode dispatches on this thread every step, so its
    // scratch lives outside the mutex vector: no per-step locks, no
    // partition copy (the engine's occupied list is the node list).
    let mut solo = BandCtx::new(Arc::clone(&net));
    let band_of = |v: u32| -> usize {
        if num_bands == 1 {
            0
        } else {
            net.level(NodeId(v)) as usize * num_bands / net.num_levels()
        }
    };
    let threads = hotpotato_sim::pool_core::configured_threads();

    // Injection agenda: (injection step, packet), sorted descending so
    // due packets pop off the back.
    let mut agenda: Vec<(Time, u32)> = (0..n as u32)
        .map(|p| {
            if cfg.eager_injection {
                return (0, p);
            }
            let src = problem.packets()[p as usize].path.source();
            let phase = schedule.injection_phase(sets[p as usize], net.level(src));
            (phase * phase_len, p)
        })
        .collect();
    agenda.sort_unstable_by(|a, b| b.cmp(a));
    let mut ready: Vec<u32> = Vec::new();

    let mut audit_scratch = PhaseAuditScratch::default();
    let mut total_moves = 0u64;
    // Per-set target levels, hoisted out of the per-packet dispatch:
    // they only change when (phase, round) does. Behind an Arc so band
    // workers can share the slice; refreshed via `get_mut` between
    // dispatches (the workers have dropped their clones by then).
    let mut targets: Arc<Vec<i64>> = Arc::new(vec![0; params.num_sets as usize]);
    let mut targets_key = (u64::MAX, u32::MAX);
    let rule = if cfg.arbitrary_deflections {
        DeflectRule::Arbitrary
    } else {
        DeflectRule::SafeBackward {
            allow_fallback: cfg.allow_fallback,
        }
    };
    // See `StepCtx::exc_threshold` for why this integer compare is
    // exactly the vendored `gen_bool(q)`.
    let exc_threshold = if params.q <= 0.0 || params.q >= 1.0 {
        0
    } else {
        (params.q * (1u64 << 53) as f64).ceil() as u64
    };
    let exc_always = params.q >= 1.0;
    // Consecutive dispatched steps, ending at the last one, in which
    // every packet in flight oscillated (see the fast-forward below).
    let mut oscillating_run = 0u32;

    while !sim.is_done() && sim.now() < max_steps {
        let t = sim.now();
        let phase = t / phase_len;
        let round = ((t / params.w as u64) % params.m as u64) as u32;
        let sc = StepCtx {
            round_start: t.is_multiple_of(params.w as u64),
            phase_start: t.is_multiple_of(phase_len),
            exc_threshold,
            exc_always,
            check_invariants: cfg.check_invariants,
            rule,
        };

        if sc.phase_start {
            let obs = sim.observer_mut();
            obs.on_phase_start(phase, t);
            for set in 0..params.num_sets {
                if schedule.frame_in_network(set, phase) {
                    obs.on_frontier(phase, set, schedule.frontier(set, phase));
                }
            }
        }
        // Fast-forward idle stretches: with nothing in flight, nothing
        // ready to retry, and nothing due before the next step, the only
        // work left in this phase is its end-of-phase audit — skip
        // straight to the next injection due time or the phase's last
        // step, whichever comes first. Emits the same per-step artifacts
        // a grinding loop would (see `SoaEngine::skip_idle`).
        if sim.shared().occupied.is_empty() && ready.is_empty() {
            let next_due = agenda.last().map_or(u64::MAX, |&(due, _)| due);
            if next_due > t {
                let phase_last = (phase + 1) * phase_len - 1;
                let skip_to = next_due.min(phase_last).min(max_steps - 1);
                if skip_to > t {
                    sim.skip_idle(skip_to - t);
                    continue;
                }
            }
        }

        // Fast-forward wait-state stretches (DESIGN.md §11). After a
        // step in which every packet oscillated, every packet is in the
        // wait state and wants its own slot, so until the next phase
        // start nothing excites, deflects, injects or delivers, and the
        // network is period-2. Once three such steps are behind us the
        // last two are settled (deviation stacks, arrival orders), so
        // repeat them in closed form up to the phase's last step, which
        // is dispatched — audit and all — as usual. Each band's rng and
        // meeting count advance by what its last two steps used.
        if oscillating_run >= 3 && !sc.phase_start && ready.is_empty() {
            let phase_last = (phase + 1) * phase_len - 1;
            let next_due = agenda.last().map_or(u64::MAX, |&(due, _)| due);
            let n = (phase_last.min(max_steps) - t) & !1;
            let start = timing.then(std::time::Instant::now);
            if next_due > phase_last && n > 0 && sim.repeat_last_two_steps(n) {
                let pairs = n / 2;
                if banded {
                    for band in &bands {
                        let mut b = band.try_lock().expect("bands are uncontended");
                        let BandState { rng: band_rng, ctx } = &mut *b;
                        invariants.cross_set_meetings += ctx.repeat_tallies(pairs, band_rng);
                    }
                } else {
                    invariants.cross_set_meetings += solo.repeat_tallies(pairs, rng);
                }
                total_moves += n * sim.active_count() as u64;
                if let Some(start) = start {
                    sim.observer_mut()
                        .on_section(Section::Kinematics, start.elapsed().as_nanos() as u64);
                }
                continue;
            }
        }

        if targets_key != (phase, round) {
            targets_key = (phase, round);
            let tg = Arc::get_mut(&mut targets).expect("band workers dropped target handles");
            for (set, t) in tg.iter_mut().enumerate() {
                *t = schedule.target_level(set as u32, phase, round);
            }
        }
        let section_start = if timing {
            Some(std::time::Instant::now())
        } else {
            None
        };

        // Partition this step's occupied nodes into the bands (ascending
        // node order is preserved within each band), then dispatch.
        let sh = Arc::clone(sim.shared());
        let mut busy = 0usize;
        if !banded {
            busy = usize::from(!sh.occupied.is_empty());
        } else if num_bands == 1 {
            let mut b = bands[0].try_lock().expect("band 0 is uncontended");
            b.ctx.nodes.clear();
            b.ctx.nodes.extend_from_slice(&sh.occupied);
            busy = usize::from(!b.ctx.nodes.is_empty());
        } else {
            for band in &bands {
                band.try_lock()
                    .expect("bands are uncontended")
                    .ctx
                    .nodes
                    .clear();
            }
            let mut cur = usize::MAX;
            let mut locked = None;
            for &v in &sh.occupied {
                let b = band_of(v);
                if b != cur {
                    cur = b;
                    busy += 1;
                    locked = Some(bands[b].try_lock().expect("bands are uncontended"));
                }
                locked.as_mut().expect("band locked").ctx.nodes.push(v);
            }
            drop(locked);
        }

        if banded && threads > 1 && busy >= 2 {
            // Parallel: one pool job per non-empty band. Workers read
            // the shared state behind Arcs, keep everything they produce
            // band-local, drop their Arc clones, then post.
            let results = Arc::new(hotpotato_sim::pool_core::BandResults::<
                Option<Box<dyn std::any::Any + Send>>,
            >::new(busy));
            let mut slot = 0usize;
            for band in &bands {
                if band
                    .try_lock()
                    .expect("bands are uncontended")
                    .ctx
                    .nodes
                    .is_empty()
                {
                    continue;
                }
                let band = Arc::clone(band);
                let net = Arc::clone(&net);
                let sh = Arc::clone(&sh);
                let st = Arc::clone(&state);
                let sets = Arc::clone(&sets);
                let targets = Arc::clone(&targets);
                let results = Arc::clone(&results);
                pool::get()
                    .submit(Box::new(move || {
                        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            let mut b = band.lock().expect("band state");
                            let BandState { rng, ctx } = &mut *b;
                            let nodes = std::mem::take(&mut ctx.nodes);
                            dispatch_band(
                                &net,
                                &sh,
                                &st,
                                sets.as_slice(),
                                &targets,
                                sc,
                                rng,
                                &nodes,
                                ctx,
                            );
                            ctx.nodes = nodes;
                        }))
                        .err();
                        // Drop every shared handle *before* posting:
                        // after wait_all the coordinator reclaims
                        // exclusive access with Arc::get_mut.
                        drop(band);
                        drop(net);
                        drop(sh);
                        drop(st);
                        drop(sets);
                        drop(targets);
                        results.post(slot, panic);
                    }))
                    .expect("band pool is live");
                slot += 1;
            }
            if let Some(panic) = results.wait_all().into_iter().flatten().next() {
                std::panic::resume_unwind(panic);
            }
        } else if banded {
            // Banded but run on this thread: bands in band order.
            for band in &bands {
                let mut b = band.try_lock().expect("bands are uncontended");
                if b.ctx.nodes.is_empty() {
                    continue;
                }
                let BandState { rng: band_rng, ctx } = &mut *b;
                let nodes = std::mem::take(&mut ctx.nodes);
                dispatch_band(
                    &net,
                    &sh,
                    &state,
                    sets.as_slice(),
                    &targets,
                    sc,
                    band_rng,
                    &nodes,
                    ctx,
                );
                ctx.nodes = nodes;
            }
        } else if busy > 0 {
            // Sequential: the master rng feeds every draw, and the
            // engine's occupied list is already the ascending node list.
            dispatch_band(
                &net,
                &sh,
                &state,
                sets.as_slice(),
                &targets,
                sc,
                rng,
                &sh.occupied,
                &mut solo,
            );
        }

        // Merge in band-index order: commit staged exits to the global
        // slot bitset, apply the deferred state writes, fold counters.
        let mut excitations = 0u64;
        {
            let st = Arc::get_mut(&mut state).expect("band workers dropped their state handles");
            let mut fold = |ctx: &mut BandCtx| {
                sim.merge_band(&mut ctx.stage);
                for &(p, twe) in &ctx.updates {
                    st.tagwe[p as usize] = twe;
                }
                ctx.updates.clear();
                excitations += std::mem::take(&mut ctx.excitations);
                let meetings = std::mem::take(&mut ctx.cross_set_meetings);
                ctx.last_two[(t & 1) as usize] =
                    (std::mem::take(&mut ctx.group_arrivals), meetings);
                invariants.cross_set_meetings += meetings;
                invariants.unsafe_deflections += std::mem::take(&mut ctx.unsafe_deflections);
            };
            if banded {
                for band in &bands {
                    let mut b = band.try_lock().expect("bands are uncontended");
                    fold(&mut b.ctx);
                }
            } else {
                fold(&mut solo);
            }
        }
        if excitations > 0 {
            sim.stats_mut().bump_by("excitations", excitations);
        }
        let section_start = section_start.map(|start| {
            let now = std::time::Instant::now();
            sim.observer_mut()
                .on_section(Section::Conflict, (now - start).as_nanos() as u64);
            now
        });

        // Injections: admit packets whose phase has begun; retry the
        // blocked ones every subsequent step (§3, "Packet Injection").
        while let Some(&(due, p)) = agenda.last() {
            if due > t {
                break;
            }
            agenda.pop();
            ready.push(p);
        }
        ready.retain(|&p| {
            let src = problem.packets()[p as usize].path.source();
            let occupied_source = !sim.shared().arrivals(src.0).is_empty();
            match sim.try_inject(p) {
                InjectOutcome::Injected => {
                    if occupied_source {
                        invariants.isolation_violations += 1;
                    }
                    false
                }
                InjectOutcome::DeliveredTrivially => false,
                InjectOutcome::Blocked => {
                    sim.stats_mut().bump("injection_retries");
                    true
                }
            }
        });

        let section_start = section_start.map(|start| {
            let now = std::time::Instant::now();
            sim.observer_mut()
                .on_section(Section::Injection, (now - start).as_nanos() as u64);
            now
        });

        drop(sh);
        let report = sim.finish_step().expect("all arrivals staged");
        total_moves += report.moved as u64;
        // `moved` counts injections too, so `moved == oscillations`
        // also rules them out.
        let all_oscillated = report.moved > 0
            && report.moved == report.oscillations
            && report.absorbed == 0
            && !sc.phase_start;
        oscillating_run = if all_oscillated {
            oscillating_run + 1
        } else {
            0
        };
        let section_start = section_start.map(|start| {
            let now = std::time::Instant::now();
            sim.observer_mut()
                .on_section(Section::Kinematics, (now - start).as_nanos() as u64);
            now
        });

        // Phase-end audits (the paper states I_a..I_f at phase ends).
        if cfg.check_invariants && (t + 1).is_multiple_of(phase_len) {
            // Wait packets count at their target node (the head of
            // their oscillation edge), regardless of oscillation parity.
            let st = &state;
            let effective = |idx: u32, actual: leveled_net::Level| {
                let twe = st.tagwe[idx as usize];
                if (twe >> 30) as u8 == TAG_WAIT {
                    net.level(net.edge(EdgeId(twe & ((1 << 30) - 1))).head)
                } else {
                    actual
                }
            };
            let per_set_max = check_phase_end(
                &sim,
                &schedule,
                sets.as_slice(),
                phase,
                &initial_per_set,
                effective,
                &mut audit_scratch,
                &mut invariants,
            );
            let obs = sim.observer_mut();
            for (set, (&now_max, &init)) in per_set_max.iter().zip(&initial_per_set).enumerate() {
                obs.on_set_congestion(phase, set as u32, now_max, init);
            }
            if let Some(start) = section_start {
                sim.observer_mut()
                    .on_section(Section::Audit, start.elapsed().as_nanos() as u64);
            }
        }
        if (t + 1).is_multiple_of(phase_len) {
            sim.observer_mut().on_phase_end(phase, t + 1);
        }
    }

    let phases_elapsed = sim.now() / phase_len;
    let (mut stats, record) = sim.into_parts();
    invariants.unsafe_deflections = invariants
        .unsafe_deflections
        .max(stats.counter("fallback_deflections"));
    stats.counters.insert("phases", phases_elapsed);
    stats.counters.insert("moves", total_moves);
    BuschOutcome {
        stats,
        invariants,
        set_assignment: sets_master,
        schedule,
        phases_elapsed,
        params,
        record,
    }
}
