//! The data-oriented (structure-of-arrays) bufferless engine.
//!
//! [`SoaEngine`] is the workspace's one hot-potato engine (bufferless
//! law, per-(edge, direction) slot capacity, absorb-on-arrival — see
//! [`crate::engine`]), built around flat arrays so the per-step inner
//! loops stream over memory instead of chasing pointers:
//!
//! * **Packet state is SoA.** Position, last move, preselected-path
//!   cursor and deviation depth live in per-packet [`Flight`] rows; each
//!   packet's *current path* is its deviation stack (the undo move of
//!   every traversal that left the current path, paper §2.3) on top of
//!   the rest of its preselected path, and the stacks live in one
//!   free-list arena of `(move, next)` pairs shared by all packets.
//! * **Moves are packed.** A directed edge traversal is a single `u32`
//!   (`edge << 1 | direction`), chosen so the packed value *is* the
//!   [`DirectedEdge::slot_index`] and reversing a move is `mv ^ 1`.
//! * **Slot occupancy is a bitset.** The per-step (edge, direction)
//!   claims live in `2·num_edges` bits (one cache line per ~512 slots)
//!   instead of a `u32` stamp array, and are cleared by iterating the
//!   staged moves rather than touching the whole table.
//! * **Preselected paths are CSR.** All paths are concatenated into one
//!   `path_mv` array with per-packet offsets, so following a path is a
//!   linear scan with no per-packet `Vec` indirection.
//!
//! The dispatch-read state is split into [`SoaShared`] behind an [`Arc`]:
//! a step driver clones the `Arc` to read arrivals/positions (including
//! from worker threads in the intra-run banded mode, see [`BandStage`]),
//! stages exits, drops its clones, and calls
//! [`SoaEngine::finish_step`], which reclaims exclusive access via
//! `Arc::get_mut` — no locks, no unsafe.
//!
//! The committed goldens (`tests/goldens`), `trace verify`'s replay laws
//! and [`crate::replay::verify`] pin the engine's behaviour: every
//! driver's movement record, `RouteStats` and observer event stream.

use crate::conflict::SlotView;
use crate::engine::{ExitKind, InjectOutcome, SimError, StepReport};
use crate::observe::{NoopObserver, RouteObserver};
use crate::record::{MoveEvent, RunRecord, TrivialDelivery};
use crate::stats::{RouteStats, Time};
use leveled_net::ids::{DirectedEdge, Direction};
use leveled_net::{EdgeId, LeveledNetwork};
use routing_core::spec::MAX_DEGREE;
use routing_core::{PacketId, RoutingProblem};
use std::sync::Arc;

/// Sentinel for "no move" / "empty list" in packed-move and arena-index
/// fields.
pub const NO_MOVE: u32 = u32::MAX;

/// Packet lifecycle tag: waiting at its source, not yet injected.
pub const STATUS_PENDING: u8 = 0;
/// In flight.
pub const STATUS_ACTIVE: u8 = 1;
/// Absorbed at its destination.
pub const STATUS_DELIVERED: u8 = 2;

/// Staged-exit kind tags (the SoA counterpart of [`ExitKind`]).
pub const KIND_ADVANCE: u8 = 0;
/// Safe backward deflection (Lemma 2.1 edge recycling).
pub const KIND_DEFLECT_SAFE: u8 = 1;
/// Fallback (free-link) deflection.
pub const KIND_DEFLECT_FREE: u8 = 2;
/// Wait-state oscillation move.
pub const KIND_OSCILLATE: u8 = 3;
/// The injection move out of the source.
pub const KIND_INJECT: u8 = 4;

/// Packs a directed edge traversal into the engine's `u32` move
/// representation. The packed value equals [`DirectedEdge::slot_index`].
#[inline]
pub fn pack_move(mv: DirectedEdge) -> u32 {
    mv.slot_index() as u32
}

/// Unpacks a packed move back into a [`DirectedEdge`].
#[inline]
pub fn unpack_move(p: u32) -> DirectedEdge {
    DirectedEdge {
        edge: EdgeId(p >> 1),
        dir: if p & 1 == 0 {
            Direction::Forward
        } else {
            Direction::Backward
        },
    }
}

/// Widens a kind tag back into the engine's [`ExitKind`].
#[inline]
pub fn kind_of(tag: u8) -> ExitKind {
    match tag {
        KIND_ADVANCE => ExitKind::Advance,
        KIND_DEFLECT_SAFE => ExitKind::Deflect { safe: true },
        KIND_DEFLECT_FREE => ExitKind::Deflect { safe: false },
        KIND_OSCILLATE => ExitKind::Oscillate,
        _ => ExitKind::Inject,
    }
}

/// Packs one staged exit into a single word: the kind tag in the top 3
/// bits, the packed move in bits 32..61, the packet id in the low 32.
/// One push per staged exit (instead of one per column) is what keeps
/// [`BandStage::stage`] a two-store operation.
#[inline]
pub fn pack_staged(pkt: u32, mv: u32, kind: u8) -> u64 {
    debug_assert!(mv < 1 << 29, "move index overflows the staged-exit word");
    ((kind as u64) << 61) | ((mv as u64) << 32) | pkt as u64
}

/// The packet id of a packed staged exit.
#[inline]
pub fn staged_pkt(e: u64) -> u32 {
    e as u32
}

/// The packed move of a packed staged exit.
#[inline]
pub fn staged_mv(e: u64) -> u32 {
    (e >> 32) as u32 & ((1 << 29) - 1)
}

/// The kind tag of a packed staged exit.
#[inline]
pub fn staged_kind(e: u64) -> u8 {
    (e >> 61) as u8
}

#[inline]
fn bit_get(words: &[u64], i: u32) -> bool {
    words[(i >> 6) as usize] >> (i & 63) & 1 != 0
}

#[inline]
fn bit_set(words: &mut [u64], i: u32) {
    words[(i >> 6) as usize] |= 1u64 << (i & 63);
}

#[inline]
fn bit_clear(words: &mut [u64], i: u32) {
    words[(i >> 6) as usize] &= !(1u64 << (i & 63));
}

/// Removes `idx` from a swap-remove list, patching the moved element's
/// position entry.
// lint: hot-path
#[inline]
fn list_remove(list: &mut Vec<u32>, pos: &mut [u32], idx: u32) {
    let p = pos[idx as usize] as usize;
    debug_assert_eq!(list[p], idx);
    list.swap_remove(p);
    if let Some(&moved) = list.get(p) {
        pos[moved as usize] = p as u32;
    }
}

/// The per-packet columns every per-move hot loop touches — position,
/// arrival move, deviation-stack head and depth, preselected-path
/// cursor, destination — grouped into one 32-byte row so a move costs
/// one cache line of packet state instead of six. Grouping by access
/// pattern rather than one-array-per-field is the usual second step of
/// a data-oriented layout: the columns that are always read together
/// become a row, and the rarely-touched columns (status, stats,
/// per-packet path storage) stay in their own arrays.
#[derive(Clone, Copy, Debug)]
#[repr(align(32))]
pub struct Flight {
    /// Current node.
    pub node: u32,
    /// Destination node.
    pub dest: u32,
    /// Packed move that brought the packet here ([`NO_MOVE`] before
    /// injection).
    pub last_move: u32,
    /// Arena index of the deviation-stack top ([`NO_MOVE`] = on the
    /// preselected path).
    pub dev_head: u32,
    /// Current deviation-stack depth.
    pub dev_depth: u32,
    /// Absolute `path_mv` index of the next unconsumed preselected-path
    /// edge.
    pub path_next: u32,
    /// Absolute `path_mv` index one past the preselected path.
    pub path_end: u32,
}

/// The dispatch-read half of the engine's state: everything a step
/// driver (possibly on a worker thread) reads while deciding exits.
/// Mutated only inside [`SoaEngine::finish_step`], via `Arc::get_mut` —
/// which statically guarantees no reader exists while it changes.
pub struct SoaShared {
    /// Per-packet flight rows: every column the per-move hot loops
    /// touch, packed into one cache line per packet.
    pub flight: Vec<Flight>,
    /// Deviation arena: the packed undo move of each entry.
    pub dev_mv: Vec<u32>,
    /// Deviation arena: next entry down the stack ([`NO_MOVE`] = bottom);
    /// doubles as the free-list link for recycled entries.
    pub dev_next: Vec<u32>,
    /// Head of the arena free list ([`NO_MOVE`] = empty).
    pub dev_free: u32,
    /// CSR offsets into `path_mv`, `num_packets + 1` entries (immutable
    /// after construction; the mutable cursor lives in
    /// [`Flight::path_next`]).
    pub path_off: Vec<u32>,
    /// Concatenated preselected paths as packed forward moves.
    pub path_mv: Vec<u32>,
    /// Per-node arrival regions, `arr_stride` words each: the arriving
    /// packet ids in staged order. One strided arena instead of
    /// offset/length/data arrays means an arrival costs one cache line
    /// to record and one to read, with no prefix-summing or cursor
    /// restoration between steps.
    pub arrivals: Vec<u32>,
    /// Per-node `(epoch_tag << 16) | len`: node `v`'s region is valid iff
    /// the tag field equals `arr_tag`, so stale regions read as empty
    /// without ever being cleared. Folding the length into the same
    /// word keeps the hot validity check *and* the region length in one
    /// dense `num_nodes`-word array, so recording an arrival never
    /// loads from the (much larger) region arena.
    pub arr_meta: Vec<u32>,
    /// Words per node region of `arrivals`: the max degree (a node
    /// receives at most one packet per incident edge per step).
    pub arr_stride: u32,
    /// Tag of the current step's arrival regions (16 bits — the meta
    /// word keeps the other 16 for the length); bumped once per committed
    /// step, so
    /// regions written for earlier steps are dead without being touched.
    pub arr_tag: u32,
    /// Total arrivals recorded this step.
    pub arrivals_count: u32,
    /// Nodes with at least one arrival this step, ascending.
    pub occupied: Vec<u32>,
    /// Node-occupancy bitset scratch for the arena rebuild: set bits
    /// mirror `occupied` transiently inside
    /// [`SoaEngine::finish_step`], all-clear between steps.
    pub occ_words: Vec<u64>,
    /// Summary level of `occ_words` (one bit per word), same lifecycle.
    pub occ_sum: Vec<u64>,
}

impl SoaShared {
    /// Packet indices that arrived at node `v` this step, in staged
    /// order.
    #[inline]
    // lint: panics-by-design(dense-index invariant surface: packet/node ids are
    // validated at construction, so an OOB here is an engine bug caught by the
    // golden suites, never a client-input path)
    pub fn arrivals(&self, v: u32) -> &[u32] {
        let m = self.arr_meta[v as usize];
        if (m >> 16) != self.arr_tag {
            return &[];
        }
        let base = (v * self.arr_stride) as usize;
        &self.arrivals[base..base + (m & 0xFFFF) as usize]
    }

    /// The next packed move along packet `pkt`'s current path: the
    /// deviation-stack top, else the next preselected edge (forward),
    /// else [`NO_MOVE`] (the packet stands at its destination).
    // lint: hot-path
    #[inline]
    pub fn next_move(&self, pkt: u32) -> u32 {
        let f = &self.flight[pkt as usize];
        if f.dev_head != NO_MOVE {
            return self.dev_mv[f.dev_head as usize];
        }
        if f.path_next < f.path_end {
            self.path_mv[f.path_next as usize]
        } else {
            NO_MOVE
        }
    }

    /// The edges of packet `pkt`'s *current path*, in order from its
    /// current node to its destination: deviation stack top-down, then
    /// the remainder of the preselected path. Congestion auditors (the
    /// invariant `I_e`) sum over it.
    pub fn current_path_edges(&self, pkt: u32) -> impl Iterator<Item = EdgeId> + '_ {
        let f = &self.flight[pkt as usize];
        let mut cur = f.dev_head;
        let dev = std::iter::from_fn(move || {
            if cur == NO_MOVE {
                return None;
            }
            let mv = self.dev_mv[cur as usize];
            cur = self.dev_next[cur as usize];
            Some(EdgeId(mv >> 1))
        });
        let base = self.path_mv[f.path_next as usize..f.path_end as usize]
            .iter()
            .map(|&mv| EdgeId(mv >> 1));
        dev.chain(base)
    }

    /// Validates that packet `pkt`'s current path is a valid forward path
    /// starting at its current node (the conclusion of the paper's
    /// Lemma 2.1). Deflections that are not backward-and-safe (the
    /// unsafe baselines' fallback) can break it.
    pub fn validate_current_path(&self, net: &LeveledNetwork, pkt: u32) -> bool {
        let f = &self.flight[pkt as usize];
        let mut at = f.node;
        let mut cur = f.dev_head;
        while cur != NO_MOVE {
            let mv = self.dev_mv[cur as usize];
            if mv & 1 != 0 {
                return false; // backward move in a current path
            }
            let e = net.edge(EdgeId(mv >> 1));
            if e.tail.0 != at {
                return false;
            }
            at = e.head.0;
            cur = self.dev_next[cur as usize];
        }
        for off in f.path_next..f.path_end {
            let e = net.edge(EdgeId(self.path_mv[off as usize] >> 1));
            if e.tail.0 != at {
                return false;
            }
            at = e.head.0;
        }
        true
    }
}

/// Band-local staging buffer for one shard of a step's dispatch.
///
/// During the dispatch half of a step, every staged move originates at
/// the node being processed, and each (edge, direction) slot has exactly
/// one origin node — so shards that partition the nodes can never
/// contend for a slot, and each can track its claims in a private bitset
/// with no cross-thread slot state at all. The claims become global in
/// [`SoaEngine::merge_band`], called shard-by-shard in fixed band order
/// on the coordinating thread.
///
/// The sequential path uses a single `BandStage` over all nodes, which
/// makes it decision-for-decision identical to the banded path with one
/// band.
pub struct BandStage {
    net: Arc<LeveledNetwork>,
    slot_words: Vec<u64>,
    /// Staged exits in staging order, packed per [`pack_staged`].
    pub staged: Vec<u64>,
}

impl BandStage {
    /// An empty stage over `net`'s slot space.
    pub fn new(net: Arc<LeveledNetwork>) -> Self {
        let words = (2 * net.num_edges()).div_ceil(64);
        BandStage {
            net,
            slot_words: vec![0; words],
            staged: Vec::new(),
        }
    }

    /// Stages packet `pkt` on packed move `mv`, claiming its slot in the
    /// band-local bitset. The caller (the step driver) guarantees the
    /// packet is active, unstaged, and at the move's origin.
    // lint: hot-path
    #[inline]
    pub fn stage(&mut self, pkt: u32, mv: u32, kind: u8) {
        debug_assert!(!bit_get(&self.slot_words, mv), "slot staged twice");
        bit_set(&mut self.slot_words, mv);
        self.staged.push(pack_staged(pkt, mv, kind));
    }

    /// Number of staged exits.
    #[inline]
    pub fn len(&self) -> usize {
        self.staged.len()
    }

    /// Whether nothing is staged.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }
}

impl SlotView for BandStage {
    #[inline]
    fn network(&self) -> &LeveledNetwork {
        &self.net
    }

    #[inline]
    fn slot_free(&self, mv: DirectedEdge) -> bool {
        !bit_get(&self.slot_words, mv.slot_index() as u32)
    }
}

/// The structure-of-arrays bufferless engine. See the module docs for
/// the layout. Drivers run each step in three parts: dispatch one exit
/// for every arrival (via [`BandStage`]s merged with
/// [`SoaEngine::merge_band`]), inject with [`SoaEngine::try_inject`],
/// then commit with [`SoaEngine::finish_step`]:
///
/// ```
/// # use hotpotato_sim::{BandStage, NoopObserver, SoaEngine, soa::KIND_ADVANCE};
/// # use routing_core::{Path, RoutingProblem};
/// # use leveled_net::{builders, NodeId};
/// # use std::sync::Arc;
/// # let net = Arc::new(builders::linear_array(3));
/// # let path = Path::from_nodes(&net, &[NodeId(0), NodeId(1), NodeId(2)]).unwrap();
/// # let problem = Arc::new(RoutingProblem::new(Arc::clone(&net), vec![path]).unwrap());
/// let mut sim: SoaEngine = SoaEngine::new(problem, false, true, NoopObserver);
/// let mut band = BandStage::new(net);
/// let mut pending = vec![0];
/// while !sim.is_done() {
///     let sh = sim.shared();
///     for &v in &sh.occupied {
///         for &p in sh.arrivals(v) {
///             band.stage(p, sh.next_move(p), KIND_ADVANCE);
///         }
///     }
///     sim.merge_band(&mut band);
///     pending.retain(|&p| sim.try_inject(p) == hotpotato_sim::InjectOutcome::Blocked);
///     sim.finish_step().unwrap();
/// }
/// let (stats, record) = sim.into_parts();
/// assert_eq!(stats.delivered_at[0], Some(2));
/// assert_eq!(record.unwrap().moves.len(), 2);
/// ```
pub struct SoaEngine<O = NoopObserver> {
    problem: Arc<RoutingProblem>,
    net: Arc<LeveledNetwork>,
    shared: Arc<SoaShared>,
    status: Vec<u8>,
    /// Global per-step slot claims (one bit per (edge, direction)).
    slot_words: Vec<u64>,
    /// The step's committed staged exits, packed per [`pack_staged`].
    staged: Vec<u64>,
    /// Arrivals staged this step (exits, not injections).
    staged_arrivals: u32,
    active_list: Vec<u32>,
    pending_list: Vec<u32>,
    list_pos: Vec<u32>,
    delivered: usize,
    now: Time,
    stats: RouteStats,
    record: Option<RunRecord>,
    observer: O,
}

impl<O: RouteObserver> SoaEngine<O> {
    /// Builds the engine over `problem`. `trace` enables the per-step
    /// active-count trace, `recording` the full movement record for
    /// [`crate::replay::verify`].
    ///
    /// # Panics
    ///
    /// If a node's degree exceeds [`MAX_DEGREE`] (topology specs reject
    /// such networks when they are instantiated).
    // lint: panics-by-design(construction-time capacity check: the degree limit is
    // enforced where specs are instantiated, and the CSR offsets index the
    // problem's own packets)
    pub fn new(problem: Arc<RoutingProblem>, trace: bool, recording: bool, observer: O) -> Self {
        let net = problem.network_arc();
        let n = problem.num_packets();
        let nv = net.num_nodes();
        let ne = net.num_edges();
        let arr_stride = net.max_degree() as u32;
        assert!(
            arr_stride as usize <= MAX_DEGREE,
            "the SoA arrival meta word keeps 16 bits for the region length; \
             a node of degree {arr_stride} cannot be encoded"
        );

        let mut path_off = Vec::with_capacity(n + 1);
        let mut total = 0u32;
        path_off.push(0);
        for spec in problem.packets() {
            total += spec.path.edges().len() as u32;
            path_off.push(total);
        }
        let mut path_mv = Vec::with_capacity(total as usize);
        let mut flight = Vec::with_capacity(n);
        for (i, spec) in problem.packets().iter().enumerate() {
            for &e in spec.path.edges() {
                path_mv.push(e.0 << 1);
            }
            flight.push(Flight {
                node: spec.path.source().0,
                dest: spec.path.dest(&net).0,
                last_move: NO_MOVE,
                dev_head: NO_MOVE,
                dev_depth: 0,
                path_next: path_off[i],
                path_end: path_off[i + 1],
            });
        }

        let mut stats = RouteStats::new(n);
        if trace {
            stats.active_trace = Some(Vec::new());
        }
        SoaEngine {
            problem,
            net,
            shared: Arc::new(SoaShared {
                flight,
                dev_mv: Vec::new(),
                dev_next: Vec::new(),
                dev_free: NO_MOVE,
                path_off,
                path_mv,
                arrivals: vec![0; nv * arr_stride as usize],
                arr_meta: vec![0; nv],
                arr_stride,
                arr_tag: 0,
                arrivals_count: 0,
                occupied: Vec::new(),
                occ_words: vec![0; nv.div_ceil(64)],
                occ_sum: vec![0; nv.div_ceil(64).div_ceil(64)],
            }),
            status: vec![STATUS_PENDING; n],
            slot_words: vec![0; (2 * ne).div_ceil(64)],
            staged: Vec::new(),
            staged_arrivals: 0,
            active_list: Vec::with_capacity(n),
            pending_list: (0..n as u32).collect(),
            list_pos: (0..n as u32).collect(),
            delivered: 0,
            now: 0,
            stats,
            record: if recording {
                Some(RunRecord::default())
            } else {
                None
            },
            observer,
        }
    }

    /// The dispatch-read state; step drivers clone the `Arc` for the
    /// duration of a dispatch and must drop every clone before
    /// [`SoaEngine::finish_step`].
    #[inline]
    pub fn shared(&self) -> &Arc<SoaShared> {
        &self.shared
    }

    /// The routing problem being simulated.
    #[inline]
    pub fn problem(&self) -> &RoutingProblem {
        &self.problem
    }

    /// The underlying network.
    #[inline]
    pub fn net(&self) -> &Arc<LeveledNetwork> {
        &self.net
    }

    /// Current simulation time (step number).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Whether every packet has been delivered.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.delivered == self.status.len()
    }

    /// Number of delivered packets.
    #[inline]
    pub fn delivered_count(&self) -> usize {
        self.delivered
    }

    /// Lifecycle tag of packet `pkt` (`STATUS_*`).
    #[inline]
    pub fn status(&self, pkt: u32) -> u8 {
        self.status[pkt as usize]
    }

    /// The maintained active-packet list, in unspecified order: for
    /// order-insensitive consumers (auditors summing over the set).
    #[inline]
    pub fn active_slice(&self) -> &[u32] {
        &self.active_list
    }

    /// Number of in-flight packets.
    #[inline]
    pub fn active_count(&self) -> usize {
        self.active_list.len()
    }

    /// The maintained pending-packet list, unordered.
    #[inline]
    pub fn pending_slice(&self) -> &[u32] {
        &self.pending_list
    }

    /// Mutable handle to the run statistics (for algorithm counters).
    #[inline]
    pub fn stats_mut(&mut self) -> &mut RouteStats {
        &mut self.stats
    }

    /// Read-only handle to the run statistics.
    #[inline]
    pub fn stats(&self) -> &RouteStats {
        &self.stats
    }

    /// Mutable access to the attached event sink.
    #[inline]
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Commits a band's staged exits into the engine: claims the global
    /// slots, appends to the step's staged list (preserving band staging
    /// order), and resets the band for its next shard. Bands must be
    /// merged in band-index order — that order *is* the reduction order
    /// that makes the sharded step deterministic.
    // lint: hot-path
    pub fn merge_band(&mut self, band: &mut BandStage) {
        self.staged_arrivals += band.staged.len() as u32;
        if self.staged.is_empty() {
            // First band of the step: the engine has nothing staged and a
            // clear slot bitset, so adopt the band's buffers wholesale —
            // its claimed bits become the global bits and it inherits the
            // engine's (clear) bitset and (empty) staging list for the
            // next shard. O(1) instead of a copy; in sequential one-band
            // runs this makes the merge free.
            debug_assert!(self.slot_words.iter().all(|&w| w == 0));
            std::mem::swap(&mut self.slot_words, &mut band.slot_words);
            std::mem::swap(&mut self.staged, &mut band.staged);
            return;
        }
        for &e in &band.staged {
            let mv = staged_mv(e);
            debug_assert!(
                !bit_get(&self.slot_words, mv),
                "band slot collision: shards must partition move origins"
            );
            bit_set(&mut self.slot_words, mv);
            bit_clear(&mut band.slot_words, mv);
            self.staged.push(e);
        }
        band.staged.clear();
    }

    /// Attempts to inject pending packet `pkt`: it departs its source
    /// along the first edge of its preselected path if that slot is free.
    /// Packets with trivial paths are delivered immediately. The engine
    /// does not require *isolation* (no other packets at the source) —
    /// the paper's algorithm arranges it by scheduling and audits it.
    // lint: hot-path
    // lint: panics-by-design(dense-index invariant surface: packet/node ids are
    // validated at construction, so an OOB here is an engine bug caught by the
    // golden suites, never a client-input path)
    pub fn try_inject(&mut self, pkt: u32) -> InjectOutcome {
        let i = pkt as usize;
        debug_assert_eq!(self.status[i], STATUS_PENDING);
        let sh = &self.shared;
        let f = &sh.flight[i];
        if f.path_next == f.path_end {
            // Trivial path: delivered without entering the network.
            self.status[i] = STATUS_DELIVERED;
            self.delivered += 1;
            list_remove(&mut self.pending_list, &mut self.list_pos, pkt);
            self.stats.injected_at[i] = Some(self.now);
            self.stats.delivered_at[i] = Some(self.now);
            if let Some(rec) = self.record.as_mut() {
                rec.trivial.push(TrivialDelivery {
                    time: self.now,
                    pkt: PacketId(pkt),
                });
            }
            self.observer.on_trivial(self.now, pkt);
            return InjectOutcome::DeliveredTrivially;
        }
        let mv = sh.path_mv[f.path_next as usize];
        if bit_get(&self.slot_words, mv) {
            return InjectOutcome::Blocked;
        }
        bit_set(&mut self.slot_words, mv);
        self.status[i] = STATUS_ACTIVE;
        list_remove(&mut self.pending_list, &mut self.list_pos, pkt);
        self.list_pos[i] = self.active_list.len() as u32;
        self.active_list.push(pkt);
        self.staged.push(pack_staged(pkt, mv, KIND_INJECT));
        InjectOutcome::Injected
    }

    /// Names the arrival that was left resting (cold path of the
    /// bufferless check).
    // lint: trusted(cold diagnosis path: allocates once, immediately before the
    // run aborts with the error it names)
    #[cold]
    fn find_rested(&self) -> SimError {
        let sh = &self.shared;
        let mut staged = vec![false; self.status.len()];
        for &e in &self.staged {
            if staged_kind(e) != KIND_INJECT {
                staged[staged_pkt(e) as usize] = true;
            }
        }
        for &v in &sh.occupied {
            for &p in sh.arrivals(v) {
                if !staged[p as usize] {
                    return SimError::PacketRested(PacketId(p));
                }
            }
        }
        unreachable!("staged-arrival count mismatch without a resting packet");
    }

    /// Applies all staged exits: verifies the bufferless constraint,
    /// moves packets, absorbs arrivals at destinations, rebuilds the
    /// arrival arena, clears the slot bitset via the staged list, and
    /// advances the clock.
    // lint: hot-path
    // lint: panics-by-design(dense-index invariant surface: packet/node ids are
    // validated at construction, so an OOB here is an engine bug caught by the
    // golden suites, never a client-input path)
    pub fn finish_step(&mut self) -> Result<StepReport, SimError> {
        if self.staged_arrivals != self.shared.arrivals_count {
            return Err(self.find_rested());
        }
        let sh = Arc::get_mut(&mut self.shared)
            .expect("dispatch must drop its SoaShared clones before finish_step");

        let mut report = StepReport::default();
        let step = self.now;
        // The outgoing step's arrival regions die by tag, not by
        // clearing: bump the tag and write next step's arrivals directly
        // as moves commit. (Tag 0 is reserved for never-written regions,
        // so on the 16-bit wraparound — once every 65,535 steps — the
        // meta words are flushed wholesale.)
        if sh.arr_tag == (1 << 16) - 1 {
            sh.arr_tag = 0;
            sh.arr_meta.fill(0);
        }
        let new_tag = sh.arr_tag + 1;
        let stride = sh.arr_stride;
        let mut arrivals_count = 0u32;
        sh.occupied.clear();
        for s in 0..self.staged.len() {
            // Touch the flight row and edge record a few exits ahead so
            // their cache misses overlap this iteration's work — the two
            // loads are data-independent across staged exits, but far
            // apart in memory.
            if let Some(&ahead) = self.staged.get(s + 12) {
                std::hint::black_box(sh.flight[staged_pkt(ahead) as usize].node);
                std::hint::black_box(self.net.edge(EdgeId(staged_mv(ahead) >> 1)).head);
            }
            let entry = self.staged[s];
            let pkt = staged_pkt(entry);
            let mv = staged_mv(entry);
            let kind = staged_kind(entry);
            let i = pkt as usize;
            if let Some(rec) = self.record.as_mut() {
                rec.moves.push(MoveEvent {
                    time: step,
                    pkt: PacketId(pkt),
                    mv: unpack_move(mv),
                    kind: kind_of(kind),
                });
            }
            self.observer
                .on_move(step, pkt, unpack_move(mv), kind_of(kind));

            // Kinematics: consume the current path or push the undo move.
            // Advances and injections staged `next_move` verbatim, so the
            // consume/undo comparison is already decided; deflections and
            // oscillations can coincidentally retrace the deviation
            // stack, so they take the full comparison. The per-kind
            // counters fold into the same dispatch so each move branches
            // on its kind once.
            let mut f = sh.flight[i];
            let head = f.dev_head;
            let consumes = match kind {
                KIND_ADVANCE => {
                    debug_assert_eq!(sh.next_move(pkt), mv, "advance is the current next move");
                    true
                }
                KIND_INJECT => {
                    debug_assert_eq!(sh.next_move(pkt), mv, "injection is the first path move");
                    report.injected += 1;
                    self.stats.injected_at[i] = Some(step);
                    true
                }
                _ => {
                    if kind == KIND_OSCILLATE {
                        report.oscillations += 1;
                    } else {
                        report.deflections += 1;
                        self.stats.deflections[i] += 1;
                        if kind == KIND_DEFLECT_FREE {
                            report.fallback_deflections += 1;
                        }
                    }
                    let next = if head != NO_MOVE {
                        sh.dev_mv[head as usize]
                    } else if f.path_next < f.path_end {
                        sh.path_mv[f.path_next as usize]
                    } else {
                        NO_MOVE
                    };
                    next == mv
                }
            };
            if consumes {
                if head != NO_MOVE {
                    f.dev_head = sh.dev_next[head as usize];
                    sh.dev_next[head as usize] = sh.dev_free;
                    sh.dev_free = head;
                    f.dev_depth -= 1;
                } else {
                    f.path_next += 1;
                }
            } else {
                let undo = mv ^ 1;
                let slot = if sh.dev_free != NO_MOVE {
                    let slot = sh.dev_free;
                    sh.dev_free = sh.dev_next[slot as usize];
                    sh.dev_mv[slot as usize] = undo;
                    sh.dev_next[slot as usize] = head;
                    slot
                } else {
                    sh.dev_mv.push(undo);
                    sh.dev_next.push(head);
                    (sh.dev_mv.len() - 1) as u32
                };
                f.dev_head = slot;
                f.dev_depth += 1;
                if f.dev_depth > self.stats.max_deviation[i] {
                    self.stats.max_deviation[i] = f.dev_depth;
                }
            }
            report.moved += 1;
            let e = self.net.edge(EdgeId(mv >> 1));
            let target = if mv & 1 == 0 { e.head.0 } else { e.tail.0 };
            f.node = target;
            f.last_move = mv;
            sh.flight[i] = f;

            if target == f.dest {
                self.status[i] = STATUS_DELIVERED;
                self.delivered += 1;
                list_remove(&mut self.active_list, &mut self.list_pos, pkt);
                self.stats.delivered_at[i] = Some(step + 1);
                self.observer.on_deliver(step + 1, pkt);
                report.absorbed += 1;
            } else {
                let m = sh.arr_meta[target as usize];
                let len = if (m >> 16) == new_tag {
                    m & 0xFFFF
                } else {
                    sh.occ_words[(target >> 6) as usize] |= 1u64 << (target & 63);
                    sh.occ_sum[(target >> 12) as usize] |= 1u64 << ((target >> 6) & 63);
                    0
                };
                sh.arr_meta[target as usize] = (new_tag << 16) | (len + 1);
                sh.arrivals[(target * stride + len) as usize] = pkt;
                arrivals_count += 1;
            }
        }
        if report.fallback_deflections > 0 {
            self.stats
                .bump_by("fallback_deflections", report.fallback_deflections as u64);
        }

        // Clear the slot bitset via the staged moves (every set bit came
        // from a staged exit or injection), then recover the ascending
        // occupied-node list from the occupancy bits.
        for &e in &self.staged {
            bit_clear(&mut self.slot_words, staged_mv(e));
        }
        self.staged.clear();
        self.staged_arrivals = 0;

        // The ascending `occupied` order is part of the pinned decision
        // sequence (node visit order feeds the rng draws). An in-order
        // sweep of the two-level occupancy bitset recovers it in
        // O(num_nodes / 4096 + touched words): the summary word steers
        // the sweep straight to occupied words, so nothing is loaded,
        // stored, or sorted for the empty stretches in between.
        for sw in 0..sh.occ_sum.len() {
            let mut sbits = sh.occ_sum[sw];
            if sbits == 0 {
                continue;
            }
            sh.occ_sum[sw] = 0;
            while sbits != 0 {
                let w = (sw << 6) | sbits.trailing_zeros() as usize;
                sbits &= sbits - 1;
                let mut bits = sh.occ_words[w];
                sh.occ_words[w] = 0;
                while bits != 0 {
                    sh.occupied.push((w as u32) << 6 | bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
        }
        sh.arr_tag = new_tag;
        sh.arrivals_count = arrivals_count;

        self.now += 1;
        if let Some(trace) = self.stats.active_trace.as_mut() {
            trace.push(self.active_list.len() as u32);
        }
        self.observer
            .on_step_end(step, &report, self.active_list.len());
        Ok(report)
    }

    /// Advances the clock across `n` steps known to be idle: no arrivals
    /// in flight and nothing staged. Emits exactly what `n` calls of
    /// [`SoaEngine::finish_step`] would on an idle engine — one
    /// active-trace sample and one observer step call per step — so a
    /// run that fast-forwards its idle stretches is indistinguishable
    /// from one that grinds them (hot-potato phases leave long gaps
    /// where nothing is in flight and nothing is due for injection).
    // lint: hot-path
    pub fn skip_idle(&mut self, n: u64) {
        debug_assert!(
            self.shared.arrivals_count == 0,
            "idle skip with arrivals in flight"
        );
        debug_assert!(self.staged.is_empty(), "idle skip with staged exits");
        let report = StepReport::default();
        let active = self.active_list.len();
        for _ in 0..n {
            if let Some(trace) = self.stats.active_trace.as_mut() {
                trace.push(active as u32);
            }
            self.observer.on_step_end(self.now, &report, active);
            self.now += 1;
        }
    }

    /// Consumes the engine and returns the statistics together with the
    /// movement record (if recording was enabled).
    pub fn into_parts(mut self) -> (RouteStats, Option<RunRecord>) {
        self.stats.steps_run = self.now;
        (self.stats, self.record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leveled_net::{builders, NodeId};
    use routing_core::Path;

    fn line_problem(paths: Vec<Vec<u32>>) -> Arc<RoutingProblem> {
        let net = Arc::new(builders::linear_array(6));
        let ps = paths
            .into_iter()
            .map(|nodes| {
                let nodes: Vec<NodeId> = nodes.into_iter().map(NodeId).collect();
                Path::from_nodes(&net, &nodes).unwrap()
            })
            .collect();
        Arc::new(RoutingProblem::new(net, ps).unwrap())
    }

    #[test]
    fn move_packing_round_trips() {
        for e in [0u32, 1, 7] {
            for dir in [Direction::Forward, Direction::Backward] {
                let mv = DirectedEdge {
                    edge: EdgeId(e),
                    dir,
                };
                assert_eq!(unpack_move(pack_move(mv)), mv);
                assert_eq!(pack_move(mv) as usize, mv.slot_index());
                assert_eq!(unpack_move(pack_move(mv) ^ 1), mv.reversed());
            }
        }
    }

    #[test]
    fn single_packet_advances_to_destination() {
        let prob = line_problem(vec![vec![0, 1, 2, 3]]);
        let net = prob.network_arc();
        let mut sim: SoaEngine = SoaEngine::new(prob, true, false, NoopObserver);
        assert_eq!(sim.try_inject(0), InjectOutcome::Injected);
        sim.finish_step().unwrap();
        assert_eq!(sim.status(0), STATUS_ACTIVE);
        let mut band = BandStage::new(net);
        for _ in 0..2 {
            let sh = Arc::clone(sim.shared());
            for &v in &sh.occupied {
                for &p in sh.arrivals(v) {
                    band.stage(p, sh.next_move(p), KIND_ADVANCE);
                }
            }
            drop(sh);
            sim.merge_band(&mut band);
            sim.finish_step().unwrap();
        }
        assert!(sim.is_done());
        let (stats, _) = sim.into_parts();
        assert_eq!(stats.injected_at[0], Some(0));
        assert_eq!(stats.delivered_at[0], Some(3));
        assert_eq!(stats.deflections[0], 0);
        assert_eq!(stats.active_trace.unwrap(), vec![1, 1, 0]);
    }

    #[test]
    fn trivial_path_delivered_at_injection() {
        let net = Arc::new(builders::linear_array(3));
        let prob = Arc::new(
            RoutingProblem::new(Arc::clone(&net), vec![Path::trivial(NodeId(1))]).unwrap(),
        );
        let mut sim: SoaEngine = SoaEngine::new(prob, false, true, NoopObserver);
        assert_eq!(sim.try_inject(0), InjectOutcome::DeliveredTrivially);
        assert!(sim.is_done());
        let (stats, record) = sim.into_parts();
        assert_eq!(stats.injected_at[0], Some(0));
        assert_eq!(record.unwrap().trivial.len(), 1);
    }

    #[test]
    fn deflection_updates_deviation_and_unwinds() {
        let prob = line_problem(vec![vec![0, 1, 2, 3]]);
        let net = prob.network_arc();
        let mut sim: SoaEngine = SoaEngine::new(prob, false, false, NoopObserver);
        sim.try_inject(0);
        sim.finish_step().unwrap();
        // Deflect backward along edge 0 (unsafe), then walk home.
        let mut band = BandStage::new(net);
        band.stage(
            0,
            pack_move(DirectedEdge::backward(EdgeId(0))),
            KIND_DEFLECT_FREE,
        );
        sim.merge_band(&mut band);
        let report = sim.finish_step().unwrap();
        assert_eq!(report.deflections, 1);
        assert_eq!(report.fallback_deflections, 1);
        assert_eq!(sim.shared().flight[0].dev_depth, 1);
        assert!(sim.shared().validate_current_path(sim.net(), 0));
        while !sim.is_done() {
            let sh = Arc::clone(sim.shared());
            for &v in &sh.occupied {
                for &p in sh.arrivals(v) {
                    band.stage(p, sh.next_move(p), KIND_ADVANCE);
                }
            }
            drop(sh);
            sim.merge_band(&mut band);
            sim.finish_step().unwrap();
        }
        let (stats, _) = sim.into_parts();
        assert_eq!(stats.deflections[0], 1);
        assert_eq!(stats.max_deviation[0], 1);
        assert_eq!(stats.counter("fallback_deflections"), 1);
        assert_eq!(stats.delivered_at[0], Some(5));
    }

    #[test]
    fn resting_packet_is_detected() {
        let prob = line_problem(vec![vec![0, 1, 2]]);
        let mut sim: SoaEngine = SoaEngine::new(prob, false, false, NoopObserver);
        sim.try_inject(0);
        sim.finish_step().unwrap();
        assert_eq!(
            sim.finish_step().unwrap_err(),
            SimError::PacketRested(PacketId(0))
        );
    }

    #[test]
    fn injection_blocked_by_claimed_slot() {
        let prob = line_problem(vec![vec![0, 1, 2], vec![1, 2, 3]]);
        let net = prob.network_arc();
        let mut sim: SoaEngine = SoaEngine::new(prob, false, false, NoopObserver);
        sim.try_inject(0);
        sim.finish_step().unwrap();
        // p0 at node 1 advances over edge 1; p1's injection (edge 1 fwd)
        // must block, then succeed next step.
        let mut band = BandStage::new(net);
        band.stage(0, pack_move(DirectedEdge::forward(EdgeId(1))), KIND_ADVANCE);
        sim.merge_band(&mut band);
        assert_eq!(sim.try_inject(1), InjectOutcome::Blocked);
        sim.finish_step().unwrap();
        assert_eq!(sim.try_inject(1), InjectOutcome::Injected);
    }

    #[test]
    fn current_path_edges_lists_deviation_then_base() {
        let prob = line_problem(vec![vec![0, 1, 2, 3, 4]]);
        let net = prob.network_arc();
        let mut sim: SoaEngine = SoaEngine::new(prob, false, false, NoopObserver);
        sim.try_inject(0);
        sim.finish_step().unwrap();
        let mut band = BandStage::new(net);
        band.stage(0, pack_move(DirectedEdge::forward(EdgeId(1))), KIND_ADVANCE);
        sim.merge_band(&mut band);
        sim.finish_step().unwrap();
        band.stage(
            0,
            pack_move(DirectedEdge::backward(EdgeId(1))),
            KIND_DEFLECT_SAFE,
        );
        sim.merge_band(&mut band);
        sim.finish_step().unwrap();
        let edges: Vec<EdgeId> = sim.shared().current_path_edges(0).collect();
        assert_eq!(edges, vec![EdgeId(1), EdgeId(2), EdgeId(3)]);
    }

    /// Stages `exits` on `band`, merges them and commits the step.
    fn step(
        sim: &mut SoaEngine,
        band: &mut BandStage,
        exits: &[(u32, DirectedEdge, u8)],
    ) -> StepReport {
        for &(p, mv, kind) in exits {
            band.stage(p, pack_move(mv), kind);
        }
        sim.merge_band(band);
        sim.finish_step().unwrap()
    }

    #[test]
    fn both_directions_of_an_edge_usable_in_one_step() {
        // At t=1, p1 crosses edge (1,2) forward while p0 crosses it
        // backward — the paper's "at most two packets per link, one per
        // direction" rule.
        let prob = line_problem(vec![vec![1, 2, 3], vec![0, 1, 2]]);
        let net = prob.network_arc();
        let mut sim: SoaEngine = SoaEngine::new(prob, false, false, NoopObserver);
        sim.try_inject(0);
        sim.try_inject(1);
        sim.finish_step().unwrap();
        let mut band = BandStage::new(net);
        let fwd = DirectedEdge::forward(EdgeId(1));
        assert_eq!(sim.shared().next_move(1), pack_move(fwd));
        let report = step(
            &mut sim,
            &mut band,
            &[
                (1, fwd, KIND_ADVANCE),
                (0, fwd.reversed(), KIND_DEFLECT_SAFE),
            ],
        );
        assert_eq!(report.moved, 2);
        assert_eq!(sim.shared().flight[0].node, 1);
        assert_eq!(sim.status(1), STATUS_DELIVERED);
    }

    #[test]
    fn oscillation_is_push_pop_neutral() {
        // Moving back and forth across an edge (the wait-state
        // oscillation) leaves the current path unchanged: the edge
        // "remains in the path list" (paper §3) and nothing deflects.
        let prob = line_problem(vec![vec![0, 1, 2, 3, 4]]);
        let net = prob.network_arc();
        let mut sim: SoaEngine = SoaEngine::new(prob, false, false, NoopObserver);
        sim.try_inject(0);
        sim.finish_step().unwrap();
        let mut band = BandStage::new(net);
        step(
            &mut sim,
            &mut band,
            &[(0, DirectedEdge::forward(EdgeId(1)), KIND_ADVANCE)],
        );
        let before: Vec<EdgeId> = sim.shared().current_path_edges(0).collect();
        for _ in 0..3 {
            let back = DirectedEdge::backward(EdgeId(1));
            let report = step(&mut sim, &mut band, &[(0, back, KIND_OSCILLATE)]);
            assert_eq!(report.oscillations, 1);
            step(&mut sim, &mut band, &[(0, back.reversed(), KIND_OSCILLATE)]);
        }
        let after: Vec<EdgeId> = sim.shared().current_path_edges(0).collect();
        assert_eq!(sim.shared().flight[0].node, 2);
        assert_eq!(before, after);
        assert_eq!(sim.stats().deflections[0], 0);
    }

    #[test]
    fn nested_deflections_unwind_in_order() {
        let prob = line_problem(vec![vec![0, 1, 2, 3, 4]]);
        let net = prob.network_arc();
        let mut sim: SoaEngine = SoaEngine::new(prob, false, false, NoopObserver);
        sim.try_inject(0);
        sim.finish_step().unwrap();
        let mut band = BandStage::new(net);
        for e in [1, 2] {
            step(
                &mut sim,
                &mut band,
                &[(0, DirectedEdge::forward(EdgeId(e)), KIND_ADVANCE)],
            );
        }
        // Two consecutive backward deflections: 3 -> 2 -> 1.
        for e in [2, 1] {
            let mv = DirectedEdge::backward(EdgeId(e));
            step(&mut sim, &mut band, &[(0, mv, KIND_DEFLECT_SAFE)]);
        }
        let sh = sim.shared();
        assert_eq!(sh.flight[0].node, 1);
        assert_eq!(sh.flight[0].dev_depth, 2);
        assert!(sh.validate_current_path(sim.net(), 0));
        // Unwind: the undo moves come back in stack order.
        assert_eq!(sh.next_move(0), pack_move(DirectedEdge::forward(EdgeId(1))));
        step(
            &mut sim,
            &mut band,
            &[(0, DirectedEdge::forward(EdgeId(1)), KIND_ADVANCE)],
        );
        assert_eq!(
            sim.shared().next_move(0),
            pack_move(DirectedEdge::forward(EdgeId(2)))
        );
        step(
            &mut sim,
            &mut band,
            &[(0, DirectedEdge::forward(EdgeId(2)), KIND_ADVANCE)],
        );
        assert_eq!(sim.shared().flight[0].node, 3);
        assert_eq!(sim.shared().flight[0].dev_depth, 0);
        assert_eq!(sim.stats().max_deviation[0], 2);
    }

    #[test]
    fn forward_deflection_invalidates_the_current_path() {
        // A *forward* off-path move (possible under unsafe fallback)
        // leaves a current path that is no longer a valid forward path
        // in the paper's sense; undoing it restores the preselected one.
        let mut b = leveled_net::NetworkBuilder::new("diamond");
        let n0 = b.add_node(0);
        let n1 = b.add_node(1);
        let n2 = b.add_node(1);
        let n3 = b.add_node(2);
        let e01 = b.add_edge(n0, n1).unwrap();
        let e02 = b.add_edge(n0, n2).unwrap();
        let e13 = b.add_edge(n1, n3).unwrap();
        b.add_edge(n2, n3).unwrap();
        let net = Arc::new(b.build().unwrap());
        let path = Path::new(&net, n0, vec![e01, e13]).unwrap();
        let prob = Arc::new(RoutingProblem::new(Arc::clone(&net), vec![path]).unwrap());
        let mut sim: SoaEngine = SoaEngine::new(prob, false, false, NoopObserver);
        // Inject along e01, bounce back to n0, then deflect forward onto
        // the wrong branch.
        sim.try_inject(0);
        sim.finish_step().unwrap();
        let mut band = BandStage::new(Arc::clone(&net));
        step(
            &mut sim,
            &mut band,
            &[(0, DirectedEdge::backward(e01), KIND_DEFLECT_SAFE)],
        );
        assert!(sim.shared().validate_current_path(&net, 0));
        step(
            &mut sim,
            &mut band,
            &[(0, DirectedEdge::forward(e02), KIND_DEFLECT_FREE)],
        );
        assert_eq!(sim.shared().flight[0].node, n2.0);
        assert!(!sim.shared().validate_current_path(&net, 0));
        // The undo stack still leads home.
        let undo = sim.shared().next_move(0);
        assert_eq!(undo, pack_move(DirectedEdge::backward(e02)));
        step(&mut sim, &mut band, &[(0, unpack_move(undo), KIND_ADVANCE)]);
        assert!(sim.shared().validate_current_path(&net, 0));
    }

    #[test]
    fn step_report_accounts_every_move_kind() {
        let prob = line_problem(vec![vec![0, 1, 2], vec![1, 2, 3]]);
        let net = prob.network_arc();
        let mut sim: SoaEngine = SoaEngine::new(prob, false, false, NoopObserver);
        sim.try_inject(0);
        let r = sim.finish_step().unwrap();
        assert_eq!((r.injected, r.moved), (1, 1));
        // p0 at n1 oscillates backward over edge 0 while p1 injects from
        // n1 over edge 1: different slots, both move.
        let mut band = BandStage::new(net);
        band.stage(
            0,
            pack_move(DirectedEdge::backward(EdgeId(0))),
            KIND_OSCILLATE,
        );
        sim.merge_band(&mut band);
        assert_eq!(sim.try_inject(1), InjectOutcome::Injected);
        let r = sim.finish_step().unwrap();
        assert_eq!(r.moved, 2);
        assert_eq!(r.oscillations, 1);
        assert_eq!(r.injected, 1);
        assert_eq!(r.deflections, 0);
    }

    #[test]
    fn occupied_nodes_are_ascending() {
        let prob = line_problem(vec![vec![3, 4, 5], vec![1, 2, 3], vec![0, 1, 2]]);
        let mut sim: SoaEngine = SoaEngine::new(prob, false, false, NoopObserver);
        for p in [2u32, 0, 1] {
            sim.try_inject(p);
        }
        sim.finish_step().unwrap();
        assert_eq!(sim.shared().occupied, vec![1, 2, 4]);
        assert_eq!(sim.active_count(), 3);
    }
}
