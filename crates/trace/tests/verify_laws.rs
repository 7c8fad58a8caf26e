//! Law-by-law mutation tests for `verify_trace`: each test breaks exactly
//! one bufferless law in a recorded bf(6) bit-reversal Busch trace and
//! pins the verifier's exact first divergence — the `VerifyError`'s line
//! *and* message. Every case also runs through `verify_trace_sharded`,
//! which must report the identical error at every job count.

mod common;

use common::record_busch_snapshots;
use hotpotato_sim::ExitKind;
use hotpotato_trace::verify::reconstruct;
use hotpotato_trace::{
    verify_trace, verify_trace_sharded, ShardOptions, Trace, TraceEvent, VerifyError,
};
use leveled_net::ids::DirectedEdge;
use leveled_net::{Direction, EdgeId};
use std::sync::{Arc, OnceLock};

const JOB_COUNTS: [usize; 3] = [1, 2, 4];

/// The recorded trace every case mutates: snapshot-bearing, so the
/// sharded verifier genuinely splits it into segments.
fn base() -> &'static Trace {
    static TRACE: OnceLock<Trace> = OnceLock::new();
    TRACE.get_or_init(|| {
        let text = record_busch_snapshots("bf:6", "bitrev", 1).0;
        Trace::parse(&text).expect("recorded trace parses")
    })
}

/// Asserts that `trace` fails verification with exactly
/// `(line, msg)`, sequentially and sharded at every job count.
fn assert_rejected(trace: Trace, line: usize, msg: &str) {
    let want = VerifyError {
        line,
        msg: msg.to_string(),
    };
    let seq = verify_trace(&trace).expect_err("the mutation breaks a law");
    assert_eq!(seq, want, "sequential verifier");
    let trace = Arc::new(trace);
    for jobs in JOB_COUNTS {
        let opts = ShardOptions {
            jobs,
            progress: false,
        };
        let Err(par) = verify_trace_sharded(&trace, &opts) else {
            panic!("jobs={jobs}: sharded verify must reject the mutation");
        };
        assert_eq!(par, want, "sharded verifier, jobs={jobs}");
    }
}

/// A move event's fields.
#[derive(Clone, Copy)]
struct Mv {
    idx: usize,
    t: u64,
    pkt: u32,
    edge: EdgeId,
    dir: Direction,
    kind: ExitKind,
}

fn moves(trace: &Trace) -> Vec<Mv> {
    trace
        .events
        .iter()
        .enumerate()
        .filter_map(|(idx, ev)| match *ev {
            TraceEvent::Move {
                t,
                pkt,
                edge,
                dir,
                kind,
            } => Some(Mv {
                idx,
                t,
                pkt,
                edge,
                dir,
                kind,
            }),
            _ => None,
        })
        .collect()
}

/// Event index of the `step` line closing step `t`.
fn step_line(trace: &Trace, t: u64) -> usize {
    trace
        .events
        .iter()
        .position(|ev| matches!(*ev, TraceEvent::Step { t: s, .. } if s == t))
        .expect("every step is closed by a step line")
}

fn set_move_edge(trace: &mut Trace, idx: usize, new_edge: EdgeId, new_dir: Direction) {
    let TraceEvent::Move { edge, dir, .. } = &mut trace.events[idx] else {
        panic!("event {idx} is a move");
    };
    *edge = new_edge;
    *dir = new_dir;
}

#[test]
fn slot_capacity_names_the_earlier_line() {
    let mut trace = base().clone();
    let all = moves(&trace);
    // Two moves of one step: the later one reuses the earlier one's slot.
    let (a, b) = all
        .windows(2)
        .map(|w| (w[0], w[1]))
        .find(|(a, b)| a.t == b.t && a.t > 0)
        .expect("some step moves two packets");
    set_move_edge(&mut trace, b.idx, a.edge, a.dir);
    let msg = format!(
        "edge {} {:?} slot already used in step {} (line {})",
        a.edge.0,
        a.dir,
        a.t,
        a.idx + 1
    );
    assert_rejected(trace, b.idx + 1, &msg);
}

#[test]
fn no_rest_names_the_lowest_resting_packet() {
    let mut trace = base().clone();
    let all = moves(&trace);
    // Two in-flight packets that plain-move in step t and move again in
    // step t+1 (so neither lands): delete both moves and fix the step
    // line's counters, so only the no-rest law can object.
    let moves_again = |pkt: u32, t: u64| all.iter().any(|m| m.pkt == pkt && m.t == t + 1);
    let plain = |m: &Mv| matches!(m.kind, ExitKind::Advance | ExitKind::Oscillate);
    let (lo, hi) = all
        .iter()
        .filter(|m| plain(m) && moves_again(m.pkt, m.t))
        .find_map(|m| {
            let other = all
                .iter()
                .find(|o| o.t == m.t && o.pkt > m.pkt && plain(o) && moves_again(o.pkt, o.t))?;
            Some((*m, *other))
        })
        .expect("some step has two plainly moving in-flight packets");
    let t = lo.t;
    let osc = [lo, hi]
        .iter()
        .filter(|m| m.kind == ExitKind::Oscillate)
        .count() as u64;
    let step = step_line(&trace, t);
    if let TraceEvent::Step {
        moved,
        oscillations,
        ..
    } = &mut trace.events[step]
    {
        *moved -= 2;
        *oscillations -= osc;
    }
    // Delete the later event first so the earlier index stays valid.
    let (first, second) = (lo.idx.min(hi.idx), lo.idx.max(hi.idx));
    trace.events.remove(second);
    trace.events.remove(first);
    let msg = format!(
        "packet {} rested in step {t} (hot-potato violation)",
        lo.pkt
    );
    assert_rejected(trace, step - 2 + 1, &msg);
}

#[test]
fn safe_deflection_must_recycle_an_arrival_edge() {
    let mut trace = base().clone();
    let all = moves(&trace);
    let Some(TraceEvent::Meta(meta)) = trace.events.first() else {
        panic!("trace starts with meta");
    };
    let instance = reconstruct(meta).expect("instance rebuilds");
    let net = &instance.net;
    // Redirect a safe deflection onto a sibling backward exit of the
    // same node that nobody crossed forward in the previous step and
    // nobody uses backward in this one.
    let (defl, sibling) = all
        .iter()
        .filter(|m| m.kind == (ExitKind::Deflect { safe: true }))
        .find_map(|m| {
            let at = net.move_origin(DirectedEdge {
                edge: m.edge,
                dir: Direction::Backward,
            });
            let sibling = net.bwd_edges(at).iter().copied().find(|&e| {
                e != m.edge
                    && !all.iter().any(|o| {
                        o.edge == e
                            && ((o.t + 1 == m.t && o.dir == Direction::Forward)
                                || (o.t == m.t && o.dir == Direction::Backward))
                    })
            })?;
            Some((*m, sibling))
        })
        .expect("some safe deflection has an unrecycled sibling exit");
    set_move_edge(&mut trace, defl.idx, sibling, Direction::Backward);
    let msg = format!(
        "safe deflection over edge {} in step {} but no packet arrived forward over it in \
         step {}",
        sibling.0,
        defl.t,
        defl.t - 1
    );
    assert_rejected(trace, defl.idx + 1, &msg);
}

#[test]
fn a_landed_packet_must_be_absorbed() {
    let mut trace = base().clone();
    let all = moves(&trace);
    let (deliver, t, pkt) = trace
        .events
        .iter()
        .enumerate()
        .find_map(|(i, ev)| match *ev {
            TraceEvent::Deliver { t, pkt } => Some((i, t, pkt)),
            _ => None,
        })
        .expect("some packet is delivered");
    let landing = all
        .iter()
        .rfind(|m| m.pkt == pkt && m.t + 1 == t)
        .expect("the delivered packet landed in the step before");
    trace.events.remove(deliver);
    let msg = format!(
        "packet {pkt} landed on its destination in step {} but was never delivered",
        t - 1
    );
    assert_rejected(trace, landing.idx + 1, &msg);
}

#[test]
fn every_step_counter_must_match_its_batch() {
    let all = moves(base());
    // A step with injections, so `injected` and `active` are nonzero.
    let busy = all
        .iter()
        .find(|m| m.kind == ExitKind::Inject)
        .expect("some packet is injected")
        .t;
    for name in [
        "moved",
        "absorbed",
        "injected",
        "deflections",
        "fallback",
        "oscillations",
        "active",
    ] {
        let mut trace = base().clone();
        let step = step_line(&trace, busy);
        let TraceEvent::Step {
            moved,
            absorbed,
            injected,
            deflections,
            fallback,
            oscillations,
            active,
            ..
        } = &mut trace.events[step]
        else {
            unreachable!("step_line returns a step");
        };
        let field = match name {
            "moved" => moved,
            "absorbed" => absorbed,
            "injected" => injected,
            "deflections" => deflections,
            "fallback" => fallback,
            "oscillations" => oscillations,
            _ => active,
        };
        let counted = *field;
        *field += 1;
        let msg = format!(
            "step {busy} claims {name}={} but the event stream shows {counted}",
            counted + 1
        );
        assert_rejected(trace, step + 1, &msg);
    }
}

/// The first snapshot whose forward-arrival pool is nonempty, with its
/// event index.
fn pooled_snapshot(trace: &Trace) -> (usize, Vec<u32>) {
    trace
        .events
        .iter()
        .enumerate()
        .find_map(|(i, ev)| match ev {
            TraceEvent::Snapshot(s) if !s.prev_forward.is_empty() => {
                Some((i, s.prev_forward.clone()))
            }
            _ => None,
        })
        .expect("some phase opens while packets are in flight")
}

fn with_pool(pool: Vec<u32>) -> (Trace, usize) {
    let mut trace = base().clone();
    let (idx, _) = pooled_snapshot(&trace);
    let TraceEvent::Snapshot(snap) = &mut trace.events[idx] else {
        unreachable!("pooled_snapshot returns a snapshot");
    };
    snap.prev_forward = pool;
    (trace, idx)
}

fn pool_msg(claimed: usize, replayed: usize) -> String {
    format!(
        "snapshot's forward-arrival pool ({claimed} edges) disagrees with replay \
         ({replayed} edges)"
    )
}

#[test]
fn snapshot_pool_with_a_duplicate_edge_is_rejected() {
    let (_, pool) = pooled_snapshot(base());
    let k = pool.len();
    let mut dup = pool.clone();
    dup.push(pool[0]);
    let (trace, idx) = with_pool(dup);
    assert_rejected(trace, idx + 1, &pool_msg(k + 1, k));
}

#[test]
fn snapshot_pool_with_a_nonexistent_edge_is_rejected() {
    let (_, pool) = pooled_snapshot(base());
    let k = pool.len();
    let Some(TraceEvent::Meta(meta)) = base().events.first() else {
        panic!("trace starts with meta");
    };
    let num_edges = reconstruct(meta)
        .expect("instance rebuilds")
        .net
        .num_edges() as u32;
    // In place of a real edge: same size, one member unknown.
    let mut swapped = pool.clone();
    swapped[k - 1] = num_edges;
    let (trace, idx) = with_pool(swapped);
    assert_rejected(trace, idx + 1, &pool_msg(k, k));
    // Added on top: one edge too many.
    let mut extra = pool.clone();
    extra.push(u32::MAX);
    let (trace, idx) = with_pool(extra);
    assert_rejected(trace, idx + 1, &pool_msg(k + 1, k));
}

#[test]
fn snapshot_pool_repeating_an_edge_in_place_of_another_is_rejected() {
    // Same size and every claimed edge replayed, yet one replayed edge
    // is missing: seeding a shard from this pool would reject a later
    // safe deflection over the missing edge that the sequential pass
    // accepts.
    let (_, pool) = pooled_snapshot(base());
    let k = pool.len();
    let mut repeated = pool.clone();
    repeated[k - 1] = pool[0];
    let (trace, idx) = with_pool(repeated);
    assert_rejected(trace, idx + 1, &pool_msg(k, k));
}
