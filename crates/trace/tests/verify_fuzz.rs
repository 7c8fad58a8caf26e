//! Mutational fuzzing of `verify_trace`.
//!
//! Two recorded Busch traces with snapshot checkpoints — bf(6)
//! bit-reversal and an 8×8 mesh transpose — are mutated one event at a
//! time from a fixed ChaCha8 stream: a move is dropped, duplicated,
//! retimed (in place or moved into another step's batch), redirected
//! (onto any edge, or one past the instance), flipped in direction or
//! kind, or a snapshot checkpoint has one field altered. Each mutation
//! that changes the trace breaks a law — the step lines count every
//! move and kind, the networks have no parallel edges, and snapshots
//! must equal the replayed state — so the verifier must reject every
//! one, and must never panic. A share of the cases also runs through
//! `verify_trace_sharded`, which must report the identical first
//! divergence. The iteration budget is fixed, so the whole run is a
//! deterministic, bounded CI test.

mod common;

use common::record_busch_snapshots;
use hotpotato_sim::ExitKind;
use hotpotato_trace::verify::reconstruct;
use hotpotato_trace::{verify_trace, verify_trace_sharded, ShardOptions, Trace, TraceEvent};
use leveled_net::Direction;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Mutated traces verified per seed trace.
const CASES: usize = 1000;
/// The sharded verifier also checks every this-many-th case.
const SHARDED_EVERY: usize = 8;

const KINDS: [ExitKind; 5] = [
    ExitKind::Inject,
    ExitKind::Advance,
    ExitKind::Deflect { safe: true },
    ExitKind::Deflect { safe: false },
    ExitKind::Oscillate,
];

/// Event indices of one variant.
fn indices(trace: &Trace, want: impl Fn(&TraceEvent) -> bool) -> Vec<usize> {
    (0..trace.events.len())
        .filter(|&i| want(&trace.events[i]))
        .collect()
}

fn pick(rng: &mut ChaCha8Rng, of: &[usize]) -> usize {
    of[rng.gen_range(0..of.len())]
}

/// A value other than `old`: a small step either way, or anything.
fn other_u64(rng: &mut ChaCha8Rng, old: u64) -> u64 {
    match rng.gen_range(0..3) {
        0 => old.wrapping_add(rng.gen_range(1..4)),
        1 => old.wrapping_sub(rng.gen_range(1..4)),
        _ => rng.gen(),
    }
}

fn other_u32(rng: &mut ChaCha8Rng, old: u32, limit: u32) -> u32 {
    match rng.gen_range(0..3) {
        0 => old.wrapping_add(1),
        1 => rng.gen_range(0..limit.max(1)),
        _ => rng.gen(),
    }
}

/// Applies one random mutation and describes it. The draw may leave the
/// trace unchanged (a redirect onto the same edge, a same-kind flip);
/// the caller skips those.
fn mutate(trace: &mut Trace, rng: &mut ChaCha8Rng, num_edges: u32) -> String {
    let moves = indices(trace, |e| matches!(e, TraceEvent::Move { .. }));
    let snaps = indices(trace, |e| matches!(e, TraceEvent::Snapshot(_)));
    let idx = pick(rng, &moves);
    let before = trace.events[idx].clone();
    let TraceEvent::Move {
        t, edge, dir, kind, ..
    } = &mut trace.events[idx]
    else {
        unreachable!("moves holds move indices");
    };
    match rng.gen_range(0..7) {
        0 => {
            trace.events.remove(idx);
            format!("drop line {}", idx + 1)
        }
        1 => {
            trace.events.insert(idx, before.clone());
            format!("duplicate line {}", idx + 1)
        }
        2 => {
            let old = *t;
            *t = other_u64(rng, old);
            if rng.gen_bool(0.5) {
                // Move it into the new step's batch, if that step exists.
                let new_t = *t;
                let ev = trace.events.remove(idx);
                let close = trace
                    .events
                    .iter()
                    .position(|e| matches!(*e, TraceEvent::Step { t, .. } if t == new_t))
                    .unwrap_or(trace.events.len() - 1);
                trace.events.insert(close, ev);
                format!(
                    "retime line {} from t={old} to t={new_t}, relocated",
                    idx + 1
                )
            } else {
                format!("retime line {} from t={old} to t={t}", idx + 1)
            }
        }
        3 => {
            let old = edge.0;
            edge.0 = if rng.gen_bool(0.9) {
                rng.gen_range(0..num_edges)
            } else {
                num_edges + rng.gen_range(0..2)
            };
            format!("redirect line {} from edge {old} to {}", idx + 1, edge.0)
        }
        4 => {
            *dir = match *dir {
                Direction::Forward => Direction::Backward,
                Direction::Backward => Direction::Forward,
            };
            format!("flip line {} to {dir:?}", idx + 1)
        }
        5 => {
            let old = *kind;
            *kind = KINDS[rng.gen_range(0..KINDS.len())];
            format!("kind of line {} from {old:?} to {kind:?}", idx + 1)
        }
        _ => {
            let at = pick(rng, &snaps);
            let TraceEvent::Snapshot(snap) = &mut trace.events[at] else {
                unreachable!("snaps holds snapshot indices");
            };
            let field = match rng.gen_range(0..8) {
                0 => {
                    snap.t = other_u64(rng, snap.t);
                    "t"
                }
                1 => {
                    snap.phase = other_u64(rng, snap.phase);
                    "phase"
                }
                2 => {
                    let p = rng.gen_range(0..snap.state.len());
                    snap.state[p] = other_u32(rng, snap.state[p], 5);
                    "state"
                }
                3 => {
                    if snap.nodes.is_empty() || rng.gen_bool(0.2) {
                        snap.nodes.push(rng.gen_range(0..64));
                    } else {
                        let i = rng.gen_range(0..snap.nodes.len());
                        snap.nodes[i] = other_u32(rng, snap.nodes[i], 64);
                    }
                    "nodes"
                }
                4 => {
                    let pool = &mut snap.prev_forward;
                    match rng.gen_range(0..3) {
                        0 if !pool.is_empty() => {
                            let i = rng.gen_range(0..pool.len());
                            let j = rng.gen_range(0..pool.len());
                            pool[i] = pool[j];
                        }
                        1 if !pool.is_empty() => {
                            pool.pop();
                        }
                        _ => pool.push(rng.gen_range(0..num_edges + 1)),
                    }
                    "prev_forward"
                }
                5 => {
                    snap.moves = other_u64(rng, snap.moves);
                    "moves"
                }
                6 => {
                    snap.deflections = other_u64(rng, snap.deflections);
                    "deflections"
                }
                _ => {
                    snap.num_sets = other_u32(rng, snap.num_sets, 4);
                    "num_sets"
                }
            };
            format!("snapshot line {} field {field}", at + 1)
        }
    }
}

fn fuzz(topo: &str, workload: &str, seed: u64, rng_seed: u64) {
    let text = record_busch_snapshots(topo, workload, seed).0;
    let clean = Trace::parse(&text).expect("recorded trace parses");
    verify_trace(&clean).expect("the seed trace verifies");
    let Some(TraceEvent::Meta(meta)) = clean.events.first() else {
        panic!("trace starts with meta");
    };
    let num_edges = reconstruct(meta).expect("instance").net.num_edges() as u32;
    let mut rng = ChaCha8Rng::seed_from_u64(rng_seed);
    let mut checked = 0;
    for case in 0..CASES {
        let mut trace = clean.clone();
        let desc = mutate(&mut trace, &mut rng, num_edges);
        if trace.events == clean.events {
            continue;
        }
        let seq = catch_unwind(AssertUnwindSafe(|| verify_trace(&trace)))
            .unwrap_or_else(|_| panic!("{topo} case {case} ({desc}): verify_trace panicked"));
        let Err(err) = seq else {
            panic!("{topo} case {case} ({desc}): law-breaking mutation verified clean");
        };
        if case % SHARDED_EVERY == 0 {
            let opts = ShardOptions {
                jobs: 2,
                progress: false,
            };
            let trace = Arc::new(trace);
            let par = verify_trace_sharded(&trace, &opts).map(|_| ());
            assert_eq!(
                par,
                Err(err),
                "{topo} case {case} ({desc}): sharded verifier"
            );
        }
        checked += 1;
    }
    assert!(
        checked > CASES * 9 / 10,
        "{topo}: only {checked} real mutations"
    );
}

#[test]
fn butterfly_bitrev_mutations_are_all_rejected() {
    fuzz("bf:6", "bitrev", 1, 0xF0221);
}

#[test]
fn mesh_transpose_mutations_are_all_rejected() {
    fuzz("mesh:8x8", "transpose", 1, 0xF0222);
}

/// Minimized from the fuzz run: a snapshot whose cumulative counter is
/// `u64::MAX` seeds a shard whose next count overflowed, so the sharded
/// verifier panicked in debug builds instead of reporting the snapshot.
#[test]
fn snapshot_counter_at_u64_max_is_reported_not_a_crash() {
    let text = record_busch_snapshots("bf:6", "bitrev", 1).0;
    let clean = Trace::parse(&text).expect("recorded trace parses");
    // A checkpoint with packets in flight, so moves and deflections follow.
    let at = (0..clean.events.len())
        .find(|&i| matches!(&clean.events[i], TraceEvent::Snapshot(s) if !s.nodes.is_empty()))
        .expect("some phase opens with packets in flight");
    let TraceEvent::Snapshot(snap) = &clean.events[at] else {
        unreachable!("found a snapshot");
    };
    let cases = [
        ("moves", snap.moves),
        ("forward", snap.forward),
        ("deflections", snap.deflections),
    ];
    for (field, replayed) in cases {
        let mut trace = clean.clone();
        let TraceEvent::Snapshot(snap) = &mut trace.events[at] else {
            unreachable!("found a snapshot");
        };
        match field {
            "moves" => snap.moves = u64::MAX,
            "forward" => snap.forward = u64::MAX,
            _ => snap.deflections = u64::MAX,
        }
        let want = format!(
            "snapshot claims {field}={} but replay counted {replayed}",
            u64::MAX
        );
        let err = verify_trace(&trace).expect_err("corrupt snapshot");
        assert_eq!((err.line, err.msg.as_str()), (at + 1, want.as_str()));
        let trace = Arc::new(trace);
        for jobs in [1, 2, 4] {
            let opts = ShardOptions {
                jobs,
                progress: false,
            };
            let par = verify_trace_sharded(&trace, &opts).map(|_| ());
            assert_eq!(par, Err(err.clone()), "{field}, jobs={jobs}");
        }
    }
}
