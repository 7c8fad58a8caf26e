//! Differential tests for the two dense-state auditors: the in-memory
//! replay auditor (`hotpotato_sim::replay::verify`) and deflection-chain
//! attribution (`hotpotato_trace::attribute_chains`) must return exactly
//! what the straightforward hash-map versions below return — on clean
//! recorded runs of the fleet ladder's shapes, on every corruption the
//! chaos suite applies, and on traces that are not in time order.

use hotpotato_routing::prelude::*;
use hotpotato_sim::replay::{self, ReplayError, ReplayReport};
use hotpotato_sim::{ExitKind, RunRecord};
use hotpotato_trace::schema::{Trace, TraceEvent};
use hotpotato_trace::{attribute_chains, ChainReport};
use leveled_net::ids::DirectedEdge;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::{spec, PacketId};
use std::sync::Arc;

/// Hash-map reference implementations: the auditors as first written,
/// one `HashMap` lookup per move and one scan over every packet per step.
mod reference {
    use super::*;
    use std::collections::HashMap;

    pub fn verify(
        problem: &RoutingProblem,
        record: &RunRecord,
        stats: &RouteStats,
    ) -> Result<ReplayReport, ReplayError> {
        let net = problem.network();
        let n = problem.num_packets();
        let mut pos: Vec<Option<NodeId>> = vec![None; n];
        let mut injected = vec![false; n];
        let mut delivered = vec![false; n];
        let mut report = ReplayReport {
            moves: 0,
            forward: 0,
            backward: 0,
            delivered: 0,
            last_move_time: 0,
        };
        for tr in &record.trivial {
            let i = tr.pkt.index();
            if injected[i] || delivered[i] {
                return Err(ReplayError::NotInFlight {
                    time: tr.time,
                    pkt: tr.pkt,
                });
            }
            if !problem.packets()[i].path.is_empty() {
                return Err(ReplayError::BadInjection {
                    time: tr.time,
                    pkt: tr.pkt,
                });
            }
            injected[i] = true;
            delivered[i] = true;
        }
        for (i, w) in record.moves.windows(2).enumerate() {
            if w[1].time < w[0].time {
                return Err(ReplayError::OutOfOrder { at: i + 1 });
            }
        }
        let mut idx = 0usize;
        let mut slot_user: HashMap<usize, PacketId> = HashMap::new();
        while idx < record.moves.len() {
            let t = record.moves[idx].time;
            let start = idx;
            while idx < record.moves.len() && record.moves[idx].time == t {
                idx += 1;
            }
            let step = &record.moves[start..idx];
            let mut movers = vec![false; n];
            slot_user.clear();
            for ev in step {
                let i = ev.pkt.index();
                if movers[i] {
                    return Err(ReplayError::CapacityViolation {
                        time: t,
                        pkt: ev.pkt,
                    });
                }
                movers[i] = true;
                if slot_user.insert(ev.mv.slot_index(), ev.pkt).is_some() {
                    return Err(ReplayError::CapacityViolation {
                        time: t,
                        pkt: ev.pkt,
                    });
                }
            }
            for (i, p) in pos.iter().enumerate() {
                if p.is_some() && !movers[i] {
                    return Err(ReplayError::Rested {
                        time: t,
                        pkt: PacketId(i as u32),
                    });
                }
            }
            for ev in step {
                let i = ev.pkt.index();
                if delivered[i] {
                    return Err(ReplayError::MovedAfterDelivery {
                        time: t,
                        pkt: ev.pkt,
                    });
                }
                let origin = net.move_origin(ev.mv);
                match (ev.kind, pos[i]) {
                    (ExitKind::Inject, None) => {
                        if injected[i] {
                            return Err(ReplayError::NotInFlight {
                                time: t,
                                pkt: ev.pkt,
                            });
                        }
                        let path = &problem.packets()[i].path;
                        let ok = !path.is_empty()
                            && origin == path.source()
                            && ev.mv == DirectedEdge::forward(path.edges()[0]);
                        if !ok {
                            return Err(ReplayError::BadInjection {
                                time: t,
                                pkt: ev.pkt,
                            });
                        }
                        injected[i] = true;
                    }
                    (ExitKind::Inject, Some(_)) | (_, None) => {
                        return Err(ReplayError::NotInFlight {
                            time: t,
                            pkt: ev.pkt,
                        });
                    }
                    (_, Some(at)) => {
                        if at != origin {
                            return Err(ReplayError::Teleport {
                                time: t,
                                pkt: ev.pkt,
                                expected: pos[i],
                            });
                        }
                    }
                }
                let target = net.move_target(ev.mv);
                if target == problem.packets()[i].path.dest(net) {
                    delivered[i] = true;
                    pos[i] = None;
                } else {
                    pos[i] = Some(target);
                }
                report.moves += 1;
                match ev.mv.dir {
                    Direction::Forward => report.forward += 1,
                    Direction::Backward => report.backward += 1,
                }
                report.last_move_time = t;
            }
            if idx < record.moves.len() && record.moves[idx].time > t + 1 {
                if let Some(i) = pos.iter().position(Option::is_some) {
                    return Err(ReplayError::Rested {
                        time: t + 1,
                        pkt: PacketId(i as u32),
                    });
                }
            }
        }
        for (i, &was_delivered) in delivered.iter().enumerate() {
            if was_delivered != stats.delivered_at[i].is_some() {
                return Err(ReplayError::DeliveryMismatch {
                    pkt: PacketId(i as u32),
                });
            }
        }
        report.delivered = delivered.iter().filter(|&&d| d).count();
        Ok(report)
    }

    pub fn attribute_chains(trace: &Trace) -> ChainReport {
        use hotpotato_trace::timeline::ChainLink;
        let mut forward: HashMap<(u64, u32), u32> = HashMap::new();
        for ev in &trace.events {
            if let TraceEvent::Move {
                t,
                pkt,
                edge,
                dir: Direction::Forward,
                ..
            } = *ev
            {
                forward.insert((t, edge.0), pkt);
            }
        }
        let mut links: Vec<ChainLink> = Vec::new();
        let mut own: HashMap<u32, Vec<usize>> = HashMap::new();
        let mut parent: Vec<Option<usize>> = Vec::new();
        for ev in &trace.events {
            let TraceEvent::Move {
                t,
                pkt,
                edge,
                dir,
                kind: ExitKind::Deflect { safe },
            } = *ev
            else {
                continue;
            };
            let caused_by = if safe && dir == Direction::Backward && t > 0 {
                forward.get(&(t - 1, edge.0)).copied().filter(|&c| c != pkt)
            } else {
                None
            };
            let par = caused_by.and_then(|c| {
                own.get(&c)
                    .and_then(|idxs| idxs.iter().rev().copied().find(|&i| links[i].t < t))
            });
            let depth = par.map_or(1, |i| links[i].depth + 1);
            let idx = links.len();
            links.push(ChainLink {
                pkt,
                t,
                caused_by,
                depth,
            });
            parent.push(par);
            own.entry(pkt).or_default().push(idx);
        }
        let mut report = ChainReport::default();
        let mut hist: HashMap<u32, u64> = HashMap::new();
        let mut deepest: Option<usize> = None;
        for (i, link) in links.iter().enumerate() {
            if link.depth == 1 {
                report.roots += 1;
            }
            *hist.entry(link.depth).or_insert(0) += 1;
            if link.depth > report.max_depth {
                report.max_depth = link.depth;
                deepest = Some(i);
            }
        }
        let mut depth_histogram: Vec<(u32, u64)> = hist.into_iter().collect();
        depth_histogram.sort_unstable();
        report.depth_histogram = depth_histogram;
        let mut chain = Vec::new();
        let mut cursor = deepest;
        while let Some(i) = cursor {
            chain.push((links[i].pkt, links[i].t));
            cursor = parent[i];
        }
        chain.reverse();
        report.longest_chain = chain;
        report.links = links;
        report
    }
}

/// Asserts both auditors agree with their references on one input.
fn assert_same(prob: &RoutingProblem, record: &RunRecord, stats: &RouteStats, what: &str) {
    assert_eq!(
        replay::verify(prob, record, stats),
        reference::verify(prob, record, stats),
        "{what}: replay auditor"
    );
    let trace = to_trace(record);
    assert_eq!(
        attribute_chains(&trace),
        reference::attribute_chains(&trace),
        "{what}: chain attribution"
    );
}

/// The record's moves as a trace, in record order.
fn to_trace(record: &RunRecord) -> Trace {
    Trace {
        events: record
            .moves
            .iter()
            .map(|m| TraceEvent::Move {
                t: m.time,
                pkt: m.pkt.0,
                edge: m.mv.edge,
                dir: m.mv.dir,
                kind: m.kind,
            })
            .collect(),
    }
}

/// One recorded Busch run of a fleet-ladder shape: the problem, its
/// statistics, its movement record, and its JSONL event stream.
fn ladder_run(
    topo: &str,
    workload: &str,
    seed: u64,
) -> (Arc<RoutingProblem>, RouteStats, RunRecord, Trace) {
    let (_, problem) = spec::reconstruct_problem(topo, workload, seed).expect("ladder spec");
    let cfg = BuschConfig {
        record: true,
        trace: true,
        ..BuschConfig::new(Params::auto(&problem))
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut obs = JsonlTraceObserver::new(Vec::new());
    let out = BuschRouter::with_config(cfg).route_observed(&problem, &mut rng, &mut obs);
    let text = String::from_utf8(obs.finish().expect("in-memory sink")).expect("UTF-8");
    let trace = Trace::parse(&text).expect("recorded trace parses");
    let record = out.record.expect("recording on");
    (problem, out.stats, record, trace)
}

#[test]
fn ladder_runs_audit_identically() {
    for (topo, workload) in [
        ("bf:6", "bitrev"),
        ("bf:7", "bitrev"),
        ("bf:8", "bitrev"),
        ("mesh:8x8", "transpose"),
    ] {
        let (prob, stats, record, trace) = ladder_run(topo, workload, 1);
        let what = format!("{topo}/{workload}");
        let report = replay::verify(&prob, &record, &stats).expect("clean run");
        assert_eq!(
            Ok(report),
            reference::verify(&prob, &record, &stats),
            "{what}"
        );
        let chains = attribute_chains(&trace);
        assert!(!chains.links.is_empty(), "{what}: Busch deflects here");
        assert_eq!(chains, reference::attribute_chains(&trace), "{what}");
        // Out of time order: the same events back to front.
        let mut reversed = trace.clone();
        reversed.events.reverse();
        assert_eq!(
            attribute_chains(&reversed),
            reference::attribute_chains(&reversed),
            "{what}, reversed"
        );
    }
}

/// The chaos suite's valid run: greedy on bf(4), ten random pairs.
fn valid_run() -> (Arc<RoutingProblem>, RouteStats, RunRecord) {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let net = Arc::new(builders::butterfly(4));
    let prob = workloads::random_pairs(&net, 10, &mut rng).unwrap();
    let cfg = baselines::GreedyConfig {
        record: true,
        ..Default::default()
    };
    let out = baselines::GreedyRouter::with_config(cfg).route(&prob, &mut rng);
    (prob, out.stats, out.record.unwrap())
}

/// Every corruption `tests/chaos.rs` applies — delete, duplicate, retime
/// and redirect a move, flip a delivery — plus a swap that breaks time
/// order, audited by both implementations.
#[test]
fn chaos_corruptions_audit_identically() {
    let (prob, stats, clean) = valid_run();
    assert_same(&prob, &clean, &stats, "clean");
    let ne = prob.network().num_edges() as u32;
    let mut rng = ChaCha8Rng::seed_from_u64(0xD1FF);
    for case in 0..64 {
        let mut record = clean.clone();
        let idx = rng.gen_range(0..record.moves.len());
        let what = match case % 5 {
            0 => {
                record.moves.remove(idx);
                "delete"
            }
            1 => {
                let ev = record.moves[idx];
                record.moves.insert(idx, ev);
                "duplicate"
            }
            2 => {
                record.moves[idx].time += rng.gen_range(1u64..5);
                record.moves.sort_by_key(|e| e.time);
                "retime"
            }
            3 => {
                record.moves[idx].mv.edge = leveled_net::EdgeId(rng.gen_range(0..ne));
                "redirect"
            }
            _ => {
                let j = rng.gen_range(0..record.moves.len());
                record.moves.swap(idx, j);
                "swap"
            }
        };
        assert_same(
            &prob,
            &record,
            &stats,
            &format!("case {case} ({what} {idx})"),
        );
    }
    let mut flipped = stats.clone();
    flipped.delivered_at[3] = None;
    assert_same(&prob, &clean, &flipped, "flipped delivery");
}

/// A hand-built trace whose deflections precede the crossings they
/// recycle, repeats a forward crossing of one `(t, edge)`, revisits an
/// earlier step after later ones, and lists a causer's later deflection
/// before the effect: attribution must not assume time order.
#[test]
fn out_of_order_trace_attributes_identically() {
    let mv = |t: u64, pkt: u32, edge: u32, dir: Direction, kind: ExitKind| TraceEvent::Move {
        t,
        pkt,
        edge: leveled_net::EdgeId(edge),
        dir,
        kind,
    };
    let safe = ExitKind::Deflect { safe: true };
    let free = ExitKind::Deflect { safe: false };
    let (f, b) = (Direction::Forward, Direction::Backward);
    let trace = Trace {
        events: vec![
            mv(5, 2, 7, b, safe),
            mv(4, 1, 7, f, ExitKind::Advance),
            mv(2, 1, 4, b, safe),
            mv(1, 0, 4, f, ExitKind::Advance),
            mv(1, 3, 4, f, ExitKind::Advance),
            mv(3, 1, 9, b, safe),
            mv(2, 3, 9, f, ExitKind::Advance),
            mv(7, 0, 2, b, free),
            mv(6, 2, 2, f, ExitKind::Advance),
            mv(7, 4, 2, b, safe),
            mv(0, 4, 1, f, ExitKind::Inject),
            mv(1, 4, 1, b, safe),
            mv(6, 1, 2, f, ExitKind::Oscillate),
            mv(7, 1, 2, b, safe),
            // Packet 7's latest deflection so far (t=9) is after the
            // effect it causes at t=5; its parent is the earlier one.
            mv(2, 7, 20, b, safe),
            mv(9, 7, 21, b, safe),
            mv(4, 7, 22, f, ExitKind::Advance),
            mv(5, 8, 22, b, safe),
        ],
    };
    let rep = attribute_chains(&trace);
    assert_eq!(rep, reference::attribute_chains(&trace));
    assert!(rep.max_depth > 1, "the hand-built trace chains");
}
