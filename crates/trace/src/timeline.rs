//! Per-packet timelines and causal deflection-chain attribution.
//!
//! The hot-potato model makes per-packet latency *exactly decomposable*:
//! an in-flight packet moves every step, so
//!
//! ```text
//! delivered_at − injected_at  =  advances + deflections + oscillations
//! ```
//!
//! [`build_timelines`] reconstructs that anatomy for every packet from
//! the move stream alone. [`attribute_chains`] goes one step further:
//! a *safe* deflection (Lemma 2.1) sends the loser backward over an edge
//! recycled from an **arrival** — an edge some packet crossed forward in
//! the previous step to reach the contested node. When that packet is a
//! different one, it is the deflection's attributable proximate cause,
//! and if it was itself recently deflected, causes chain. (Losers that
//! bounce back over their *own* arrival edge are attribution roots: the
//! trace does not record which winner beat them.) The chain report
//! surfaces how deep those causal chains run — the empirical face of
//! delay-sequence arguments.

use crate::schema::{Trace, TraceEvent};
use hotpotato_sim::{ExitKind, Time};
use leveled_net::Direction;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Latency anatomy of one packet, reconstructed from the move stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PacketTimeline {
    /// Step of the injection move (`None` = never injected).
    pub injected_at: Option<Time>,
    /// Arrival time (staging step of the final move + 1).
    pub delivered_at: Option<Time>,
    /// Delivered trivially (source == destination, no moves).
    pub trivial: bool,
    /// Total moves (injection included).
    pub moves: u32,
    /// Forward path progress: injection + advance moves.
    pub advances: u32,
    /// Deflections suffered (safe + fallback).
    pub deflections: u32,
    /// Safe (backward edge-recycling) deflections.
    pub safe_deflections: u32,
    /// Wait-state oscillation moves.
    pub oscillations: u32,
    /// Length of the final run of uninterrupted forward progress ending
    /// in delivery (the "home-run segment"), 0 if undelivered.
    pub home_run: u32,
}

impl PacketTimeline {
    /// In-flight latency, when delivered after a real injection.
    pub fn latency(&self) -> Option<Time> {
        match (self.injected_at, self.delivered_at) {
            (Some(i), Some(d)) => Some(d - i),
            _ => None,
        }
    }
}

/// Builds one [`PacketTimeline`] per packet (`n` from the caller, so the
/// result covers packets the trace never mentions).
pub fn build_timelines(trace: &Trace, n: usize) -> Vec<PacketTimeline> {
    let mut tl = vec![PacketTimeline::default(); n];
    // Trailing forward-run length per packet, reset by any disruption.
    let mut run = vec![0u32; n];
    for ev in &trace.events {
        match *ev {
            TraceEvent::Move { t, pkt, kind, .. } => {
                let Some(p) = tl.get_mut(pkt as usize) else {
                    continue;
                };
                p.moves += 1;
                match kind {
                    ExitKind::Inject => {
                        p.injected_at = Some(t);
                        p.advances += 1;
                        run[pkt as usize] += 1;
                    }
                    ExitKind::Advance => {
                        p.advances += 1;
                        run[pkt as usize] += 1;
                    }
                    ExitKind::Deflect { safe } => {
                        p.deflections += 1;
                        if safe {
                            p.safe_deflections += 1;
                        }
                        run[pkt as usize] = 0;
                    }
                    ExitKind::Oscillate => {
                        p.oscillations += 1;
                        run[pkt as usize] = 0;
                    }
                }
            }
            TraceEvent::Trivial { t, pkt } => {
                if let Some(p) = tl.get_mut(pkt as usize) {
                    p.trivial = true;
                    p.injected_at = Some(t);
                    p.delivered_at = Some(t);
                }
            }
            TraceEvent::Deliver { t, pkt } => {
                if let Some(p) = tl.get_mut(pkt as usize) {
                    p.delivered_at = Some(t);
                    p.home_run = run[pkt as usize];
                }
            }
            _ => {}
        }
    }
    tl
}

/// One attributed deflection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainLink {
    /// The deflected packet.
    pub pkt: u32,
    /// The step of the deflection.
    pub t: Time,
    /// The packet whose forward crossing recycled the edge (safe
    /// deflections only).
    pub caused_by: Option<u32>,
    /// Causal chain depth: 1 for a root (no attributable earlier cause),
    /// `1 + depth(parent)` when the causer was itself deflected earlier.
    pub depth: u32,
}

/// Aggregate deflection-chain report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChainReport {
    /// All deflections, in trace order, with attribution.
    pub links: Vec<ChainLink>,
    /// Deflections with no attributable cause (fallback deflections, or
    /// safe deflections whose causer was never deflected before).
    pub roots: u64,
    /// Deepest causal chain observed.
    pub max_depth: u32,
    /// `(depth, count)` histogram, ascending by depth.
    pub depth_histogram: Vec<(u32, u64)>,
    /// One witness of a deepest chain, oldest cause first: `(pkt, t)`.
    pub longest_chain: Vec<(u32, Time)>,
}

/// A multiplicative hasher for the small integer keys of
/// [`attribute_chains`] (the Fx scheme: rotate, xor, multiply), about
/// twice as fast there as SipHash. It does not resist flooding: a trace
/// crafted with colliding keys can make attribution quadratic in its
/// deflections, though never wrong.
#[derive(Clone, Copy, Default)]
struct MulHasher(u64);

impl MulHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.add(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.add(word);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type MulMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;

/// Attributes every deflection in the trace to its proximate cause and
/// computes causal chain depths (see the module docs). The trace need
/// not be verified or in time order: a cause is the last forward crossing
/// of the edge one step earlier anywhere in the trace, and a causer's
/// parent link is its latest deflection strictly before the effect.
pub fn attribute_chains(trace: &Trace) -> ChainReport {
    // (t, edge) -> packet that crossed it forward at t, kept only for
    // the crossings a safe deflection one step later asks about: far
    // fewer than all forward moves, so the map stays cache-sized.
    let mut forward: MulMap<(Time, u32), Option<u32>> = MulMap::default();
    for ev in &trace.events {
        if let TraceEvent::Move {
            t,
            edge,
            dir: Direction::Backward,
            kind: ExitKind::Deflect { safe: true },
            ..
        } = *ev
        {
            if t > 0 {
                forward.insert((t - 1, edge.0), None);
            }
        }
    }
    if !forward.is_empty() {
        for ev in &trace.events {
            if let TraceEvent::Move {
                t,
                pkt,
                edge,
                dir: Direction::Forward,
                ..
            } = *ev
            {
                if let Some(crosser) = forward.get_mut(&(t, edge.0)) {
                    *crosser = Some(pkt);
                }
            }
        }
    }

    // Deflections in trace order.
    let mut links: Vec<ChainLink> = Vec::new();
    // Per packet: its latest link so far. Per link: the same packet's
    // previous link, so walking from `latest` lists a packet's
    // deflections newest first.
    let mut latest: MulMap<u32, usize> = MulMap::default();
    let mut prev_own: Vec<Option<usize>> = Vec::new();
    // Parent link index per link (for witness extraction).
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
        // Safe deflections recycle an arrival edge: whoever crossed it
        // forward in the previous step (if not the loser itself, going
        // back where it came from) is the attributable cause.
        let caused_by = if safe && dir == Direction::Backward && t > 0 {
            forward
                .get(&(t - 1, edge.0))
                .copied()
                .flatten()
                .filter(|&c| c != pkt)
        } else {
            None
        };
        // Latest deflection of the causer strictly before t.
        let par = caused_by.and_then(|c| {
            let mut cursor = latest.get(&c).copied();
            while let Some(i) = cursor {
                if links[i].t < t {
                    return Some(i);
                }
                cursor = prev_own[i];
            }
            None
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
        prev_own.push(latest.insert(pkt, idx));
    }

    let mut report = ChainReport::default();
    let mut deepest: Option<usize> = None;
    for (i, link) in links.iter().enumerate() {
        if link.depth == 1 {
            report.roots += 1;
        }
        if link.depth > report.max_depth {
            report.max_depth = link.depth;
            deepest = Some(i);
        }
    }
    // Depths run from 1 to `max_depth`, which is at most `links.len()`.
    let mut hist = vec![0u64; report.max_depth as usize + 1];
    for link in &links {
        hist[link.depth as usize] += 1;
    }
    report.depth_histogram = (0u32..).zip(hist).filter(|&(_, count)| count > 0).collect();
    // Witness: walk parents from the deepest link back to its root.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Trace;

    fn mv(t: Time, pkt: u32, edge: u32, dir: &str, kind: &str) -> String {
        format!(
            r#"{{"ev":"move","t":{t},"pkt":{pkt},"edge":{edge},"dir":"{dir}","kind":"{kind}"}}"#
        )
    }

    #[test]
    fn timeline_anatomy_and_home_run() {
        let lines = [
            mv(0, 0, 0, "F", "inj"),
            mv(1, 0, 1, "F", "adv"),
            mv(2, 0, 1, "B", "def-safe"),
            mv(3, 0, 1, "F", "adv"),
            mv(4, 0, 2, "F", "adv"),
            r#"{"ev":"deliver","t":5,"pkt":0}"#.to_string(),
        ];
        let trace = Trace::parse(&(lines.join("\n") + "\n")).unwrap();
        let tl = build_timelines(&trace, 1);
        let p = &tl[0];
        assert_eq!(p.injected_at, Some(0));
        assert_eq!(p.delivered_at, Some(5));
        assert_eq!(p.latency(), Some(5));
        assert_eq!(p.moves, 5);
        assert_eq!(p.advances, 4);
        assert_eq!(p.deflections, 1);
        assert_eq!(p.oscillations, 0);
        // Latency identity: 5 = 4 advances + 1 deflection.
        assert_eq!(p.moves, p.advances + p.deflections + p.oscillations);
        // Final uninterrupted forward run: the two advances after the
        // deflection.
        assert_eq!(p.home_run, 2);
    }

    #[test]
    fn chains_attribute_safe_deflections_to_forward_crossers() {
        // t=0: pkt 0 arrives forward over edge 4.
        // t=1: pkt 1 deflected backward over pkt 0's arrival edge
        //      (root, depth 1, caused by pkt 0).
        // t=3: pkt 1 arrives forward over edge 7.
        // t=4: pkt 2 deflected backward over it — pkt 1 was itself
        //      deflected at t=1, so this chains to depth 2.
        // t=5: pkt 3 fallback-deflected (no cause, depth 1).
        let lines = [
            mv(0, 0, 4, "F", "adv"),
            mv(1, 1, 4, "B", "def-safe"),
            mv(3, 1, 7, "F", "adv"),
            mv(4, 2, 7, "B", "def-safe"),
            mv(5, 3, 9, "B", "def-free"),
        ];
        let trace = Trace::parse(&(lines.join("\n") + "\n")).unwrap();
        let rep = attribute_chains(&trace);
        assert_eq!(rep.links.len(), 3);
        assert_eq!(
            rep.links[0],
            ChainLink {
                pkt: 1,
                t: 1,
                caused_by: Some(0),
                depth: 1
            }
        );
        assert_eq!(
            rep.links[1],
            ChainLink {
                pkt: 2,
                t: 4,
                caused_by: Some(1),
                depth: 2
            }
        );
        assert_eq!(
            rep.links[2],
            ChainLink {
                pkt: 3,
                t: 5,
                caused_by: None,
                depth: 1
            }
        );
        assert_eq!(rep.roots, 2);
        assert_eq!(rep.max_depth, 2);
        assert_eq!(rep.depth_histogram, vec![(1, 2), (2, 1)]);
        assert_eq!(rep.longest_chain, vec![(1, 1), (2, 4)]);
    }
}
