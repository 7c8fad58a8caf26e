//! The step vocabulary of the bufferless (hot-potato) engine.
//!
//! [`SoaEngine`](crate::SoaEngine) enforces the hot-potato model of the paper (§1.1, §2.3):
//!
//! * time is discrete; at each step a node receives packets, a routing
//!   decision is made, and the packets are forwarded;
//! * **no buffering**: every packet that arrives at a node must be staged
//!   an exit in the same step ([`SoaEngine::finish_step`](crate::SoaEngine::finish_step) fails with
//!   [`SimError::PacketRested`] otherwise);
//! * **link capacity**: at most one packet traverses an edge per direction
//!   per step (at most two packets per link, one per direction);
//! * packets reaching their destination are absorbed on arrival.
//!
//! This module holds the types a driver and the observers exchange with
//! the engine: how a staged exit is classified ([`ExitKind`]), what an
//! injection attempt did ([`InjectOutcome`]), what a step did
//! ([`StepReport`]), and the one error a step can fail with
//! ([`SimError`]).

use routing_core::PacketId;

/// How the caller classifies a staged exit; drives the statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExitKind {
    /// The packet advances along its current path (won its conflict).
    Advance,
    /// The packet was deflected; `safe` records whether the deflection was
    /// backward-and-safe in the sense of the paper's Lemma 2.1.
    Deflect {
        /// Backward along an edge another packet traversed forward this
        /// step (edge recycling), versus an arbitrary free link.
        safe: bool,
    },
    /// A wait-state oscillation move (not a deflection: the edge stays in
    /// the packet's path list).
    Oscillate,
    /// The injection move out of the source node.
    Inject,
}

/// The error a step fails with: the driver left an arrival without an
/// exit, breaking the hot-potato (bufferless) law. Drivers treat it as a
/// bug in their own dispatch logic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimError {
    /// `finish_step` found an arrival with no staged exit.
    PacketRested(PacketId),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::PacketRested(p) => {
                write!(f, "hot-potato violation: packet {p} was left resting")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Outcome of an injection attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InjectOutcome {
    /// The packet departed its source along the first edge of its path.
    Injected,
    /// The packet's path is trivial (source == destination); it was
    /// delivered without entering the network.
    DeliveredTrivially,
    /// The first edge's forward slot is occupied; try again next step.
    Blocked,
}

/// Per-step movement summary returned by [`SoaEngine::finish_step`](crate::SoaEngine::finish_step).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct StepReport {
    /// Packets that moved this step (including injections).
    pub moved: usize,
    /// Packets absorbed at their destination.
    pub absorbed: usize,
    /// Packets injected.
    pub injected: usize,
    /// Deflections (safe + fallback).
    pub deflections: usize,
    /// Unsafe (fallback) deflections.
    pub fallback_deflections: usize,
    /// Oscillation moves.
    pub oscillations: usize,
}
