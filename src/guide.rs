//! # Paper-to-code guide
//!
//! A section-by-section map from Busch's SPAA 2002 paper to this
//! implementation, for readers following along with the paper in hand.
//!
//! ## §1.1 Background — the model
//!
//! | paper concept | code |
//! |---|---|
//! | leveled network, depth `L` | [`leveled_net::LeveledNetwork`] (levels `0..=L`, edges between consecutive levels only, enforced by [`leveled_net::NetworkBuilder`]) |
//! | butterfly, mesh (4 ways), arrays, hypercube, trees, fat-tree, shuffle-exchange | [`leveled_net::builders`] |
//! | synchronous steps, one packet per link per direction | [`hotpotato_sim::SoaEngine`]: per-step slot bitset (`2·E` slots), exits staged through a [`hotpotato_sim::BandStage`] |
//! | bufferless: every arriving packet leaves next step | [`hotpotato_sim::SimError::PacketRested`] — the engine *fails* a step that leaves a packet resting |
//! | many-to-one problems (≤ 1 packet per source) | [`routing_core::RoutingProblem::new`]; the relaxed many-to-many variant (reference \[7\]) is [`routing_core::RoutingProblem::new_relaxed`] |
//! | congestion `C`, dilation `D` | [`routing_core::RoutingProblem::congestion`], [`routing_core::RoutingProblem::dilation`] |
//!
//! ## §2.1 Parameters
//!
//! [`busch_router::PaperParams`] evaluates the literal formulas —
//! reconstructed from the lemmas that pin them down (the conference OCR
//! mangled the parameter block; see `DESIGN.md`):
//! `a = 2e³/ln(LN)`, `m = ln²(LN)+5`, `q = 1/(m²ln(LN))`,
//! `w = 4e·m²·ln(LN)·ln(1/p₁)+3m+1`, `p₀ = 1−1/(2LN)`,
//! `p₁ = 1/((⌈aC⌉m+L)·2⌈aC⌉m·LN²)`. Simulations use the same algorithm
//! under the tunable [`busch_router::Params`] (the paper itself calls the
//! literal constants "not really practical"; experiment `T7` quantifies
//! that).
//!
//! ## §2.2–2.3 Paths, deflections, Lemma 2.1
//!
//! * *Valid paths* — [`routing_core::Path`]: constructor-validated
//!   forward chains.
//! * *Current path* = preselected path + deviation stack —
//!   [`hotpotato_sim::SoaShared`] (`next_move`, `current_path_edges`): a
//!   deflection pushes the undo move, a re-traversal pops it; the paper's
//!   "edge recycling" between path lists is this push/pop pair, and
//!   path-distance is the stack depth.
//! * *Safe backward deflection* (Lemma 2.1) —
//!   [`hotpotato_sim::conflict::resolve`]: winners per slot by priority,
//!   losers deflected backward onto forward-arrival edges (own edge
//!   first). The constructive content of the lemma's induction; the
//!   strict mode (`allow_fallback = false`) *panics* where the lemma
//!   would fail, and the `T3` integration tests run it clean.
//!
//! ## §2.4 Congestion and frontier sets
//!
//! [`busch_router::schedule::assign_sets`] partitions packets uniformly;
//! [`routing_core::RoutingProblem::per_set_congestion`] measures the
//! per-set congestion `C_i` (Lemma 2.2 is validated by experiment `T2`).
//!
//! ## §2.5 Phases, frontiers, target nodes
//!
//! [`busch_router::FrameSchedule`] is the deterministic geometry of
//! Figure 2: frontiers `φ_i(k) = k − i·m`, frames `[φ−m+1, φ]`, target
//! inner level `0, 0, 1, 2, …` per round, injection phase
//! `i·m + m−1 + level(source)`, end phase `⌈aC⌉·m + L`.
//!
//! ## §3 The algorithm
//!
//! [`busch_router::BuschRouter::route`] is a direct transcription:
//!
//! * **Packet injection** — the agenda admits each packet at its
//!   injection phase and retries while the first edge is busy; isolation
//!   is audited (`I_a`), not assumed.
//! * **Packet states** — per-packet tags in the driver
//!   ([`busch_router::router`] documents the rules):
//!   `Normal`, `Excited` (entered with probability `q` per step, highest
//!   priority, demoted on deflection and at round ends), `Wait { edge }`
//!   (lowest priority, oscillating on the arrival edge; demoted on
//!   deflection and at phase ends).
//! * **Conflicts** — excited > normal > wait, ties uniform; losers via
//!   the Lemma 2.1 resolver.
//!
//! ## §4 Analysis — the invariants, measured
//!
//! The six invariants `I_a..I_f` become runtime checkers
//! ([`busch_router::invariants`]) with per-run violation counters in
//! [`busch_router::BuschOutcome::invariants`]. Lemma 4.10 (per-set
//! congestion never increases) is the `I_e` audit. Under scaled
//! parameters in sane regimes, every counter is zero — experiment `T3`.
//!
//! ## §4.4 / Theorem 2.6 — total time
//!
//! The schedule runs `(⌈aC⌉·m + L)` phases of `m·w` steps;
//! [`busch_router::Params::scheduled_steps`] computes it, experiment `T1`
//! sweeps `C`, `L`, `N` and confirms the linear-in-`(C+L)` shape, and
//! [`busch_router::PaperParams::success_probability`] reproduces the
//! probability bound `p(aCm+L) ≥ 1 − 1/(LN)` numerically.
//!
//! ## §5 Discussion — applications and extensions
//!
//! * *Mesh application* — [`routing_core::workloads::mesh_transpose`]
//!   builds the `C = D = Θ(n)` workload; experiment `T5` shows `Õ(n)`.
//! * *Arbitrary topologies* (the paper's closing question) — for DAGs,
//!   [`leveled_net::levelize()`] (longest-path layering + edge subdivision)
//!   plus [`routing_core::dag::DagNetwork`] let the router run verbatim
//!   on arbitrary acyclic networks.
//!
//! ## Beyond the paper
//!
//! * **Baselines** — [`baselines::GreedyRouter`],
//!   [`baselines::RandomPriorityRouter`] (reference \[11\]-style), and the buffered
//!   [`baselines::StoreForwardRouter`] (reference \[16\]-style with random ranks).
//! * **Replay auditing** — [`hotpotato_sim::replay::verify`] re-checks
//!   an entire recorded run against the hot-potato model, independently
//!   of the engine (used by the chaos/fuzzing test-suites).
//! * **Ablations** — experiments `A1`–`A5` measure each design choice:
//!   excitation `q`, round length `w`, frame height `m`, set count, safe
//!   deflections, and the injection discipline.

// This module is documentation only.
