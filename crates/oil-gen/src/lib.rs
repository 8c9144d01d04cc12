//! Seeded, deterministic generation of random OIL workloads.
//!
//! The paper claims that CTA's polynomial-time analyses (consistency, buffer
//! sizing, latency) *agree* with the exact-but-exponential dataflow analyses
//! (HSDF expansion, state-space exploration) wherever the latter apply. The
//! repo's hand-written figures exercise a handful of programs; this crate
//! turns the claim into a machine-checkable property over *thousands* of
//! programs by generating random workloads at two levels:
//!
//! * **Level (a), [`topology`]** — random dataflow/CTA scenarios fed straight
//!   into `oil-cta` and `oil-dataflow`: single-rate rings (exact-agreement
//!   oracle), arbitrary multi-rate topologies (consistency-verdict oracle)
//!   and Fig. 2a-style buffered pairs (sufficiency oracle).
//! * **Level (b), [`program`]** — random valid OIL source programs (modal
//!   `if`/`switch` bodies, multi-rate conversions, `init` prologues, nested
//!   modules, latency constraints) driven through the full
//!   `oil-lang → oil-compiler → oil-cta` pipeline and simulated in `oil-sim`,
//!   plus deliberately ill-formed programs that must be *rejected with
//!   diagnostics*, and random ASTs for the `parse(pretty(ast))` round trip.
//! * **Level (c), [`modal`]** — random modal runtime graphs whose single
//!   non-uniform cluster is union-advance admissible, together with
//!   adversarial mode scripts (first-firing switches, back-to-back,
//!   mid-stream), feeding the per-mode schedule differential harness
//!   (`tests/modeswitch_differential.rs`).
//!
//! Everything is a pure function of a `u64` seed ([`rng::GenRng`] is
//! SplitMix64): a failing instance is reproduced by calling the same
//! `generate(seed)` again, and every assertion in the differential harness
//! (`tests/differential.rs` at the workspace root) embeds that seed in its
//! panic message. PR 1's exact-rational core is what makes the harness
//! meaningful: agreement is checked with `==` on [`oil_cta::Rational`]s — any
//! mismatch is a real bug, not round-off.

pub mod modal;
pub mod program;
pub mod rng;
pub mod topology;

pub use modal::{ModalScenario, ModeDependentScenario};
pub use program::{
    gen_ast, Defect, IllFormedProgram, ParallelProgram, ProgramScenario, Stage, StageShape,
};
pub use rng::GenRng;
pub use topology::{MultiRateScenario, PairScenario, RingScenario};
