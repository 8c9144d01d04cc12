//! Umbrella crate for the OIL toolchain.
//!
//! This crate re-exports the individual workspace crates under one roof so
//! that examples, integration tests and downstream users can depend on a
//! single `oil` package:
//!
//! * [`lang`] — lexer, parser, AST and semantic analysis of OIL programs.
//! * [`dataflow`] — task graphs, SDF/CSDF/HSDF models and exact baseline
//!   analyses.
//! * [`cta`] — the Compositional Temporal Analysis model and its
//!   polynomial-time algorithms (consistency, buffer sizing, latency checks).
//! * [`compiler`] — derivation of task graphs and CTA models from OIL
//!   programs, buffer sizing and task code generation.
//! * [`sim`] — a discrete-event multi-core simulator used as the execution
//!   substrate (processors, ring interconnect, circular buffers, periodic
//!   sources/sinks).
//! * [`rt`] — the runtimes executing compiled task graphs: the
//!   single-threaded calendar replay (trace-equivalent to the simulator,
//!   `tests/runtime_differential.rs`) and, on real OS threads, the
//!   self-timed free-running engine (value/rate-conformant,
//!   `tests/selftimed_differential.rs`) and the static-order engine.
//! * [`dsp`] — the signal-processing kernels coordinated by the example
//!   programs (filters, mixers, resamplers, signal generators).
//! * [`pal`] — the PAL video/audio decoder case study from the paper.
//! * [`gen`] — seeded random workload generation for the differential
//!   harness (`tests/differential.rs`) that cross-checks CTA against the
//!   exact dataflow baselines.
//!
//! See `README.md` for a tour and `DESIGN.md` for the mapping from the paper's
//! figures and claims to modules and benchmarks.

pub use oil_compiler as compiler;
pub use oil_cta as cta;
pub use oil_dataflow as dataflow;
pub use oil_dsp as dsp;
pub use oil_gen as gen;
pub use oil_lang as lang;
pub use oil_pal as pal;
pub use oil_rt as rt;
pub use oil_sim as sim;
