//! `oil-rt` — the multi-threaded execution runtime.
//!
//! The paper's thesis is that OIL's restrictions make every program
//! *automatically parallelizable* while staying temporally analysable. The
//! discrete-event simulator (`oil-sim`) validates the analysis; this crate
//! validates the **parallelization**: it executes a compiled program's task
//! graph with actual `oil-dsp` kernels computing actual sample streams —
//! once as a single-threaded reference replay held, by
//! `tests/runtime_differential.rs`, to **bit-identical** per-buffer token
//! traces, deadline-miss counts and overflow counts against the simulator,
//! and on real OS threads by two parallel engines whose value streams
//! extend that reference's.
//!
//! Architecture (see the module docs for detail):
//!
//! * [`ring`] — lock-free bounded SPSC ring buffers with bounded-spin →
//!   yield → park/unpark blocking wait paths; one per parallel-engine
//!   buffer (capacity from CTA buffer sizing);
//! * [`kernel`] — DSP-backed and synthetic kernels, mapped from coordinated
//!   function names by a [`KernelLibrary`];
//! * [`exec`] — the **calendar engine**, the single-threaded reference
//!   replay: virtual time replayed on a `(time, kind, id)`-ordered calendar
//!   with the same documented tie-breaking rule as the simulator, each
//!   kernel run inline when its firing is admitted;
//! * [`selftimed`] — the **free-running engine**: no clock, tasks fire as
//!   soon as tokens and space allow, batched by the repetition-vector plan
//!   (`oil_compiler::rtgraph::plan`), verified against the calendar engine
//!   through the value plane (`tests/selftimed_differential.rs`);
//! * [`staticsched`] — the **compiled static-order engine**: each worker
//!   replays a periodic firing list synthesised and validated at compile
//!   time (`oil_compiler::schedule`), with zero readiness scanning and
//!   synchronisation only on cross-worker buffers
//!   (`tests/staticsched_differential.rs`);
//! * [`measure`] — per-buffer value-stream traces, sink sample streams and
//!   wall-clock sink throughput vs the CTA-predicted rates (rate
//!   conformance);
//! * [`trace`] — low-overhead per-worker event tracing for the parallel
//!   engines: firing/seam spans, park/backpressure counters and ring
//!   high-water marks, exported as a stable JSON summary or a
//!   Perfetto-loadable Chrome trace. Off by default; enabling it never
//!   changes value streams;
//! * [`metrics`] — always-on metrics registry for the parallel engines:
//!   lock-free per-worker counter/histogram cells, windowed sink
//!   throughput and a live CTA drift detector ([`metrics::DriftVerdict`]).
//!   Off by default with the same one-branch discipline as [`trace`];
//! * [`profile`] — kernel cost calibration: measures ns/firing per
//!   coordinated function (trimmed-median estimator) into an
//!   `oil_compiler::costmodel::KernelCostModel` artifact that
//!   `oil_compiler::schedule` can use for measured-cost partitioning.
//!
//! The runtime consumes the same [`oil_compiler::rtgraph::RtGraph`] lowering
//! as the simulator, so differential testing compares *scheduling
//! semantics*, not graph construction.

pub mod exec;
pub mod kernel;
pub mod measure;
pub mod metrics;
pub mod profile;
pub mod ring;
pub mod selftimed;
pub mod staticsched;
pub mod trace;

pub use exec::{execute, RtConfig, RtReport};
pub use kernel::{Kernel, KernelLibrary, SourceKernel};
pub use measure::{
    ConformanceVerdict, RateConformance, SinkStream, SinkThroughput, ThroughputMeter, ValueTrace,
};
pub use metrics::{env_metrics, DriftVerdict, MetricsConfig, MetricsHub, MetricsReport, WindowObs};
pub use profile::{profile_graph, profile_kernel, ProfileConfig};
pub use selftimed::{
    env_threads, execute_selftimed, execute_selftimed_scripted, parse_threads, SelfTimedConfig,
    SelfTimedReport, ThreadsParseError,
};
pub use staticsched::{
    execute_staticsched, execute_staticsched_scripted, StaticConfig, StaticReport,
};
pub use trace::{env_trace, TraceReport};

#[cfg(test)]
mod tests {
    use super::*;
    use oil_compiler::{compile, rtgraph, CompilerOptions};
    use oil_lang::registry::{FunctionRegistry, FunctionSignature};
    use oil_sim::{build_simulation_from_graph, picos, SimulationConfig};

    fn registry() -> FunctionRegistry {
        let mut r = FunctionRegistry::new();
        for f in ["f", "g", "init", "src", "snk"] {
            r.register(FunctionSignature::pure(f, 1e-5));
        }
        r
    }

    const PIPELINE: &str = r#"
        mod seq P(int a, out int m){ loop{ f(a, out m); } while(1); }
        mod seq Q(int m, out int b){ loop{ g(m:2, out b); } while(1); }
        mod par D(){
            fifo int mid;
            source int x = src() @ 2 kHz;
            sink int y = snk() @ 1 kHz;
            P(x, out mid) || Q(mid, out y)
        }
    "#;

    #[test]
    fn runtime_matches_simulator_trace_on_a_pipeline() {
        let compiled = compile(PIPELINE, &registry(), &CompilerOptions::default()).unwrap();
        let graph = rtgraph::lower(&compiled);
        let mut net = build_simulation_from_graph(&graph);
        let (_, sim_trace) = net.run_traced(picos(0.25), &SimulationConfig::default());

        let report = execute(
            &graph,
            &KernelLibrary::new(),
            picos(0.25),
            &RtConfig::default(),
        );
        assert_eq!(report.trace.first_divergence(&sim_trace), None);
        assert!(report.meets_real_time_constraints(), "{:?}", report.trace);
        // Real sample values reached the sink.
        let values = report.sink_values("y").expect("sink stream");
        assert!(!values.is_empty());
        assert!(values.iter().any(|v| *v != 0.0));
    }

    #[test]
    fn env_threads_parses() {
        // Only checks the parser, not the environment (tests run in
        // parallel; mutating the process environment would race).
        assert_eq!(parse_threads("3"), Ok(3));
        assert_eq!(parse_threads(" 0 "), Ok(0));
        // A malformed override is an error, never a silent default.
        assert!(parse_threads("three").is_err());
        assert!(parse_threads("").is_err());
    }

    #[test]
    fn panicking_kernel_fails_loudly_instead_of_hanging() {
        // A kernel that unwinds must surface as a panic naming the node.
        let compiled = compile(PIPELINE, &registry(), &CompilerOptions::default()).unwrap();
        let graph = rtgraph::lower(&compiled);
        let mut lib = KernelLibrary::new();
        lib.register(
            "f",
            Box::new(|| Kernel::Custom(Box::new(|_, _| panic!("injected kernel failure")))),
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(&graph, &lib, picos(0.01), &RtConfig::default())
        }));
        let err = result.expect_err("the runtime must propagate the kernel panic");
        let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            message.contains("panicked during a firing") && message.contains("injected"),
            "unexpected panic message: {message}"
        );
    }
}
