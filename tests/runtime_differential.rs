//! Trace-equivalence differential verification of the runtime's reference
//! replay against the discrete-event simulator.
//!
//! The paper's parallelization claim — OIL's restrictions make every
//! accepted program *safely* parallelizable — rests on the runtime's
//! reference: for hundreds of seeded random programs
//! (`oil_gen::ProgramScenario`) and for the PAL decoder case study, the
//! calendar engine (`oil-rt::exec`), executing real kernels, must produce
//! **bit-identical** per-buffer token traces, deadline-miss counts and
//! overflow counts as the simulator (`oil-sim`). The self-timed engine is
//! held to its value streams in `selftimed_differential.rs`. Both engines
//! here execute the *same* `oil_compiler::rtgraph` lowering, so any
//! divergence is a scheduling-semantics bug, not a graph-construction
//! artifact.
//!
//! On top of live equivalence, a fixed-seed corpus
//! (`tests/data/runtime_corpus.txt`: `seed digest` lines) pins the expected
//! trace digest per seed, so a behavioural regression fails with the exact
//! reproducing seed even if both engines drift together. Regenerate after
//! an intentional semantic change with
//! `OIL_UPDATE_RUNTIME_CORPUS=1 cargo test --test runtime_differential corpus`.
//!
//! Every failure message quotes the reproducing seed; re-create the program
//! with `ProgramScenario::generate(seed)`.

use oil::compiler::{compile, rtgraph, CompileError, CompilerOptions};
use oil::gen::ProgramScenario;
use oil::rt::{execute, KernelLibrary, RtConfig};
use oil::sim::{build_simulation_from_graph, picos, ExecutionTrace, SimulationConfig};

/// Generated programs per sweep (the acceptance bar is ≥ 200; the stress
/// run widens the sweep).
fn program_seeds() -> u64 {
    if stress() {
        300
    } else {
        200
    }
}

/// Virtual time simulated per program, in seconds. Generated rates are
/// ≥ 25 Hz, so 0.2 s reaches a steady state for every stage; the stress run
/// (`OIL_RT_STRESS=1`, CI's release job) extends the horizon 5×.
fn duration_s() -> f64 {
    if stress() {
        1.0
    } else {
        0.2
    }
}

fn stress() -> bool {
    std::env::var_os("OIL_RT_STRESS").is_some()
}

/// Warm-up ticks covering the pipeline fill of a generated scenario (same
/// policy as `tests/differential.rs`).
fn warmup_ticks(scenario: &ProgramScenario) -> u64 {
    let slowest_hz = scenario
        .stages
        .iter()
        .map(|s| s.firing_hz)
        .chain([scenario.source_hz])
        .min()
        .unwrap_or(1);
    4 + scenario.sink_hz.div_ceil(slowest_hz) * 6
}

/// Compile a generated scenario, returning `None` on (legitimate) temporal
/// rejection and panicking on front-end rejection.
fn compile_scenario(scenario: &ProgramScenario) -> Option<oil::compiler::CompiledProgram> {
    match compile(
        &scenario.source,
        &scenario.registry,
        &CompilerOptions::default(),
    ) {
        Ok(compiled) => Some(compiled),
        Err(CompileError::Temporal(_)) => None,
        Err(CompileError::Frontend(diags)) => panic!(
            "seed {}: generated program must be front-end valid, got {diags:?}\n{}",
            scenario.seed, scenario.source
        ),
    }
}

/// The simulator's trace for a scenario (the oracle side).
fn simulator_trace(
    compiled: &oil::compiler::CompiledProgram,
    warmup: u64,
    duration_seconds: f64,
) -> (ExecutionTrace, rtgraph::RtGraph) {
    let graph = rtgraph::lower(compiled);
    let mut net = build_simulation_from_graph(&graph);
    let (_, trace) = net.run_traced(
        picos(duration_seconds),
        &SimulationConfig {
            cores: 0,
            warmup_ticks: warmup,
        },
    );
    (trace, graph)
}

#[test]
fn runtime_traces_match_the_simulator_on_generated_programs() {
    let (mut checked, mut rejected) = (0u32, 0u32);
    for seed in 0..program_seeds() {
        let scenario = ProgramScenario::generate(seed);
        let Some(compiled) = compile_scenario(&scenario) else {
            rejected += 1;
            continue;
        };
        checked += 1;
        let warmup = warmup_ticks(&scenario);
        let (sim_trace, graph) = simulator_trace(&compiled, warmup, duration_s());

        let report = execute(
            &graph,
            &KernelLibrary::new(),
            picos(duration_s()),
            &RtConfig {
                warmup_ticks: warmup,
                record_traces: true,
                record_values: true,
            },
        );
        if let Some(divergence) = report.trace.first_divergence(&sim_trace) {
            panic!(
                "seed {seed}: runtime trace diverges from the simulator: {divergence}\n\
                 reproduce with ProgramScenario::generate({seed})\nsource:\n{}",
                scenario.source
            );
        }
        // The paper's guarantee carries over to the runtime: accepted ⇒ no
        // misses, no overflows.
        assert!(
            report.meets_real_time_constraints(),
            "seed {seed}: accepted program missed deadlines or overflowed: {:?}\nsource:\n{}",
            report.trace,
            scenario.source
        );
        for (name, cap, occ) in &report.buffers {
            assert!(
                occ <= cap,
                "seed {seed}: buffer {name} exceeded its capacity"
            );
        }
    }
    assert!(
        checked >= program_seeds() as u32 * 3 / 4,
        "most generated programs must compile and be checked \
         ({checked} checked, {rejected} rejected)"
    );
}

#[test]
fn pal_decoder_runtime_matches_simulator_with_zero_misses() {
    // The case study of paper Section VI, with the real DSP kernels: the
    // runtime must reproduce the simulator's trace bit for bit and meet
    // every real-time constraint at CTA-sized buffers.
    let (compiled, _) = oil::pal::analyze_pal().expect("the PAL decoder is schedulable");
    let registry = oil::pal::pal_registry();
    let graph = rtgraph::lower_with_registry(&compiled, &registry);
    let mut net = build_simulation_from_graph(&graph);
    let duration = picos(2e-3); // 12 800 RF samples, 8 000 display samples
    let config_warmup = 64;
    let (_, sim_trace) = net.run_traced(
        duration,
        &SimulationConfig {
            cores: 0,
            warmup_ticks: config_warmup,
        },
    );
    assert_eq!(sim_trace.total_misses(), 0, "simulator PAL baseline");
    assert_eq!(sim_trace.total_overflows(), 0, "simulator PAL baseline");

    let report = execute(
        &graph,
        &KernelLibrary::pal(),
        duration,
        &RtConfig {
            warmup_ticks: config_warmup,
            record_traces: true,
            record_values: true,
        },
    );
    if let Some(divergence) = report.trace.first_divergence(&sim_trace) {
        panic!("PAL decoder diverges from the simulator: {divergence}");
    }
    assert_eq!(report.trace.total_misses(), 0);
    assert_eq!(report.trace.total_overflows(), 0);
    // The runtime executed real DSP kernels: the speaker stream carries the
    // recovered audio tone, not zeros.
    let speakers = report.sink_values("speakers").expect("speaker stream");
    assert!(speakers.len() > 32, "collected {} samples", speakers.len());
    assert!(speakers.iter().any(|v| v.abs() > 1e-6));
}

// ---------------------------------------------------------------------------
// Fixed-seed digest corpus (regression pinning, `scenario_sweep` convention).
// ---------------------------------------------------------------------------

/// Seeds pinned in the corpus file (a prefix of the sweep's seed range).
const CORPUS_SEEDS: u64 = 48;
const CORPUS_PATH: &str = "tests/data/runtime_corpus.txt";

/// Compute the digest of a corpus seed's execution trace, or `None` when
/// the compiler (legitimately) rejects the scenario temporally.
fn corpus_digest(seed: u64) -> Option<u64> {
    let scenario = ProgramScenario::generate(seed);
    let compiled = compile_scenario(&scenario)?;
    let warmup = warmup_ticks(&scenario);
    // The corpus duration is fixed (independent of the stress horizon) so
    // pinned digests stay valid in every CI configuration.
    let (trace, _) = simulator_trace(&compiled, warmup, 0.2);
    Some(trace.digest())
}

#[test]
fn corpus_digests_pin_the_observable_behaviour() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(CORPUS_PATH);
    if std::env::var_os("OIL_UPDATE_RUNTIME_CORPUS").is_some() {
        let mut out = String::from(
            "# Fixed-seed trace-digest corpus: `<seed> <digest|rejected>` per line.\n\
             # Generated by OIL_UPDATE_RUNTIME_CORPUS=1 cargo test --test runtime_differential corpus\n",
        );
        for seed in 0..CORPUS_SEEDS {
            match corpus_digest(seed) {
                Some(d) => out.push_str(&format!("{seed} {d:016x}\n")),
                None => out.push_str(&format!("{seed} rejected\n")),
            }
        }
        std::fs::write(&path, out).expect("writing the corpus file");
        eprintln!("regenerated {}", path.display());
        return;
    }

    let corpus = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("corpus file {} missing: {e}", path.display()));
    let mut pinned = 0u32;
    for line in corpus.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (seed, expected) = line
            .split_once(' ')
            .unwrap_or_else(|| panic!("malformed corpus line `{line}`"));
        let seed: u64 = seed.parse().expect("corpus seed");
        let actual = corpus_digest(seed);
        let actual_str = actual.map_or("rejected".to_string(), |d| format!("{d:016x}"));
        assert_eq!(
            actual_str, expected,
            "seed {seed}: execution-trace digest changed — the observable behaviour of this \
             program regressed (or changed intentionally; then regenerate with \
             OIL_UPDATE_RUNTIME_CORPUS=1). Reproduce with ProgramScenario::generate({seed})."
        );
        pinned += 1;
    }
    assert!(pinned >= 32, "corpus too small: {pinned} pinned seeds");
}
