//! The four workloads: inputs from the seed, set-up (input → runnable
//! schedule), engine runs, output checks, and the untraced end-to-end run.

use crate::golden::{self, Entry};
use crate::hostspeed::{self, Reference};
use crate::inputs;
use crate::spans::Spans;
use crate::{median, peak_rss_mib, tail_percentile, Metric, Outcome};
use oil_compiler::buffers::plan_buffers;
use oil_compiler::codegen::generate_module_code;
use oil_compiler::rtgraph::{self, RtGraph, RtPlan};
use oil_compiler::schedule::{self, ModeScript, StaticSchedule, SynthesisConfig};
use oil_compiler::{compile, derive_cta_model, BufferPlan, CompiledProgram, CompilerOptions};
use oil_dsp::CompositeSignal;
use oil_gen::ModeDependentScenario;
use oil_lang::registry::FunctionRegistry;
use oil_rt::{
    execute_selftimed, execute_selftimed_scripted, execute_staticsched,
    execute_staticsched_scripted, KernelLibrary, SelfTimedConfig, SinkStream, SourceKernel,
    StaticConfig, TraceReport,
};
use oil_sim::{picos, Picos};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The PAL decoder at `workers` worker threads.
    Pal {
        workers: usize,
    },
    ModalSwitch,
    CompileScale,
}

/// Virtual horizon of one PAL engine run.
const PAL_HORIZON_S: f64 = 0.05;
/// Modal-unit firings of one modal-switch engine run (the horizon is this
/// many periods of the scenario's base rate, so every seed does the same
/// amount of modal work).
const MODAL_FIRINGS: u64 = 40_000;
/// The `ModeDependentScenario` the modal-switch workload runs: three arms,
/// so the script has a choice of arm at every switch. The program is the
/// same at every seed (the same shape and size); the seed draws the mode
/// script.
const MODAL_SCENARIO: u64 = 1;
/// Virtual horizon of one run of the compiled compile-scale program.
const SCALE_HORIZON_S: f64 = 2.0;

impl Workload {
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "pal-1w" => Ok(Workload::Pal { workers: 1 }),
            "pal-2w" => Ok(Workload::Pal { workers: 2 }),
            "modal-switch" => Ok(Workload::ModalSwitch),
            "compile-scale" => Ok(Workload::CompileScale),
            other => Err(format!("unknown workload `{other}`")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Pal { workers: 1 } => "pal-1w",
            Workload::Pal { .. } => "pal-2w",
            Workload::ModalSwitch => "modal-switch",
            Workload::CompileScale => "compile-scale",
        }
    }

    /// Worker counts set-up synthesizes for; the engines run at the first.
    pub fn workers(self) -> &'static [usize] {
        match self {
            Workload::Pal { workers: 1 } | Workload::ModalSwitch => &[1],
            Workload::Pal { .. } => &[2],
            Workload::CompileScale => &[1, 2],
        }
    }

    /// Share of the run's seconds spent repeating set-up; the engines get
    /// the rest. Compile-scale is a set-up workload.
    pub fn setup_share(self) -> f64 {
        match self {
            Workload::CompileScale => 0.5,
            _ => 0.1,
        }
    }
}

/// Everything a workload feeds the toolchain, generated from the seed.
pub struct Inputs {
    /// An OIL program and its function registry (PAL, compile-scale).
    pub program: Option<(String, FunctionRegistry)>,
    /// A generated runtime graph (modal-switch).
    pub graph: Option<RtGraph>,
    pub script: Option<ModeScript>,
    pub lib: KernelLibrary,
    pub horizon: Picos,
}

impl Inputs {
    pub fn generate(w: Workload, seed: u64) -> Self {
        match w {
            Workload::Pal { .. } => {
                let sig = inputs::pal_signal(seed);
                let mut lib = KernelLibrary::pal();
                lib.register_source(
                    "receiveRF",
                    Box::new(move || {
                        SourceKernel::Composite(Box::new(CompositeSignal::new(
                            6.4e6,
                            sig.video_hz,
                            sig.audio_hz,
                            2.0e6,
                        )))
                    }),
                );
                Inputs {
                    program: Some((
                        oil_pal::PAL_DECODER_OIL.to_string(),
                        oil_pal::pal_registry(),
                    )),
                    graph: None,
                    script: None,
                    lib,
                    horizon: picos(PAL_HORIZON_S),
                }
            }
            Workload::ModalSwitch => {
                let sc = ModeDependentScenario::generate(MODAL_SCENARIO);
                Inputs {
                    program: None,
                    script: Some(inputs::mode_script(seed, sc.arms as u32, MODAL_FIRINGS)),
                    horizon: picos(MODAL_FIRINGS as f64 / sc.base_hz as f64),
                    graph: Some(sc.graph),
                    lib: KernelLibrary::new(),
                }
            }
            Workload::CompileScale => Inputs {
                program: Some(inputs::compile_scale_program(seed)),
                graph: None,
                script: None,
                lib: KernelLibrary::new(),
                horizon: picos(SCALE_HORIZON_S),
            },
        }
    }
}

/// A runnable workload: the output of set-up.
pub struct Prepared {
    pub graph: RtGraph,
    pub plan: RtPlan,
    /// One schedule per entry of [`Workload::workers`].
    pub schedules: Vec<StaticSchedule>,
    pub buffers: Option<BufferPlan>,
}

impl Prepared {
    /// The schedule the static-order engine runs.
    pub fn schedule(&self) -> &StaticSchedule {
        &self.schedules[0]
    }

    /// The set-up half of a golden entry.
    pub fn entry(&self) -> Entry {
        let mut e = Entry::new();
        let digests: Vec<String> = self
            .schedules
            .iter()
            .map(|s| golden::hex(s.digest()))
            .collect();
        e.insert("schedule".into(), digests.join("-"));
        e.insert(
            "schedule.runs_fused".into(),
            self.schedule().fusion.runs_fused.to_string(),
        );
        e.insert(
            "schedule.cross_buffers".into(),
            self.schedule().cross_buffers.len().to_string(),
        );
        if let Some(b) = &self.buffers {
            e.insert("buffers.total".into(), b.total_tokens().to_string());
            e.insert("buffers.channels".into(), b.channels.len().to_string());
            e.insert("buffers.locals".into(), b.locals.len().to_string());
            e.insert("buffers.iterations".into(), b.iterations.to_string());
        }
        e
    }
}

/// Set-up: input to runnable schedule. With `spans` on, each phase is its
/// own call and span (the calls `oil_compiler::compile` makes, in its
/// order); with `spans` off, the program compiles through `compile`.
pub fn setup(w: Workload, inputs: &Inputs, spans: &mut Spans) -> Result<Prepared, String> {
    let config = SynthesisConfig::default();
    let (graph, plan, buffers) = match (&inputs.program, &inputs.graph) {
        (Some((source, registry)), _) => {
            let compiled = if spans.is_on() {
                compile_phased(source, registry, spans)?
            } else {
                compile(source, registry, &CompilerOptions::default())
                    .map_err(|e| format!("compile: {e}"))?
            };
            let (graph, plan) = spans.time("oil-compiler.rtgraph", || {
                let graph = rtgraph::lower_with_registry(&compiled, registry);
                let plan = rtgraph::plan(&graph);
                (graph, plan)
            });
            (graph, plan, Some(compiled.buffers))
        }
        (None, Some(graph)) => {
            let plan = spans.time("oil-compiler.rtgraph", || rtgraph::plan(graph));
            (graph.clone(), plan, None)
        }
        (None, None) => unreachable!("every workload has a program or a graph"),
    };
    let schedules = w
        .workers()
        .iter()
        .map(|&workers| {
            spans
                .time("oil-compiler.synthesize", || {
                    schedule::synthesize(&graph, &plan, workers, &config)
                })
                .map_err(|e| format!("synthesis at {workers} workers: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Prepared {
        graph,
        plan,
        schedules,
        buffers,
    })
}

/// `oil_compiler::compile`, one span per phase.
fn compile_phased(
    source: &str,
    registry: &FunctionRegistry,
    spans: &mut Spans,
) -> Result<CompiledProgram, String> {
    let analyzed = spans
        .time("oil-lang.frontend", || oil_lang::frontend(source, registry))
        .map_err(|d| format!("front end: {d:?}"))?;
    let derived = spans.time("oil-compiler.derive_cta_model", || {
        derive_cta_model(&analyzed, registry)
    });
    let (buffers, sized_model) = spans
        .time("oil-cta.size_buffers", || plan_buffers(&analyzed, &derived))
        .map_err(|e| format!("buffer sizing: {e}"))?;
    let consistency = spans
        .time("oil-cta.consistency_at_maximal_rates", || {
            sized_model.consistency_at_maximal_rates()
        })
        .map_err(|e| format!("consistency: {e}"))?;
    let generated = spans.time("oil-compiler.codegen", || {
        derived
            .task_graphs
            .iter()
            .zip(&analyzed.graph.instances)
            .filter_map(|(tg, inst)| tg.as_ref().map(|tg| generate_module_code(&inst.path, tg)))
            .collect()
    });
    Ok(CompiledProgram {
        analyzed,
        derived,
        sized_model,
        consistency,
        buffers,
        generated,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Static,
    SelfTimed,
}

impl Engine {
    pub fn name(self) -> &'static str {
        match self {
            Engine::Static => "static",
            Engine::SelfTimed => "selftimed",
        }
    }
}

/// What one engine run produced.
pub struct RunOut {
    pub engine: Engine,
    /// Wall time of the engine call, timed by the benchmark.
    pub wall_s: f64,
    pub tokens: u64,
    pub sinks: Vec<SinkStream>,
    pub node_firings: Vec<(String, u64)>,
    pub mode_switches: u64,
    pub transition_firings: u64,
    pub parks: u64,
    pub deadlocked: bool,
    pub trace: Option<TraceReport>,
}

impl RunOut {
    pub fn firings(&self) -> u64 {
        self.node_firings.iter().map(|(_, n)| n).sum()
    }

    /// The engine half of a golden entry.
    pub fn entry(&self) -> Entry {
        let p = self.engine.name();
        let mut e = Entry::new();
        e.insert(format!("{p}.tokens"), self.tokens.to_string());
        e.insert(format!("{p}.sink"), golden::sink_digest(&self.sinks));
        e.insert(format!("{p}.firings"), self.firings().to_string());
        e.insert(format!("{p}.switches"), self.mode_switches.to_string());
        e.insert(
            format!("{p}.transitions"),
            self.transition_firings.to_string(),
        );
        e
    }
}

/// Run one engine over the workload's horizon. A panic inside the engine
/// is an `Err`.
pub fn run_engine(
    engine: Engine,
    inputs: &Inputs,
    prep: &Prepared,
    trace: bool,
) -> Result<RunOut, String> {
    let call = || {
        let started = Instant::now();
        match engine {
            Engine::Static => {
                let config = StaticConfig {
                    record_values: false,
                    trace,
                    ..StaticConfig::default()
                };
                let r = match &inputs.script {
                    Some(script) => execute_staticsched_scripted(
                        &prep.graph,
                        prep.schedule(),
                        script,
                        &inputs.lib,
                        inputs.horizon,
                        &config,
                    ),
                    None => execute_staticsched(
                        &prep.graph,
                        prep.schedule(),
                        &inputs.lib,
                        inputs.horizon,
                        &config,
                    ),
                };
                let wall_s = started.elapsed().as_secs_f64();
                let parks = r.trace_report.as_ref().map_or(0, TraceReport::park_count);
                RunOut {
                    engine,
                    wall_s,
                    tokens: r.tokens,
                    sinks: r.sinks,
                    node_firings: r.node_firings,
                    mode_switches: r.mode_switches,
                    transition_firings: r.transition_firings,
                    parks,
                    deadlocked: false,
                    trace: r.trace_report,
                }
            }
            Engine::SelfTimed => {
                let config = SelfTimedConfig {
                    threads: prep.schedule().worker_count(),
                    record_values: false,
                    trace,
                    ..SelfTimedConfig::default()
                };
                let r = match &inputs.script {
                    Some(script) => execute_selftimed_scripted(
                        &prep.graph,
                        &prep.plan,
                        &inputs.lib,
                        inputs.horizon,
                        &config,
                        script,
                    ),
                    None => execute_selftimed(
                        &prep.graph,
                        &prep.plan,
                        &inputs.lib,
                        inputs.horizon,
                        &config,
                    ),
                };
                let wall_s = started.elapsed().as_secs_f64();
                RunOut {
                    engine,
                    wall_s,
                    tokens: r.tokens,
                    sinks: r.sinks,
                    node_firings: r.node_firings,
                    mode_switches: r.mode_switches,
                    transition_firings: r.transition_firings,
                    parks: r.parks,
                    deadlocked: r.deadlocked,
                    trace: r.trace_report,
                }
            }
        }
    };
    catch_unwind(AssertUnwindSafe(call)).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("{} engine panicked: {msg}", engine.name())
    })
}

/// Judges every set-up and engine run of one process and tallies failures.
/// Each output is compared with the golden entry of (workload, seed) when
/// the file has one; whether or not it does, each must repeat the first
/// output of its kind exactly, and the two engines must agree with each
/// other (same tokens; the self-timed sink streams a prefix of the
/// static-order ones).
pub struct Judge {
    golden: Option<Entry>,
    first: Entry,
    static_sinks: Option<Vec<SinkStream>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Judge {
    /// A judge against the golden entry of (workload, seed).
    pub fn new(w: Workload, seed: u64) -> Self {
        let golden = golden::lookup(w.name(), seed);
        if golden.is_none() {
            eprintln!(
                "note: golden.txt has no entry for {} seed {seed}; checking \
                 repeatability and engine agreement only",
                w.name()
            );
        }
        Judge::with_golden(golden)
    }

    fn with_golden(golden: Option<Entry>) -> Self {
        Judge {
            golden,
            first: Entry::new(),
            static_sinks: None,
            attempted: 0,
            failed: 0,
        }
    }

    fn check_entry(&mut self, actual: &Entry) -> Vec<String> {
        let mut problems = Vec::new();
        for (k, v) in actual {
            let first = self.first.entry(k.clone()).or_insert_with(|| v.clone());
            if first != v {
                problems.push(format!("{k} changed from {first} to {v} within the run"));
            }
        }
        if let Some(golden) = &self.golden {
            let relevant: Entry = golden
                .iter()
                .filter(|(k, _)| actual.contains_key(*k))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            problems.extend(golden::mismatches(&relevant, actual));
        }
        problems
    }

    fn record(&mut self, what: &str, problems: Vec<String>) -> bool {
        self.attempted += 1;
        if problems.is_empty() {
            return true;
        }
        self.failed += 1;
        eprintln!("FAILED {what}: {}", problems.join("; "));
        false
    }

    pub fn setup(&mut self, prep: &Result<Prepared, String>) -> bool {
        let problems = match prep {
            Ok(p) => self.check_entry(&p.entry()),
            Err(e) => vec![e.clone()],
        };
        self.record("set-up", problems)
    }

    pub fn run(&mut self, out: &Result<RunOut, String>) -> bool {
        let Ok(out) = out else {
            let e = out.as_ref().err().cloned().unwrap_or_default();
            return self.record("engine run", vec![e]);
        };
        let mut problems = Vec::new();
        if out.deadlocked {
            problems.push("deadlocked".to_string());
        }
        problems.extend(self.check_entry(&out.entry()));
        match out.engine {
            Engine::Static => {
                if self.static_sinks.is_none() && problems.is_empty() {
                    self.static_sinks = Some(out.sinks.clone());
                }
            }
            Engine::SelfTimed => {
                if let Some(tokens) = self.first.get("static.tokens") {
                    if *tokens != out.tokens.to_string() {
                        problems.push(format!(
                            "self-timed pushed {} tokens, static-order {tokens}",
                            out.tokens
                        ));
                    }
                }
                if let Some(reference) = &self.static_sinks {
                    problems.extend(prefix_mismatch(reference, &out.sinks));
                }
            }
        }
        self.record(&format!("{} run", out.engine.name()), problems)
    }
}

/// Sinks whose self-timed stream is not a prefix of the static-order one.
fn prefix_mismatch(reference: &[SinkStream], sinks: &[SinkStream]) -> Vec<String> {
    if reference.len() != sinks.len() {
        return vec![format!(
            "{} sinks, static-order has {}",
            sinks.len(),
            reference.len()
        )];
    }
    reference
        .iter()
        .zip(sinks)
        .filter_map(|(r, s)| {
            let n = r.values.len().min(s.values.len());
            (r.name != s.name || r.values[..n] != s.values[..n])
                .then(|| format!("sink `{}` differs between the engines", s.name))
        })
        .collect()
}

/// The golden entry of (workload, seed): one set-up and one run of each
/// engine, with the cross-engine agreement checked.
pub fn reference_entry(w: Workload, seed: u64) -> Result<Entry, String> {
    let inputs = Inputs::generate(w, seed);
    let prep = setup(w, &inputs, &mut Spans::new(false))?;
    let mut judge = Judge::with_golden(None);
    let mut entry = prep.entry();
    for engine in [Engine::Static, Engine::SelfTimed] {
        let out = run_engine(engine, &inputs, &prep, false);
        if !judge.run(&out) {
            return Err(format!(
                "{} seed {seed}: {} run failed",
                w.name(),
                engine.name()
            ));
        }
        entry.extend(out.expect("judged ok").entry());
    }
    Ok(entry)
}

/// Fewest samples of any timing in a run.
pub const MIN_SAMPLES: usize = 3;

/// The untraced end-to-end run.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let started = Instant::now();
    let elapsed = || started.elapsed().as_secs_f64();
    let inputs = Inputs::generate(w, seed);
    let mut judge = Judge::new(w, seed);
    let mut spans = Spans::new(false);

    // Set-up repetitions are spread over the whole run, interleaved with
    // the engine rounds, so that both see the same host load: a set-up runs
    // whenever set-up has had less than its share of the time so far.
    let engines = [Engine::Static, Engine::SelfTimed];
    let mut setup_s = Vec::new();
    let mut setup_total = 0.0;
    let mut prep: Option<Prepared> = None;
    let mut rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    // One-worker runs time the host-speed job after every engine round and
    // report their timings at the reference host speed (see `hostspeed`).
    let scaled = w.workers()[0] == 1;
    let reference = Reference::new();
    let mut reference_s = Vec::new();
    // Rounds, not successful samples, bound the loop: a program whose runs
    // all fail still ends on time.
    let mut rounds = 0;
    while setup_s.len() < MIN_SAMPLES || rounds < MIN_SAMPLES || elapsed() < seconds {
        let setup_due = setup_total < w.setup_share() * elapsed()
            || (rounds >= MIN_SAMPLES && setup_s.len() < MIN_SAMPLES);
        if prep.is_none() || setup_due {
            if prep.is_none() && setup_s.len() >= MIN_SAMPLES {
                return Err("every set-up failed".into());
            }
            let t = Instant::now();
            let p = setup(w, &inputs, &mut spans);
            let d = t.elapsed().as_secs_f64();
            setup_s.push(d);
            setup_total += d;
            if judge.setup(&p) && prep.is_none() {
                let p = p.expect("judged ok");
                // One untimed run of each engine first: caches fill, pages
                // fault in.
                for engine in engines {
                    judge.run(&run_engine(engine, &inputs, &p, false));
                }
                prep = Some(p);
            }
            continue;
        }
        let prep = prep.as_ref().expect("set up above");
        rounds += 1;
        for (i, engine) in engines.into_iter().enumerate() {
            let out = run_engine(engine, &inputs, prep, false);
            if judge.run(&out) {
                let out = out.expect("judged ok");
                rates[i].push(out.tokens as f64 / out.wall_s);
            }
        }
        if scaled {
            reference_s.push(reference.time_s());
        }
    }
    if rates.iter().any(Vec::is_empty) {
        return Err("every run of an engine failed".into());
    }
    report_samples("static_tokens_per_s", &rates[0], false);
    report_samples("selftimed_tokens_per_s", &rates[1], false);
    report_samples("setup_s", &setup_s, true);
    let speed = if scaled {
        report_samples("host-speed job s", &reference_s, true);
        let speed = hostspeed::speed(&reference_s);
        println!(
            "host speed {speed} (nominal job time {} s / median job time); the \
             timings above are raw, the result line reports them at speed 1",
            hostspeed::NOMINAL_S
        );
        speed
    } else {
        println!("multi-worker run: the result line reports the raw timings");
        1.0
    };
    Ok(Outcome {
        correct: judge.failed == 0,
        attempted: judge.attempted,
        failed: judge.failed,
        metrics: vec![
            Metric {
                name: "static_tokens_per_s",
                value: median(&rates[0]) / speed,
                unit: "1/s",
            },
            Metric {
                name: "selftimed_tokens_per_s",
                value: median(&rates[1]) / speed,
                unit: "1/s",
            },
            Metric {
                name: "setup_s",
                value: median(&setup_s) * speed,
                unit: "s",
            },
            Metric {
                name: "peak_rss_mib",
                value: peak_rss_mib()?,
                unit: "MiB",
            },
        ],
    })
}

/// Print a timing's sample count, median and the highest percentile its
/// count supports (recorded, not gated).
pub fn report_samples(name: &str, xs: &[f64], higher_is_worse: bool) {
    let tail = match tail_percentile(xs, higher_is_worse) {
        Some((p, v)) => format!("p{p}={v}"),
        None => "no percentile beyond the median (fewer than 11 samples)".into(),
    };
    println!("{name}: median={} n={} {tail}", median(xs), xs.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_sink_sample_fails_the_run() {
        let w = Workload::Pal { workers: 1 };
        let inputs = Inputs::generate(w, 1);
        let prep = setup(w, &inputs, &mut Spans::new(false)).unwrap();
        let mut judge = Judge::new(w, 1);
        assert!(judge.setup(&Ok(prep)));
        let prep = setup(w, &inputs, &mut Spans::new(false)).unwrap();
        let out = run_engine(Engine::Static, &inputs, &prep, false).unwrap();
        let mut corrupted = run_engine(Engine::Static, &inputs, &prep, false).unwrap();
        corrupted.sinks[0].values[10] += 1.0;
        assert!(judge.run(&Ok(out)));
        assert!(!judge.run(&Ok(corrupted)));
        assert_eq!((judge.attempted, judge.failed), (3, 1));
    }

    #[test]
    fn a_corrupted_sink_sample_fails_against_the_golden_entry_alone() {
        // Corrupt the very first run, so only the golden file can tell.
        let w = Workload::Pal { workers: 1 };
        let inputs = Inputs::generate(w, 1);
        let prep = setup(w, &inputs, &mut Spans::new(false)).unwrap();
        let mut out = run_engine(Engine::Static, &inputs, &prep, false).unwrap();
        out.sinks[0].values[10] += 1.0;
        let mut judge = Judge::new(w, 1);
        assert!(!judge.run(&Ok(out)));
        assert_eq!(judge.failed, 1);
    }

    #[test]
    fn an_unseen_seed_runs_clean_with_the_same_shape() {
        for w in ["pal-1w", "modal-switch", "compile-scale"] {
            let w = Workload::parse(w).unwrap();
            let a = reference_entry(w, 1).unwrap();
            let b = reference_entry(w, 987_654_321).unwrap();
            assert_eq!(
                a.keys().collect::<Vec<_>>(),
                b.keys().collect::<Vec<_>>(),
                "{}",
                w.name()
            );
            // Same size: the generated programs have the same channels.
            assert_eq!(a.get("buffers.channels"), b.get("buffers.channels"));
        }
    }
}
