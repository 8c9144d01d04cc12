//! The traced run: per-layer metrics from spans around the benchmark's own
//! calls into each crate, plus the engines' existing trace reports.
//!
//! The run alternates untraced and traced repetitions of the same work, so
//! `trace_overhead` (traced wall over untraced wall) comes from one process.
//! It also checks two accountings, each within a stated tolerance, and
//! prints whether each holds. They are timing checks on a shared host, so
//! they are reported, not counted as failed runs (`correct` is about the
//! program's outputs):
//!
//! * execution (pal-1w, static-order engine): with `W` = wall × workers,
//!   `K` = kernel busy (ns/firing profiled just before the run × the run's
//!   firings) and `B` = ring
//!   backpressure wait, the residue `R = W − K − B` may not be negative by
//!   more than [`EXEC_TOLERANCE`] of `W` (the profiled kernel model may not
//!   claim more time than the run took), and `K` must be at least
//!   [`KERNEL_SHARE_FLOOR`] of `W` (the kernels are what the run spends its
//!   time on, so the model may not lose them either);
//! * set-up (compile-scale): the medians of the compile phases, each timed
//!   around its own call, sum to the median untraced set-up time within
//!   [`SETUP_TOLERANCE`].

use crate::spans::Spans;
use crate::workload::{
    report_samples, run_engine, setup, Engine, Inputs, Judge, Prepared, RunOut, Workload,
    MIN_SAMPLES,
};
use crate::{median, Metric, Outcome};
use oil_compiler::schedule::plan_mode_sequence;
use oil_compiler::KernelCostModel;
use oil_dataflow::index::Idx;
use oil_rt::{profile_graph, ProfileConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// How far below zero the pal-1w execution residue may read, as a share of
/// wall × workers.
pub const EXEC_TOLERANCE: f64 = 0.05;
/// The least share of pal-1w's static-order wall time the profiled kernels
/// must account for.
pub const KERNEL_SHARE_FLOOR: f64 = 0.5;
/// How far the summed compile-scale phases may stray from the untraced
/// set-up time, as a share of it.
pub const SETUP_TOLERANCE: f64 = 0.10;

/// The set-up phases, each the span around one public call.
const PHASES: [(&str, &str); 7] = [
    ("oil-lang.frontend", "oil-lang.frontend_s"),
    ("oil-compiler.derive_cta_model", "oil-compiler.derive_s"),
    ("oil-cta.size_buffers", "oil-cta.size_buffers_s"),
    (
        "oil-cta.consistency_at_maximal_rates",
        "oil-cta.consistency_s",
    ),
    ("oil-compiler.codegen", "oil-compiler.codegen_s"),
    ("oil-compiler.rtgraph", "oil-compiler.rtgraph_s"),
    ("oil-compiler.synthesize", "oil-compiler.synthesize_s"),
];

/// Tokens pushed through the cross-thread ring in one handoff measurement.
const HANDOFF_TOKENS: u64 = 200_000;
/// Repetitions of the mode-plan and mode-lookup measurements.
const MODAL_REPS: usize = 5;

/// Per-engine samples of the traced runs.
#[derive(Default)]
struct EngineLayers {
    plain_wall: Vec<f64>,
    traced_wall: Vec<f64>,
    kernel_busy: Vec<f64>,
    kernel_share: Vec<f64>,
    residue: Vec<f64>,
    backpressure: Vec<f64>,
    highwater: Vec<f64>,
    parks: Vec<f64>,
    seam: Vec<f64>,
}

fn kernel_busy_s(model: &KernelCostModel, prep: &Prepared, out: &RunOut) -> f64 {
    let function: BTreeMap<&str, &str> = prep
        .graph
        .nodes
        .iter()
        .map(|n| (n.name.as_str(), n.function.as_str()))
        .collect();
    let ns: f64 = out
        .node_firings
        .iter()
        .map(|(node, n)| {
            let cost = function
                .get(node.as_str())
                .and_then(|f| model.entries.get(*f))
                .map_or(0.0, |c| c.ns_per_firing);
            cost * *n as f64
        })
        .sum();
    ns * 1e-9
}

impl EngineLayers {
    fn add_traced(&mut self, model: &KernelCostModel, prep: &Prepared, out: &RunOut) {
        let tr = out.trace.as_ref().expect("traced run has a trace report");
        let w = out.wall_s * prep.schedule().worker_count() as f64;
        let k = kernel_busy_s(model, prep, out);
        let b = tr.backpressure_wait_ns() as f64 * 1e-9;
        self.traced_wall.push(out.wall_s);
        self.kernel_busy.push(k);
        self.kernel_share.push(k / w);
        self.residue.push(w - k - b);
        self.backpressure.push(b);
        self.highwater.push(tr.ring_highwater_max() as f64);
        self.parks.push(out.parks as f64);
        self.seam.push(tr.seam_latency_observed_ns() as f64);
    }
}

/// Median of the sums, per setup root span, of the spans named `name`
/// under it.
fn phase_median(spans: &Spans, roots: &[usize], name: &str) -> f64 {
    let per_root: Vec<f64> = roots
        .iter()
        .map(|&r| {
            spans
                .durations_under(name, r)
                .iter()
                .fold(0.0, |a, b| a + b)
        })
        .collect();
    median(&per_root)
}

/// Nanoseconds per token through a `ring::spsc` of `capacity`, producer
/// and consumer on two threads, both blocking with `push_wait`/`pop_wait`.
fn ring_handoff_ns(capacity: usize) -> f64 {
    let (mut tx, mut rx) = oil_rt::ring::spsc::<f64>(capacity);
    let started = Instant::now();
    let sum = std::thread::scope(|s| {
        let consumer = s.spawn(move || {
            let mut sum = 0.0;
            for _ in 0..HANDOFF_TOKENS {
                sum += rx.pop_wait(|| false).expect("the producer never aborts");
            }
            sum
        });
        for i in 0..HANDOFF_TOKENS {
            tx.push_wait(i as f64, || false)
                .expect("the consumer never aborts");
        }
        consumer.join().expect("ring consumer thread panicked")
    });
    let ns = started.elapsed().as_nanos() as f64 / HANDOFF_TOKENS as f64;
    assert_eq!(sum, (0..HANDOFF_TOKENS).map(|i| i as f64).sum::<f64>());
    ns
}

pub fn run(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let started = Instant::now();
    let elapsed = || started.elapsed().as_secs_f64();
    let inputs = Inputs::generate(w, seed);
    let mut judge = Judge::new(w, seed);
    let mut spans = Spans::new(true);
    let mut plain = Spans::new(false);

    // Set-up, alternating the untraced `compile` path and the phased one.
    let mut plain_setup = Vec::new();
    let mut traced_setup = Vec::new();
    let mut roots = Vec::new();
    let mut prep = None;
    while traced_setup.len() < MIN_SAMPLES || elapsed() < seconds * w.setup_share() {
        let t = Instant::now();
        let p = setup(w, &inputs, &mut plain);
        plain_setup.push(t.elapsed().as_secs_f64());
        judge.setup(&p);

        let root = spans.enter("setup");
        let t = Instant::now();
        let p = setup(w, &inputs, &mut spans);
        traced_setup.push(t.elapsed().as_secs_f64());
        spans.exit(root);
        roots.push(root.expect("spans are on"));
        if judge.setup(&p) {
            prep = p.ok();
        }
    }
    let prep = prep.ok_or("every set-up failed")?;

    let engines_root = spans.enter("engines");
    let engines = [Engine::Static, Engine::SelfTimed];
    for engine in engines {
        judge.run(&run_engine(engine, &inputs, &prep, false));
    }
    let mut layers = [EngineLayers::default(), EngineLayers::default()];
    let mut last_static = None;
    let mut rounds = 0;
    while rounds < MIN_SAMPLES || elapsed() < seconds * 0.9 {
        rounds += 1;
        for (i, engine) in engines.into_iter().enumerate() {
            let out = run_engine(engine, &inputs, &prep, false);
            if judge.run(&out) {
                layers[i].plain_wall.push(out.expect("judged ok").wall_s);
            }
            // Profile the kernels right before each traced run, so kernel
            // busy and wall time are measured under the same host load.
            let model = spans.time("oil-rt.profile_graph", || {
                profile_graph(&prep.graph, &inputs.lib, &ProfileConfig::default())
            });
            let span = spans.enter(match engine {
                Engine::Static => "oil-rt.execute_staticsched",
                Engine::SelfTimed => "oil-rt.execute_selftimed",
            });
            let out = run_engine(engine, &inputs, &prep, true);
            spans.exit(span);
            if judge.run(&out) {
                let out = out.expect("judged ok");
                layers[i].add_traced(&model, &prep, &out);
                if engine == Engine::Static {
                    last_static = Some(out);
                }
            }
        }
    }
    let counts = last_static.ok_or("every traced static-order run failed")?;
    if layers
        .iter()
        .any(|l| l.traced_wall.is_empty() || l.plain_wall.is_empty())
    {
        return Err("every traced or every untraced run of an engine failed".into());
    }

    // The mode plan and one `arm_at` lookup per modal firing of the run.
    let (mut plan_s, mut lookup_s) = (Vec::new(), Vec::new());
    if let (Some(script), Some(dep)) = (
        &inputs.script,
        prep.schedule()
            .modes
            .as_ref()
            .and_then(|m| m.dependent.as_ref()),
    ) {
        let rates = dep.rates(&prep.schedule().units, &prep.graph);
        let budgets: Vec<u64> = prep
            .graph
            .sources
            .iter()
            .map(|s| {
                let period = oil_sim::time::picos_nearest(s.period).expect("source period");
                inputs.horizon / period
            })
            .collect();
        for _ in 0..MODAL_REPS {
            let t = Instant::now();
            let plan = spans.time("oil-compiler.plan_mode_sequence", || {
                plan_mode_sequence(&rates, script, |id| budgets[id.index()])
            });
            plan_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            spans.time("oil-compiler.ModeScript::arm_at", || {
                let mut acc = 0u64;
                for firing in 0..plan.modal_firings {
                    acc += u64::from(black_box(script).arm_at(black_box(firing)));
                }
                black_box(acc)
            });
            lookup_s.push(t.elapsed().as_secs_f64());
        }
    }

    // Cross-thread ring handoff, at the capacity of the workload's
    // crossing rings (workloads with crossings only).
    let mut handoff = Vec::new();
    if let Some(&b) = prep.schedule().cross_buffers.first() {
        let capacity = prep.graph.buffers[b].capacity;
        for _ in 0..3 {
            handoff.push(spans.time("oil-rt.ring.spsc", || ring_handoff_ns(capacity)));
        }
    }
    spans.exit(engines_root);

    // Accounting checks.
    let st = &layers[0];
    let workers = prep.schedule().worker_count() as f64;
    let wall_w = median(&st.traced_wall) * workers;
    let (k, b, r) = (
        median(&st.kernel_busy),
        median(&st.backpressure),
        median(&st.residue),
    );
    println!(
        "execution accounting (static-order, wall x workers = {wall_w} s): \
         kernel busy {k} s ({:.1}%), backpressure {b} s ({:.1}%), residue {r} s ({:.1}%)",
        100.0 * k / wall_w,
        100.0 * b / wall_w,
        100.0 * r / wall_w
    );
    if w == (Workload::Pal { workers: 1 }) {
        let ok = r >= -EXEC_TOLERANCE * wall_w && k >= KERNEL_SHARE_FLOOR * wall_w;
        println!(
            "execution accounting check (residue >= -{EXEC_TOLERANCE} x W, kernel busy >= \
             {KERNEL_SHARE_FLOOR} x W): {}",
            if ok { "holds" } else { "FAILS" }
        );
    }
    let phase_sum: f64 = PHASES
        .iter()
        .map(|(span, _)| phase_median(&spans, &roots, span))
        .sum();
    let plain_setup_s = median(&plain_setup);
    println!(
        "set-up accounting: phases sum to {phase_sum} s, untraced set-up {plain_setup_s} s ({:+.1}%)",
        100.0 * (phase_sum - plain_setup_s) / plain_setup_s
    );
    if w == Workload::CompileScale {
        let ok = (phase_sum - plain_setup_s).abs() <= SETUP_TOLERANCE * plain_setup_s;
        println!(
            "set-up accounting check (within {SETUP_TOLERANCE} of set-up): {}",
            if ok { "holds" } else { "FAILS" }
        );
    }
    report_samples("traced setup_s", &traced_setup, true);
    report_samples("traced static wall_s", &st.traced_wall, true);
    report_samples("traced selftimed wall_s", &layers[1].traced_wall, true);

    let path = write_spans(w, seed, &spans)?;
    println!("spans: {} written to {path}", spans.all().len());

    let traced_total =
        median(&traced_setup) + median(&st.traced_wall) + median(&layers[1].traced_wall);
    let plain_total = plain_setup_s + median(&st.plain_wall) + median(&layers[1].plain_wall);
    let med_or_zero = |xs: &[f64]| if xs.is_empty() { 0.0 } else { median(xs) };
    let buffers = prep.buffers.as_ref();
    let schedule = prep.schedule();
    let mut metrics: Vec<Metric> = PHASES
        .iter()
        .map(|&(span, name)| Metric {
            name,
            value: phase_median(&spans, &roots, span),
            unit: "s",
        })
        .collect();
    let count = |name, value: f64| Metric {
        name,
        value,
        unit: "count",
    };
    metrics.extend([
        count(
            "oil-cta.size_buffers_iterations",
            buffers.map_or(0.0, |b| b.iterations as f64),
        ),
        Metric {
            name: "oil-compiler.mode_script_lookup_s",
            value: med_or_zero(&lookup_s),
            unit: "s",
        },
        Metric {
            name: "oil-compiler.plan_mode_sequence_s",
            value: med_or_zero(&plan_s),
            unit: "s",
        },
        count(
            "oil-compiler.runs_fused",
            f64::from(schedule.fusion.runs_fused),
        ),
        count(
            "oil-compiler.cross_buffers",
            schedule.cross_buffers.len() as f64,
        ),
        Metric {
            name: "oil-dsp.kernel_busy_s",
            value: k,
            unit: "s",
        },
        Metric {
            name: "oil-dsp.kernel_share",
            value: median(&st.kernel_share),
            unit: "ratio",
        },
        Metric {
            name: "oil-rt.ring.handoff_ns",
            value: med_or_zero(&handoff),
            unit: "ns",
        },
        Metric {
            name: "oil-rt.ring.backpressure_wait_s",
            value: b,
            unit: "s",
        },
        count("oil-rt.ring.highwater_max", median(&st.highwater)),
        count("oil-rt.parks", median(&st.parks) + median(&layers[1].parks)),
        Metric {
            name: "oil-rt.staticsched.residue_s",
            value: r,
            unit: "s",
        },
        Metric {
            name: "oil-rt.selftimed.residue_s",
            value: median(&layers[1].residue),
            unit: "s",
        },
        count("oil-rt.tokens", counts.tokens as f64),
        count("oil-rt.node_firings", counts.firings() as f64),
        count("oil-rt.mode_switches", counts.mode_switches as f64),
        count(
            "oil-rt.transition_firings",
            counts.transition_firings as f64,
        ),
        Metric {
            name: "oil-rt.seam_latency_max_ns",
            value: median(&st.seam),
            unit: "ns",
        },
        Metric {
            name: "trace_overhead",
            value: traced_total / plain_total,
            unit: "ratio",
        },
    ]);
    Ok(Outcome {
        correct: judge.failed == 0,
        attempted: judge.attempted,
        failed: judge.failed,
        metrics,
    })
}

/// Write the spans where the build writes its output (`CARGO_TARGET_DIR`,
/// else the package's `target`), inside the checkout.
fn write_spans(w: Workload, seed: u64, spans: &Spans) -> Result<String, String> {
    let dir = std::env::var("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{seed}.json", w.name()));
    std::fs::write(&path, spans.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}
