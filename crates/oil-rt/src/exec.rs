//! The calendar engine: the single-threaded reference replay.
//!
//! The engine executes a lowered [`RtGraph`] with real kernel values while
//! keeping the *observable* behaviour — per-buffer token traces, deadline
//! misses, overflows — bit-identical to the discrete-event simulator. The
//! trick is the paper's own observation: OIL's restrictions make temporal
//! behaviour **data-independent** (rates are static, guarded statements
//! still fire), so scheduling and computation separate cleanly:
//!
//! * the engine replays virtual time on a calendar of `(time, kind, id)`-
//!   ordered events with the same documented tie-breaking rule as
//!   `oil_sim::network` (sources deliver, completing nodes commit, sinks
//!   consume; lower ids first), which decides *when* every firing starts
//!   and completes;
//! * the values ride along: a firing's kernel runs inline when the firing
//!   is admitted and its outputs are held until its completion event,
//!   sources draw one sample per tick and sinks record what they consume.
//!
//! Because a node's firings are totally ordered and every buffer push/pop
//! happens at a calendar-chosen virtual instant, the value streams and the
//! token traces are pure functions of the graph — `tests/runtime_differential.rs`
//! holds the engine to bit-identical agreement with `oil-sim` over hundreds
//! of generated programs. Parallel execution is the business of the
//! self-timed ([`crate::selftimed`]) and static-order
//! ([`crate::staticsched`]) engines; this replay is their reference: its
//! value streams are the prefix oracle the self-timed engine is held to.

use crate::kernel::{Kernel, KernelLibrary, SourceKernel};
use crate::measure::{BufferValues, SinkStream, ValueTrace, SINK_STREAM_CAP};
use oil_compiler::rtgraph::{RtBufferId, RtGraph, RtNodeId, RtSinkId, RtSourceId};
use oil_dataflow::index::{Idx, IndexVec};
use oil_dataflow::taskgraph::ports_satisfied;
use oil_sim::time::picos_nearest;
use oil_sim::trace::{BufferTrace, ExecutionTrace};
use oil_sim::Picos;
use std::collections::{BTreeMap, VecDeque};

/// Configuration of a runtime execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtConfig {
    /// Sink ticks ignored before misses are counted (pipeline warm-up), as
    /// in [`oil_sim::SimulationConfig`].
    pub warmup_ticks: u64,
    /// Record the full per-buffer token trace (tests); counters are always
    /// kept.
    pub record_traces: bool,
    /// Record the per-buffer *value* streams ([`crate::measure::ValueTrace`]).
    /// On by default (the differential oracles need them); benchmarks turn
    /// this off — a `Vec` push per pushed sample taxes every hot path.
    pub record_values: bool,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig {
            warmup_ticks: 4,
            record_traces: true,
            record_values: true,
        }
    }
}

/// Everything one runtime execution observed.
#[derive(Debug, Clone, PartialEq)]
pub struct RtReport {
    /// The observable trace (buffer pushes only when
    /// [`RtConfig::record_traces`]; source/sink counters always).
    pub trace: ExecutionTrace,
    /// Per-buffer value streams (recorded when [`RtConfig::record_values`]).
    /// For KPN-safe graphs these are schedule-invariant, so this is the
    /// reference the self-timed engine's prefix oracle compares against.
    pub values: ValueTrace,
    /// Per node: (name, completed firings).
    pub node_firings: Vec<(String, u64)>,
    /// Per buffer: (name, physical capacity, max occupancy). The physical
    /// capacity is the declared (CTA-sized) capacity plus one write burst
    /// per producing node: admission checks the declared capacity, but a
    /// completing firing commits unconditionally (space was checked when it
    /// was admitted), so concurrent producers can transiently exceed the
    /// declared value by at most their in-flight bursts — the same
    /// semantics as the simulator.
    pub buffers: Vec<(String, usize, usize)>,
    /// Per sink: the real output sample streams.
    pub sinks: Vec<SinkStream>,
    /// Total tokens pushed across all buffers.
    pub tokens: u64,
}

impl RtReport {
    /// True if no sink missed a deadline and no source overflowed.
    pub fn meets_real_time_constraints(&self) -> bool {
        self.trace.total_misses() == 0 && self.trace.total_overflows() == 0
    }

    /// The collected sample stream of a sink (matched by name fragment).
    pub fn sink_values(&self, name: &str) -> Option<&[f64]> {
        self.sinks
            .iter()
            .find(|s| s.name.contains(name))
            .map(|s| s.values.as_slice())
    }
}

/// A token travelling through a buffer: the origin timestamp of the source
/// sample it derives from (the simulator's trace currency) plus the actual
/// sample value (the runtime's extra).
#[derive(Debug, Clone, Copy)]
struct Token {
    origin: Picos,
    value: f64,
}

/// A firing between its admission and its completion event: the oldest
/// origin among its inputs and the outputs its kernel already computed.
struct Firing {
    origin: Picos,
    outputs: Vec<f64>,
}

/// Render a caught panic payload for error messages.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Event kinds, ranked exactly like `oil_sim::network`'s documented
/// tie-breaking rule: sources deliver first, completing nodes commit second,
/// sinks consume last; within a kind, lower ids first.
const RANK_SOURCE: u8 = 0;
const RANK_COMPLETE: u8 = 1;
const RANK_SINK: u8 = 2;

#[derive(Debug, Clone, Copy)]
enum RtEvent {
    SourceTick(RtSourceId),
    NodeComplete(RtNodeId),
    SinkTick(RtSinkId),
}

/// The calendar: an ordered map keyed by `(time, rank, id)`. Deliberately a
/// different structure from the simulator's binary heap — the two engines
/// share only the documented ordering contract, not code.
#[derive(Default)]
struct Calendar {
    events: BTreeMap<(Picos, u8, u32), RtEvent>,
}

impl Calendar {
    fn schedule(&mut self, time: Picos, event: RtEvent) {
        let key = match event {
            RtEvent::SourceTick(i) => (time, RANK_SOURCE, i.index() as u32),
            RtEvent::NodeComplete(i) => (time, RANK_COMPLETE, i.index() as u32),
            RtEvent::SinkTick(i) => (time, RANK_SINK, i.index() as u32),
        };
        let previous = self.events.insert(key, event);
        debug_assert!(previous.is_none(), "double-scheduled event {key:?}");
    }

    fn pop(&mut self) -> Option<(Picos, RtEvent)> {
        self.events.pop_first().map(|((t, _, _), e)| (t, e))
    }
}

/// Execute `graph` for `duration` picoseconds of virtual time with the
/// kernels of `lib`.
///
/// # Panics
/// Panics if a response time or period cannot be placed on the picosecond
/// clock (impossible for compiler-lowered graphs), and with the node's name
/// if a kernel panics during a firing.
pub fn execute(
    graph: &RtGraph,
    lib: &KernelLibrary,
    duration: Picos,
    config: &RtConfig,
) -> RtReport {
    // --- Buffers: one FIFO queue each, pre-loaded with the initial tokens.
    //
    // Admission and source-tick space checks use the *declared* (CTA-sized)
    // capacity, exactly like the simulator. A completing firing, however,
    // commits its writes unconditionally — space was checked when it was
    // admitted, and other producers may have pushed since — so the declared
    // capacity can be transiently exceeded by at most one write burst per
    // producing node. Every push asserts that physical bound.
    let n_buffers = graph.buffers.len();
    let declared: Vec<usize> = graph
        .buffers
        .iter()
        .map(|b| b.capacity.max(b.initial_tokens).max(1))
        .collect();
    let mut physical = declared.clone();
    for n in &graph.nodes {
        for &(b, c) in &n.writes {
            physical[b.index()] += c;
        }
    }
    let mut queues: Vec<VecDeque<Token>> = vec![VecDeque::new(); n_buffers];
    let mut pushes: Vec<Vec<Picos>> = vec![Vec::new(); n_buffers];
    let mut values: Vec<BufferValues> = graph
        .buffers
        .iter()
        .map(|b| BufferValues {
            name: b.name.clone(),
            ..Default::default()
        })
        .collect();
    let mut max_occupancy: Vec<usize> = vec![0; n_buffers];
    let mut tokens_pushed: u64 = 0;

    // Push a token and maintain occupancy/trace accounting.
    macro_rules! push_token {
        ($buffer:expr, $token:expr) => {{
            let b: RtBufferId = $buffer;
            let token: Token = $token;
            let queue = &mut queues[b.index()];
            assert!(
                queue.len() < physical[b.index()],
                "buffer `{}` overran its physical capacity {}",
                graph.buffers[b].name,
                physical[b.index()]
            );
            queue.push_back(token);
            max_occupancy[b.index()] = max_occupancy[b.index()].max(queue.len());
            if config.record_traces {
                pushes[b.index()].push(token.origin);
            }
            if config.record_values {
                values[b.index()].record(token.value);
            }
            tokens_pushed += 1;
        }};
    }

    for (b, buffer) in graph.buffers.iter_enumerated() {
        for _ in 0..buffer.initial_tokens {
            push_token!(
                b,
                Token {
                    origin: 0,
                    value: 0.0
                }
            );
        }
    }

    // --- Quantise the rational times onto the picosecond clock, with the
    // same checked conversion the simulator builder uses.
    let response_ps: IndexVec<RtNodeId, Picos> = graph
        .nodes
        .iter()
        .map(|n| {
            picos_nearest(n.response).unwrap_or_else(|e| panic!("response of `{}`: {e}", n.name))
        })
        .collect::<Vec<_>>()
        .into();
    let source_period: IndexVec<RtSourceId, Picos> = graph
        .sources
        .iter()
        .map(|s| picos_nearest(s.period).unwrap_or_else(|e| panic!("period of `{}`: {e}", s.name)))
        .collect::<Vec<_>>()
        .into();
    let sink_period: IndexVec<RtSinkId, Picos> = graph
        .sinks
        .iter()
        .map(|s| picos_nearest(s.period).unwrap_or_else(|e| panic!("period of `{}`: {e}", s.name)))
        .collect::<Vec<_>>()
        .into();

    // --- Replay state.
    let mut calendar = Calendar::default();
    for i in graph.sources.indices() {
        calendar.schedule(source_period[i], RtEvent::SourceTick(i));
    }
    for i in graph.sinks.indices() {
        calendar.schedule(sink_period[i], RtEvent::SinkTick(i));
    }
    let n_nodes = graph.nodes.len();
    let n_sinks = graph.sinks.len();
    let mut kernels: IndexVec<RtNodeId, Kernel> = graph
        .nodes
        .iter()
        .map(|n| lib.instantiate(&n.function))
        .collect::<Vec<_>>()
        .into();
    let mut generators: IndexVec<RtSourceId, SourceKernel> = graph
        .sources
        .iter()
        .map(|s| lib.instantiate_source(&s.function))
        .collect::<Vec<_>>()
        .into();
    let mut in_flight: IndexVec<RtNodeId, Option<Firing>> =
        (0..n_nodes).map(|_| None).collect::<Vec<_>>().into();
    let mut firings: IndexVec<RtNodeId, u64> = vec![0u64; n_nodes].into();
    let mut produced: IndexVec<RtSourceId, u64> = vec![0u64; graph.sources.len()].into();
    let mut overflows: IndexVec<RtSourceId, u64> = vec![0u64; graph.sources.len()].into();
    let mut consumed: IndexVec<RtSinkId, u64> = vec![0u64; n_sinks].into();
    let mut misses: IndexVec<RtSinkId, u64> = vec![0u64; n_sinks].into();
    let mut ticks: IndexVec<RtSinkId, u64> = vec![0u64; n_sinks].into();
    let mut max_latency_ps: IndexVec<RtSinkId, Picos> = vec![0; n_sinks].into();
    let mut sink_values: IndexVec<RtSinkId, Vec<f64>> = vec![Vec::new(); n_sinks].into();
    let mut now: Picos = 0;

    // Start every node that can fire at `now` (the simulator's data-driven
    // admission rule: enough values on every read, enough space on every
    // write, node not already firing; nodes scanned in id order to
    // fixpoint). The kernel runs right away; its outputs wait for the
    // firing's completion event.
    macro_rules! admit_ready_firings {
        () => {
            loop {
                let mut progressed = false;
                for ni in graph.nodes.indices() {
                    if in_flight[ni].is_some() {
                        continue;
                    }
                    let node = &graph.nodes[ni];
                    let inputs_ready = ports_satisfied(&node.reads, |b| queues[b.index()].len());
                    let outputs_ready = ports_satisfied(&node.writes, |b| {
                        declared[b.index()].saturating_sub(queues[b.index()].len())
                    });
                    if !(inputs_ready && outputs_ready) {
                        continue;
                    }
                    // Consume the inputs now (the firing occupies them for
                    // its whole response time) and track the oldest origin.
                    let mut origin = now;
                    let mut inputs = Vec::new();
                    for &(b, c) in &node.reads {
                        for token in queues[b.index()].drain(..c) {
                            origin = origin.min(token.origin);
                            inputs.push(token.value);
                        }
                    }
                    let out_len = node.writes.iter().map(|&(_, c)| c).max().unwrap_or(0);
                    let kernel = &mut kernels[ni];
                    let outputs = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        kernel.fire(&inputs, out_len)
                    }))
                    .unwrap_or_else(|payload| {
                        panic!(
                            "kernel of node `{}` panicked during a firing: {}",
                            node.name,
                            panic_message(payload)
                        )
                    });
                    in_flight[ni] = Some(Firing { origin, outputs });
                    calendar.schedule(now + response_ps[ni], RtEvent::NodeComplete(ni));
                    progressed = true;
                }
                if !progressed {
                    break;
                }
            }
        };
    }

    admit_ready_firings!();

    while let Some((time, event)) = calendar.pop() {
        if time > duration {
            break;
        }
        now = time;
        match event {
            RtEvent::SourceTick(i) => {
                let value = generators[i].next_sample();
                for &b in &graph.sources[i].outputs {
                    if declared[b.index()] > queues[b.index()].len() {
                        push_token!(b, Token { origin: now, value });
                        produced[i] += 1;
                    } else {
                        overflows[i] += 1;
                    }
                }
                calendar.schedule(now + source_period[i], RtEvent::SourceTick(i));
            }
            RtEvent::SinkTick(i) => {
                let tick_number = ticks[i];
                ticks[i] += 1;
                let b = graph.sinks[i].input.index();
                if let Some(token) = queues[b].pop_front() {
                    consumed[i] += 1;
                    max_latency_ps[i] = max_latency_ps[i].max(now.saturating_sub(token.origin));
                    if sink_values[i].len() < SINK_STREAM_CAP {
                        sink_values[i].push(token.value);
                    }
                } else if tick_number >= config.warmup_ticks {
                    misses[i] += 1;
                }
                calendar.schedule(now + sink_period[i], RtEvent::SinkTick(i));
            }
            RtEvent::NodeComplete(ni) => {
                let firing = in_flight[ni].take().expect("completion of an idle node");
                for &(b, c) in &graph.nodes[ni].writes {
                    for k in 0..c {
                        push_token!(
                            b,
                            Token {
                                origin: firing.origin,
                                value: firing.outputs.get(k).copied().unwrap_or(0.0)
                            }
                        );
                    }
                }
                firings[ni] += 1;
            }
        }
        admit_ready_firings!();
    }

    // --- Assemble the report.
    let trace = ExecutionTrace {
        buffers: if config.record_traces {
            graph
                .buffers
                .iter()
                .zip(pushes)
                .map(|(b, pushes)| BufferTrace {
                    name: b.name.clone(),
                    pushes,
                })
                .collect()
        } else {
            Vec::new()
        },
        sources: graph
            .sources
            .iter_enumerated()
            .map(|(i, s)| (s.name.clone(), produced[i], overflows[i]))
            .collect(),
        sinks: graph
            .sinks
            .iter_enumerated()
            .map(|(i, s)| (s.name.clone(), consumed[i], misses[i]))
            .collect(),
    };
    let sinks = graph
        .sinks
        .iter_enumerated()
        .zip(sink_values.into_raw())
        .map(|((i, s), values)| SinkStream {
            name: s.name.clone(),
            consumed: consumed[i],
            misses: misses[i],
            max_latency: max_latency_ps[i] as f64 / 1e12,
            values,
        })
        .collect();
    RtReport {
        trace,
        values: ValueTrace {
            buffers: if config.record_values {
                values
            } else {
                Vec::new()
            },
        },
        node_firings: graph
            .nodes
            .iter_enumerated()
            .map(|(i, n)| (n.name.clone(), firings[i]))
            .collect(),
        buffers: graph
            .buffers
            .iter()
            .zip(physical)
            .zip(max_occupancy)
            .map(|((b, physical), occupancy)| (b.name.clone(), physical, occupancy))
            .collect(),
        sinks,
        tokens: tokens_pushed,
    }
}
