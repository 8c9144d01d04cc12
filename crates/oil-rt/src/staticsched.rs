//! The compiled static-order execution engine.
//!
//! The third engine closes the loop on the paper's premise: because OIL's
//! restrictions make the multi-rate schedule *statically derivable*, the
//! expensive part of execution — deciding what fires next — happens in the
//! compiler ([`oil_compiler::schedule`]), not here. Each worker replays its
//! **periodic static-order firing list** in a loop:
//!
//! * **zero readiness scanning** — no admission checks, no level snapshots,
//!   no fireability scans: the schedule was admitted only after an exact
//!   integer replay proved that no read underflows and no buffer exceeds
//!   its CTA-sized capacity;
//! * **zero synchronisation on intra-worker edges** — a buffer whose
//!   producer and consumer live on the same worker is a plain unsynchronised
//!   deque (no atomics at all: the validated replay *is* the proof the
//!   accesses are safe), which is every buffer when the schedule has one
//!   worker;
//! * cross-worker edges are the only synchronisation: the same bounded
//!   SPSC rings as the other engines, with blocking `push_wait`/`pop_wait`
//!   — and the schedule pass minimises how many edges cross;
//! * **no quiescence protocol** — one schedule period returns every buffer
//!   to its starting level, so the engine computes up front how many
//!   iterations cover the sources' sample budgets, replays exactly that
//!   many, and stops. Termination is arithmetic, not detection.
//!
//! Modal `if`/`switch` clusters execute their **quasi-static** resolution:
//! a *uniform* cluster's schedule fires the cluster representative (the
//! lowest-id twin — the member both dynamic engines' deterministic
//! tie-breaks select at every decision), so value streams are bit-identical
//! to the self-timed engine's on every buffer. A *non-uniform* cluster
//! admitted as a modal unit carries **one schedule arm per member**: every
//! firing consumes the union of all members' inputs (union-advance — token
//! flow is mode-independent) and runs whichever member's kernel the
//! [`ModeScript`] selects for that firing, so the engine **switches modes
//! hot**, mid-stream, without draining the pipeline — the SDR "user changes
//! channels" scenario. `tests/staticsched_differential.rs` and
//! `tests/modeswitch_differential.rs` hold the engine to exactly that, plus
//! thread-count invariance and rate conformance.
//!
//! Compared to the self-timed engine the sources here run *past* their
//! budget to the end of the covering iteration (`⌈budget/q⌉` iterations per
//! component): the self-timed streams are therefore a bit-exact **prefix**
//! of this engine's streams, never the reverse.

use crate::kernel::{Kernel, KernelLibrary, SourceKernel};
use crate::measure::{
    BufferValues, RateConformance, SinkStream, SinkThroughput, ThroughputMeter, ValueTrace,
    SINK_STREAM_CAP,
};
use crate::metrics::{MetricCell, MetricsConfig, MetricsHub, MetricsReport, SinkMonitor};
use crate::ring::{self, Consumer, Producer, WaitStats};
use crate::trace::{EventKind, RingStat, TraceReport, WorkerTracer};
use oil_compiler::rtgraph::RtGraph;
use oil_compiler::schedule::{
    modal_member_access, plan_mode_sequence, FusionStats, ModeScript, StaticSchedule, UnitKind,
    WorkItem,
};
use oil_dataflow::index::Idx;
use oil_sim::Picos;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a static-order execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticConfig {
    /// Record per-buffer value streams (the verification oracle); sink
    /// streams and counters are always kept.
    pub record_values: bool,
    /// Sink samples excluded from the steady-state throughput window.
    pub warmup_samples: u64,
    /// Record per-worker trace events and ring telemetry
    /// ([`crate::trace`]). Off costs a single predictable branch per
    /// instrumentation point; recording writes only worker-local memory,
    /// so value streams are bit-identical either way.
    pub trace: bool,
    /// Run with the always-on metrics registry ([`crate::metrics`]):
    /// per-worker counter/histogram cells, windowed sink throughput and
    /// the CTA drift detector. Same overhead discipline as `trace`: off is
    /// a single predictable branch per instrumentation point, and enabling
    /// it never changes value streams.
    pub metrics: Option<MetricsConfig>,
}

impl Default for StaticConfig {
    fn default() -> Self {
        StaticConfig {
            record_values: true,
            warmup_samples: 16,
            trace: false,
            metrics: None,
        }
    }
}

/// Everything one static-order execution observed.
#[derive(Debug)]
pub struct StaticReport {
    /// Worker threads used (the schedule's worker count).
    pub threads: usize,
    /// Per-buffer value streams (when [`StaticConfig::record_values`]).
    pub values: ValueTrace,
    /// Per sink: the output sample streams.
    pub sinks: Vec<SinkStream>,
    /// Per sink: measured steady-state throughput vs the CTA-predicted
    /// rate.
    pub throughput: Vec<SinkThroughput>,
    /// Per node: (name, completed firings), in node-id order. Non-
    /// representative cluster members report 0, exactly as under the
    /// dynamic engines' deterministic tie-break; modal arms report the
    /// firings the mode script actually dispatched to them.
    pub node_firings: Vec<(String, u64)>,
    /// Per source: (name, samples generated).
    pub sources: Vec<(String, u64)>,
    /// Total tokens pushed across all buffers (including dropped commits to
    /// unread buffers), the same currency as the other engines' reports.
    pub tokens: u64,
    /// Wall-clock execution time.
    pub wall: Duration,
    /// Schedule iterations executed (the maximum over components).
    pub iterations: u64,
    /// Buffers that crossed a worker boundary (the only synchronised ones).
    pub cross_buffers: usize,
    /// What the schedule's fusion pass did (zeroes when fusion was off).
    pub fusion: FusionStats,
    /// Mode switches the modal unit executed: for union-advance schedules,
    /// firings whose scripted arm differed from the previous firing's (hot
    /// switches); for mode-dependent schedules, period boundaries where the
    /// executed mode changed. 0 for non-modal schedules and constant
    /// scripts.
    pub mode_switches: u64,
    /// Firings spent crossing mode-switch seams: modal firings whose
    /// scripted arm differed from the period's executing mode (the drain —
    /// a switch requested mid-period takes effect at the next period
    /// boundary) plus every firing of an executed drain/fill transition
    /// program. Always 0 for union-advance schedules (hot switching needs
    /// no drain) and non-modal schedules.
    pub transition_firings: u64,
    /// Per-worker event tracks, ring telemetry and compile-phase timing
    /// (`Some` iff [`StaticConfig::trace`]).
    pub trace_report: Option<TraceReport>,
    /// Merged metric cells, per-sink windows and the drift verdict
    /// (`Some` iff [`StaticConfig::metrics`]).
    pub metrics: Option<MetricsReport>,
}

impl StaticReport {
    /// The collected sample stream of a sink (matched by name fragment).
    pub fn sink_values(&self, name: &str) -> Option<&[f64]> {
        self.sinks
            .iter()
            .find(|s| s.name.contains(name))
            .map(|s| s.values.as_slice())
    }

    /// The rate-conformance verdict at `threshold` (see
    /// [`crate::measure::conformance_threshold`] for the default).
    pub fn conformance(&self, threshold: f64) -> RateConformance {
        RateConformance {
            threshold,
            sinks: self.throughput.clone(),
        }
    }
}

/// An unsynchronised bounded ring for intra-worker buffers: absolute
/// head/tail counters over a power-of-two store, no atomics, no occupancy
/// checks — the schedule validation proves every pop finds a value and
/// every push finds room within the declared capacity.
struct LocalRing {
    buf: Box<[f64]>,
    mask: usize,
    head: usize,
    tail: usize,
}

impl LocalRing {
    fn with_capacity(capacity: usize) -> Self {
        let size = capacity.max(1).next_power_of_two();
        LocalRing {
            buf: vec![0.0; size].into_boxed_slice(),
            mask: size - 1,
            head: 0,
            tail: 0,
        }
    }

    #[inline]
    fn push(&mut self, v: f64) {
        debug_assert!(self.tail - self.head < self.buf.len(), "validated level");
        self.buf[self.tail & self.mask] = v;
        self.tail += 1;
    }

    #[inline]
    fn pop(&mut self) -> f64 {
        debug_assert!(self.head < self.tail, "validated occupancy");
        let v = self.buf[self.head & self.mask];
        self.head += 1;
        v
    }

    fn push_block(&mut self, values: &[f64]) {
        debug_assert!(self.tail - self.head + values.len() <= self.buf.len());
        let at = self.tail & self.mask;
        let first = values.len().min(self.buf.len() - at);
        self.buf[at..at + first].copy_from_slice(&values[..first]);
        self.buf[..values.len() - first].copy_from_slice(&values[first..]);
        self.tail += values.len();
    }

    /// Current occupancy (for trace high-water marks only).
    #[inline]
    fn len(&self) -> usize {
        self.tail - self.head
    }

    fn pop_block(&mut self, n: usize, into: &mut Vec<f64>) {
        debug_assert!(self.tail - self.head >= n, "validated occupancy");
        let at = self.head & self.mask;
        let first = n.min(self.buf.len() - at);
        into.extend_from_slice(&self.buf[at..at + first]);
        into.extend_from_slice(&self.buf[..n - first]);
        self.head += n;
    }
}

/// One buffer endpoint as a worker sees it.
enum Slot {
    /// Not touched by this worker.
    Absent,
    /// Both endpoints on this worker: an unchecked local ring.
    Local(LocalRing),
    /// This worker produces into a cross-worker ring.
    Prod(Producer<f64>),
    /// This worker consumes from a cross-worker ring.
    Cons(Consumer<f64>),
    /// An unread buffer this worker writes: commits are recorded and
    /// dropped.
    Sunk,
}

/// Cross-firing state of one scheduling unit on its worker.
enum UnitState {
    Node {
        /// Node-id of the executed (representative) member.
        node: usize,
        kernel: Kernel,
        /// `(buffer, count)` per read port, in port order.
        reads: Vec<(usize, usize)>,
        writes: Vec<(usize, usize)>,
        /// Inputs per firing (all read ports flattened).
        in_len: usize,
        out_len: usize,
        /// Blocked execution admissible: every touched buffer is local to
        /// this worker and no buffer is both read and written. A scheduled
        /// run of `k` consecutive firings then executes as one
        /// [`Kernel::fire_block`] call over block-popped inputs — the
        /// validated schedule proves the run's tokens exist up front, so
        /// gathering them before the pushes is sound (and bit-identical:
        /// per-buffer push/pop orders are unchanged).
        block: bool,
        fired: u64,
    },
    Source {
        source: usize,
        kernel: SourceKernel,
        outputs: Vec<usize>,
        /// Blocked broadcast admissible: a single output, or every replica
        /// local (a multi-replica broadcast over a cross-worker ring keeps
        /// the per-firing interleave instead, so a replica never runs a
        /// whole block ahead of its siblings against bounded rings).
        block: bool,
        generated: u64,
    },
    Sink {
        sink: usize,
        input: usize,
        consumed: u64,
        values: Vec<f64>,
        meter: ThroughputMeter,
        /// `Some` iff metrics are on: the drift detector's windowing
        /// monitor for this sink.
        monitor: Option<SinkMonitor>,
    },
    /// A modal unit: one arm per cluster member. Under **union-advance**
    /// the script dispatches per firing: every firing pops the union of all
    /// members' reads in ascending member order (the schedule admitted
    /// exactly that token flow for every mode), feeds the active arm's
    /// slice to its kernel, and pushes the shared write list. Under a
    /// **mode-dependent** schedule the executed period's mode dispatches
    /// instead ([`fire_dependent`]): the firing pops and pushes *only* that
    /// member's access lists. Never uses the block fast path: the arm may
    /// change at any firing (or period) boundary.
    Modal {
        /// Arms ascending by member node id; `script.arm_at(fired)` picks.
        members: Vec<ModalMember>,
        /// The shared aggregated write list (identical for every member
        /// under union-advance; mode-dependent firings use the member's own
        /// [`ModalMember::writes`]).
        writes: Vec<(usize, usize)>,
        out_len: usize,
        script: ModeScript,
        /// Total modal firings (the script's clock).
        fired: u64,
        /// Union-advance: firings whose arm differed from the previous
        /// firing's. Mode-dependent: period boundaries that changed mode.
        switches: u64,
        /// Arm (or executed mode) of the previous firing (`u32::MAX` before
        /// the first).
        last_arm: u32,
        /// See [`StaticReport::transition_firings`].
        transition_firings: u64,
    },
}

/// One arm of a modal unit.
struct ModalMember {
    /// Node id of the member this arm dispatches to.
    node: usize,
    kernel: Kernel,
    /// Aggregated reads in the canonical ascending-buffer order
    /// ([`modal_member_access`]), shared with synthesis and the scripted
    /// self-timed engine so value layouts agree everywhere.
    reads: Vec<(usize, usize)>,
    /// This member's aggregated write list (mode-dependent firings push
    /// exactly this; under union-advance it equals the shared list).
    writes: Vec<(usize, usize)>,
    out_len: usize,
    fired: u64,
}

/// One step of a worker's compiled list.
struct CompiledStep {
    /// Index into the worker's unit-state table.
    unit: u32,
    /// Consecutive firings at this position.
    times: u32,
    /// Iterations of the outer loop that include this step (its
    /// component's covering iteration count).
    iters: u64,
}

/// One stage of a compiled fused run.
struct CompiledStage {
    /// Index into the worker's unit-state table.
    unit: u32,
    /// Firings per run execution (before batching).
    times: u32,
}

/// A compiled fused super-step: the chain executes as one pass over two
/// ping-pong scratch buffers. Only the head's reads and the tail's writes
/// touch real buffer slots; each link's tokens are recorded and counted
/// without ever entering a ring.
struct CompiledFused {
    stages: Vec<CompiledStage>,
    /// Buffer index per stage boundary (`stages.len() - 1` entries).
    links: Vec<usize>,
    /// Iterations of the outer loop that include this run.
    iters: u64,
    /// Consecutive iterations executed back to back when the outer loop
    /// reaches a multiple of this (1 = no batching). Only whole-component
    /// runs batch — their links are scratch and they share no buffer with
    /// any other work item, so concatenating periods is reorder-safe and
    /// hands the block kernels real block sizes.
    batch: u64,
}

/// One item of a worker's compiled list.
enum CompiledWork {
    Step(CompiledStep),
    Fused(CompiledFused),
}

/// Target tokens per stage per batched run execution: enough to amortise
/// the per-call overhead and fill the SIMD kernels without growing the
/// scratch buffers past cache-friendly sizes.
const FUSED_BATCH_TOKENS: u64 = 4096;
/// Batching cap (iterations concatenated per run execution).
const FUSED_BATCH_MAX: u64 = 64;

/// The buffer plumbing of one worker: endpoint slots plus producer-side
/// recording. Split from the unit table so a unit's state and the buffer
/// I/O can be borrowed mutably at the same time.
struct BufIo {
    slots: Vec<Slot>,
    recorders: Vec<Option<BufferValues>>,
    record_values: bool,
    tokens: u64,
    /// `Some` iff [`StaticConfig::trace`]: worker-local event buffer plus
    /// ring high-water marks. Disjoint from `slots`, so wait observation
    /// and level notes borrow alongside the ring endpoints.
    trace: Option<WorkerTracer>,
    /// `Some` iff [`StaticConfig::metrics`]: the shared hub plus this
    /// worker's identity, for attributing blocked waits and work-item
    /// durations to the worker's metric cell.
    metrics: Option<MetricsIo>,
}

/// One worker's handle on the metrics registry.
struct MetricsIo {
    hub: Arc<MetricsHub>,
    worker: usize,
    /// Wait accounting for the metrics-only case; when tracing too, the
    /// tracer's own stats are the observation point instead (one counter,
    /// never double-counted).
    wait: WaitStats,
}

impl MetricsIo {
    #[inline]
    fn cell(&self) -> &MetricCell {
        self.hub.cell(self.worker)
    }
}

/// Cumulative observed blocked-wait ns so far: the tracer's stats when
/// tracing, else the metrics-side stats, else 0 (nothing observes waits).
#[inline]
fn blocked_ns(trace: &Option<WorkerTracer>, metrics: &Option<MetricsIo>) -> u64 {
    match (trace, metrics) {
        (Some(t), _) => t.wait.wait_ns,
        (None, Some(m)) => m.wait.wait_ns,
        (None, None) => 0,
    }
}

/// The wait-stats observation point for a blocking ring call (`None` when
/// neither tracing nor metering — the ring skips timing entirely).
#[inline]
fn wait_stats<'a>(
    trace: &'a mut Option<WorkerTracer>,
    metrics: &'a mut Option<MetricsIo>,
) -> Option<&'a mut WaitStats> {
    match (trace.as_mut(), metrics.as_mut()) {
        (Some(t), _) => Some(&mut t.wait),
        (None, Some(m)) => Some(&mut m.wait),
        (None, None) => None,
    }
}

/// Attribute a completed observed wait (its duration = observed ns now
/// minus `before`) to the trace backpressure track and the metric cell.
#[inline]
fn observe_wait(
    trace: &mut Option<WorkerTracer>,
    metrics: &Option<MetricsIo>,
    b: usize,
    before: u64,
) {
    let dur = blocked_ns(&*trace, metrics) - before;
    if dur == 0 {
        return;
    }
    if let Some(t) = trace.as_mut() {
        t.backpressure(b as u32, dur);
    }
    if let Some(m) = metrics {
        m.cell().record_backpressure(dur);
    }
}

/// Timestamp origin for a work item — `Some` when any instrumentation is
/// on (the tracer's clock when tracing, so span and histogram agree).
#[inline]
fn work_t0(io: &BufIo) -> Option<u64> {
    match (&io.trace, &io.metrics) {
        (Some(t), _) => Some(t.now_ns()),
        (None, Some(m)) => Some(m.hub.now_ns()),
        (None, None) => None,
    }
}

/// Close a work item opened at `start`: a trace span when tracing, a
/// firing-histogram sample in the worker's metric cell when metering.
#[inline]
fn note_work(io: &mut BufIo, kind: EventKind, unit: u32, start: u64) {
    if let Some(m) = io.metrics.as_ref() {
        let now = match io.trace.as_ref() {
            Some(t) => t.now_ns(),
            None => m.hub.now_ns(),
        };
        m.cell().record_firing(now.saturating_sub(start));
    }
    if let Some(t) = io.trace.as_mut() {
        t.span(kind, unit, start);
    }
}

impl BufIo {
    #[inline]
    fn pop(&mut self, b: usize, abort: &AtomicBool) -> f64 {
        match &mut self.slots[b] {
            Slot::Local(q) => q.pop(),
            Slot::Cons(rx) => {
                if self.trace.is_none() && self.metrics.is_none() {
                    rx.pop_wait(|| abort.load(Ordering::Relaxed))
                        .expect("peer worker aborted mid-schedule")
                } else {
                    let before = blocked_ns(&self.trace, &self.metrics);
                    let v = rx
                        .pop_wait_observed(
                            || abort.load(Ordering::Relaxed),
                            wait_stats(&mut self.trace, &mut self.metrics),
                        )
                        .expect("peer worker aborted mid-schedule");
                    observe_wait(&mut self.trace, &self.metrics, b, before);
                    v
                }
            }
            _ => unreachable!("read from a buffer this worker does not consume"),
        }
    }

    #[inline]
    fn push(&mut self, b: usize, value: f64, abort: &AtomicBool) {
        if self.record_values {
            if let Some(r) = self.recorders[b].as_mut() {
                r.record(value);
            }
        }
        self.tokens += 1;
        match &mut self.slots[b] {
            Slot::Local(q) => {
                q.push(value);
                if let Some(t) = self.trace.as_mut() {
                    t.note_level(b, q.len());
                }
            }
            Slot::Prod(tx) => {
                if self.trace.is_none() && self.metrics.is_none() {
                    if tx
                        .push_wait(value, || abort.load(Ordering::Relaxed))
                        .is_err()
                    {
                        panic!("peer worker aborted mid-schedule");
                    }
                } else {
                    let before = blocked_ns(&self.trace, &self.metrics);
                    if tx
                        .push_wait_observed(
                            value,
                            || abort.load(Ordering::Relaxed),
                            wait_stats(&mut self.trace, &mut self.metrics),
                        )
                        .is_err()
                    {
                        panic!("peer worker aborted mid-schedule");
                    }
                    observe_wait(&mut self.trace, &self.metrics, b, before);
                    if let Some(t) = self.trace.as_mut() {
                        // Post-push occupancy: the consumer may already have
                        // drained, so this never over-reports.
                        t.note_level(b, tx.len());
                    }
                }
            }
            Slot::Sunk => {}
            _ => unreachable!("write to a buffer this worker does not produce"),
        }
    }

    /// Pop `n` values into `scratch` (same per-buffer order as `n` single
    /// pops).
    fn pop_block(&mut self, b: usize, n: usize, scratch: &mut Vec<f64>, abort: &AtomicBool) {
        match &mut self.slots[b] {
            Slot::Local(q) => q.pop_block(n, scratch),
            Slot::Cons(rx) => {
                let before = blocked_ns(&self.trace, &self.metrics);
                for _ in 0..n {
                    let stats = wait_stats(&mut self.trace, &mut self.metrics);
                    scratch.push(
                        rx.pop_wait_observed(|| abort.load(Ordering::Relaxed), stats)
                            .expect("peer worker aborted mid-schedule"),
                    );
                }
                observe_wait(&mut self.trace, &self.metrics, b, before);
            }
            _ => unreachable!("read from a buffer this worker does not consume"),
        }
    }

    /// Commit a fused link's tokens *without* ring traffic: the values are
    /// recorded and counted exactly as a push would, but they stay in the
    /// caller's scratch — the consumer stage reads them from there. The
    /// per-buffer value stream is unchanged because the link held no
    /// standing tokens and its producer's firing order is preserved.
    fn commit_elided(&mut self, b: usize, values: &[f64]) {
        if self.record_values {
            if let Some(r) = self.recorders[b].as_mut() {
                for &v in values {
                    r.record(v);
                }
            }
        }
        self.tokens += values.len() as u64;
    }

    /// Push a block of values (same per-buffer order as single pushes).
    fn push_block(&mut self, b: usize, values: &[f64], abort: &AtomicBool) {
        if self.record_values {
            if let Some(r) = self.recorders[b].as_mut() {
                for &v in values {
                    r.record(v);
                }
            }
        }
        self.tokens += values.len() as u64;
        match &mut self.slots[b] {
            Slot::Local(q) => {
                q.push_block(values);
                if let Some(t) = self.trace.as_mut() {
                    t.note_level(b, q.len());
                }
            }
            Slot::Prod(tx) => {
                let before = blocked_ns(&self.trace, &self.metrics);
                for &v in values {
                    let stats = wait_stats(&mut self.trace, &mut self.metrics);
                    if tx
                        .push_wait_observed(v, || abort.load(Ordering::Relaxed), stats)
                        .is_err()
                    {
                        panic!("peer worker aborted mid-schedule");
                    }
                }
                observe_wait(&mut self.trace, &self.metrics, b, before);
                if let Some(t) = self.trace.as_mut() {
                    t.note_level(b, tx.len());
                }
            }
            Slot::Sunk => {}
            _ => unreachable!("write to a buffer this worker does not produce"),
        }
    }
}

/// This worker's share of a mode-dependent replay: instead of looping one
/// period list, the worker walks the resolved [`ModePlan`]'s mode sequence
/// — for each executed period it replays its projection of that mode's
/// firing list, running its projection of the drain/fill transition
/// program at every mode boundary.
///
/// [`ModePlan`]: oil_compiler::schedule::ModePlan
struct DepWork {
    /// The plan's per-period modes, shared by every worker.
    mode_seq: Arc<Vec<u32>>,
    /// Per mode: this worker's firing list as `(local unit, times)`.
    periods: Vec<Vec<(u32, u32)>>,
    /// Per ordered `(from, to)` pair (row-major): this worker's projection
    /// of the transition program.
    transitions: Vec<Vec<(u32, u32)>>,
}

/// Everything one worker owns for the run.
struct Worker {
    steps: Vec<CompiledWork>,
    units: Vec<UnitState>,
    io: BufIo,
    max_iters: u64,
    /// `Some` switches the worker to the mode-dependent replay loop.
    dep: Option<DepWork>,
    scratch: Vec<f64>,
    /// Reused output buffer for blocked kernel calls; doubles as the second
    /// ping-pong scratch of fused runs.
    out_buf: Vec<f64>,
}

/// What one worker hands back.
struct WorkerOut {
    units: Vec<UnitState>,
    recorders: Vec<Option<BufferValues>>,
    tokens: u64,
    trace: Option<WorkerTracer>,
}

impl Worker {
    fn run(mut self, abort: &AtomicBool) -> WorkerOut {
        if self.dep.is_some() {
            return self.run_dependent(abort);
        }
        let io = &mut self.io;
        let scratch = &mut self.scratch;
        let out_buf = &mut self.out_buf;
        for it in 0..self.max_iters {
            for work in &self.steps {
                let step = match work {
                    CompiledWork::Step(step) => step,
                    CompiledWork::Fused(f) => {
                        if it >= f.iters || (f.batch > 1 && !it.is_multiple_of(f.batch)) {
                            continue;
                        }
                        let reps = if f.batch > 1 {
                            f.batch.min(f.iters - it) as usize
                        } else {
                            1
                        };
                        let t0 = work_t0(io);
                        run_fused(f, reps, &mut self.units, io, scratch, out_buf, abort);
                        if let Some(start) = t0 {
                            note_work(io, EventKind::SuperStep, f.stages[0].unit, start);
                        }
                        continue;
                    }
                };
                if it >= step.iters {
                    continue;
                }
                let t0 = work_t0(io);
                match &mut self.units[step.unit as usize] {
                    UnitState::Node {
                        kernel,
                        reads,
                        writes,
                        in_len,
                        out_len,
                        block,
                        fired,
                        ..
                    } => {
                        let times = step.times as usize;
                        if *block {
                            // One kernel call for the whole scheduled run:
                            // gather every firing's inputs (the schedule
                            // proved they exist), fire the block, scatter.
                            scratch.clear();
                            if let [(b, c)] = reads[..] {
                                io.pop_block(b, times * c, scratch, abort);
                            } else {
                                for _ in 0..times {
                                    for &(b, c) in reads.iter() {
                                        for _ in 0..c {
                                            scratch.push(io.pop(b, abort));
                                        }
                                    }
                                }
                            }
                            out_buf.clear();
                            kernel.fire_block_into(scratch, times, *in_len, *out_len, out_buf);
                            if let [(b, c)] = writes[..] {
                                debug_assert_eq!(c, *out_len);
                                io.push_block(b, out_buf, abort);
                            } else {
                                for j in 0..times {
                                    for &(b, c) in writes.iter() {
                                        for k in 0..c {
                                            let v = out_buf.get(j * *out_len + k).copied();
                                            io.push(b, v.unwrap_or(0.0), abort);
                                        }
                                    }
                                }
                            }
                        } else {
                            for _ in 0..times {
                                scratch.clear();
                                for &(b, c) in reads.iter() {
                                    for _ in 0..c {
                                        scratch.push(io.pop(b, abort));
                                    }
                                }
                                let out = kernel.fire(scratch, *out_len);
                                for &(b, c) in writes.iter() {
                                    for k in 0..c {
                                        io.push(b, out.get(k).copied().unwrap_or(0.0), abort);
                                    }
                                }
                            }
                        }
                        *fired += step.times as u64;
                    }
                    UnitState::Source {
                        kernel,
                        outputs,
                        block,
                        generated,
                        ..
                    } => {
                        if *block {
                            scratch.clear();
                            kernel.fill_into(step.times as usize, scratch);
                            for &b in outputs.iter() {
                                io.push_block(b, scratch, abort);
                            }
                        } else {
                            for _ in 0..step.times {
                                let v = kernel.next_sample();
                                for &b in outputs.iter() {
                                    io.push(b, v, abort);
                                }
                            }
                        }
                        *generated += step.times as u64;
                    }
                    UnitState::Sink {
                        input,
                        consumed,
                        values,
                        meter,
                        monitor,
                        ..
                    } => {
                        for _ in 0..step.times {
                            let v = io.pop(*input, abort);
                            *consumed += 1;
                            meter.record();
                            if let Some(m) = monitor.as_mut() {
                                m.record();
                            }
                            if values.len() < SINK_STREAM_CAP {
                                values.push(v);
                            }
                        }
                        if let Some(m) = io.metrics.as_ref() {
                            m.cell().record_sink(step.times as u64);
                        }
                    }
                    UnitState::Modal {
                        members,
                        writes,
                        out_len,
                        script,
                        fired,
                        switches,
                        last_arm,
                        // Union-advance switches hot: no drain/fill, so no
                        // firing ever belongs to a transition.
                        transition_firings: _,
                    } => {
                        for _ in 0..step.times {
                            let arm = script.arm_at(*fired).min(members.len() as u32 - 1);
                            if *last_arm != u32::MAX && arm != *last_arm {
                                *switches += 1;
                                if let Some(t) = io.trace.as_mut() {
                                    t.instant(EventKind::ModeSwitch, arm);
                                }
                            }
                            *last_arm = arm;
                            // Union-advance: pop every member's inputs in
                            // ascending member order; the active arm's
                            // slice feeds its kernel, the rest is
                            // mode-gated traffic consumed and discarded.
                            scratch.clear();
                            let (mut start, mut len) = (0usize, 0usize);
                            for (k, m) in members.iter().enumerate() {
                                if k as u32 == arm {
                                    start = scratch.len();
                                }
                                for &(b, c) in &m.reads {
                                    for _ in 0..c {
                                        scratch.push(io.pop(b, abort));
                                    }
                                }
                                if k as u32 == arm {
                                    len = scratch.len() - start;
                                }
                            }
                            let active = &mut members[arm as usize];
                            let out = active.kernel.fire(&scratch[start..start + len], *out_len);
                            for &(b, c) in writes.iter() {
                                for k in 0..c {
                                    io.push(b, out.get(k).copied().unwrap_or(0.0), abort);
                                }
                            }
                            active.fired += 1;
                            *fired += 1;
                        }
                    }
                }
                if let Some(start) = t0 {
                    note_work(io, EventKind::Firing, step.unit, start);
                }
            }
        }
        WorkerOut {
            units: self.units,
            recorders: self.io.recorders,
            tokens: self.io.tokens,
            trace: self.io.trace,
        }
    }

    /// The mode-dependent replay: walk the plan's mode sequence, replaying
    /// this worker's projection of each period's firing list — with the
    /// drain/fill transition program at every mode boundary. Every worker
    /// walks the same sequence, so cross-worker rings line up exactly as in
    /// the validated global order.
    fn run_dependent(mut self, abort: &AtomicBool) -> WorkerOut {
        let dep = self.dep.take().expect("dependent work");
        let io = &mut self.io;
        let scratch = &mut self.scratch;
        let n_modes = dep.periods.len();
        let mut prev: Option<u32> = None;
        for &m in dep.mode_seq.iter() {
            if let Some(p) = prev {
                if p != m {
                    // The seam span covers this worker's whole drain/fill
                    // projection; its arg packs the (from, to) mode pair.
                    let t0 = io.trace.as_ref().map(|t| t.now_ns());
                    for &(u, times) in &dep.transitions[p as usize * n_modes + m as usize] {
                        fire_dependent(&mut self.units, io, scratch, u, times, m, true, abort);
                    }
                    if let Some(start) = t0 {
                        let t = io.trace.as_mut().expect("tracer outlives the run");
                        t.span(EventKind::Seam, (p << 16) | m, start);
                        t.instant(EventKind::ModeSwitch, m);
                    }
                }
            }
            for &(u, times) in &dep.periods[m as usize] {
                let t0 = io.trace.as_ref().map(|t| t.now_ns());
                fire_dependent(&mut self.units, io, scratch, u, times, m, false, abort);
                if let Some(start) = t0 {
                    let t = io.trace.as_mut().expect("tracer outlives the run");
                    t.span(EventKind::Firing, u, start);
                }
            }
            prev = Some(m);
        }
        WorkerOut {
            units: self.units,
            recorders: self.io.recorders,
            tokens: self.io.tokens,
            trace: self.io.trace,
        }
    }
}

/// Fire one unit `times` times inside a mode-dependent replay, with `mode`
/// the executed period's mode (a transition-program firing carries the
/// *incoming* mode). The modal unit dispatches the mode's member and moves
/// only that member's access lists; a firing counts toward
/// [`StaticReport::transition_firings`] when it belongs to a transition
/// program or the script has already requested a different arm (the drain
/// tail of the old period — a mid-period switch point takes effect at the
/// next period boundary).
#[allow(clippy::too_many_arguments)]
fn fire_dependent(
    units: &mut [UnitState],
    io: &mut BufIo,
    scratch: &mut Vec<f64>,
    unit: u32,
    times: u32,
    mode: u32,
    in_transition: bool,
    abort: &AtomicBool,
) {
    match &mut units[unit as usize] {
        UnitState::Node {
            kernel,
            reads,
            writes,
            out_len,
            fired,
            ..
        } => {
            for _ in 0..times {
                scratch.clear();
                for &(b, c) in reads.iter() {
                    for _ in 0..c {
                        scratch.push(io.pop(b, abort));
                    }
                }
                let out = kernel.fire(scratch, *out_len);
                for &(b, c) in writes.iter() {
                    for k in 0..c {
                        io.push(b, out.get(k).copied().unwrap_or(0.0), abort);
                    }
                }
            }
            *fired += times as u64;
        }
        UnitState::Source {
            kernel,
            outputs,
            generated,
            ..
        } => {
            for _ in 0..times {
                let v = kernel.next_sample();
                for &b in outputs.iter() {
                    io.push(b, v, abort);
                }
            }
            *generated += times as u64;
        }
        UnitState::Sink {
            input,
            consumed,
            values,
            meter,
            monitor,
            ..
        } => {
            for _ in 0..times {
                let v = io.pop(*input, abort);
                *consumed += 1;
                meter.record();
                if let Some(m) = monitor.as_mut() {
                    m.record();
                }
                if values.len() < SINK_STREAM_CAP {
                    values.push(v);
                }
            }
            if let Some(m) = io.metrics.as_ref() {
                m.cell().record_sink(times as u64);
            }
        }
        UnitState::Modal {
            members,
            script,
            fired,
            switches,
            last_arm,
            transition_firings,
            ..
        } => {
            let arms = members.len() as u32;
            for _ in 0..times {
                if *last_arm != u32::MAX && mode != *last_arm {
                    *switches += 1;
                }
                *last_arm = mode;
                if in_transition || script.arm_at(*fired).min(arms - 1) != mode {
                    *transition_firings += 1;
                }
                let active = &mut members[mode as usize];
                scratch.clear();
                for &(b, c) in &active.reads {
                    for _ in 0..c {
                        scratch.push(io.pop(b, abort));
                    }
                }
                let out = active.kernel.fire(scratch, active.out_len);
                for &(b, c) in &active.writes {
                    for k in 0..c {
                        io.push(b, out.get(k).copied().unwrap_or(0.0), abort);
                    }
                }
                active.fired += 1;
                *fired += 1;
            }
        }
    }
}

/// Execute one fused super-step (`reps` concatenated iterations of it) as a
/// single pass over two ping-pong scratch buffers.
///
/// Stage `i + 1` consumes exactly the slice stage `i` produced: the link
/// tokens are recorded and counted ([`BufIo::commit_elided`]) but never
/// enter a ring and never allocate. Only the head's reads (the schedule
/// proved the tokens exist up front) and the tail's writes touch real
/// buffer slots — per-buffer push/pop orders, and therefore every value
/// stream, are bit-identical to the unfused replay.
#[allow(clippy::too_many_arguments)]
fn run_fused(
    f: &CompiledFused,
    reps: usize,
    units: &mut [UnitState],
    io: &mut BufIo,
    scratch: &mut Vec<f64>,
    out_buf: &mut Vec<f64>,
    abort: &AtomicBool,
) {
    let last = f.stages.len() - 1;
    let mut cur: &mut Vec<f64> = scratch;
    let mut nxt: &mut Vec<f64> = out_buf;
    for (si, stage) in f.stages.iter().enumerate() {
        let times = stage.times as usize * reps;
        match &mut units[stage.unit as usize] {
            UnitState::Source {
                kernel,
                outputs,
                generated,
                ..
            } => {
                debug_assert!(si == 0, "a source can only head a fused run");
                debug_assert_eq!(outputs.len(), 1, "fused heads have a single write");
                nxt.clear();
                kernel.fill_into(times, nxt);
                *generated += times as u64;
            }
            UnitState::Node {
                kernel,
                reads,
                writes,
                in_len,
                out_len,
                fired,
                ..
            } => {
                if si == 0 {
                    // Gather the head's inputs from its real buffers.
                    cur.clear();
                    if let [(b, c)] = reads[..] {
                        io.pop_block(b, times * c, cur, abort);
                    } else {
                        for _ in 0..times {
                            for &(b, c) in reads.iter() {
                                for _ in 0..c {
                                    cur.push(io.pop(b, abort));
                                }
                            }
                        }
                    }
                }
                nxt.clear();
                kernel.fire_block_into(cur, times, *in_len, *out_len, nxt);
                *fired += times as u64;
                if si == last {
                    // Scatter the tail's outputs to its real buffers.
                    if let [(b, c)] = writes[..] {
                        debug_assert_eq!(c, *out_len);
                        io.push_block(b, nxt, abort);
                    } else {
                        for j in 0..times {
                            for &(b, c) in writes.iter() {
                                for k in 0..c {
                                    let v = nxt.get(j * *out_len + k).copied();
                                    io.push(b, v.unwrap_or(0.0), abort);
                                }
                            }
                        }
                    }
                }
            }
            UnitState::Modal { .. } => {
                unreachable!("modal units are excluded from fusion at synthesis")
            }
            UnitState::Sink {
                consumed,
                values,
                meter,
                monitor,
                ..
            } => {
                debug_assert!(si == last && si > 0, "a sink can only tail a fused run");
                debug_assert_eq!(cur.len(), times, "the link carried the sink's reads");
                *consumed += cur.len() as u64;
                meter.record_block(cur.len() as u64);
                if let Some(m) = monitor.as_mut() {
                    m.record_block(cur.len() as u64);
                }
                if let Some(m) = io.metrics.as_ref() {
                    m.cell().record_sink(cur.len() as u64);
                }
                if values.len() < SINK_STREAM_CAP {
                    let take = (SINK_STREAM_CAP - values.len()).min(cur.len());
                    values.extend_from_slice(&cur[..take]);
                }
            }
        }
        if si != last {
            io.commit_elided(f.links[si], nxt);
            std::mem::swap(&mut cur, &mut nxt);
        }
    }
}

/// Execute `graph` by replaying the synthesised static-order `schedule`:
/// each source covers at least the sample budget of `duration` picoseconds
/// of virtual time (the count the simulator would emit, rounded up to whole
/// schedule iterations), and the engine returns once every worker has
/// replayed its covering iterations.
///
/// # Panics
/// Panics if `schedule` was synthesised for a different graph, or if a
/// kernel panics on a worker (the abort flag unblocks the peers, then the
/// panic propagates).
///
/// Modal schedules run the default [`ModeScript`] (arm 0 forever); use
/// [`execute_staticsched_scripted`] to inject mode changes.
pub fn execute_staticsched(
    graph: &RtGraph,
    schedule: &StaticSchedule,
    lib: &KernelLibrary,
    duration: Picos,
    config: &StaticConfig,
) -> StaticReport {
    execute_staticsched_scripted(
        graph,
        schedule,
        &ModeScript::default(),
        lib,
        duration,
        config,
    )
}

/// [`execute_staticsched`] with a scripted mode-change sequence.
///
/// For a **union-advance** schedule the modal unit (if any) consults
/// `script` at every firing and dispatches that arm's kernel — switching
/// **without draining the pipeline**, because the schedule's token flow is
/// mode-independent and every (mode, mode') seam was re-proven by exact
/// replay at synthesis ([`StaticSchedule::validate_transitions`]).
///
/// For a **mode-dependent** schedule the script is first resolved into a
/// [`ModePlan`](oil_compiler::schedule::ModePlan): each executed period
/// runs one mode's verified firing list, a requested switch takes effect
/// at the next period boundary (the old period's trailing firings are the
/// *drain*, reported as [`StaticReport::transition_firings`]), and the
/// compiler-derived drain/fill transition program runs at every boundary.
///
/// Non-modal schedules ignore the script.
///
/// # Panics
/// Panics (loudly, before executing anything) when the script selects an
/// arm the schedule does not have.
pub fn execute_staticsched_scripted(
    graph: &RtGraph,
    schedule: &StaticSchedule,
    script: &ModeScript,
    lib: &KernelLibrary,
    duration: Picos,
    config: &StaticConfig,
) -> StaticReport {
    assert_eq!(
        schedule.producer_unit.len(),
        graph.buffers.len(),
        "schedule/graph mismatch"
    );
    if let Some(modes) = schedule.modes.as_ref() {
        script
            .validate(modes)
            .unwrap_or_else(|e| panic!("invalid mode script: {e}"));
    }
    let started = Instant::now();
    let threads = schedule.worker_count();
    let n_buffers = graph.buffers.len();
    // The metrics hub outlives the workers: sinks register monitors before
    // the run, the snapshot is taken after every worker joined.
    let hub: Option<Arc<MetricsHub>> = config
        .metrics
        .map(|m| MetricsHub::new("staticsched", threads, m));

    // --- Source budgets (the simulator's horizon count) and the covering
    // iteration count per component.
    let budgets: Vec<u64> = graph
        .sources
        .iter()
        .map(|s| {
            let period_ps = oil_sim::time::picos_nearest(s.period)
                .unwrap_or_else(|e| panic!("period of `{}`: {e}", s.name));
            duration.checked_div(period_ps).unwrap_or(0)
        })
        .collect();
    // A mode-dependent schedule replays the resolved mode plan instead of
    // a fixed covering-iteration count per component.
    let dependent = schedule.modes.as_ref().and_then(|m| m.dependent.as_ref());
    let plan = dependent.map(|dep| {
        let rates = dep.rates(&schedule.units, graph);
        plan_mode_sequence(&rates, script, |id| budgets[id.index()])
    });
    let mode_seq: Option<Arc<Vec<u32>>> = plan.as_ref().map(|p| Arc::new(p.mode_seq.clone()));
    let component_iters = if plan.is_none() {
        schedule.covering_iterations(graph, |id| budgets[id.index()])
    } else {
        Vec::new()
    };
    let iterations = plan
        .as_ref()
        .map(|p| p.mode_seq.len() as u64)
        .unwrap_or_else(|| component_iters.iter().copied().max().unwrap_or(0));

    // --- Per-buffer placement: the worker of each endpoint decides the
    // backing (local deque, cross-worker ring, or record-and-drop).
    let unit_worker = |u: Option<u32>| u.map(|u| schedule.units[u as usize].worker);
    let declared: Vec<usize> = graph
        .buffers
        .iter()
        .map(|b| b.capacity.max(b.initial_tokens).max(1))
        .collect();
    let mut worker_slots: Vec<Vec<Slot>> = (0..threads)
        .map(|_| (0..n_buffers).map(|_| Slot::Absent).collect())
        .collect();
    let mut recorders: Vec<Option<BufferValues>> = Vec::with_capacity(n_buffers);
    let mut setup_tokens = 0u64;
    for (i, b) in graph.buffers.iter().enumerate() {
        let mut recorder = BufferValues {
            name: b.name.clone(),
            ..Default::default()
        };
        for _ in 0..b.initial_tokens {
            recorder.record(0.0);
            setup_tokens += 1;
        }
        let bi = oil_compiler::rtgraph::RtBufferId::new(i);
        let pw = unit_worker(schedule.producer_unit[bi]);
        let cw = unit_worker(schedule.consumer_unit[bi]);
        match (pw, cw) {
            (Some(p), None) => {
                // Unread: record-and-drop on the producer's worker.
                worker_slots[p][i] = Slot::Sunk;
            }
            (Some(p), Some(c)) if p == c => {
                // Fusion may push tokens into a local buffer earlier than
                // the unfused order did; the schedule's fused replay bound
                // (floored at the declared capacity) sizes the ring.
                let cap = declared[i].max(schedule.local_level_max[bi] as usize);
                let mut q = LocalRing::with_capacity(cap);
                for _ in 0..b.initial_tokens {
                    q.push(0.0);
                }
                worker_slots[p][i] = Slot::Local(q);
            }
            (Some(p), Some(c)) => {
                let (mut tx, rx) = ring::spsc::<f64>(declared[i]);
                for _ in 0..b.initial_tokens {
                    tx.push(0.0).expect("initial tokens fit the capacity");
                }
                worker_slots[p][i] = Slot::Prod(tx);
                worker_slots[c][i] = Slot::Cons(rx);
            }
            (None, Some(c)) => {
                // Only initial tokens ever occupy it (validation bounds the
                // consumer's reads to those).
                let mut q = LocalRing::with_capacity(declared[i]);
                for _ in 0..b.initial_tokens {
                    q.push(0.0);
                }
                worker_slots[c][i] = Slot::Local(q);
            }
            (None, None) => {}
        }
        recorders.push(Some(recorder));
    }

    // --- Compile each worker's unit table and step list.
    let mut workers: Vec<Worker> = Vec::with_capacity(threads);
    // unit id -> (worker, local index)
    let mut unit_home: Vec<(usize, u32)> = vec![(0, 0); schedule.units.len()];
    let mut worker_units: Vec<Vec<UnitState>> = (0..threads).map(|_| Vec::new()).collect();
    // Per worker, the display label of each local unit (trace attribution).
    let mut worker_labels: Vec<Vec<String>> = (0..threads).map(|_| Vec::new()).collect();
    for (u, unit) in schedule.units.iter().enumerate() {
        let w = unit.worker;
        if config.trace {
            worker_labels[w].push(match &unit.kind {
                UnitKind::Node(id) => graph.nodes[*id].name.clone(),
                UnitKind::Cluster {
                    representative,
                    members,
                } => format!(
                    "{}(+{})",
                    graph.nodes[*representative].name,
                    members.len().saturating_sub(1)
                ),
                UnitKind::Source(id) => graph.sources[*id].name.clone(),
                UnitKind::Sink(id) => graph.sinks[*id].name.clone(),
                UnitKind::Modal { members } => {
                    let names: Vec<&str> = members
                        .iter()
                        .map(|&m| graph.nodes[m].name.as_str())
                        .collect();
                    format!("modal[{}]", names.join("|"))
                }
            });
        }
        // A buffer endpoint is "free of peers" when the worker's view of it
        // never blocks: a local deque, or a dropped unread buffer.
        let unblocked = |b: usize| matches!(worker_slots[w][b], Slot::Local(_) | Slot::Sunk);
        let state = match &unit.kind {
            UnitKind::Node(id)
            | UnitKind::Cluster {
                representative: id, ..
            } => {
                let n = &graph.nodes[*id];
                let reads: Vec<(usize, usize)> =
                    n.reads.iter().map(|&(b, c)| (b.index(), c)).collect();
                let writes: Vec<(usize, usize)> =
                    n.writes.iter().map(|&(b, c)| (b.index(), c)).collect();
                let disjoint = reads
                    .iter()
                    .all(|&(b, _)| writes.iter().all(|&(wb, _)| wb != b));
                let block = disjoint
                    && reads.iter().all(|&(b, _)| unblocked(b))
                    && writes.iter().all(|&(b, _)| unblocked(b));
                UnitState::Node {
                    node: id.index(),
                    kernel: lib.instantiate(&n.function),
                    in_len: reads.iter().map(|&(_, c)| c).sum(),
                    out_len: writes.iter().map(|&(_, c)| c).max().unwrap_or(0),
                    reads,
                    writes,
                    block,
                    fired: 0,
                }
            }
            UnitKind::Source(id) => {
                let s = &graph.sources[*id];
                let outputs: Vec<usize> = s.outputs.iter().map(|b| b.index()).collect();
                let block = outputs.len() == 1 || outputs.iter().all(|&b| unblocked(b));
                UnitState::Source {
                    source: id.index(),
                    kernel: lib.instantiate_source(&s.function),
                    outputs,
                    block,
                    generated: 0,
                }
            }
            UnitKind::Sink(id) => {
                let s = &graph.sinks[*id];
                UnitState::Sink {
                    sink: id.index(),
                    input: s.input.index(),
                    consumed: 0,
                    values: Vec::new(),
                    meter: ThroughputMeter::new(config.warmup_samples),
                    monitor: hub
                        .as_ref()
                        .map(|h| h.sink_monitor(s.name.clone(), s.period.recip().to_f64())),
                }
            }
            UnitKind::Modal { members } => {
                let arms: Vec<ModalMember> = members
                    .iter()
                    .map(|&m| {
                        let (reads, member_writes) = modal_member_access(graph, m);
                        let member_writes: Vec<(usize, usize)> = member_writes
                            .into_iter()
                            .map(|(b, c)| (b.index(), c))
                            .collect();
                        ModalMember {
                            node: m.index(),
                            kernel: lib.instantiate(&graph.nodes[m].function),
                            reads: reads.into_iter().map(|(b, c)| (b.index(), c)).collect(),
                            out_len: member_writes.iter().map(|&(_, c)| c).max().unwrap_or(0),
                            writes: member_writes,
                            fired: 0,
                        }
                    })
                    .collect();
                let (_, writes) = modal_member_access(graph, members[0]);
                let writes: Vec<(usize, usize)> =
                    writes.into_iter().map(|(b, c)| (b.index(), c)).collect();
                UnitState::Modal {
                    out_len: writes.iter().map(|&(_, c)| c).max().unwrap_or(0),
                    members: arms,
                    writes,
                    script: script.clone(),
                    fired: 0,
                    switches: 0,
                    last_arm: u32::MAX,
                    transition_firings: 0,
                }
            }
        };
        unit_home[u] = (w, worker_units[w].len() as u32);
        worker_units[w].push(state);
    }
    for (w, (units, mut slots)) in worker_units
        .into_iter()
        .zip(std::mem::take(&mut worker_slots))
        .enumerate()
    {
        // Hand each producer-side recorder to its worker.
        let mut recs: Vec<Option<BufferValues>> = (0..n_buffers).map(|_| None).collect();
        for (i, slot) in slots.iter_mut().enumerate() {
            let produces = matches!(slot, Slot::Local(_) | Slot::Prod(_) | Slot::Sunk);
            let bi = oil_compiler::rtgraph::RtBufferId::new(i);
            let is_producer = unit_worker(schedule.producer_unit[bi]) == Some(w);
            if produces && is_producer {
                recs[i] = recorders[i].take();
            }
        }
        // Tokens one stage moves per run execution: sizes the batching so
        // scratch stays cache-friendly.
        let stage_tokens = |s: &oil_compiler::schedule::Step| -> u64 {
            let width = match &units[unit_home[s.unit as usize].1 as usize] {
                UnitState::Node {
                    in_len, out_len, ..
                } => (*in_len).max(*out_len).max(1),
                UnitState::Source { .. } | UnitState::Sink { .. } => 1,
                // Modal units never fuse, so they never size a batch.
                UnitState::Modal { .. } => 1,
            };
            s.times as u64 * width as u64
        };
        // A mode-dependent worker replays the resolved plan instead of a
        // covering-iteration step list (whose per-component counts do not
        // exist here): compile the per-mode projections and per-pair
        // transition programs down to local unit indices.
        let dep = mode_seq.as_ref().map(|seq| {
            let d = dependent.expect("a mode plan implies a dependent schedule");
            DepWork {
                mode_seq: Arc::clone(seq),
                periods: d
                    .steps
                    .iter()
                    .map(|per_worker| {
                        per_worker[w]
                            .iter()
                            .map(|s| (unit_home[s.unit as usize].1, s.times))
                            .collect()
                    })
                    .collect(),
                transitions: d
                    .transitions
                    .iter()
                    .map(|t| {
                        t.iter()
                            .filter(|s| schedule.units[s.unit as usize].worker == w)
                            .map(|s| (unit_home[s.unit as usize].1, s.times))
                            .collect()
                    })
                    .collect(),
            }
        });
        let steps: Vec<CompiledWork> = if dep.is_some() {
            Vec::new()
        } else {
            schedule.fused_workers[w]
                .iter()
                .map(|item| match item {
                    WorkItem::Step(s) => {
                        let unit = &schedule.units[s.unit as usize];
                        CompiledWork::Step(CompiledStep {
                            unit: unit_home[s.unit as usize].1,
                            times: s.times,
                            iters: component_iters[unit.component as usize],
                        })
                    }
                    WorkItem::Fused(run) => {
                        let comp = schedule.units[run.stages[0].unit as usize].component;
                        let batch = if run.batch {
                            let widest = run.stages.iter().map(&stage_tokens).max().unwrap_or(1);
                            (FUSED_BATCH_TOKENS / widest.max(1)).clamp(1, FUSED_BATCH_MAX)
                        } else {
                            1
                        };
                        CompiledWork::Fused(CompiledFused {
                            stages: run
                                .stages
                                .iter()
                                .map(|s| CompiledStage {
                                    unit: unit_home[s.unit as usize].1,
                                    times: s.times,
                                })
                                .collect(),
                            links: run.links.iter().map(|b| b.index()).collect(),
                            iters: component_iters[comp as usize],
                            batch,
                        })
                    }
                })
                .collect()
        };
        let max_iters = steps
            .iter()
            .map(|s| match s {
                CompiledWork::Step(s) => s.iters,
                CompiledWork::Fused(f) => f.iters,
            })
            .max()
            .unwrap_or(0);
        workers.push(Worker {
            steps,
            units,
            io: BufIo {
                slots,
                recorders: recs,
                record_values: config.record_values,
                tokens: 0,
                // All tracers share one epoch so the merged tracks align.
                trace: config.trace.then(|| WorkerTracer::new(started, n_buffers)),
                metrics: hub.as_ref().map(|h| MetricsIo {
                    hub: Arc::clone(h),
                    worker: w,
                    wait: WaitStats::default(),
                }),
            },
            max_iters,
            dep,
            scratch: Vec::new(),
            out_buf: Vec::new(),
        });
    }

    // --- Run. No coordination beyond the cross-worker rings: each worker
    // replays its covering iterations and returns. The abort flag exists
    // only to unblock peers when a worker panics.
    let abort = Arc::new(AtomicBool::new(false));
    let outs: Vec<WorkerOut> = if threads == 1 {
        let worker = workers.pop().expect("one worker");
        vec![worker.run(&abort)]
    } else {
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(w, worker)| {
                let abort = Arc::clone(&abort);
                std::thread::Builder::new()
                    .name(format!("oil-rt-static-{w}"))
                    .spawn(move || {
                        struct AbortOnPanic(Arc<AtomicBool>);
                        impl Drop for AbortOnPanic {
                            fn drop(&mut self) {
                                if std::thread::panicking() {
                                    self.0.store(true, Ordering::SeqCst);
                                }
                            }
                        }
                        let _guard = AbortOnPanic(Arc::clone(&abort));
                        worker.run(&abort)
                    })
                    .expect("spawning a static-order worker thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("static-order worker panicked"))
            .collect()
    };

    // --- Assemble the report.
    let mut tokens = setup_tokens;
    let mut node_firings: Vec<(String, u64)> =
        graph.nodes.iter().map(|n| (n.name.clone(), 0u64)).collect();
    let mut source_samples: Vec<(String, u64)> = graph
        .sources
        .iter()
        .map(|s| (s.name.clone(), 0u64))
        .collect();
    let mut sinks: Vec<Option<SinkStream>> = (0..graph.sinks.len()).map(|_| None).collect();
    let mut throughput: Vec<Option<SinkThroughput>> =
        (0..graph.sinks.len()).map(|_| None).collect();
    let mut mode_switches = 0u64;
    let mut transition_firings = 0u64;
    let mut trace_report = config
        .trace
        .then(|| TraceReport::new("staticsched", threads));
    let mut ring_hw: Vec<u32> = vec![0; n_buffers];
    for (w, out) in outs.into_iter().enumerate() {
        if let (Some(tr), Some(t)) = (trace_report.as_mut(), out.trace) {
            let hw = tr.push_track(
                format!("worker-{w}"),
                std::mem::take(&mut worker_labels[w]),
                t,
            );
            for (b, h) in hw.into_iter().enumerate() {
                ring_hw[b] = ring_hw[b].max(h);
            }
        }
        tokens += out.tokens;
        for (b, r) in out.recorders.into_iter().enumerate() {
            if let Some(r) = r {
                recorders[b] = Some(r);
            }
        }
        for unit in out.units {
            match unit {
                UnitState::Node { node, fired, .. } => node_firings[node].1 = fired,
                UnitState::Source {
                    source, generated, ..
                } => source_samples[source].1 = generated,
                UnitState::Sink {
                    sink,
                    consumed,
                    values,
                    meter,
                    monitor,
                    ..
                } => {
                    // Flush the drift detector's partial tail window before
                    // the snapshot below.
                    if let Some(m) = monitor {
                        m.finish();
                    }
                    let s = &graph.sinks[oil_compiler::rtgraph::RtSinkId::new(sink)];
                    sinks[sink] = Some(SinkStream {
                        name: s.name.clone(),
                        consumed,
                        misses: 0,
                        max_latency: 0.0,
                        values,
                    });
                    throughput[sink] = Some(SinkThroughput {
                        name: s.name.clone(),
                        samples: consumed,
                        predicted_hz: s.period.recip().to_f64(),
                        measured_hz: meter.steady_rate_hz(),
                    });
                }
                UnitState::Modal {
                    members,
                    switches,
                    transition_firings: tf,
                    ..
                } => {
                    for m in members {
                        node_firings[m.node].1 = m.fired;
                    }
                    mode_switches += switches;
                    transition_firings += tf;
                }
            }
        }
    }
    if let Some(tr) = trace_report.as_mut() {
        let mut crossing = vec![false; n_buffers];
        for &b in &schedule.cross_buffers {
            crossing[b.index()] = true;
        }
        tr.rings = graph
            .buffers
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let bi = oil_compiler::rtgraph::RtBufferId::new(i);
                RingStat {
                    name: b.name.clone(),
                    // The bound the ring was actually sized to: fusion may
                    // push into a same-worker buffer earlier than the
                    // unfused order, up to the schedule's proven fused
                    // replay level — the CTA capacity still bounds every
                    // cross-worker ring.
                    capacity: if crossing[i] {
                        declared[i]
                    } else {
                        declared[i].max(schedule.local_level_max[bi] as usize)
                    },
                    // Initial tokens occupy the ring before any traced push.
                    highwater: (ring_hw[i] as usize).max(b.initial_tokens),
                    crossing: crossing[i],
                }
            })
            .collect();
        tr.phases = schedule
            .phases
            .iter()
            .map(|p| (p.name.to_string(), p.dur_ns))
            .collect();
    }
    StaticReport {
        threads,
        values: ValueTrace {
            buffers: if config.record_values {
                recorders
                    .into_iter()
                    .map(|r| r.unwrap_or_default())
                    .collect()
            } else {
                Vec::new()
            },
        },
        sinks: sinks
            .into_iter()
            .map(|s| s.expect("every sink is a scheduled unit"))
            .collect(),
        throughput: throughput
            .into_iter()
            .map(|t| t.expect("every sink measured"))
            .collect(),
        node_firings,
        sources: source_samples,
        tokens,
        wall: started.elapsed(),
        iterations,
        cross_buffers: schedule.cross_buffers.len(),
        fusion: schedule.fusion,
        mode_switches,
        transition_firings,
        trace_report,
        metrics: hub.as_ref().map(|h| h.snapshot()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selftimed::{execute_selftimed, SelfTimedConfig};
    use oil_compiler::schedule::{synthesize, SynthesisConfig};
    use oil_compiler::{compile, rtgraph, CompilerOptions};
    use oil_lang::registry::{FunctionRegistry, FunctionSignature};
    use oil_sim::picos;

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

    fn lowered(src: &str) -> (rtgraph::RtGraph, rtgraph::RtPlan) {
        let compiled = compile(src, &registry(), &CompilerOptions::default()).unwrap();
        let graph = rtgraph::lower(&compiled);
        let plan = rtgraph::plan(&graph);
        (graph, plan)
    }

    #[test]
    fn selftimed_streams_are_a_prefix_of_the_static_replay() {
        let (graph, plan) = lowered(PIPELINE);
        let reference = execute_selftimed(
            &graph,
            &plan,
            &KernelLibrary::new(),
            picos(0.1),
            &SelfTimedConfig {
                threads: 1,
                ..SelfTimedConfig::default()
            },
        );
        assert!(!reference.deadlocked);
        for workers in [1, 2, 4] {
            let schedule = synthesize(&graph, &plan, workers, &SynthesisConfig::from_env())
                .expect("schedulable");
            let report = execute_staticsched(
                &graph,
                &schedule,
                &KernelLibrary::new(),
                picos(0.1),
                &StaticConfig::default(),
            );
            assert_eq!(
                reference.values.prefix_divergence(&report.values),
                None,
                "workers={workers}"
            );
            let (cal, fre) = (&reference.sinks[0], &report.sinks[0]);
            let shared = cal.values.len().min(fre.values.len());
            assert_eq!(cal.values[..shared], fre.values[..shared]);
            assert!(fre.consumed >= cal.consumed, "workers={workers}");
        }
    }

    #[test]
    fn static_replay_is_worker_count_invariant() {
        let (graph, plan) = lowered(PIPELINE);
        let run = |workers: usize| {
            let schedule = synthesize(&graph, &plan, workers, &SynthesisConfig::from_env())
                .expect("schedulable");
            execute_staticsched(
                &graph,
                &schedule,
                &KernelLibrary::new(),
                picos(0.1),
                &StaticConfig::default(),
            )
        };
        let base = run(1);
        assert!(base.iterations > 0);
        for workers in [2, 3, 4] {
            let other = run(workers);
            assert_eq!(base.values.first_divergence(&other.values), None);
            assert_eq!(base.node_firings, other.node_firings);
            assert_eq!(base.sources, other.sources);
            for (a, b) in base.sinks.iter().zip(&other.sinks) {
                assert_eq!(a.consumed, b.consumed);
                assert_eq!(a.values, b.values);
            }
        }
    }

    #[test]
    fn modal_clusters_replay_their_quasi_static_resolution() {
        let src = r#"
            mod seq S(int a, out int b){
                loop{ if(...){ t = f(a:2); } else { t = g(a:2); } init(t, out b); } while(1);
            }
            mod par D(){
                source int x = src() @ 2 kHz;
                sink int y = snk() @ 1 kHz;
                S(x, out y)
            }
        "#;
        let (graph, plan) = lowered(src);
        assert!(!plan.is_kpn_safe(), "the scenario under test is modal");
        let reference = execute_selftimed(
            &graph,
            &plan,
            &KernelLibrary::new(),
            picos(0.1),
            &SelfTimedConfig {
                threads: 1,
                ..SelfTimedConfig::default()
            },
        );
        for workers in [1, 2] {
            let schedule = synthesize(&graph, &plan, workers, &SynthesisConfig::from_env())
                .expect("uniform clusters schedule");
            let report = execute_staticsched(
                &graph,
                &schedule,
                &KernelLibrary::new(),
                picos(0.1),
                &StaticConfig::default(),
            );
            // Both engines always select the lowest-id twin, so even the
            // "schedule-dependent" streams match bit for bit.
            assert_eq!(
                reference.values.prefix_divergence(&report.values),
                None,
                "workers={workers}"
            );
            // The starved twin reports zero firings in both engines.
            let starved_ref: Vec<_> = reference
                .node_firings
                .iter()
                .filter(|(_, n)| *n == 0)
                .map(|(name, _)| name.clone())
                .collect();
            let starved_static: Vec<_> = report
                .node_firings
                .iter()
                .filter(|(_, n)| *n == 0)
                .map(|(name, _)| name.clone())
                .collect();
            assert_eq!(starved_ref, starved_static);
        }
    }

    #[test]
    fn sources_cover_their_budget_rounded_to_whole_iterations() {
        let (graph, plan) = lowered(PIPELINE);
        let schedule = synthesize(&graph, &plan, 1, &SynthesisConfig::from_env()).unwrap();
        // 0.0105 s at 2 kHz = 21 samples; q(source) = 2 ⇒ 11 iterations,
        // 22 samples.
        let report = execute_staticsched(
            &graph,
            &schedule,
            &KernelLibrary::new(),
            picos(0.0105),
            &StaticConfig::default(),
        );
        assert_eq!(report.iterations, 11);
        assert_eq!(report.sources[0].1, 22);
        assert_eq!(report.sinks[0].consumed, 11);
    }

    #[test]
    fn a_panicking_kernel_aborts_the_run_instead_of_hanging() {
        let (graph, plan) = lowered(PIPELINE);
        let schedule = synthesize(&graph, &plan, 2, &SynthesisConfig::from_env()).unwrap();
        let mut lib = KernelLibrary::new();
        lib.register(
            "f",
            Box::new(|| Kernel::Custom(Box::new(|_, _| panic!("injected kernel failure")))),
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_staticsched(
                &graph,
                &schedule,
                &lib,
                picos(0.1),
                &StaticConfig::default(),
            )
        }));
        assert!(result.is_err(), "the kernel panic must propagate");
    }
}
