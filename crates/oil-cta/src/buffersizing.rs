//! Buffer sizing on CTA models.
//!
//! Buffer capacities appear in a CTA model as rate-dependent delays `-δ / r`
//! on the connections that return space to a producer (paper Section V-B1 and
//! V-C). A capacity is **sufficient** when, at the required rates, no cycle of
//! connections has positive total delay. This module computes sufficient
//! capacities with a polynomial-time algorithm:
//!
//! 1. determine the target rates: the maximal achievable rates with buffer
//!    capacities treated as unbounded (buffers must never be the reason to
//!    run slower than the data dependencies allow);
//! 2. while a positive cycle exists, pick the buffer connections on that
//!    cycle and enlarge their capacities just enough (rounded up to whole
//!    tokens) to cancel the cycle's excess delay;
//! 3. repeat. Each iteration removes at least one offending cycle and the
//!    number of iterations is bounded by the number of connections times the
//!    number of buffers, keeping the whole procedure polynomial.
//!
//! All of this runs in exact rational arithmetic: the excess delay of a cycle
//! and the token growth `⌈excess · r / n⌉` are exact, so the computed
//! capacities are deterministic and free of floating-point round-off.
//!
//! The result is a *sufficient* capacity per buffer (the paper claims
//! sufficiency, not minimality); the ablation benchmark compares it against
//! the exact minimum found by state-space search on the dataflow model.

use crate::component::{ConnectionId, CtaModel};
use crate::consistency::{check_delays, ConsistencyError, Kernel};
use oil_dataflow::index::{IndexVec, PortId};
use oil_dataflow::Rational;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The outcome of buffer sizing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BufferSizingResult {
    /// Sufficient capacity per buffer name, in tokens.
    pub capacities: BTreeMap<String, u64>,
    /// Number of enlargement iterations performed.
    pub iterations: usize,
    /// The per-port rates at which the capacities were validated (exact).
    pub rates: IndexVec<PortId, Rational>,
}

impl BufferSizingResult {
    /// Total capacity over all buffers (a proxy for memory footprint).
    pub fn total_tokens(&self) -> u64 {
        self.capacities.values().sum()
    }
}

/// Why buffer sizing failed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BufferSizingError {
    /// The model is inconsistent for a reason buffers cannot fix (rate
    /// conflict, max rate exceeded, or a positive cycle without any buffer
    /// connection on it).
    Unfixable(ConsistencyError),
    /// The iteration limit was reached before all cycles were resolved
    /// (indicates a modelling error such as a cycle whose buffer terms cannot
    /// grow).
    DidNotConverge {
        /// Capacities when the limit was hit.
        capacities: BTreeMap<String, u64>,
    },
}

impl std::fmt::Display for BufferSizingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BufferSizingError::Unfixable(e) => write!(f, "buffer sizing cannot fix: {e}"),
            BufferSizingError::DidNotConverge { .. } => {
                write!(
                    f,
                    "buffer sizing did not converge within the iteration limit"
                )
            }
        }
    }
}

impl std::error::Error for BufferSizingError {}

/// Compute sufficient buffer capacities for `model` at its (required or
/// maximal) rates. Capacities already present on buffer connections are
/// treated as lower bounds and only ever enlarged.
pub fn size_buffers(model: &CtaModel) -> Result<BufferSizingResult, BufferSizingError> {
    size_buffers_with(model, Kernel::Integer)
}

/// [`size_buffers`] with every delay check run on `kernel`.
pub(crate) fn size_buffers_with(
    model: &CtaModel,
    kernel: Kernel,
) -> Result<BufferSizingResult, BufferSizingError> {
    let mut working = model.clone();

    // Determine the target rates once. Buffers must not be the reason to run
    // slower than the data dependencies allow, so the target is the maximal
    // achievable rate of the model with *unbounded* buffers (groups pinned by
    // sources or sinks keep their required rates; this fails exactly when the
    // constraints are unattainable regardless of buffering).
    let base = working
        .maximal_rates_impl(true, kernel)
        .map_err(BufferSizingError::Unfixable)?;

    let max_iterations =
        (working.connections.len().max(1)) * (working.buffer_connections().len() + 2) * 8;
    let mut iterations = 0;
    loop {
        match check_delays(&working, &base, false, kernel) {
            Ok(_) => break,
            Err(ConsistencyError::PositiveCycle {
                excess,
                connections,
                ..
            }) => {
                iterations += 1;
                if iterations > max_iterations {
                    return Err(BufferSizingError::DidNotConverge {
                        capacities: collect_capacities(&working),
                    });
                }
                // Buffer connections on the cycle can absorb the excess by
                // growing their capacity: enlarging δ by Δ reduces the cycle
                // weight by Δ / r(from).
                let on_cycle: Vec<ConnectionId> = connections
                    .iter()
                    .copied()
                    .filter(|&cid| working.connections[cid].buffer.is_some())
                    .collect();
                if on_cycle.is_empty() {
                    return Err(BufferSizingError::Unfixable(
                        ConsistencyError::PositiveCycle {
                            ports: Vec::new(),
                            excess,
                            connections,
                        },
                    ));
                }
                // Spread the growth over the cycle's buffers; rounding each
                // share up (exactly, via rational ceil) keeps the algorithm
                // monotone and terminating.
                let share = excess / Rational::from_int(on_cycle.len() as i128);
                for cid in on_cycle {
                    let rate = base[working.connections[cid].from];
                    let grow_tokens = (share * rate).ceil().max(1);
                    working.connections[cid].phi -= Rational::from_int(grow_tokens);
                }
            }
            Err(other) => return Err(BufferSizingError::Unfixable(other)),
        }
    }

    Ok(BufferSizingResult {
        capacities: collect_capacities(&working),
        iterations,
        rates: base,
    })
}

fn collect_capacities(model: &CtaModel) -> BTreeMap<String, u64> {
    let mut caps: BTreeMap<String, u64> = BTreeMap::new();
    for c in &model.connections {
        if let Some(name) = &c.buffer {
            let cap = (-c.phi).max(Rational::ZERO).ceil() as u64;
            let entry = caps.entry(name.clone()).or_insert(0);
            *entry = (*entry).max(cap);
        }
    }
    caps
}

/// Apply sized capacities back onto a model's buffer connections (sets
/// `phi = -δ` on every connection of each named buffer).
pub fn apply_capacities(model: &mut CtaModel, capacities: &BTreeMap<String, u64>) {
    for c in &mut model.connections {
        if let Some(name) = &c.buffer {
            if let Some(&cap) = capacities.get(name) {
                c.phi = -Rational::from_int(cap as i128);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oil_dataflow::index::Idx;

    fn int(n: i128) -> Rational {
        Rational::from_int(n)
    }

    /// A chain src -> A -> snk at `rate` Hz where A has response time `rho`,
    /// with unsized buffers (capacity 0) on both hops.
    fn chain_model(rate: i128, rho: Rational) -> CtaModel {
        let rate = int(rate);
        let period = rate.recip();
        let mut m = CtaModel::new();
        let src = m.add_component("src", None);
        let a = m.add_component("A", None);
        let snk = m.add_component("snk", None);
        let s_out = m.add_required_rate_port(src, "out", rate);
        let a_in = m.add_port(a, "in", None);
        let a_out = m.add_port(a, "out", None);
        let k_in = m.add_required_rate_port(snk, "in", rate);
        // Data connections.
        m.connect(s_out, a_in, period, Rational::ZERO, Rational::ONE);
        m.connect(a_in, a_out, rho, Rational::ZERO, Rational::ONE);
        m.connect(a_out, k_in, Rational::ZERO, Rational::ZERO, Rational::ONE);
        // Space (buffer) connections, initially with zero capacity. Space for
        // bx is released when A finishes processing (a_out), space for by when
        // the sink has consumed (one sink period after the value arrived).
        m.connect_buffer(
            "bx",
            a_out,
            s_out,
            Rational::ZERO,
            Rational::ZERO,
            Rational::ONE,
        );
        m.connect_buffer("by", k_in, a_out, period, Rational::ZERO, Rational::ONE);
        m
    }

    /// 0.2 ms as an exact rational (seconds).
    fn rho() -> Rational {
        Rational::new(1, 5000)
    }

    #[test]
    fn sizing_produces_sufficient_capacities() {
        let m = chain_model(1000, rho());
        assert!(
            m.check_consistency().is_err(),
            "zero capacity must be insufficient"
        );
        let result = size_buffers(&m).unwrap();
        assert!(result.capacities["bx"] >= 1);
        assert!(result.capacities["by"] >= 1);
        // Applying the capacities makes the model consistent.
        let mut sized = m.clone();
        apply_capacities(&mut sized, &result.capacities);
        assert!(sized.check_consistency().is_ok());
    }

    #[test]
    fn sizing_is_idempotent_once_sufficient() {
        let m = chain_model(1000, rho());
        let first = size_buffers(&m).unwrap();
        let mut sized = m.clone();
        apply_capacities(&mut sized, &first.capacities);
        let second = size_buffers(&sized).unwrap();
        assert_eq!(second.iterations, 0);
        assert_eq!(first.capacities, second.capacities);
    }

    #[test]
    fn sizing_is_deterministic() {
        // Exact arithmetic: repeated runs produce identical results, bit for
        // bit, including the validated rates.
        let m = chain_model(44_100, Rational::new(1, 88_200));
        let first = size_buffers(&m).unwrap();
        for _ in 0..5 {
            assert_eq!(size_buffers(&m).unwrap(), first);
        }
    }

    #[test]
    fn higher_rates_need_larger_buffers() {
        let slow = size_buffers(&chain_model(100, rho())).unwrap();
        let fast = size_buffers(&chain_model(10_000, rho())).unwrap();
        assert!(fast.total_tokens() >= slow.total_tokens());
    }

    #[test]
    fn longer_response_times_need_larger_buffers() {
        let short = size_buffers(&chain_model(1000, Rational::new(1, 10_000))).unwrap();
        let long = size_buffers(&chain_model(1000, Rational::new(1, 200))).unwrap();
        assert!(long.total_tokens() > short.total_tokens());
    }

    #[test]
    fn unfixable_cycle_without_buffers_reported() {
        // A positive cycle made only of plain connections cannot be fixed by
        // buffer sizing.
        let mut m = CtaModel::new();
        let a = m.add_component("a", None);
        let p = m.add_required_rate_port(a, "p", int(1000));
        let q = m.add_port(a, "q", None);
        let ms = Rational::new(1, 1000);
        m.connect(p, q, ms, Rational::ZERO, Rational::ONE);
        m.connect(q, p, ms, Rational::ZERO, Rational::ONE);
        assert!(matches!(
            size_buffers(&m),
            Err(BufferSizingError::Unfixable(_))
        ));
    }

    #[test]
    fn latency_constraint_bounds_capacity_growth_feasible_case() {
        // src -> A -> snk with a latency constraint that is satisfiable:
        // sizing succeeds and the model with the latency back-edge stays
        // consistent.
        let mut m = chain_model(1000, rho());
        let src_out = PortId::new(0);
        let snk_in = PortId::new(3);
        // start snk 5 ms before ... (i.e. end-to-end latency <= 5 ms).
        m.connect(
            snk_in,
            src_out,
            Rational::new(-5, 1000),
            Rational::ZERO,
            Rational::ONE,
        );
        let result = size_buffers(&m).unwrap();
        let mut sized = m.clone();
        apply_capacities(&mut sized, &result.capacities);
        assert!(sized.check_consistency().is_ok());
    }

    #[test]
    fn infeasible_latency_constraint_is_unfixable() {
        // End-to-end latency can never be below the processing delay of A.
        let mut m = chain_model(1000, Rational::new(1, 500));
        let src_out = PortId::new(0);
        let snk_in = PortId::new(3);
        m.connect(
            snk_in,
            src_out,
            Rational::new(-1, 1000),
            Rational::ZERO,
            Rational::ONE,
        );
        assert!(matches!(
            size_buffers(&m),
            Err(BufferSizingError::Unfixable(_))
        ));
    }

    #[test]
    fn existing_capacities_are_lower_bounds() {
        let mut m = chain_model(1000, rho());
        // Pre-size bx generously.
        for c in &mut m.connections {
            if c.buffer.as_deref() == Some("bx") {
                c.phi = int(-64);
            }
        }
        let result = size_buffers(&m).unwrap();
        assert!(result.capacities["bx"] >= 64);
    }

    #[test]
    fn total_tokens_sums_capacities() {
        let mut caps = BTreeMap::new();
        caps.insert("a".to_string(), 3u64);
        caps.insert("b".to_string(), 5u64);
        let r = BufferSizingResult {
            capacities: caps,
            iterations: 1,
            rates: IndexVec::new(),
        };
        assert_eq!(r.total_tokens(), 8);
    }
}
