//! The polynomial-time consistency algorithm for CTA models.
//!
//! A composition of CTA components is **consistent** (paper Section V-A) when
//!
//! 1. every port's actual transfer rate is at most its maximum rate
//!    (`r(p) ≤ r̂(p)`), with the actual rates related through the transfer
//!    rate ratios `γ` of the connections, and
//! 2. data arrives in time on every port: the delay constraints
//!    `θ(q) ≥ θ(p) + Δ(c)` admit a solution, which is the case exactly when
//!    no cycle of connections has a positive total delay.
//!
//! Both checks are polynomial: rate propagation is a breadth-first traversal
//! with exact rational coefficients, and the delay check is a Bellman-Ford
//! longest-path computation (`O(P · C)`). The algorithm also returns the
//! maximal achievable transfer rates, which the paper uses for rate-only
//! interfaces of black-box components.
//!
//! Everything here is computed in **exact rational arithmetic**: rates,
//! offsets and slacks are [`Rational`]s, comparisons are exact, and there are
//! no tolerance constants anywhere. In particular, the maximal achievable
//! rates are found *exactly*: when a positive-delay cycle forces the free
//! rate groups below their rate-only maximum, the binding cycle's weight
//! `E + P/f` (constant part `E`, rate-dependent part `P/f` in the scale
//! factor `f`) is solved for the factor that makes it exactly zero, instead
//! of binary-searching to a tolerance.
//!
//! The delay check's Bellman-Ford loop is the hot path of buffer sizing,
//! which repeats it once per enlarged cycle. It runs as an **exact integer
//! kernel**: every connection's delay `ε + φ/r` is computed once per check
//! and scaled, as an `i128`, to the common denominator `L` of the delays in
//! its constraint component (the ports joined by any connection). A
//! connection's endpoints share a component, so every sum and comparison in
//! the loop is between values scaled by the same positive `L`, and scaling
//! preserves it. The integer loop therefore makes the rational loop's
//! relaxation decisions in the same connection order and pass count: the
//! same predecessor graph and witness cycle, and offsets, slacks and excess
//! that are exactly `L` times the rational ones, which `Rational::new(x, L)`
//! turns back. One `L` per component rather than one for the whole model
//! keeps independent subsystems with unrelated rates from overflowing each
//! other's denominators. When an `L`, a scaled delay or the bound
//! `max|W| · (P + 1)` exceeds `i128`, or a sum overflows inside the loop,
//! the same generic loop runs on [`Rational`] weights instead, and an
//! overflow there is reported as [`ConsistencyError::DelayOverflow`].

use crate::component::{ConnectionId, CtaModel};
use oil_dataflow::index::{GroupId, Idx, IndexVec, PortId};
use oil_dataflow::rational::gcd;
use oil_dataflow::Rational;
use serde::{Deserialize, Serialize};

/// The result of a successful consistency check. All values are exact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConsistencyResult {
    /// Actual transfer rate per port, in events per second.
    pub rates: IndexVec<PortId, Rational>,
    /// A feasible start-time (offset) per port, in seconds. Offsets satisfy
    /// every connection's delay constraint and are the earliest such times
    /// relative to the chosen time origin.
    pub offsets: IndexVec<PortId, Rational>,
    /// Rate-propagation group of each port; ports in the same group have
    /// rates related by the `γ` ratios along connections.
    pub rate_groups: IndexVec<PortId, GroupId>,
    /// Per connection: slack of the delay constraint at the computed offsets,
    /// `θ(to) − θ(from) − Δ(c) ≥ 0`.
    pub slacks: IndexVec<ConnectionId, Rational>,
}

impl ConsistencyResult {
    /// The minimum slack over all connections (how close the composition is
    /// to violating a delay constraint), or `None` for a model without
    /// connections.
    pub fn min_slack(&self) -> Option<Rational> {
        self.slacks.iter().copied().reduce(Rational::min)
    }

    /// A port's rate in Hz as `f64` — conversion at the API boundary, after
    /// all exact computation has finished.
    pub fn rate_hz(&self, port: PortId) -> f64 {
        self.rates[port].to_f64()
    }

    /// A port's start offset in seconds as `f64` — conversion at the API
    /// boundary, after all exact computation has finished.
    pub fn offset_seconds(&self, port: PortId) -> f64 {
        self.offsets[port].to_f64()
    }
}

/// Why a CTA composition is inconsistent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ConsistencyError {
    /// Following two different connection paths to the same port implies two
    /// different rates: the `γ` ratios around some cycle do not multiply to 1.
    RateConflict {
        /// The port with conflicting implied rates.
        port: PortId,
    },
    /// Two ports with fixed (source/sink) rates in the same rate group imply
    /// incompatible scales.
    RequiredRateConflict {
        /// The second port whose required rate conflicts with the group.
        port: PortId,
        /// Rate implied by the rest of the group (events/s).
        implied: Rational,
        /// Rate required at this port (events/s).
        required: Rational,
    },
    /// The rate required at some port exceeds the maximum rate of another
    /// port in its group.
    MaxRateExceeded {
        /// Port whose maximum rate is exceeded.
        port: PortId,
        /// Rate the composition would need at that port (events/s).
        needed: Rational,
        /// The port's maximum rate (events/s).
        max: Rational,
    },
    /// A cycle of connections has positive total delay: data arrives too late
    /// on the cycle's ports at the computed rates.
    PositiveCycle {
        /// Ports on the offending cycle.
        ports: Vec<PortId>,
        /// Total delay of the cycle (seconds); positive.
        excess: Rational,
        /// Connections on the cycle.
        connections: Vec<ConnectionId>,
    },
    /// The exact delay check left the `i128` range: a connection's delay, or
    /// a sum of delays along connections, has a numerator or denominator too
    /// large to represent.
    DelayOverflow {
        /// The connection whose delay or relaxation overflowed.
        connection: ConnectionId,
    },
}

impl std::fmt::Display for ConsistencyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConsistencyError::RateConflict { port } => {
                write!(
                    f,
                    "rate ratios around a cycle through port {port} do not multiply to one"
                )
            }
            ConsistencyError::RequiredRateConflict {
                port,
                implied,
                required,
            } => write!(
                f,
                "port {port} requires rate {required} Hz but the composition implies {implied} Hz"
            ),
            ConsistencyError::MaxRateExceeded { port, needed, max } => {
                write!(
                    f,
                    "port {port} would need rate {needed} Hz, exceeding its maximum {max} Hz"
                )
            }
            ConsistencyError::PositiveCycle { excess, ports, .. } => write!(
                f,
                "a cycle through {} ports has positive delay {excess} s: data arrives too late",
                ports.len()
            ),
            ConsistencyError::DelayOverflow { connection } => write!(
                f,
                "the delay check overflowed i128 at connection {connection}"
            ),
        }
    }
}

impl std::error::Error for ConsistencyError {}

/// Internal: rate groups and per-port rational coefficients.
pub(crate) struct RateStructure {
    /// Group id per port.
    pub(crate) group: IndexVec<PortId, GroupId>,
    /// Coefficient per port: `rate(port) = scale(group) * coeff(port)`.
    pub(crate) coeff: IndexVec<PortId, Rational>,
    /// Number of groups.
    pub(crate) groups: usize,
}

pub(crate) fn propagate_rate_structure(
    model: &CtaModel,
) -> Result<RateStructure, ConsistencyError> {
    let n = model.ports.len();
    let mut group: IndexVec<PortId, Option<GroupId>> = IndexVec::from_elem(None, n);
    let mut coeff: IndexVec<PortId, Rational> = IndexVec::from_elem(Rational::ONE, n);
    // Undirected adjacency: (neighbour, factor) with rate(nb) = factor * rate(this).
    let mut adj: IndexVec<PortId, Vec<(PortId, Rational)>> = IndexVec::from_elem(Vec::new(), n);
    for c in &model.connections {
        if !c.couples_rates {
            continue;
        }
        adj[c.from].push((c.to, c.gamma));
        adj[c.to].push((c.from, c.gamma.recip()));
    }

    let mut groups = 0usize;
    for start in model.ports.indices() {
        if group[start].is_some() {
            continue;
        }
        let gid = GroupId::new(groups);
        groups += 1;
        group[start] = Some(gid);
        coeff[start] = Rational::ONE;
        let mut queue = vec![start];
        while let Some(p) = queue.pop() {
            let cp = coeff[p];
            for &(q, factor) in &adj[p] {
                let expected = cp * factor;
                if group[q].is_none() {
                    group[q] = Some(gid);
                    coeff[q] = expected;
                    queue.push(q);
                } else if coeff[q] != expected {
                    return Err(ConsistencyError::RateConflict { port: q });
                }
            }
        }
    }
    let group = group
        .into_raw()
        .into_iter()
        .map(|g| g.expect("all ports grouped"))
        .collect();
    Ok(RateStructure {
        group,
        coeff,
        groups,
    })
}

/// Determine the scale of every rate group: fixed by required (source/sink)
/// rates when present, otherwise the maximum allowed by the ports' maximum
/// rates. Returns `(scales, rates)`.
fn resolve_rates(
    model: &CtaModel,
    rs: &RateStructure,
) -> Result<(Vec<Rational>, IndexVec<PortId, Rational>), ConsistencyError> {
    let mut scale: Vec<Option<Rational>> = vec![None; rs.groups];
    // Pass 1: required rates fix the scale; conflicts are exact inequalities.
    for (p, port) in model.ports.iter_enumerated() {
        if let Some(req) = port.required_rate {
            let implied_scale = req / rs.coeff[p];
            match scale[rs.group[p].index()] {
                None => scale[rs.group[p].index()] = Some(implied_scale),
                Some(s) => {
                    if s != implied_scale {
                        return Err(ConsistencyError::RequiredRateConflict {
                            port: p,
                            implied: s * rs.coeff[p],
                            required: req,
                        });
                    }
                }
            }
        }
    }
    // Pass 2: groups without a required rate run at the maximum rate allowed
    // by their ports (the "maximal achievable transfer rates" of the paper).
    let mut max_scale: Vec<Option<Rational>> = vec![None; rs.groups];
    for (p, port) in model.ports.iter_enumerated() {
        if let Some(max_rate) = port.max_rate {
            let bound = max_rate / rs.coeff[p];
            let g = rs.group[p].index();
            max_scale[g] = Some(match max_scale[g] {
                None => bound,
                Some(existing) => existing.min(bound),
            });
        }
    }
    let mut scales = Vec::with_capacity(rs.groups);
    for g in 0..rs.groups {
        let s = match scale[g] {
            Some(s) => s,
            // Completely unconstrained group (all max rates unbounded): pick
            // unit scale; delays with phi terms then use rate coeff(p).
            None => max_scale[g].unwrap_or(Rational::ONE),
        };
        scales.push(s);
    }
    // Pass 3: every port's rate must respect its maximum rate — exactly.
    let mut rates: IndexVec<PortId, Rational> = IndexVec::with_capacity(model.ports.len());
    for (p, port) in model.ports.iter_enumerated() {
        let r = scales[rs.group[p].index()] * rs.coeff[p];
        if let Some(max_rate) = port.max_rate {
            if r > max_rate {
                return Err(ConsistencyError::MaxRateExceeded {
                    port: p,
                    needed: r,
                    max: max_rate,
                });
            }
        }
        rates.push(r);
    }
    Ok((scales, rates))
}

/// Offsets per port and slacks per connection, as produced by the delay
/// feasibility check.
pub type DelayCheck = (IndexVec<PortId, Rational>, IndexVec<ConnectionId, Rational>);

/// Check the delay constraints at the given rates: no cycle of connections
/// may have positive total delay. Returns feasible offsets on success or a
/// witness cycle on failure. Longest-path Bellman-Ford, `O(P · C)`, with
/// exact comparisons throughout.
///
/// The loop runs on `i128` delays scaled per constraint component (see the
/// module docs for why the result is exactly the rational one), and on
/// [`Rational`] delays when scaling overflows. An overflow of the rational
/// loop fails with [`ConsistencyError::DelayOverflow`].
pub fn check_delays_at_rates(
    model: &CtaModel,
    rates: &IndexVec<PortId, Rational>,
) -> Result<DelayCheck, ConsistencyError> {
    check_delays(model, rates, false, Kernel::Integer)
}

/// The arithmetic of the delay check's relaxation loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// Delays scaled to `i128` per constraint component, falling back to
    /// [`Kernel::Rational`] on overflow. What every analysis uses.
    Integer,
    /// [`Rational`] delays throughout: the reference the integer kernel is
    /// held to (see [`crate::reference`]).
    Rational,
}

/// As [`check_delays_at_rates`], optionally treating buffer connections as
/// unbounded (their capacity term `-δ/r` can absorb any delay, so they can
/// never be part of a binding cycle). Used when computing the rates a model
/// could reach if buffer sizing were free to enlarge every capacity.
pub(crate) fn check_delays(
    model: &CtaModel,
    rates: &IndexVec<PortId, Rational>,
    ignore_buffers: bool,
    kernel: Kernel,
) -> Result<DelayCheck, ConsistencyError> {
    let weights: IndexVec<ConnectionId, Rational> = model
        .connections
        .iter_enumerated()
        .map(|(cid, c)| {
            c.checked_delay_at_rate(rates[c.from])
                .ok_or(ConsistencyError::DelayOverflow { connection: cid })
        })
        .collect::<Result<_, _>>()?;
    let relaxed: Vec<(ConnectionId, PortId, PortId)> = model
        .connections
        .iter_enumerated()
        .filter(|(_, c)| !(ignore_buffers && c.buffer.is_some()))
        .map(|(cid, c)| (cid, c.from, c.to))
        .collect();
    if kernel == Kernel::Integer {
        let comp = model.port_constraint_components();
        if let Some((scaled, denom)) = scale_per_component(model, &comp, &weights) {
            let to_rational = |x, p: PortId| Rational::new(x, denom[comp[p.index()]]);
            match bellman_ford(model, &relaxed, &scaled, to_rational) {
                Err(ConsistencyError::DelayOverflow { .. }) => {}
                outcome => return outcome,
            }
        }
    }
    bellman_ford(model, &relaxed, &weights, |x, _| x)
}

/// The arithmetic the relaxation loop is generic over: `i128` for scaled
/// delays, [`Rational`] otherwise. Every operation is checked.
trait DelayArith: Copy + Ord {
    const ZERO: Self;
    fn checked_add(self, rhs: Self) -> Option<Self>;
    fn checked_sub(self, rhs: Self) -> Option<Self>;
}

impl DelayArith for i128 {
    const ZERO: Self = 0;
    fn checked_add(self, rhs: Self) -> Option<Self> {
        i128::checked_add(self, rhs)
    }
    fn checked_sub(self, rhs: Self) -> Option<Self> {
        i128::checked_sub(self, rhs)
    }
}

impl DelayArith for Rational {
    const ZERO: Self = Rational::ZERO;
    fn checked_add(self, rhs: Self) -> Option<Self> {
        Rational::checked_add(self, rhs)
    }
    fn checked_sub(self, rhs: Self) -> Option<Self> {
        Rational::checked_sub(self, rhs)
    }
}

/// Every delay as an integer multiple of `1 / L`, with `L` the lcm of the
/// delay denominators in its connection's constraint component (`comp`, per
/// port), and the `L` of every component. A connection's endpoints share a
/// component, so each sum and comparison of the loop involves values of one
/// component only, all scaled by the same `L`.
///
/// `None` when an `L`, a scaled delay or `max|W| · (P + 1)` does not fit
/// `i128`. The last bound covers the offsets, slacks and cycle sums of a
/// check without a positive cycle; offsets that grow around a positive
/// cycle are caught by the loop's checked additions.
fn scale_per_component(
    model: &CtaModel,
    comp: &[usize],
    weights: &IndexVec<ConnectionId, Rational>,
) -> Option<(IndexVec<ConnectionId, i128>, Vec<i128>)> {
    let mut denom: Vec<i128> = vec![1; comp.iter().map(|&k| k + 1).max().unwrap_or(0)];
    for (c, w) in model.connections.iter().zip(weights) {
        let l = &mut denom[comp[c.from.index()]];
        *l = (*l / gcd(*l as u128, w.denom() as u128) as i128).checked_mul(w.denom())?;
    }
    let bound = model.ports.len() as i128 + 1;
    let scaled = model
        .connections
        .iter()
        .zip(weights)
        .map(|(c, w)| {
            let scaled = w
                .numer()
                .checked_mul(denom[comp[c.from.index()]] / w.denom())?;
            scaled.checked_abs()?.checked_mul(bound)?;
            Some(scaled)
        })
        .collect::<Option<_>>()?;
    Some((scaled, denom))
}

/// The longest-path Bellman-Ford loop of the delay check, over the
/// `relaxed` connections `(id, from, to)` in order, with connection weights
/// `weights` in arithmetic `W`. `to_rational(x, p)` maps a `W` in the
/// constraint component of port `p` back to seconds. An overflowing sum
/// fails with [`ConsistencyError::DelayOverflow`].
fn bellman_ford<W: DelayArith>(
    model: &CtaModel,
    relaxed: &[(ConnectionId, PortId, PortId)],
    weights: &IndexVec<ConnectionId, W>,
    to_rational: impl Fn(W, PortId) -> Rational,
) -> Result<DelayCheck, ConsistencyError> {
    let overflow = |connection| ConsistencyError::DelayOverflow { connection };
    let n = model.ports.len();
    let mut offsets: IndexVec<PortId, W> = IndexVec::from_elem(W::ZERO, n);
    let mut pred: IndexVec<PortId, Option<(PortId, ConnectionId)>> = IndexVec::from_elem(None, n);

    let mut updated: Option<PortId> = None;
    for _ in 0..n.max(1) {
        updated = None;
        for &(cid, from, to) in relaxed {
            let reach = offsets[from]
                .checked_add(weights[cid])
                .ok_or_else(|| overflow(cid))?;
            if reach > offsets[to] {
                offsets[to] = reach;
                pred[to] = Some((from, cid));
                updated = Some(to);
            }
        }
        if updated.is_none() {
            break;
        }
    }

    if let Some(start) = updated {
        // A positive cycle exists; walk predecessors to extract it.
        let mut v = start;
        for _ in 0..n {
            v = pred[v].map(|(p, _)| p).unwrap_or(v);
        }
        let mut ports = vec![v];
        let mut connections = Vec::new();
        let mut excess = W::ZERO;
        let mut cur = v;
        loop {
            let (p, cid) = pred[cur].expect("cycle nodes have predecessors");
            connections.push(cid);
            excess = excess
                .checked_add(weights[cid])
                .ok_or_else(|| overflow(cid))?;
            cur = p;
            if cur == v {
                break;
            }
            ports.push(cur);
        }
        ports.reverse();
        connections.reverse();
        return Err(ConsistencyError::PositiveCycle {
            ports,
            excess: to_rational(excess, v),
            connections,
        });
    }

    let slacks = model
        .connections
        .iter_enumerated()
        .map(|(cid, c)| {
            offsets[c.to]
                .checked_sub(offsets[c.from])
                .and_then(|d| d.checked_sub(weights[cid]))
                .map(|slack| to_rational(slack, c.from))
                .ok_or_else(|| overflow(cid))
        })
        .collect::<Result<_, _>>()?;
    let offsets = offsets
        .into_iter()
        .enumerate()
        .map(|(p, o)| to_rational(o, PortId::new(p)))
        .collect();
    Ok((offsets, slacks))
}

impl CtaModel {
    /// Run the full consistency check: rate propagation, maximum-rate checks
    /// and delay feasibility. Polynomial time in the size of the model; all
    /// results are exact rationals.
    pub fn check_consistency(&self) -> Result<ConsistencyResult, ConsistencyError> {
        let rs = propagate_rate_structure(self)?;
        let (_scales, rates) = resolve_rates(self, &rs)?;
        let (offsets, slacks) = check_delays_at_rates(self, &rates)?;
        Ok(ConsistencyResult {
            rates,
            offsets,
            rate_groups: rs.group,
            slacks,
        })
    }

    /// The maximal achievable transfer rates: for rate groups without a
    /// source/sink-imposed rate, the largest uniform scale (as a fraction of
    /// the rate-only maximum) at which the delay constraints are still
    /// satisfiable. Groups containing a required rate keep it.
    ///
    /// The scale is computed **exactly**: every binding positive cycle has
    /// weight `E + P/f` in the scale factor `f` (with `E` the constant part
    /// and `P` the rate-dependent part over the free groups), so the factor
    /// at which the cycle becomes tight is exactly `f = −P / E`. The factor
    /// is lowered cycle by cycle until the delay check passes.
    ///
    /// Returns the per-port rates, or the error that makes even arbitrarily
    /// low rates infeasible.
    pub fn maximal_rates(&self) -> Result<IndexVec<PortId, Rational>, ConsistencyError> {
        self.maximal_rates_impl(false, Kernel::Integer)
    }

    /// As [`Self::maximal_rates`], but with buffer-capacity connections
    /// treated as unbounded. These are the rates the model could reach if
    /// buffer sizing were free to enlarge every capacity — the target rates
    /// of [`crate::buffersizing::size_buffers`].
    pub fn maximal_rates_unbounded_buffers(
        &self,
    ) -> Result<IndexVec<PortId, Rational>, ConsistencyError> {
        self.maximal_rates_impl(true, Kernel::Integer)
    }

    pub(crate) fn maximal_rates_impl(
        &self,
        ignore_buffers: bool,
        kernel: Kernel,
    ) -> Result<IndexVec<PortId, Rational>, ConsistencyError> {
        let rs = propagate_rate_structure(self)?;
        let (_scales, base) = resolve_rates(self, &rs)?;
        // Which groups are pinned by a source or sink?
        let mut fixed = vec![false; rs.groups];
        for (p, port) in self.ports.iter_enumerated() {
            if port.required_rate.is_some() {
                fixed[rs.group[p].index()] = true;
            }
        }
        // Scale factors are solved per *connected component* of the
        // constraint graph (ports connected by any connection, rate-coupling
        // or not). Components are fully independent — no delay cycle can
        // span two of them — so scaling them jointly would let one
        // component's binding cycle needlessly slow another's maximal rates,
        // breaking the compositionality property that merging two unrelated
        // models preserves each one's analysis results.
        let comp = self.port_constraint_components();
        let n_comps = comp.iter().map(|&c| c + 1).max().unwrap_or(0);
        let mut factor: Vec<Rational> = vec![Rational::ONE; n_comps];
        let rates_at = |factor: &[Rational]| -> IndexVec<PortId, Rational> {
            base.iter_enumerated()
                .map(|(p, &r)| {
                    if fixed[rs.group[p].index()] {
                        r
                    } else {
                        r * factor[comp[p.index()]]
                    }
                })
                .collect()
        };

        // Each round either succeeds or permanently retires the witness
        // cycle, so the simple-cycle count bounds the rounds; the cap only
        // guards against pathological models.
        let max_rounds = self.connections.len() * self.connections.len() + 8;
        let mut last_error = None;
        for _ in 0..=max_rounds {
            let rates = rates_at(&factor);
            match check_delays(self, &rates, ignore_buffers, kernel) {
                Ok(_) => return Ok(rates),
                Err(ConsistencyError::PositiveCycle {
                    ports,
                    excess,
                    connections,
                }) => {
                    // The cycle lies within one constraint component; split
                    // its weight into E + P/factor there: epsilon terms and
                    // fixed-group phi terms are constant, free-group phi
                    // terms scale with 1/factor.
                    let cycle_comp = comp[self.connections[connections[0]].from.index()];
                    let mut e_sum = Rational::ZERO;
                    let mut p_sum = Rational::ZERO;
                    for &cid in &connections {
                        let c = &self.connections[cid];
                        debug_assert_eq!(comp[c.from.index()], cycle_comp);
                        e_sum += c.epsilon;
                        if !c.phi.is_zero() {
                            let term = c.phi / base[c.from];
                            if fixed[rs.group[c.from].index()] {
                                e_sum += term;
                            } else {
                                p_sum += term;
                            }
                        }
                    }
                    if p_sum.is_negative() {
                        // weight(f) = E + P/f with P < 0 is increasing in f
                        // and positive at the current factor, so E > 0 and
                        // the unique zero crossing -P/E lies strictly below.
                        let threshold = -p_sum / e_sum;
                        debug_assert!(threshold.is_positive() && threshold < factor[cycle_comp]);
                        factor[cycle_comp] = threshold;
                        last_error = Some(ConsistencyError::PositiveCycle {
                            ports,
                            excess,
                            connections,
                        });
                    } else {
                        // The cycle's delay does not shrink at lower rates:
                        // no positive factor is feasible.
                        return Err(ConsistencyError::PositiveCycle {
                            ports,
                            excess,
                            connections,
                        });
                    }
                }
                Err(other) => return Err(other),
            }
        }
        Err(last_error.expect("rounds exhausted only after at least one cycle"))
    }

    /// Connected components of the constraint graph: ports joined by *any*
    /// connection (rate-coupling or pure timing constraint). Returns a
    /// component index per port (dense, 0-based).
    fn port_constraint_components(&self) -> Vec<usize> {
        let n = self.ports.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for c in &self.connections {
            let (a, b) = (
                find(&mut parent, c.from.index()),
                find(&mut parent, c.to.index()),
            );
            if a != b {
                parent[a] = b;
            }
        }
        // Densify root ids to 0..k.
        let mut dense: Vec<Option<usize>> = vec![None; n];
        let mut next = 0usize;
        (0..n)
            .map(|p| {
                let root = find(&mut parent, p);
                *dense[root].get_or_insert_with(|| {
                    let id = next;
                    next += 1;
                    id
                })
            })
            .collect()
    }

    /// Like [`Self::check_consistency`], but instead of failing when the
    /// maximal rates violate a delay constraint, scale the rate groups that
    /// are not pinned by a source or sink down to their maximal *feasible*
    /// rates (the paper's "maximal achievable transfer rates"), computed
    /// exactly. Fails only when no positive rate satisfies the constraints,
    /// e.g. an unattainable latency bound.
    pub fn consistency_at_maximal_rates(&self) -> Result<ConsistencyResult, ConsistencyError> {
        let rs = propagate_rate_structure(self)?;
        let rates = self.maximal_rates()?;
        let (offsets, slacks) = check_delays_at_rates(self, &rates)?;
        Ok(ConsistencyResult {
            rates,
            offsets,
            rate_groups: rs.group,
            slacks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::CtaModel;

    fn int(n: i128) -> Rational {
        Rational::from_int(n)
    }

    /// Producer -> consumer with a buffer back-edge of capacity `cap`.
    fn producer_consumer(
        prod_rate: Rational,
        cons_rate: Rational,
        response: Rational,
        cap: Rational,
    ) -> CtaModel {
        let mut m = CtaModel::new();
        let prod = m.add_component("prod", None);
        let cons = m.add_component("cons", None);
        let p = m.add_port(prod, "out", Some(prod_rate));
        let q = m.add_port(cons, "in", Some(cons_rate));
        m.connect(p, q, response, Rational::ZERO, Rational::ONE);
        m.connect_buffer("b", q, p, response, -cap, Rational::ONE);
        m
    }

    /// 0.1 ms as an exact rational (seconds).
    fn response() -> Rational {
        Rational::new(1, 10_000)
    }

    #[test]
    fn simple_pair_is_consistent() {
        let m = producer_consumer(int(1000), int(1500), response(), int(4));
        let r = m.check_consistency().unwrap();
        // Both ports in one rate group, running at exactly the slower max rate.
        let (p, q) = (PortId::new(0), PortId::new(1));
        assert_eq!(r.rate_groups[p], r.rate_groups[q]);
        assert_eq!(r.rates[p], int(1000));
        assert_eq!(r.rates[q], int(1000));
        assert!(r.min_slack().unwrap() >= Rational::ZERO);
        // The f64 boundary conversion is lossless for these values.
        assert_eq!(r.rate_hz(p), 1000.0);
    }

    #[test]
    fn too_small_buffer_gives_positive_cycle() {
        // Round trip delay 2 * 1e-4 s; at 1000 Hz the buffer delay is
        // -cap/1000. cap = 1/10 gives cycle weight 2e-4 - 1e-4 > 0.
        let m = producer_consumer(int(1000), int(1000), response(), Rational::new(1, 10));
        match m.check_consistency() {
            Err(ConsistencyError::PositiveCycle {
                excess,
                connections,
                ..
            }) => {
                // Exactly 2/10000 - (1/10)/1000 = 1/10000 seconds of excess.
                assert_eq!(excess, Rational::new(1, 10_000));
                assert_eq!(connections.len(), 2);
            }
            other => panic!("expected positive cycle, got {other:?}"),
        }
    }

    #[test]
    fn buffer_of_exactly_round_trip_is_feasible() {
        // Cycle: eps 2e-4, phi -cap at rate 1000 -> need cap >= 1/5; with
        // cap = 1/5 the cycle weight is exactly zero — accepted without any
        // tolerance.
        let m = producer_consumer(int(1000), int(1000), response(), Rational::new(1, 5));
        let r = m.check_consistency().unwrap();
        assert_eq!(r.min_slack(), Some(Rational::ZERO));
    }

    #[test]
    fn required_rate_fixes_group_rate() {
        let mut m = producer_consumer(int(10_000), int(10_000), Rational::new(1, 100_000), int(4));
        // Add a source port wired to the producer that fixes 2 kHz.
        let src = m.add_component("src", None);
        let s = m.add_required_rate_port(src, "out", int(2000));
        m.connect(
            s,
            PortId::new(0),
            Rational::ZERO,
            Rational::ZERO,
            Rational::ONE,
        );
        let r = m.check_consistency().unwrap();
        assert_eq!(r.rates[PortId::new(0)], int(2000));
        assert_eq!(r.rates[PortId::new(1)], int(2000));
    }

    #[test]
    fn conflicting_required_rates_detected() {
        let mut m = CtaModel::new();
        let a = m.add_component("a", None);
        let p = m.add_required_rate_port(a, "p", int(1000));
        let q = m.add_required_rate_port(a, "q", int(1500));
        m.connect(p, q, Rational::ZERO, Rational::ZERO, Rational::ONE);
        assert!(matches!(
            m.check_consistency(),
            Err(ConsistencyError::RequiredRateConflict { .. })
        ));
    }

    #[test]
    fn required_rate_exceeding_max_rate_detected() {
        let mut m = CtaModel::new();
        let a = m.add_component("a", None);
        let p = m.add_required_rate_port(a, "p", int(1000));
        let q = m.add_port(a, "q", Some(int(400)));
        m.connect(p, q, Rational::ZERO, Rational::ZERO, Rational::ONE);
        assert!(matches!(
            m.check_consistency(),
            Err(ConsistencyError::MaxRateExceeded { .. })
        ));
    }

    #[test]
    fn gamma_cycle_product_must_be_one() {
        let mut m = CtaModel::new();
        let a = m.add_component("a", None);
        let p = m.add_port(a, "p", Some(int(1000)));
        let q = m.add_port(a, "q", Some(int(1000)));
        m.connect(p, q, Rational::ZERO, Rational::ZERO, Rational::new(2, 1));
        m.connect(q, p, Rational::ZERO, Rational::ZERO, Rational::new(1, 1));
        assert!(matches!(
            m.check_consistency(),
            Err(ConsistencyError::RateConflict { .. })
        ));
    }

    #[test]
    fn multi_rate_gamma_propagates_rates_exactly() {
        // Splitter: input at 6.4 MHz, video output gamma 10/16, audio output
        // gamma 1/25.
        let mut m = CtaModel::new();
        let w = m.add_component("splitter", None);
        let rf = m.add_required_rate_port(w, "rf", int(6_400_000));
        let vid = m.add_port(w, "vid", None);
        let aud = m.add_port(w, "aud", None);
        m.connect(
            rf,
            vid,
            Rational::ZERO,
            Rational::ZERO,
            Rational::new(10, 16),
        );
        m.connect(
            rf,
            aud,
            Rational::ZERO,
            Rational::ZERO,
            Rational::new(1, 25),
        );
        let r = m.check_consistency().unwrap();
        assert_eq!(r.rates[vid], int(4_000_000));
        assert_eq!(r.rates[aud], int(256_000));
    }

    #[test]
    fn fig8c_rate_dependent_delay_values() {
        // The connection (p0, p2) of Fig. 8 has phi = psi - psi/pi = 4 - 4/2 = 2
        // and gamma = 2/4. At rate r the delay is rho_g + 2/r.
        let rho = Rational::new(1, 1_000_000);
        let psi = int(4);
        let pi = int(2);
        let phi = psi - psi / pi;
        let mut m = CtaModel::new();
        let w = m.add_component("wg", None);
        let p0 = m.add_port(w, "p0", Some(int(1_000_000)));
        let p2 = m.add_port(w, "p2", Some(int(1_000_000)));
        let c = m.connect(p0, p2, rho, phi, Rational::new(2, 4));
        assert_eq!(
            m.connections[c].delay_at_rate(int(1_000_000)),
            rho + Rational::new(2, 1_000_000)
        );
        let r = m.check_consistency().unwrap();
        assert_eq!(r.rates[p2] / r.rates[p0], Rational::new(1, 2));
    }

    #[test]
    fn offsets_respect_connection_delays() {
        let m = producer_consumer(int(1000), int(1000), Rational::new(1, 5000), int(1));
        let r = m.check_consistency().unwrap();
        for (cid, c) in m.connections.iter_enumerated() {
            let d = c.delay_at_rate(r.rates[c.from]);
            assert!(
                r.offsets[c.to] >= r.offsets[c.from] + d,
                "connection {cid} violated"
            );
        }
    }

    #[test]
    fn maximal_rates_scale_down_to_the_exact_feasible_rate() {
        // Buffer too small for the max rate but fine at a lower rate:
        // cycle eps 2e-4 s, capacity 1 token -> feasible iff rate <= 5000 Hz.
        // The exact algorithm finds *exactly* 5000 Hz, not an approximation.
        let m = producer_consumer(int(20_000), int(20_000), response(), int(1));
        assert!(m.check_consistency().is_err());
        let rates = m.maximal_rates().unwrap();
        assert_eq!(rates[PortId::new(0)], int(5000));
        assert_eq!(rates[PortId::new(1)], int(5000));
    }

    #[test]
    fn maximal_rates_keep_required_rates_fixed() {
        let mut m = producer_consumer(int(10_000), int(10_000), Rational::new(1, 100_000), int(8));
        let src = m.add_component("src", None);
        let s = m.add_required_rate_port(src, "out", int(1000));
        m.connect(
            s,
            PortId::new(0),
            Rational::ZERO,
            Rational::ZERO,
            Rational::ONE,
        );
        let rates = m.maximal_rates().unwrap();
        assert_eq!(rates[PortId::new(0)], int(1000));
    }

    #[test]
    fn maximal_rates_are_solved_per_connected_component() {
        // Two disconnected producer/consumer pairs: one with a binding
        // buffer (max 5 kHz achievable), one unconstrained (20 kHz). The
        // factors are per component, so the unconstrained pair keeps its
        // full rate instead of being dragged down to the other's.
        let mut m = producer_consumer(int(20_000), int(20_000), response(), int(1));
        let free = producer_consumer(int(20_000), int(20_000), response(), int(64));
        let off = m.merge(&free);
        let rates = m.maximal_rates().unwrap();
        assert_eq!(rates[PortId::new(0)], int(5000));
        assert_eq!(rates[off.port(PortId::new(0))], int(20_000));
    }

    #[test]
    fn maximal_rates_with_unbounded_buffers_ignore_capacity() {
        // At the max rate the capacity-1 buffer is binding, but with
        // unbounded buffers the full 20 kHz is achievable.
        let m = producer_consumer(int(20_000), int(20_000), response(), int(1));
        let rates = m.maximal_rates_unbounded_buffers().unwrap();
        assert_eq!(rates[PortId::new(0)], int(20_000));
    }

    #[test]
    fn latency_style_negative_epsilon_cycle() {
        // src -> snk forward delay 3 ms, latency constraint 5 ms modelled as
        // a -5 ms back connection: consistent. With a 2 ms constraint:
        // inconsistent (and no rate reduction can help: the cycle has no
        // rate-dependent term).
        let build = |bound_ms: i128| {
            let mut m = CtaModel::new();
            let src = m.add_component("src", None);
            let snk = m.add_component("snk", None);
            let s = m.add_required_rate_port(src, "out", int(1000));
            let k = m.add_required_rate_port(snk, "in", int(1000));
            m.connect(s, k, Rational::new(3, 1000), Rational::ZERO, Rational::ONE);
            m.connect(
                k,
                s,
                Rational::new(-bound_ms, 1000),
                Rational::ZERO,
                Rational::ONE,
            );
            m
        };
        assert!(build(5).check_consistency().is_ok());
        assert!(matches!(
            build(2).check_consistency(),
            Err(ConsistencyError::PositiveCycle { .. })
        ));
        assert!(matches!(
            build(2).maximal_rates(),
            Err(ConsistencyError::PositiveCycle { .. })
        ));
    }

    #[test]
    fn empty_model_is_consistent() {
        let m = CtaModel::new();
        let r = m.check_consistency().unwrap();
        assert!(r.rates.is_empty());
        assert_eq!(r.min_slack(), None);
    }

    #[test]
    fn consistency_is_deterministic() {
        // Exact arithmetic makes repeated analyses bit-identical.
        let m = producer_consumer(int(48_000), int(44_100), Rational::new(1, 96_000), int(3));
        let first = m.check_consistency().unwrap();
        for _ in 0..10 {
            assert_eq!(m.check_consistency().unwrap(), first);
        }
    }

    /// `10^18 + k`: primes for k = 3, 9 and 31.
    fn near_1e18(k: i128) -> i128 {
        1_000_000_000_000_000_000 + k
    }

    /// A cycle through fresh rate-free ports with the given constant delays;
    /// returns its ports.
    fn add_cycle(m: &mut CtaModel, delays: &[Rational]) -> Vec<PortId> {
        let c = m.add_component("cycle", None);
        let ports: Vec<PortId> = (0..delays.len())
            .map(|i| m.add_port(c, format!("p{i}"), None))
            .collect();
        for (i, &d) in delays.iter().enumerate() {
            let next = ports[(i + 1) % ports.len()];
            m.connect(ports[i], next, d, Rational::ZERO, Rational::ONE);
        }
        ports
    }

    /// Run the delay check of `m` at its resolved rates on `kernel`.
    fn delay_check_on(m: &CtaModel, kernel: Kernel) -> Result<DelayCheck, ConsistencyError> {
        let rs = propagate_rate_structure(m).unwrap();
        let (_, rates) = resolve_rates(m, &rs).unwrap();
        check_delays(m, &rates, false, kernel)
    }

    #[test]
    fn overflowing_delay_sums_are_a_typed_error_not_a_panic() {
        // 1/(1e18+3) + 1/(1e18+9) fits i128, but adding -3/(1e18+21) needs
        // a denominator of ~1e54.
        let mut m = CtaModel::new();
        add_cycle(
            &mut m,
            &[
                Rational::new(1, near_1e18(3)),
                Rational::new(1, near_1e18(9)),
                Rational::new(-3, near_1e18(21)),
            ],
        );
        assert!(matches!(
            m.check_consistency(),
            Err(ConsistencyError::DelayOverflow { .. })
        ));
        assert!(matches!(
            crate::size_buffers(&m),
            Err(crate::BufferSizingError::Unfixable(
                ConsistencyError::DelayOverflow { .. }
            ))
        ));
    }

    #[test]
    fn disjoint_components_are_scaled_separately() {
        // Three 2-port zero-weight cycles, each over its own ~1e18 prime: one
        // common denominator would need ~1e54, one per component fits.
        let mut m = CtaModel::new();
        for k in [3, 9, 31] {
            let d = Rational::new(1, near_1e18(k));
            add_cycle(&mut m, &[d, -d]);
        }
        let weights = m.connections.iter().map(|c| c.epsilon).collect();
        let comp = m.port_constraint_components();
        assert!(scale_per_component(&m, &comp, &weights).is_some());
        let r = m.check_consistency().unwrap();
        assert_eq!(r.offsets[PortId::new(1)], Rational::new(1, near_1e18(3)));
        assert_eq!(r.min_slack(), Some(Rational::ZERO));
        assert_eq!(
            delay_check_on(&m, Kernel::Integer),
            delay_check_on(&m, Kernel::Rational)
        );
    }

    #[test]
    fn an_overflowing_common_denominator_falls_back_to_rationals() {
        // The same three cycles joined into one constraint component by
        // links of -1 s that never relax: that component's denominator
        // overflows i128, while every rational sum stays within ~1e36.
        let mut m = CtaModel::new();
        let cycles: Vec<Vec<PortId>> = [3, 9, 31]
            .iter()
            .map(|&k| {
                let d = Rational::new(1, near_1e18(k));
                add_cycle(&mut m, &[d, -d])
            })
            .collect();
        for pair in cycles.windows(2) {
            m.connect(
                pair[0][1],
                pair[1][1],
                int(-1),
                Rational::ZERO,
                Rational::ONE,
            );
        }
        let weights = m.connections.iter().map(|c| c.epsilon).collect();
        let comp = m.port_constraint_components();
        assert!(scale_per_component(&m, &comp, &weights).is_none());
        let r = m.check_consistency().unwrap();
        assert_eq!(r.offsets[PortId::new(3)], Rational::new(1, near_1e18(9)));
        // The first link's slack mixes two of the ~1e18 denominators.
        assert_eq!(
            r.slacks[ConnectionId::new(6)],
            Rational::new(1, near_1e18(9)) - Rational::new(1, near_1e18(3)) + int(1)
        );
        assert_eq!(
            delay_check_on(&m, Kernel::Integer),
            delay_check_on(&m, Kernel::Rational)
        );
    }

    #[test]
    fn offsets_overflowing_around_a_positive_cycle_fall_back_to_rationals() {
        // A 2-port cycle of 2^100 s per hop, plus a 1/30000001 s hop into
        // it: scaled hops W of about 1.8 * 2^124 pass the up-front bound
        // (4W < 2^127), but the offsets growing around the cycle overflow i128
        // in the third pass. The rational loop's offsets stay below 2^103.
        let mut m = CtaModel::new();
        let hop = int(1 << 100);
        let cycle = add_cycle(&mut m, &[hop, hop]);
        let c = m.add_component("feed", None);
        let feed = m.add_port(c, "out", None);
        m.connect(
            feed,
            cycle[0],
            Rational::new(1, 30_000_001),
            Rational::ZERO,
            Rational::ONE,
        );

        let weights = m.connections.iter().map(|c| c.epsilon).collect();
        let comp = m.port_constraint_components();
        let (scaled, _) = scale_per_component(&m, &comp, &weights).unwrap();
        let relaxed: Vec<_> = m
            .connections
            .iter_enumerated()
            .map(|(cid, c)| (cid, c.from, c.to))
            .collect();
        assert!(matches!(
            bellman_ford(&m, &relaxed, &scaled, |x, _| Rational::from_int(x)),
            Err(ConsistencyError::DelayOverflow { .. })
        ));
        let integer = delay_check_on(&m, Kernel::Integer);
        assert_eq!(integer, delay_check_on(&m, Kernel::Rational));
        match integer {
            Err(ConsistencyError::PositiveCycle { excess, .. }) => assert_eq!(excess, hop + hop),
            other => panic!("expected the cycle, got {other:?}"),
        }
    }

    #[test]
    fn integer_and_rational_kernels_agree_on_random_models() {
        // Random graphs over mixed denominators and rate-dependent delays:
        // both kernels give the same offsets and slacks, or the same witness
        // cycle with the same excess.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let (mut feasible, mut cyclic) = (0, 0);
        for _ in 0..200 {
            let mut m = CtaModel::new();
            let c = m.add_component("c", None);
            let n = 2 + next(6) as usize;
            let ports: Vec<PortId> = (0..n)
                .map(|i| m.add_port(c, format!("p{i}"), Some(int(1 + next(50) as i128))))
                .collect();
            for _ in 0..n + next(2 * n as u64) as usize {
                let (a, b) = (
                    ports[next(n as u64) as usize],
                    ports[next(n as u64) as usize],
                );
                let eps = Rational::new(next(40) as i128 - 25, 1 + next(12) as i128);
                let phi = int(next(5) as i128 - 2);
                let cid = m.connect(a, b, eps, phi, Rational::ONE);
                m.connections[cid].couples_rates = false;
            }
            let integer = delay_check_on(&m, Kernel::Integer);
            assert_eq!(integer, delay_check_on(&m, Kernel::Rational));
            match integer {
                Ok(_) => feasible += 1,
                Err(ConsistencyError::PositiveCycle { .. }) => cyclic += 1,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(
            feasible >= 20 && cyclic >= 20,
            "{feasible} feasible, {cyclic} cyclic"
        );
    }
}
