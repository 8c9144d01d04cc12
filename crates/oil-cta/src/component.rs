//! CTA components, ports and connections.
//!
//! A CTA component is `w = (P, r̂, C, γ, ε, φ)` (paper Section V-A): a set of
//! ports `P`, a maximum transfer rate `r̂(p)` per port, connections `C ⊆ P×P`,
//! and per connection a transfer-rate ratio `γ`, a constant delay `ε` and a
//! rate-dependent delay `φ`. The time a connection `c = (p, q)` delays data is
//! `Δ(c) = ε(c) + φ(c) / r(p)`.
//!
//! All quantities are **exact rationals** ([`Rational`]): rates in events per
//! second, delays in seconds, `φ` in events. The analyses in this crate
//! therefore contain no floating-point tolerance constants; `f64` appears
//! only in human-readable output ([`CtaModel::describe`]) and in the
//! `*_hz`/`*_seconds` convenience accessors of the result types.
//!
//! This module stores a whole *model* (a composition of components) in one
//! flat arena — components only group ports and record nesting, which mirrors
//! how the paper nests while-loop components inside module components
//! (Fig. 9) — and provides the builder API shared by all analyses. Ports,
//! components and connections are addressed by typed indices ([`PortId`],
//! [`ComponentId`], [`ConnectionId`]), so a port id can never be mistaken for
//! a connection id by the compiler.

use oil_dataflow::define_index_type;
use oil_dataflow::index::{Idx, IndexVec, PortId};
use oil_dataflow::Rational;
use serde::{Deserialize, Serialize};

define_index_type! {
    /// A component of a [`CtaModel`].
    pub struct ComponentId = "w";
}

define_index_type! {
    /// A connection of a [`CtaModel`].
    pub struct ConnectionId = "c";
}

/// A port of a CTA component.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Port {
    /// Port name, unique within its component.
    pub name: String,
    /// The component this port belongs to.
    pub component: ComponentId,
    /// Maximum transfer rate `r̂(p)` in events per second; `None` for ports
    /// that impose no bound (e.g. the modelling artifact ports of module
    /// components).
    pub max_rate: Option<Rational>,
    /// A rate required exactly at this port (sources and sinks execute
    /// time-triggered at a fixed frequency). `None` for ports whose rate is
    /// determined by the rest of the model.
    pub required_rate: Option<Rational>,
}

/// A directed connection between two ports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Connection {
    /// Source port `p`.
    pub from: PortId,
    /// Destination port `q`.
    pub to: PortId,
    /// Constant delay `ε(c)` in seconds (may be negative, e.g. for latency
    /// constraints).
    pub epsilon: Rational,
    /// Rate-dependent delay `φ(c)` in events; contributes `φ / r(p)` seconds
    /// (negative values model buffer capacities: `-δ / r`).
    pub phi: Rational,
    /// Transfer rate ratio `γ(c)`: `r(q) = γ · r(p)`.
    pub gamma: Rational,
    /// If this connection models the capacity of a buffer, the buffer's name;
    /// buffer sizing adjusts `phi` on such connections.
    pub buffer: Option<String>,
    /// Whether the connection couples the rates of its endpoints through
    /// `gamma` (true for ordinary data/space connections). Latency-constraint
    /// connections between sources and sinks running at unrelated rates set
    /// this to false: they only constrain start times.
    pub couples_rates: bool,
}

impl Connection {
    /// The delay of this connection at source-port rate `rate` (events/s):
    /// `Δ(c) = ε + φ / r(p)`. Exact.
    ///
    /// # Panics
    /// Panics if `phi` is non-zero and `rate` is not positive.
    pub fn delay_at_rate(&self, rate: Rational) -> Rational {
        self.checked_delay_at_rate(rate)
            .expect("connection delay overflowed i128")
    }

    /// As [`Self::delay_at_rate`], but `None` when `ε + φ / r(p)` overflows
    /// `i128`.
    ///
    /// # Panics
    /// Panics if `phi` is non-zero and `rate` is not positive.
    pub(crate) fn checked_delay_at_rate(&self, rate: Rational) -> Option<Rational> {
        if self.phi.is_zero() {
            Some(self.epsilon)
        } else {
            assert!(
                rate.is_positive(),
                "rate-dependent delay needs a positive rate"
            );
            self.epsilon.checked_add(self.phi.checked_div(rate)?)
        }
    }

    /// The buffer capacity `δ` this connection models (`phi = -δ`), if any.
    pub fn capacity(&self) -> Option<Rational> {
        self.buffer.as_ref().map(|_| -self.phi)
    }
}

/// A CTA component: a named group of ports, optionally nested inside a parent
/// component (while-loop components nest inside module components).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Component {
    /// Component name (module, while-loop, task, source or sink name).
    pub name: String,
    /// Enclosing component, if any.
    pub parent: Option<ComponentId>,
    /// Ports belonging to this component.
    pub ports: Vec<PortId>,
}

/// A complete CTA model: a composition of components and connections.
///
/// A composition of CTA components and connections is again a CTA component
/// (paper Section V-A), so one flat model with nesting information is
/// sufficient to represent arbitrarily deep compositions.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CtaModel {
    /// All components.
    pub components: IndexVec<ComponentId, Component>,
    /// All ports.
    pub ports: IndexVec<PortId, Port>,
    /// All connections.
    pub connections: IndexVec<ConnectionId, Connection>,
}

impl CtaModel {
    /// An empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a component, optionally nested inside `parent`.
    pub fn add_component(
        &mut self,
        name: impl Into<String>,
        parent: Option<ComponentId>,
    ) -> ComponentId {
        self.components.push(Component {
            name: name.into(),
            parent,
            ports: Vec::new(),
        })
    }

    /// Add a port to `component` with maximum rate `max_rate` (events/s);
    /// `None` leaves the port unbounded.
    ///
    /// # Panics
    /// Panics if `max_rate` is zero or negative.
    pub fn add_port(
        &mut self,
        component: ComponentId,
        name: impl Into<String>,
        max_rate: Option<Rational>,
    ) -> PortId {
        if let Some(r) = max_rate {
            assert!(r.is_positive(), "maximum rates must be positive");
        }
        let id = self.ports.push(Port {
            name: name.into(),
            component,
            max_rate,
            required_rate: None,
        });
        self.components[component].ports.push(id);
        id
    }

    /// Add a port whose rate is fixed by the environment (a source or sink
    /// executing time-triggered at `rate`).
    ///
    /// # Panics
    /// Panics if `rate` is zero or negative.
    pub fn add_required_rate_port(
        &mut self,
        component: ComponentId,
        name: impl Into<String>,
        rate: Rational,
    ) -> PortId {
        assert!(rate.is_positive(), "required rates must be positive");
        let id = self.add_port(component, name, Some(rate));
        self.ports[id].required_rate = Some(rate);
        id
    }

    /// Connect `from` to `to` with constant delay `epsilon` (seconds),
    /// rate-dependent delay `phi` (events) and transfer-rate ratio `gamma`.
    pub fn connect(
        &mut self,
        from: PortId,
        to: PortId,
        epsilon: Rational,
        phi: Rational,
        gamma: Rational,
    ) -> ConnectionId {
        assert!(
            from.index() < self.ports.len() && to.index() < self.ports.len(),
            "connection endpoints must exist"
        );
        assert!(gamma.is_positive(), "transfer rate ratios must be positive");
        self.connections.push(Connection {
            from,
            to,
            epsilon,
            phi,
            gamma,
            buffer: None,
            couples_rates: true,
        })
    }

    /// Connect `from` to `to` with a pure timing constraint: the connection
    /// delays data by `epsilon` seconds but does **not** couple the rates of
    /// its endpoints. Used for `start .. before/after ..` latency constraints
    /// between sources and sinks that run at unrelated rates.
    pub fn connect_constraint(
        &mut self,
        from: PortId,
        to: PortId,
        epsilon: Rational,
    ) -> ConnectionId {
        let id = self.connect(from, to, epsilon, Rational::ZERO, Rational::ONE);
        self.connections[id].couples_rates = false;
        id
    }

    /// Connect `from` to `to` with a rate-dependent delay modelling the
    /// capacity of buffer `buffer` (`phi` is `-δ`); buffer sizing may enlarge
    /// the capacity by making `phi` more negative.
    pub fn connect_buffer(
        &mut self,
        buffer: impl Into<String>,
        from: PortId,
        to: PortId,
        epsilon: Rational,
        phi: Rational,
        gamma: Rational,
    ) -> ConnectionId {
        let id = self.connect(from, to, epsilon, phi, gamma);
        self.connections[id].buffer = Some(buffer.into());
        id
    }

    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Number of connections.
    pub fn connection_count(&self) -> usize {
        self.connections.len()
    }

    /// Find a component by name.
    pub fn component_by_name(&self, name: &str) -> Option<ComponentId> {
        self.components.position(|c| c.name == name)
    }

    /// Find a port by `component` and port name.
    pub fn port_by_name(&self, component: ComponentId, name: &str) -> Option<PortId> {
        self.components[component]
            .ports
            .iter()
            .copied()
            .find(|&p| self.ports[p].name == name)
    }

    /// All connections whose source or destination belongs to `component`.
    pub fn connections_of(&self, component: ComponentId) -> Vec<ConnectionId> {
        self.connections
            .iter_enumerated()
            .filter(|(_, c)| {
                self.ports[c.from].component == component || self.ports[c.to].component == component
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// All connections that model buffer capacities, grouped by buffer name.
    pub fn buffer_connections(&self) -> Vec<(String, ConnectionId)> {
        self.connections
            .iter_enumerated()
            .filter_map(|(i, c)| c.buffer.clone().map(|b| (b, i)))
            .collect()
    }

    /// Merge `other` into `self`, returning the offsets by which `other`'s
    /// component, port and connection ids were shifted. This is the
    /// *composition* operation of the CTA model: composing two models yields
    /// another model, and analyses run unchanged on the result.
    pub fn merge(&mut self, other: &CtaModel) -> MergeOffsets {
        let offsets = MergeOffsets {
            components: self.components.len(),
            ports: self.ports.len(),
            connections: self.connections.len(),
        };
        for c in &other.components {
            self.components.push(Component {
                name: c.name.clone(),
                parent: c.parent.map(|p| offsets.component(p)),
                ports: c.ports.iter().map(|&p| offsets.port(p)).collect(),
            });
        }
        for p in &other.ports {
            self.ports.push(Port {
                name: p.name.clone(),
                component: offsets.component(p.component),
                max_rate: p.max_rate,
                required_rate: p.required_rate,
            });
        }
        for c in &other.connections {
            self.connections.push(Connection {
                from: offsets.port(c.from),
                to: offsets.port(c.to),
                epsilon: c.epsilon,
                phi: c.phi,
                gamma: c.gamma,
                buffer: c.buffer.clone(),
                couples_rates: c.couples_rates,
            });
        }
        offsets
    }

    /// Children of `component` in the nesting hierarchy.
    pub fn children(&self, component: ComponentId) -> Vec<ComponentId> {
        self.components
            .iter_enumerated()
            .filter(|(_, c)| c.parent == Some(component))
            .map(|(i, _)| i)
            .collect()
    }

    /// Human-readable summary, one line per component with its port count and
    /// one line per connection — handy for reproducing the structure of the
    /// paper's Figures 7–10 and 12 in examples. The exact rationals are
    /// rendered as such; only here does nothing depend on the output.
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, c) in self.components.iter_enumerated() {
            let parent = c
                .parent
                .map(|p| format!(" (in {})", self.components[p].name))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "component {} `{}`{}: {} ports",
                i,
                c.name,
                parent,
                c.ports.len()
            );
        }
        for (i, c) in self.connections.iter_enumerated() {
            let from = &self.ports[c.from];
            let to = &self.ports[c.to];
            let buffer = c
                .buffer
                .as_deref()
                .map(|b| format!(" buffer={b}"))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "connection {}: {}.{} -> {}.{} eps={} phi={} gamma={}{}",
                i,
                self.components[from.component].name,
                from.name,
                self.components[to.component].name,
                to.name,
                c.epsilon,
                c.phi,
                c.gamma,
                buffer
            );
        }
        out
    }
}

/// Offsets returned by [`CtaModel::merge`], translating the merged model's
/// ids into the composed model's id spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MergeOffsets {
    /// Offset added to component ids of the merged model.
    pub components: usize,
    /// Offset added to port ids of the merged model.
    pub ports: usize,
    /// Offset added to connection ids of the merged model.
    pub connections: usize,
}

impl MergeOffsets {
    /// Translate a component id of the merged model.
    pub fn component(&self, id: ComponentId) -> ComponentId {
        ComponentId::new(id.index() + self.components)
    }

    /// Translate a port id of the merged model.
    pub fn port(&self, id: PortId) -> PortId {
        PortId::new(id.index() + self.ports)
    }

    /// Translate a connection id of the merged model.
    pub fn connection(&self, id: ConnectionId) -> ConnectionId {
        ConnectionId::new(id.index() + self.connections)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 µs as an exact rational (seconds).
    fn rho() -> Rational {
        Rational::new(1, 500_000)
    }

    #[test]
    fn build_fig7_single_rate_component() {
        // Fig. 7c: a component with ports for bx (in), by (in), bz (out) and
        // their release counterparts; zero-delay connections between input
        // ports, rho-delay connections from inputs to the output.
        let max = Some(rho().recip());
        let mut m = CtaModel::new();
        let w = m.add_component("wf", None);
        let bx_in = m.add_port(w, "bx_in", max);
        let by_in = m.add_port(w, "by_in", max);
        let bz_out = m.add_port(w, "bz_out", max);
        m.connect(bx_in, by_in, Rational::ZERO, Rational::ZERO, Rational::ONE);
        m.connect(by_in, bx_in, Rational::ZERO, Rational::ZERO, Rational::ONE);
        m.connect(bx_in, bz_out, rho(), Rational::ZERO, Rational::ONE);
        m.connect(by_in, bz_out, rho(), Rational::ZERO, Rational::ONE);
        assert_eq!(m.component_count(), 1);
        assert_eq!(m.port_count(), 3);
        assert_eq!(m.connection_count(), 4);
        assert_eq!(m.port_by_name(w, "bz_out"), Some(bz_out));
        assert_eq!(m.connections_of(w).len(), 4);
    }

    #[test]
    fn connection_delay_at_rate_is_exact() {
        let mut m = CtaModel::new();
        let w = m.add_component("w", None);
        let a = m.add_port(w, "a", None);
        let b = m.add_port(w, "b", None);
        let c = m.connect(
            a,
            b,
            Rational::new(1, 1000),
            Rational::from_int(2),
            Rational::ONE,
        );
        // At 1 kHz: 1 ms + 2/1000 s = exactly 3 ms.
        assert_eq!(
            m.connections[c].delay_at_rate(Rational::from_int(1000)),
            Rational::new(3, 1000)
        );
        // Zero phi ignores the rate entirely (even a zero rate is fine).
        let c2 = m.connect(a, b, Rational::new(1, 200), Rational::ZERO, Rational::ONE);
        assert_eq!(
            m.connections[c2].delay_at_rate(Rational::ZERO),
            Rational::new(1, 200)
        );
    }

    #[test]
    fn buffer_connections_and_capacity() {
        let mut m = CtaModel::new();
        let w = m.add_component("w", None);
        let a = m.add_port(w, "a", Some(Rational::from_int(100)));
        let b = m.add_port(w, "b", Some(Rational::from_int(100)));
        m.connect(a, b, Rational::ZERO, Rational::ONE, Rational::ONE);
        let cid = m.connect_buffer(
            "bx",
            b,
            a,
            Rational::ZERO,
            Rational::from_int(-8),
            Rational::ONE,
        );
        assert_eq!(m.buffer_connections(), vec![("bx".to_string(), cid)]);
        assert_eq!(m.connections[cid].capacity(), Some(Rational::from_int(8)));
        assert_eq!(m.connections[ConnectionId::new(0)].capacity(), None);
    }

    #[test]
    fn merge_offsets_are_applied() {
        let mut a = CtaModel::new();
        let ca = a.add_component("a", None);
        let p0 = a.add_port(ca, "x", Some(Rational::from_int(10)));
        let p1 = a.add_port(ca, "y", Some(Rational::from_int(10)));
        a.connect(p0, p1, Rational::ZERO, Rational::ZERO, Rational::ONE);

        let mut b = CtaModel::new();
        let cb = b.add_component("b", None);
        let q0 = b.add_port(cb, "u", Some(Rational::from_int(20)));
        let q1 = b.add_port(cb, "v", Some(Rational::from_int(20)));
        b.connect(q0, q1, Rational::ONE, Rational::ZERO, Rational::ONE);

        let off = a.merge(&b);
        assert_eq!(off.components, 1);
        assert_eq!(off.ports, 2);
        assert_eq!(off.connections, 1);
        assert_eq!(a.component_count(), 2);
        assert_eq!(a.port_count(), 4);
        assert_eq!(a.connections[ConnectionId::new(1)].from, off.port(q0));
        assert_eq!(a.ports[off.port(q0)].component, off.component(cb));
    }

    #[test]
    fn nesting_and_children() {
        let mut m = CtaModel::new();
        let wa = m.add_component("wA", None);
        let wp0 = m.add_component("wp0", Some(wa));
        let wp1 = m.add_component("wp1", Some(wa));
        let wf = m.add_component("wf", Some(wp0));
        assert_eq!(m.children(wa), vec![wp0, wp1]);
        assert_eq!(m.children(wp0), vec![wf]);
        assert!(m.children(wf).is_empty());
        assert_eq!(m.component_by_name("wp1"), Some(wp1));
    }

    #[test]
    fn required_rate_ports() {
        let mut m = CtaModel::new();
        let src = m.add_component("src", None);
        let p = m.add_required_rate_port(src, "out", Rational::from_int(1000));
        assert_eq!(m.ports[p].required_rate, Some(Rational::from_int(1000)));
        assert_eq!(m.ports[p].max_rate, Some(Rational::from_int(1000)));
    }

    #[test]
    fn describe_mentions_components_and_buffers() {
        let mut m = CtaModel::new();
        let w = m.add_component("wSplitter", None);
        let a = m.add_port(w, "in", Some(Rational::from_int(6_400_000)));
        let b = m.add_port(w, "out", Some(Rational::from_int(4_000_000)));
        m.connect_buffer(
            "vid",
            a,
            b,
            Rational::ZERO,
            Rational::from_int(-16),
            Rational::new(10, 16),
        );
        let d = m.describe();
        assert!(d.contains("wSplitter"));
        assert!(d.contains("buffer=vid"));
        assert!(d.contains("5/8"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_gamma_panics() {
        let mut m = CtaModel::new();
        let w = m.add_component("w", None);
        let a = m.add_port(w, "a", Some(Rational::ONE));
        let b = m.add_port(w, "b", Some(Rational::ONE));
        m.connect(a, b, Rational::ZERO, Rational::ZERO, Rational::ZERO);
    }

    #[test]
    #[should_panic(expected = "maximum rates must be positive")]
    fn non_positive_max_rate_panics() {
        let mut m = CtaModel::new();
        let w = m.add_component("w", None);
        m.add_port(w, "a", Some(Rational::ZERO));
    }
}
