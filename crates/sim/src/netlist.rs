//! Circuit netlist representation and builder.
//!
//! A [`Circuit`] is a flat bag of elements over integer-indexed nodes, with
//! node 0 as ground, mirroring the structure of a SPICE deck. Topology
//! generators in `autockt-circuits` construct a fresh `Circuit` per
//! parameter vector; analyses in [`crate::dc`], [`crate::ac`],
//! [`crate::tran`] and [`crate::noise`] consume it immutably.

use crate::device::{MosModel, MosPolarity};

/// A handle to a circuit node. Node 0 is ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Node(pub(crate) usize);

/// The ground (reference) node.
pub const GND: Node = Node(0);

impl Node {
    /// Raw index of the node (0 = ground). Mostly useful for diagnostics.
    pub fn index(self) -> usize {
        self.0
    }

    /// Returns `true` for the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

/// A step waveform for transient sources: value is `v0` until `t_delay`,
/// then `v1` (with an instantaneous edge; the integrator treats the corner
/// conservatively).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Initial level.
    pub v0: f64,
    /// Final level.
    pub v1: f64,
    /// Edge time (s).
    pub t_delay: f64,
}

impl Step {
    /// Value of the waveform at time `t`.
    pub fn value(&self, t: f64) -> f64 {
        if t < self.t_delay {
            self.v0
        } else {
            self.v1
        }
    }
}

/// An instantiated MOSFET. The bulk is implicitly tied to the source
/// (no body effect); this matches the hand-analysis model the rest of the
/// device card assumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mosfet {
    /// Device polarity.
    pub polarity: MosPolarity,
    /// Drain node.
    pub d: Node,
    /// Gate node.
    pub g: Node,
    /// Source node.
    pub s: Node,
    /// Channel width (m).
    pub w: f64,
    /// Channel length (m).
    pub l: f64,
    /// Parallel-device multiplier.
    pub mult: f64,
    /// Model card (copied in; cards are tiny).
    pub model: MosModel,
}

/// A netlist element.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// Linear resistor between `p` and `n`. `noisy` controls whether its
    /// thermal noise is included in noise analysis (bias ideal resistors
    /// can opt out).
    Resistor {
        /// Positive terminal.
        p: Node,
        /// Negative terminal.
        n: Node,
        /// Resistance (ohm), must be > 0.
        r: f64,
        /// Include 4kT/R noise in noise analysis.
        noisy: bool,
    },
    /// Linear capacitor between `p` and `n`.
    Capacitor {
        /// Positive terminal.
        p: Node,
        /// Negative terminal.
        n: Node,
        /// Capacitance (farad), must be >= 0.
        c: f64,
    },
    /// Independent voltage source `p` - `n` = value. Contributes one MNA
    /// branch unknown.
    Vsource {
        /// Positive terminal.
        p: Node,
        /// Negative terminal.
        n: Node,
        /// DC value (V).
        dc: f64,
        /// AC magnitude (V) for small-signal analyses.
        ac: f64,
        /// Optional transient waveform overriding `dc`.
        wave: Option<Step>,
    },
    /// Independent current source pushing `dc` amperes out of `n` into `p`
    /// through the external circuit (SPICE convention: positive current
    /// flows from `p` to `n` *inside* the source).
    Isource {
        /// Positive terminal.
        p: Node,
        /// Negative terminal.
        n: Node,
        /// DC value (A).
        dc: f64,
        /// AC magnitude (A).
        ac: f64,
        /// Optional transient waveform overriding `dc`.
        wave: Option<Step>,
    },
    /// Voltage-controlled current source: current `gm * v(cp, cn)` flows
    /// from `op` to `on` inside the source.
    Vccs {
        /// Output positive terminal.
        op: Node,
        /// Output negative terminal.
        on: Node,
        /// Control positive terminal.
        cp: Node,
        /// Control negative terminal.
        cn: Node,
        /// Transconductance (S).
        gm: f64,
    },
    /// A MOSFET instance.
    Mos(Mosfet),
}

/// A circuit under construction or analysis.
///
/// # Examples
///
/// Build a resistive divider and solve its operating point:
///
/// ```
/// use autockt_sim::netlist::{Circuit, GND};
/// use autockt_sim::dc::{dc_operating_point, DcOptions};
///
/// # fn main() -> Result<(), autockt_sim::SimError> {
/// let mut ckt = Circuit::new();
/// let vin = ckt.node("in");
/// let mid = ckt.node("mid");
/// ckt.vsource(vin, GND, 2.0, 0.0);
/// ckt.resistor(vin, mid, 1000.0);
/// ckt.resistor(mid, GND, 1000.0);
/// let op = dc_operating_point(&ckt, &DcOptions::default())?;
/// assert!((op.voltage(mid) - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Circuit {
    node_names: Vec<String>,
    elements: Vec<Element>,
}

impl Circuit {
    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        Circuit {
            node_names: vec!["0".to_string()],
            elements: Vec::new(),
        }
    }

    /// Allocates a new named node.
    pub fn node(&mut self, name: &str) -> Node {
        let id = self.node_names.len();
        self.node_names.push(name.to_string());
        Node(id)
    }

    /// Number of nodes including ground.
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// The elements of the circuit, in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Mutable access to elements, for in-place annotation (PEX).
    pub(crate) fn elements_mut(&mut self) -> &mut [Element] {
        &mut self.elements
    }

    /// Adds a noisy resistor. See [`Element::Resistor`].
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a positive finite number.
    pub fn resistor(&mut self, p: Node, n: Node, r: f64) {
        assert!(r.is_finite() && r > 0.0, "resistance must be positive");
        self.elements.push(Element::Resistor {
            p,
            n,
            r,
            noisy: true,
        });
    }

    /// Adds a noiseless (ideal bias) resistor.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a positive finite number.
    pub fn resistor_noiseless(&mut self, p: Node, n: Node, r: f64) {
        assert!(r.is_finite() && r > 0.0, "resistance must be positive");
        self.elements.push(Element::Resistor {
            p,
            n,
            r,
            noisy: false,
        });
    }

    /// Adds a capacitor.
    ///
    /// # Panics
    ///
    /// Panics if `c` is negative or non-finite.
    pub fn capacitor(&mut self, p: Node, n: Node, c: f64) {
        assert!(c.is_finite() && c >= 0.0, "capacitance must be >= 0");
        self.elements.push(Element::Capacitor { p, n, c });
    }

    /// Adds a DC voltage source with an AC magnitude.
    pub fn vsource(&mut self, p: Node, n: Node, dc: f64, ac: f64) {
        self.elements.push(Element::Vsource {
            p,
            n,
            dc,
            ac,
            wave: None,
        });
    }

    /// Adds a voltage source with a transient step waveform.
    pub fn vsource_step(&mut self, p: Node, n: Node, step: Step, ac: f64) {
        self.elements.push(Element::Vsource {
            p,
            n,
            dc: step.v0,
            ac,
            wave: Some(step),
        });
    }

    /// Adds a DC current source with an AC magnitude.
    pub fn isource(&mut self, p: Node, n: Node, dc: f64, ac: f64) {
        self.elements.push(Element::Isource {
            p,
            n,
            dc,
            ac,
            wave: None,
        });
    }

    /// Adds a current source with a transient step waveform.
    pub fn isource_step(&mut self, p: Node, n: Node, step: Step, ac: f64) {
        self.elements.push(Element::Isource {
            p,
            n,
            dc: step.v0,
            ac,
            wave: Some(step),
        });
    }

    /// Adds a voltage-controlled current source.
    pub fn vccs(&mut self, op: Node, on: Node, cp: Node, cn: Node, gm: f64) {
        self.elements.push(Element::Vccs { op, on, cp, cn, gm });
    }

    /// Adds a MOSFET.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is non-positive.
    pub fn mosfet(&mut self, m: Mosfet) {
        assert!(m.w > 0.0 && m.l > 0.0 && m.mult > 0.0, "bad mos geometry");
        self.elements.push(Element::Mos(m));
    }

    /// Number of independent voltage sources (each adds one MNA branch
    /// unknown).
    pub fn num_vsources(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| matches!(e, Element::Vsource { .. }))
            .count()
    }

    /// Size of the MNA unknown vector: non-ground nodes plus voltage-source
    /// branch currents.
    pub fn mna_dim(&self) -> usize {
        self.num_nodes() - 1 + self.num_vsources()
    }

    /// Index of node `n` in the MNA unknown vector, or `None` for ground.
    pub(crate) fn mna_index(&self, n: Node) -> Option<usize> {
        if n.0 == 0 {
            None
        } else {
            Some(n.0 - 1)
        }
    }

    /// Validates structural sanity: every node referenced exists and every
    /// non-ground node has at least two element connections (no dangling
    /// nodes, which would make the MNA matrix singular).
    ///
    /// # Errors
    ///
    /// Returns [`crate::SimError::BadNetlist`] describing the first defect
    /// found.
    pub fn validate(&self) -> Result<(), crate::SimError> {
        let n = self.num_nodes();
        let mut degree = vec![0usize; n];
        let touch = |node: Node, degree: &mut Vec<usize>| {
            degree[node.0] += 1;
        };
        for e in &self.elements {
            match e {
                Element::Resistor { p, n: nn, .. } | Element::Capacitor { p, n: nn, .. } => {
                    touch(*p, &mut degree);
                    touch(*nn, &mut degree);
                }
                Element::Vsource { p, n: nn, .. } | Element::Isource { p, n: nn, .. } => {
                    touch(*p, &mut degree);
                    touch(*nn, &mut degree);
                }
                Element::Vccs { op, on, cp, cn, .. } => {
                    touch(*op, &mut degree);
                    touch(*on, &mut degree);
                    touch(*cp, &mut degree);
                    touch(*cn, &mut degree);
                }
                Element::Mos(m) => {
                    touch(m.d, &mut degree);
                    touch(m.g, &mut degree);
                    touch(m.s, &mut degree);
                }
            }
        }
        for (i, d) in degree.iter().enumerate().skip(1) {
            if *d == 0 {
                return Err(crate::SimError::BadNetlist {
                    what: format!("node '{}' is not connected", self.node_names[i]),
                });
            }
            if *d == 1 {
                return Err(crate::SimError::BadNetlist {
                    what: format!(
                        "node '{}' has a single connection (floating)",
                        self.node_names[i]
                    ),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Technology;

    #[test]
    fn node_allocation_and_names() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        assert_eq!(c.num_nodes(), 3);
        assert_eq!((a.index(), b.index()), (1, 2));
        assert!(GND.is_ground());
        assert!(!a.is_ground());
    }

    #[test]
    fn mna_dim_counts_vsources() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource(a, GND, 1.0, 0.0);
        c.resistor(a, b, 100.0);
        c.resistor(b, GND, 100.0);
        assert_eq!(c.mna_dim(), 3); // 2 nodes + 1 branch
        assert_eq!(c.num_vsources(), 1);
    }

    #[test]
    fn validate_catches_dangling_node() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.resistor(a, GND, 1.0e3);
        c.resistor(a, GND, 1.0e3);
        let _unused = b;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_catches_floating_node() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor(a, GND, 1.0e3);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_passes_well_formed() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource(a, GND, 1.0, 0.0);
        c.resistor(a, GND, 50.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "resistance must be positive")]
    fn zero_resistance_panics() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor(a, GND, 0.0);
    }

    #[test]
    fn step_waveform_switches_at_delay() {
        let s = Step {
            v0: 0.0,
            v1: 1.0,
            t_delay: 1e-9,
        };
        assert_eq!(s.value(0.0), 0.0);
        assert_eq!(s.value(2e-9), 1.0);
    }

    #[test]
    fn mosfet_addition() {
        let t = Technology::ptm45();
        let mut c = Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        c.vsource(d, GND, 1.0, 0.0);
        c.vsource(g, GND, 0.7, 0.0);
        c.mosfet(Mosfet {
            polarity: crate::device::MosPolarity::Nmos,
            d,
            g,
            s: GND,
            w: 1e-6,
            l: t.lmin,
            mult: 1.0,
            model: t.nmos,
        });
        assert!(c.validate().is_ok());
        assert_eq!(c.elements().len(), 3);
    }
}
