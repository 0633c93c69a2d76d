//! Post-layout-extraction (PEX) substitute for the Berkeley Analog
//! Generator flow.
//!
//! The paper (Sec. III-D) deploys a schematic-trained agent against
//! BAG-generated layouts with extracted parasitics; the experimental claim
//! is robustness of the learned policy to a *systematic, geometry-dependent
//! perturbation* of every observation. This module reproduces that
//! perturbation: a deterministic annotator that loads every MOSFET terminal
//! with area-proportional routing/junction capacitance and every resistor
//! with shunt capacitance, with a per-net pseudo-random spread derived from
//! a hash of the net's geometry (so the same design always extracts the
//! same parasitics — layouts are deterministic functions of the schematic,
//! as they are in BAG).

use crate::netlist::{Circuit, Element, GND};

/// Configuration of the parasitic annotator.
#[derive(Debug, Clone, PartialEq)]
pub struct PexConfig {
    /// Routing capacitance added per metre of device width on each MOSFET
    /// terminal (F/m). Typical mid-level-metal routing is O(0.1 fF/um).
    pub cap_per_width: f64,
    /// Fixed via/pin capacitance per MOSFET terminal (F).
    pub cap_fixed: f64,
    /// Relative spread of the deterministic per-net jitter (0.2 = +/-20%).
    pub spread: f64,
    /// Extra multiplier on every MOSFET's intrinsic junction caps — layout
    /// drain/source fingers add perimeter capacitance the schematic model
    /// underestimates.
    pub junction_scale: f64,
    /// Parasitic-density knob: number of RC ladder segments each annotated
    /// terminal's routing capacitance is distributed over. `0` (the
    /// default) keeps the historical lumped cap-to-ground annotation;
    /// `depth >= 1` models the route as a distributed RC mesh — `depth`
    /// internal nodes in series, each carrying `1/depth` of the
    /// capacitance behind 40 ohms of metal per segment — which
    /// grows the MNA dimension by `depth` per annotated terminal. Benches
    /// and the mesh-8 deployment workload use it to reach the dense-mesh
    /// dims where the Woodbury corner kernels pay (the TIA is dim 32 at
    /// depth 4, 60 at depth 8 and 116 at depth 16).
    pub mesh_depth: usize,
}

/// Shunt capacitance added across each resistor per kiloohm (F): poly
/// resistors have distributed parasitics that grow with length, hence
/// with resistance.
const CAP_PER_KOHM: f64 = 0.08e-15;

/// Series routing resistance per mesh segment (ohms); unused at
/// `mesh_depth == 0`. Routes are real metal, so the segments are
/// thermally noisy resistors.
const MESH_RES: f64 = 40.0;

impl Default for PexConfig {
    fn default() -> Self {
        PexConfig {
            cap_per_width: 0.12e-9, // 0.12 fF per um of width
            cap_fixed: 0.35e-15,
            spread: 0.25,
            junction_scale: 1.6,
            mesh_depth: 0,
        }
    }
}

/// Deterministic hash -> [1 - spread, 1 + spread] jitter factor.
fn jitter(seed: u64, spread: f64) -> f64 {
    // SplitMix64 finalizer: decorrelates consecutive seeds.
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let u = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    1.0 + spread * (2.0 * u - 1.0)
}

/// Produces the "extracted" version of a schematic: the same circuit with
/// deterministic layout parasitics added.
///
/// The extraction is a pure function of the input netlist (same schematic
/// in, same extracted netlist out), mirroring a generator-based layout
/// flow.
///
/// # Examples
///
/// ```
/// use autockt_sim::netlist::{Circuit, GND};
/// use autockt_sim::pex::{extract, PexConfig};
///
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.vsource(a, GND, 1.0, 0.0);
/// ckt.resistor(a, GND, 1.0e3);
/// let extracted = extract(&ckt, &PexConfig::default());
/// assert!(extracted.elements().len() > ckt.elements().len());
/// ```
pub fn extract(ckt: &Circuit, cfg: &PexConfig) -> Circuit {
    let mut out = ckt.clone();
    // Collect parasitics first (cannot mutate while iterating).
    let mut added: Vec<(crate::netlist::Node, f64)> = Vec::new();
    for (ei, e) in ckt.elements().iter().enumerate() {
        match e {
            Element::Mos(m) => {
                let w_eff = m.w * m.mult;
                for (ti, node) in [(0u64, m.d), (1, m.g), (2, m.s)] {
                    if node.is_ground() {
                        continue;
                    }
                    let seed = (ei as u64) << 8 | ti | (node.index() as u64) << 32;
                    let c = (cfg.cap_per_width * w_eff + cfg.cap_fixed) * jitter(seed, cfg.spread);
                    added.push((node, c));
                }
            }
            Element::Resistor { p, n, r, .. } => {
                let c = CAP_PER_KOHM * (r / 1.0e3);
                for (ti, node) in [(0u64, *p), (1, *n)] {
                    if node.is_ground() {
                        continue;
                    }
                    let seed = 0xA5A5_5A5A_0000_0000 ^ ((ei as u64) << 8) | ti;
                    added.push((node, 0.5 * c * jitter(seed, cfg.spread)));
                }
            }
            _ => {}
        }
    }
    for (pi, (node, c)) in added.into_iter().enumerate() {
        if c <= 0.0 {
            continue;
        }
        if cfg.mesh_depth == 0 {
            out.capacitor(node, GND, c);
        } else {
            // Distributed RC ladder: the same total capacitance spread
            // over `mesh_depth` internal nodes behind series metal
            // resistance — deeper meshes mean larger MNA systems, which
            // is exactly the density knob's purpose.
            let seg_c = c / cfg.mesh_depth as f64;
            let mut prev = node;
            for s in 0..cfg.mesh_depth {
                let n = out.node(&format!("pex{pi}_{s}"));
                out.resistor(prev, n, MESH_RES);
                out.capacitor(n, GND, seg_c);
                prev = n;
            }
        }
    }
    // Scale intrinsic junction caps via the model card copy held by each
    // instance (cj scaling increases cdb/csb in subsequent analyses).
    for e in out.elements_mut() {
        if let Element::Mos(m) = e {
            m.model.cj *= cfg.junction_scale;
            m.model.cgso *= 1.15; // fringe adds to overlap
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{MosPolarity, Technology};
    use crate::netlist::{Circuit, Mosfet, GND};

    fn amp() -> Circuit {
        let t = Technology::ptm45();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let g = ckt.node("g");
        let o = ckt.node("o");
        ckt.vsource(vdd, GND, 1.0, 0.0);
        ckt.vsource(g, GND, 0.55, 1.0);
        ckt.resistor(vdd, o, 10.0e3);
        ckt.capacitor(o, GND, 5e-15);
        ckt.mosfet(Mosfet {
            polarity: MosPolarity::Nmos,
            d: o,
            g,
            s: GND,
            w: 2e-6,
            l: 90e-9,
            mult: 2.0,
            model: t.nmos,
        });
        ckt
    }

    #[test]
    fn extraction_is_deterministic() {
        let ckt = amp();
        let a = extract(&ckt, &PexConfig::default());
        let b = extract(&ckt, &PexConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn extraction_adds_capacitors() {
        let ckt = amp();
        let ex = extract(&ckt, &PexConfig::default());
        let ncaps = ex
            .elements()
            .iter()
            .filter(|e| matches!(e, Element::Capacitor { .. }))
            .count();
        assert!(ncaps >= 4, "expected parasitic caps, found {ncaps}");
    }

    #[test]
    fn extraction_slows_the_amplifier() {
        use crate::ac::{ac_sweep, log_freqs};
        use crate::dc::{dc_operating_point, DcOptions};
        let ckt = amp();
        let out = crate::netlist::Node(3);
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let f = log_freqs(1e4, 1e12, 20);
        let sch = ac_sweep(&ckt, &op, &f, out).unwrap().f_3db().unwrap();

        let ex = extract(&ckt, &PexConfig::default());
        let opx = dc_operating_point(&ex, &DcOptions::default()).unwrap();
        let pex = ac_sweep(&ex, &opx, &f, out).unwrap().f_3db().unwrap();
        assert!(
            pex < sch,
            "parasitics must reduce bandwidth: pex {pex} vs sch {sch}"
        );
    }

    #[test]
    fn jitter_bounded_and_spread() {
        let cfg = PexConfig::default();
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        for s in 0..1000u64 {
            let j = jitter(s, cfg.spread);
            lo = lo.min(j);
            hi = hi.max(j);
            assert!(j >= 1.0 - cfg.spread && j <= 1.0 + cfg.spread);
        }
        assert!(hi - lo > cfg.spread, "jitter should actually spread");
    }

    #[test]
    fn mesh_depth_grows_mna_dim_and_keeps_total_cap() {
        let ckt = amp();
        let lumped = extract(&ckt, &PexConfig::default());
        let total_cap = |c: &Circuit| -> f64 {
            c.elements()
                .iter()
                .filter_map(|e| match e {
                    Element::Capacitor { c, .. } => Some(*c),
                    _ => None,
                })
                .sum()
        };
        for depth in [1usize, 3, 5] {
            let cfg = PexConfig {
                mesh_depth: depth,
                ..PexConfig::default()
            };
            let meshed = extract(&ckt, &cfg);
            // One internal node per segment per annotated terminal.
            let added = meshed.num_nodes() - lumped.num_nodes();
            // Every element the lumped extraction appends is one
            // annotated terminal's cap-to-ground.
            let terminals = lumped.elements().len() - ckt.elements().len();
            assert_eq!(added, depth * terminals, "depth {depth}");
            assert!(meshed.mna_dim() > lumped.mna_dim());
            // The ladder redistributes, never adds, capacitance.
            let d = (total_cap(&meshed) - total_cap(&lumped)).abs();
            assert!(d < 1e-20, "depth {depth}: cap drift {d}");
            // Deterministic like the lumped extraction.
            assert_eq!(meshed, extract(&ckt, &cfg));
        }
        // depth 0 is bitwise the historical behaviour.
        assert_eq!(lumped, extract(&ckt, &PexConfig::default()));
    }

    #[test]
    fn meshed_extraction_still_simulates() {
        use crate::ac::{ac_sweep, log_freqs};
        use crate::dc::{dc_operating_point, DcOptions};
        let ckt = amp();
        let cfg = PexConfig {
            mesh_depth: 4,
            ..PexConfig::default()
        };
        let ex = extract(&ckt, &cfg);
        let out = crate::netlist::Node(3);
        let op = dc_operating_point(&ex, &DcOptions::default()).unwrap();
        let f = log_freqs(1e4, 1e12, 10);
        let resp = ac_sweep(&ex, &op, &f, out).unwrap();
        assert!(resp.f_3db().unwrap() > 0.0);
    }

    #[test]
    fn bigger_devices_get_bigger_parasitics() {
        let t = Technology::ptm45();
        let make = |w: f64| {
            let mut ckt = Circuit::new();
            let d = ckt.node("d");
            let g = ckt.node("g");
            ckt.vsource(d, GND, 1.0, 0.0);
            ckt.vsource(g, GND, 0.6, 0.0);
            ckt.mosfet(Mosfet {
                polarity: MosPolarity::Nmos,
                d,
                g,
                s: GND,
                w,
                l: 90e-9,
                mult: 1.0,
                model: t.nmos,
            });
            ckt
        };
        let total_cap = |c: &Circuit| -> f64 {
            c.elements()
                .iter()
                .filter_map(|e| match e {
                    Element::Capacitor { c, .. } => Some(*c),
                    _ => None,
                })
                .sum()
        };
        let small = total_cap(&extract(&make(1e-6), &PexConfig::default()));
        let large = total_cap(&extract(&make(20e-6), &PexConfig::default()));
        assert!(large > small * 2.0);
    }
}
