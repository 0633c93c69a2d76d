//! Measurement utilities: the quantities the AutoCkt design specifications
//! are written in (DC gain, unity-gain bandwidth, phase margin, -3 dB
//! bandwidth, settling time, integrated noise).

use crate::ac::AcResponse;
use crate::error::SimError;

/// Converts a magnitude to decibels (`20 log10 |x|`).
pub fn db20(x: f64) -> f64 {
    20.0 * x.abs().max(1e-300).log10()
}

impl AcResponse {
    /// Low-frequency (first-point) gain magnitude.
    pub fn dc_gain(&self) -> f64 {
        self.h.first().map_or(0.0, |c| c.norm())
    }

    /// Magnitudes at every grid point.
    pub fn magnitudes(&self) -> Vec<f64> {
        self.h.iter().map(|c| c.norm()).collect()
    }

    /// Phase in degrees, unwrapped so that no step between adjacent points
    /// exceeds 180 degrees. The first point anchors the branch.
    pub fn phase_unwrapped_deg(&self) -> Vec<f64> {
        self.unwrapped_phases().collect()
    }

    /// The unwrapped phases of [`AcResponse::phase_unwrapped_deg`], point
    /// by point: a prefix costs only its own points.
    fn unwrapped_phases(&self) -> impl Iterator<Item = f64> + '_ {
        let mut prev = 0.0f64;
        self.h.iter().enumerate().map(move |(i, c)| {
            let mut p = c.arg().to_degrees();
            if i > 0 {
                while p - prev > 180.0 {
                    p -= 360.0;
                }
                while p - prev < -180.0 {
                    p += 360.0;
                }
            }
            prev = p;
            p
        })
    }

    /// Returns an error unless the grid has at least two points — no
    /// crossing or interpolation measurement is defined on an empty or
    /// single-point sweep (previously these paths panicked on unchecked
    /// `freqs[0]` indexing).
    fn require_grid(&self) -> Result<(), SimError> {
        if self.freqs.len() < 2 || self.h.len() < 2 {
            return Err(SimError::MeasureFailed {
                what: "fewer than two frequency points in sweep",
            });
        }
        Ok(())
    }

    /// Frequency at which the magnitude first falls to `1/sqrt(2)` of the
    /// low-frequency gain (the -3 dB bandwidth), log-interpolated.
    ///
    /// # Errors
    ///
    /// [`SimError::MeasureFailed`] if the response never drops below the
    /// -3 dB level inside the sweep, or the sweep has fewer than two
    /// points.
    pub fn f_3db(&self) -> Result<f64, SimError> {
        self.require_grid()?;
        let target = self.dc_gain() * std::f64::consts::FRAC_1_SQRT_2;
        self.crossing_down(target).ok_or(SimError::MeasureFailed {
            what: "no -3 dB crossing in sweep",
        })
    }

    /// Unity-gain frequency: first downward crossing of `|H| = 1`,
    /// log-interpolated.
    ///
    /// # Errors
    ///
    /// [`SimError::MeasureFailed`] if the gain never crosses unity from
    /// above (e.g. the amplifier has sub-unity DC gain) or the sweep has
    /// fewer than two points.
    pub fn ugbw(&self) -> Result<f64, SimError> {
        self.require_grid()?;
        if self.dc_gain() < 1.0 {
            return Err(SimError::MeasureFailed {
                what: "dc gain below unity; no ugbw",
            });
        }
        self.crossing_down(1.0).ok_or(SimError::MeasureFailed {
            what: "no unity-gain crossing in sweep",
        })
    }

    /// Phase margin in degrees: `180 - |phase(f_ugbw) - phase(f_min)|`
    /// using the unwrapped phase, so inverting and non-inverting
    /// amplifiers are treated uniformly.
    ///
    /// # Errors
    ///
    /// Propagates [`AcResponse::ugbw`] failure.
    pub fn phase_margin_deg(&self) -> Result<f64, SimError> {
        self.phase_margin_at(self.ugbw()?)
    }

    /// [`AcResponse::phase_margin_deg`] at a unity-gain frequency `fu`
    /// the caller already measured with [`AcResponse::ugbw`], so a spec
    /// row runs one crossing search. The phase is unwrapped only up to
    /// the grid point that brackets `fu` from above.
    ///
    /// # Errors
    ///
    /// [`SimError::MeasureFailed`] if the sweep has fewer than two points.
    pub fn phase_margin_at(&self, fu: f64) -> Result<f64, SimError> {
        self.require_grid()?;
        let n = self.freqs.len().min(self.h.len());
        let last = match self.bracket(n, fu) {
            Ok((i, _)) => i + 1,
            Err(j) => j,
        };
        let ph: Vec<f64> = self.unwrapped_phases().take(last + 1).collect();
        let shift = (self.interp_at(&ph, fu) - ph[0]).abs();
        Ok(180.0 - shift)
    }

    /// Bracketing segment of `f` on the first `n` grid points with its
    /// log-frequency interpolation weight: `Ok((i, t))` means
    /// `freqs[i] <= f <= freqs[i + 1]` with `t` in `[0, 1]`; `Err(j)`
    /// means `f` clamps to grid index `j` (outside the grid, or a
    /// single-point grid). Callers must guarantee `1 <= n <= freqs.len()`.
    ///
    /// A query on a grid point `freqs[k]`, `k >= 1`, takes the segment
    /// that ends there (`t = 1`), the last point included, so the
    /// interpolated value does not depend on how many points follow: a
    /// sweep stopped after point `k` reads what the full sweep reads.
    fn bracket(&self, n: usize, f: f64) -> Result<(usize, f64), usize> {
        if n == 1 || f <= self.freqs[0] {
            return Err(0);
        }
        if f > self.freqs[n - 1] {
            return Err(n - 1);
        }
        let lf = f.ln();
        for i in 0..n - 1 {
            if f <= self.freqs[i + 1] {
                let l0 = self.freqs[i].ln();
                let l1 = self.freqs[i + 1].ln();
                let t = if l1 > l0 { (lf - l0) / (l1 - l0) } else { 0.5 };
                return Ok((i, t));
            }
        }
        Err(n - 1)
    }

    /// Linear interpolation of a per-point quantity `y` at frequency `f`
    /// using log-frequency as the abscissa. Clamps outside the grid; a
    /// degenerate grid (empty or single-point) reads as the first sample
    /// or zero.
    fn interp_at(&self, y: &[f64], f: f64) -> f64 {
        let n = self.freqs.len().min(y.len());
        if n == 0 {
            return 0.0;
        }
        match self.bracket(n, f) {
            Err(j) => y[j],
            Ok((i, t)) => y[i] + t * (y[i + 1] - y[i]),
        }
    }

    /// First index `i` where `|h[i]| >= level > |h[i+1]|`, interpolated in
    /// (log f, dB) space; `None` if no downward crossing exists.
    fn crossing_down(&self, level: f64) -> Option<f64> {
        let mags = self.magnitudes();
        for i in 0..mags.len().saturating_sub(1) {
            if mags[i] >= level && mags[i + 1] < level {
                let d0 = db20(mags[i]);
                let d1 = db20(mags[i + 1]);
                let dl = db20(level);
                // A magnitude sample of exactly 0 pins db20 at its floor
                // (and a raw dB conversion would yield -inf, making
                // `t = inf/inf` NaN); such segments carry no log-domain
                // information, so interpolate them linearly in magnitude.
                let degenerate = !d0.is_finite()
                    || !d1.is_finite()
                    || !dl.is_finite()
                    || mags[i] <= 0.0
                    || mags[i + 1] <= 0.0
                    || level <= 0.0;
                let t = if degenerate {
                    let denom = mags[i + 1] - mags[i];
                    if denom.abs() < 1e-300 {
                        0.5
                    } else {
                        (level - mags[i]) / denom
                    }
                } else if (d1 - d0).abs() < 1e-18 {
                    0.5
                } else {
                    (dl - d0) / (d1 - d0)
                };
                let t = t.clamp(0.0, 1.0);
                let l0 = self.freqs[i].ln();
                let l1 = self.freqs[i + 1].ln();
                return Some((l0 + t * (l1 - l0)).exp());
            }
        }
        None
    }
}

/// Settling time of a step response: the time after which the waveform
/// stays within `tol_frac` of the total transition `|y_final - y_initial|`
/// around the final value.
///
/// # Errors
///
/// [`SimError::MeasureFailed`] if the waveform has not settled by the end
/// of the record, or the record is degenerate (fewer than two points, a
/// non-finite sample in `t` or `y`, or no transition). A NaN sample
/// would otherwise compare as in-band and read as an early settle.
///
/// # Examples
///
/// ```
/// use autockt_sim::measure::settling_time;
///
/// let t: Vec<f64> = (0..1000).map(|i| i as f64 * 1e-9).collect();
/// let y: Vec<f64> = t.iter().map(|&t| 1.0 - (-t / 50e-9_f64).exp()).collect();
/// let ts = settling_time(&t, &y, 0.02).unwrap();
/// // 2% settling of a single pole is ~3.9 tau.
/// assert!((ts - 3.9 * 50e-9).abs() < 15e-9);
/// ```
pub fn settling_time(t: &[f64], y: &[f64], tol_frac: f64) -> Result<f64, SimError> {
    if t.len() != y.len() || t.len() < 2 {
        return Err(SimError::MeasureFailed {
            what: "degenerate waveform",
        });
    }
    if !t.iter().chain(y).all(|v| v.is_finite()) {
        return Err(SimError::MeasureFailed {
            what: "non-finite waveform sample",
        });
    }
    let y_final = y[y.len() - 1];
    let y_init = y[0];
    let swing = (y_final - y_init).abs();
    if swing < 1e-15 {
        return Err(SimError::MeasureFailed {
            what: "no transition to settle",
        });
    }
    let band = tol_frac * swing;
    // Last sample that lies outside the band determines settling.
    let mut last_out = None;
    for (i, yy) in y.iter().enumerate() {
        if (yy - y_final).abs() > band {
            last_out = Some(i);
        }
    }
    // Require at least one fully in-band sample after the settling point
    // besides the final sample itself (which is trivially in band), so an
    // oscillation that only touches the band at the very end is rejected.
    match last_out {
        None => Ok(t[0]),
        Some(i) if i + 2 < t.len() => Ok(t[i + 1]),
        Some(_) => Err(SimError::MeasureFailed {
            what: "waveform did not settle in record",
        }),
    }
}

/// [`settling_time`] as one forward pass over a record handed in
/// blocks, for a kernel that produces the samples block by block and
/// knows `y_initial` and `y_final` before the pass (the fused settling
/// of [`crate::ac::AcSolver::step_settling_time`]). A block is scanned
/// without a branch per sample: a finiteness fold, then `rposition` for
/// its last sample outside the band. [`BandScan::finish`] reads the
/// result and every error of [`settling_time`] on the same record,
/// bitwise and in the same precedence.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BandScan {
    y_final: f64,
    swing: f64,
    band: f64,
    /// Samples scanned so far.
    len: usize,
    finite: bool,
    last_out: Option<usize>,
}

impl BandScan {
    /// A scan of a record from `y_initial` to `y_final` at band
    /// `tol_frac` of the transition, as [`settling_time`] sets it.
    pub(crate) fn new(y_initial: f64, y_final: f64, tol_frac: f64) -> Self {
        let swing = (y_final - y_initial).abs();
        BandScan {
            y_final,
            swing,
            band: tol_frac * swing,
            len: 0,
            finite: true,
            last_out: None,
        }
    }

    /// Scans the next samples of the record.
    pub(crate) fn push(&mut self, ys: &[f64]) {
        self.finite &= ys.iter().fold(true, |ok, y| ok & y.is_finite());
        let (yf, band) = (self.y_final, self.band);
        if let Some(i) = ys.iter().rposition(|y| (y - yf).abs() > band) {
            self.last_out = Some(self.len + i);
        }
        self.len += ys.len();
    }

    /// The settling time of the scanned record, whose sample `i` lies at
    /// time `t(i)`; `t_finite` says whether every time is finite.
    ///
    /// # Errors
    ///
    /// Those of [`settling_time`] on the same record.
    pub(crate) fn finish(&self, t_finite: bool, t: impl Fn(usize) -> f64) -> Result<f64, SimError> {
        if self.len < 2 {
            return Err(SimError::MeasureFailed {
                what: "degenerate waveform",
            });
        }
        if !(t_finite && self.finite) {
            return Err(SimError::MeasureFailed {
                what: "non-finite waveform sample",
            });
        }
        if self.swing < 1e-15 {
            return Err(SimError::MeasureFailed {
                what: "no transition to settle",
            });
        }
        match self.last_out {
            None => Ok(t(0)),
            Some(i) if i + 2 < self.len => Ok(t(i + 1)),
            Some(_) => Err(SimError::MeasureFailed {
                what: "waveform did not settle in record",
            }),
        }
    }
}

/// Trapezoidal integral of samples `y` over abscissa `x`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn integrate_trapezoid(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    let mut acc = 0.0;
    for i in 1..x.len() {
        acc += 0.5 * (y[i] + y[i - 1]) * (x[i] - x[i - 1]);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;

    fn single_pole(a0: f64, fp: f64, freqs: &[f64]) -> AcResponse {
        let h = freqs
            .iter()
            .map(|&f| Complex::from_re(a0) / Complex::new(1.0, f / fp))
            .collect();
        AcResponse {
            freqs: freqs.to_vec(),
            h,
        }
    }

    #[test]
    fn single_pole_measurements() {
        let freqs = crate::ac::log_freqs(1e2, 1e10, 40);
        let r = single_pole(100.0, 1e5, &freqs);
        assert!((r.dc_gain() - 100.0).abs() < 1e-3);
        let f3 = r.f_3db().unwrap();
        assert!((f3 - 1e5).abs() / 1e5 < 0.02);
        // UGBW of a single pole = a0 * fp.
        let fu = r.ugbw().unwrap();
        assert!((fu - 1e7).abs() / 1e7 < 0.02);
        // Phase margin of a single-pole system ~ 90 degrees.
        let pm = r.phase_margin_deg().unwrap();
        assert!((pm - 90.0).abs() < 2.0, "pm = {pm}");
    }

    #[test]
    fn two_pole_phase_margin_drops() {
        let freqs = crate::ac::log_freqs(1e2, 1e10, 40);
        let h = freqs
            .iter()
            .map(|&f| {
                Complex::from_re(1000.0) / (Complex::new(1.0, f / 1e4) * Complex::new(1.0, f / 1e7))
            })
            .collect();
        let r = AcResponse {
            freqs: freqs.clone(),
            h,
        };
        let pm = r.phase_margin_deg().unwrap();
        // Crossover at ~1e7 where the second pole contributes ~45 degrees.
        assert!(pm > 30.0 && pm < 60.0, "pm = {pm}");
    }

    #[test]
    fn subunity_gain_has_no_ugbw() {
        let freqs = crate::ac::log_freqs(1e2, 1e8, 20);
        let r = single_pole(0.5, 1e5, &freqs);
        assert!(r.ugbw().is_err());
    }

    #[test]
    fn settling_time_monotone_in_tolerance() {
        let t: Vec<f64> = (0..2000).map(|i| i as f64 * 1e-9).collect();
        let y: Vec<f64> = t.iter().map(|&t| 1.0 - (-t / 100e-9_f64).exp()).collect();
        let t2 = settling_time(&t, &y, 0.02).unwrap();
        let t5 = settling_time(&t, &y, 0.05).unwrap();
        assert!(t5 < t2, "looser tolerance settles earlier");
    }

    #[test]
    fn settling_rejects_unsettled() {
        let t: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let y: Vec<f64> = t.iter().map(|&t| (t * 0.5).sin()).collect();
        assert!(settling_time(&t, &y, 0.01).is_err());
    }

    /// A step that settles at sample 4 of 10 (`y = 1` from there on).
    fn settling_record() -> (Vec<f64>, Vec<f64>) {
        let t: Vec<f64> = (0..10).map(f64::from).collect();
        let y = vec![0.0, 0.3, 0.6, 0.9, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        (t, y)
    }

    #[test]
    fn settling_rejects_nan_final_sample() {
        let (t, mut y) = settling_record();
        y[9] = f64::NAN;
        assert!(matches!(
            settling_time(&t, &y, 0.02),
            Err(SimError::MeasureFailed { .. })
        ));
    }

    #[test]
    fn settling_rejects_nan_mid_record() {
        let (t, mut y) = settling_record();
        assert_eq!(settling_time(&t, &y, 0.02).unwrap(), 4.0);
        y[2] = f64::NAN;
        y[3] = f64::NAN;
        assert!(matches!(
            settling_time(&t, &y, 0.02),
            Err(SimError::MeasureFailed { .. })
        ));
    }

    #[test]
    fn settling_rejects_infinite_samples() {
        for bad in [f64::INFINITY, f64::NEG_INFINITY] {
            for i in [0, 5, 9] {
                let (t, mut y) = settling_record();
                y[i] = bad;
                assert!(
                    matches!(
                        settling_time(&t, &y, 0.02),
                        Err(SimError::MeasureFailed { .. })
                    ),
                    "y[{i}] = {bad}"
                );
                let (mut t, y) = settling_record();
                t[i] = bad;
                assert!(
                    matches!(
                        settling_time(&t, &y, 0.02),
                        Err(SimError::MeasureFailed { .. })
                    ),
                    "t[{i}] = {bad}"
                );
            }
        }
    }

    /// [`BandScan`] over `y` handed in blocks of `block` samples.
    fn band_scanned(t: &[f64], y: &[f64], tol: f64, block: usize) -> Result<f64, SimError> {
        let mut scan = BandScan::new(y[0], y[y.len() - 1], tol);
        for ys in y.chunks(block) {
            scan.push(ys);
        }
        scan.finish(t.iter().all(|v| v.is_finite()), |i| t[i])
    }

    /// The block scan reads what [`settling_time`] reads, bitwise and
    /// error for error, whatever the block size: on settled, unsettled,
    /// flat and barely settled records, each also with a NaN or ±inf at
    /// the first, a middle and the last sample of `y` or `t`.
    #[test]
    fn band_scan_matches_settling_time() {
        let t100: Vec<f64> = (0..100).map(|i| i as f64 * 1e-9).collect();
        let mut records = vec![
            settling_record(),
            (
                t100.clone(),
                t100.iter().map(|&t| 1.0 - (-t / 20e-9_f64).exp()).collect(),
            ),
            (
                t100.clone(),
                t100.iter().map(|&t| (t * 5e8).sin()).collect(),
            ),
            (t100.clone(), vec![0.5; 100]),
        ];
        // In band from the next-to-last sample (the latest record that
        // settles), and only at the last sample (one that does not).
        let t10: Vec<f64> = (0..10).map(f64::from).collect();
        let mut late = vec![0.0; 10];
        late[9] = 1.0;
        records.push((t10.clone(), late.clone()));
        late[8] = 1.0;
        records.push((t10, late));
        let bases = records.clone();
        for (t, y) in &bases {
            let last = y.len() - 1;
            for i in [0, last / 2, last] {
                for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    let mut yb = y.clone();
                    yb[i] = bad;
                    records.push((t.clone(), yb));
                    let mut tb = t.clone();
                    tb[i] = bad;
                    records.push((tb, y.clone()));
                }
            }
        }
        for (k, (t, y)) in records.iter().enumerate() {
            for tol in [0.0, 0.02, 0.3, 2.0] {
                let want = settling_time(t, y, tol).map(f64::to_bits);
                for block in [1, 3, 4, 32, 1000] {
                    let got = band_scanned(t, y, tol, block).map(f64::to_bits);
                    assert_eq!(got, want, "record {k}, tol {tol}, block {block}");
                }
            }
        }
    }

    #[test]
    fn integrate_constant() {
        let x = [0.0, 1.0, 2.0, 4.0];
        let y = [3.0, 3.0, 3.0, 3.0];
        assert!((integrate_trapezoid(&x, &y) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn empty_grid_reports_measure_failed_not_panic() {
        let r = AcResponse {
            freqs: vec![],
            h: vec![],
        };
        assert!(matches!(r.f_3db(), Err(SimError::MeasureFailed { .. })));
        assert!(matches!(r.ugbw(), Err(SimError::MeasureFailed { .. })));
        assert!(matches!(
            r.phase_margin_deg(),
            Err(SimError::MeasureFailed { .. })
        ));
        assert_eq!(r.dc_gain(), 0.0);
    }

    #[test]
    fn single_point_grid_reports_measure_failed_not_panic() {
        let r = AcResponse {
            freqs: vec![1e3],
            h: vec![Complex::from_re(100.0)],
        };
        assert!(matches!(r.f_3db(), Err(SimError::MeasureFailed { .. })));
        assert!(matches!(r.ugbw(), Err(SimError::MeasureFailed { .. })));
        assert!(matches!(
            r.phase_margin_deg(),
            Err(SimError::MeasureFailed { .. })
        ));
        assert!((r.dc_gain() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn exact_zero_magnitude_sample_yields_finite_crossings() {
        // A response that plunges to exactly 0 mid-sweep: the crossing
        // interpolation must stay finite and inside the bracketing segment.
        let freqs = crate::ac::log_freqs(1e2, 1e8, 10);
        let mut h: Vec<Complex> = freqs
            .iter()
            .map(|&f| Complex::from_re(100.0) / Complex::new(1.0, f / 1e4))
            .collect();
        let cut = h.len() / 2;
        for c in h.iter_mut().skip(cut) {
            *c = Complex::ZERO;
        }
        let r = AcResponse {
            freqs: freqs.clone(),
            h,
        };
        let fu = r.ugbw().unwrap();
        assert!(fu.is_finite(), "ugbw = {fu}");
        assert!(fu >= freqs[0] && fu <= freqs[freqs.len() - 1]);
        let f3 = r.f_3db().unwrap();
        assert!(f3.is_finite(), "f_3db = {f3}");
        assert!(f3 >= freqs[0] && f3 <= freqs[freqs.len() - 1]);
    }

    #[test]
    fn all_zero_response_has_no_spurious_crossing() {
        let freqs = crate::ac::log_freqs(1e2, 1e6, 5);
        let h = vec![Complex::ZERO; freqs.len()];
        let r = AcResponse { freqs, h };
        // dc gain 0 => target level 0; nothing is ever strictly below it.
        assert!(r.f_3db().is_err());
        assert!(r.ugbw().is_err());
    }

    /// The response truncated after point `k` (inclusive).
    fn prefix(r: &AcResponse, k: usize) -> AcResponse {
        AcResponse {
            freqs: r.freqs[..=k].to_vec(),
            h: r.h[..=k].to_vec(),
        }
    }

    /// The crossing measurements a truncated sweep must reproduce bit
    /// for bit: `ugbw` and the phase margin.
    fn crossing_bits(r: &AcResponse) -> (u64, u64) {
        let fu = r.ugbw().unwrap();
        let pm = r.phase_margin_deg().unwrap();
        assert_eq!(pm.to_bits(), r.phase_margin_at(fu).unwrap().to_bits());
        (fu.to_bits(), pm.to_bits())
    }

    #[test]
    fn prefix_through_the_crossing_measures_like_the_full_response() {
        let freqs = crate::ac::log_freqs(1e2, 1e10, 10);
        let h: Vec<Complex> = freqs
            .iter()
            .map(|&f| {
                Complex::from_re(-300.0) / (Complex::new(1.0, f / 3e4) * Complex::new(1.0, f / 2e7))
            })
            .collect();
        let full = AcResponse { freqs, h };
        let mags = full.magnitudes();
        let k = (1..mags.len()).find(|&j| mags[j] < 1.0).unwrap();
        assert!(k + 1 < mags.len(), "the crossing must leave points unread");
        let cut = prefix(&full, k);
        assert_eq!(crossing_bits(&cut), crossing_bits(&full));
        assert_eq!(cut.dc_gain().to_bits(), full.dc_gain().to_bits());
        // The -3 dB cutoff comes earlier; its prefix measures alike too.
        let f3 = full.f_3db().unwrap();
        let k3 = (1..mags.len()).find(|&j| mags[j] < mags[0] * std::f64::consts::FRAC_1_SQRT_2);
        let cut3 = prefix(&full, k3.unwrap());
        assert_eq!(cut3.f_3db().unwrap().to_bits(), f3.to_bits());
    }

    #[test]
    fn crossing_on_the_last_prefix_point_interpolates_like_the_full_grid() {
        // `|H(1 Hz)|` sits one ulp below unity, so the crossing weight
        // rounds to t = 1 and `ugbw` lands exactly on the grid point
        // 1 Hz (`ln 1 = 0`, `exp 0 = 1`). On the prefix ending there the
        // query hits the last grid point; it must still interpolate on
        // the segment that ends there, as the full grid does.
        let freqs = vec![0.25, 0.5, 1.0, 2.0, 4.0];
        let mut checked = 0;
        for step in 1..40 {
            let a = 0.013 * step as f64;
            let b = a + 0.071 * step as f64;
            let h = vec![
                Complex::from_re(30.0),
                Complex::new(10.0 * a.cos(), -10.0 * a.sin()),
                Complex::new(-b.cos(), -b.sin()) * (1.0 - f64::EPSILON / 2.0),
                Complex::new(0.1, -0.2),
                Complex::new(0.01, -0.02),
            ];
            let full = AcResponse {
                freqs: freqs.clone(),
                h,
            };
            if full.ugbw().unwrap() != 1.0 {
                continue;
            }
            checked += 1;
            assert_eq!(crossing_bits(&prefix(&full, 2)), crossing_bits(&full));
        }
        assert!(
            checked > 20,
            "only {checked} responses crossed on the grid point"
        );
    }

    #[test]
    fn db20_of_unity_is_zero() {
        assert!((db20(1.0)).abs() < 1e-12);
        assert!((db20(10.0) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn inverting_amp_phase_margin_uses_relative_phase() {
        // Same single pole but with negative sign (inverting): PM must be
        // identical because it is measured relative to the DC phase.
        let freqs = crate::ac::log_freqs(1e2, 1e10, 40);
        let h = freqs
            .iter()
            .map(|&f| Complex::from_re(-100.0) / Complex::new(1.0, f / 1e5))
            .collect();
        let r = AcResponse {
            freqs: freqs.clone(),
            h,
        };
        let pm = r.phase_margin_deg().unwrap();
        assert!((pm - 90.0).abs() < 2.0, "pm = {pm}");
    }
}
