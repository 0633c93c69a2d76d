//! Minimal complex arithmetic for AC (frequency-domain) analysis.
//!
//! The sanctioned dependency set does not include `num-complex`, so the
//! simulator carries its own small, well-tested complex type. Only the
//! operations needed by MNA assembly, LU factorization and measurement
//! post-processing are provided.

use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// # Examples
///
/// ```
/// use autockt_sim::complex::Complex;
///
/// let a = Complex::new(3.0, 4.0);
/// assert_eq!(a.norm(), 5.0);
/// assert_eq!((a * a.conj()).re, 25.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_re(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Magnitude (Euclidean norm). Uses `hypot` for robustness against
    /// overflow/underflow of the intermediate squares.
    #[inline]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in radians, in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse.
    ///
    /// Division by a zero magnitude yields infinities, mirroring `f64`
    /// semantics rather than panicking; MNA solves guard against singular
    /// systems separately.
    ///
    /// When `norm_sqr` is a normal number this is `conj(z) / |z|²`
    /// directly. Below `|z| ≈ 1e-154` the square underflows and above
    /// `|z| ≈ 1e154` it overflows, so there `z` is first scaled by a power
    /// of two (exact) into range and the result scaled back.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        if d.is_normal() {
            return Complex::new(self.re / d, -self.im / d);
        }
        self.recip_scaled(d)
    }

    #[cold]
    fn recip_scaled(self, d: f64) -> Self {
        let s = self.re.abs().max(self.im.abs());
        if s.is_finite() && s > 0.0 {
            // 2^±600 brings any finite nonzero magnitude well inside the
            // range where the square is normal.
            let k = if s < 1.0 {
                2f64.powi(600)
            } else {
                2f64.powi(-600)
            };
            let w = self.scale(k);
            let dw = w.norm_sqr();
            Complex::new(w.re / dw * k, -w.im / dw * k)
        } else {
            // Zero, infinite or NaN: plain IEEE division.
            Complex::new(self.re / d, -self.im / d)
        }
    }

    /// Returns `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex::new(self.re * k, self.im * k)
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_re(re)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // a/b computed as a * b^-1
    fn div(self, o: Complex) -> Complex {
        self * o.recip()
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, o: Complex) {
        *self = *self + o;
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, o: Complex) {
        *self = *self - o;
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, o: Complex) {
        *self = *self * o;
    }
}

impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, o: Complex) {
        *self = *self / o;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, k: f64) -> Complex {
        self.scale(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(1.5, -2.5);
        assert_eq!(a + Complex::ZERO, a);
        assert_eq!(a * Complex::ONE, a);
        assert_eq!(a - a, Complex::ZERO);
        let inv = a * a.recip();
        assert!(close(inv.re, 1.0) && close(inv.im, 0.0));
    }

    #[test]
    fn i_squared_is_minus_one() {
        let sq = Complex::I * Complex::I;
        assert!(close(sq.re, -1.0) && close(sq.im, 0.0));
    }

    #[test]
    fn norm_and_arg() {
        let a = Complex::new(0.0, 2.0);
        assert!(close(a.norm(), 2.0));
        assert!(close(a.arg(), std::f64::consts::FRAC_PI_2));
    }

    #[test]
    fn division_roundtrip() {
        let a = Complex::new(3.0, 7.0);
        let b = Complex::new(-2.0, 0.5);
        let q = a / b;
        let back = q * b;
        assert!(close(back.re, a.re) && close(back.im, a.im));
    }

    #[test]
    fn recip_is_accurate_at_extreme_magnitudes() {
        for mag in [1e-170, 1e-160, 1e160] {
            for z in [
                Complex::new(mag, mag),
                Complex::new(-mag, 0.5 * mag),
                Complex::new(0.0, mag),
            ] {
                let one = z * z.recip();
                assert!(close(one.re, 1.0) && close(one.im, 0.0), "{z}: {one}");
                let q = z / z;
                assert!(close(q.re, 1.0) && close(q.im, 0.0), "{z}: {q}");
            }
        }
    }

    #[test]
    fn recip_of_zero_stays_nan() {
        let r = Complex::ZERO.recip();
        assert!(r.re.is_nan() && r.im.is_nan());
    }

    #[test]
    fn recip_in_range_is_the_plain_formula() {
        // Scaling applies only where the squared norm is not normal, so
        // ordinary magnitudes keep their bits.
        for z in [
            Complex::new(3.0, -4.0),
            Complex::new(1e-150, 2e-150),
            Complex::new(1e150, -1e150),
        ] {
            let d = z.norm_sqr();
            let plain = Complex::new(z.re / d, -z.im / d);
            let r = z.recip();
            assert_eq!(
                (r.re.to_bits(), r.im.to_bits()),
                (plain.re.to_bits(), plain.im.to_bits())
            );
        }
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
    }
}
