//! Multi-layer perceptron with manual backpropagation and Adam.
//!
//! The paper's agent is a 3-layer, 50-neuron network trained with PPO; at
//! that scale plain `Vec<f64>` loops beat pulling in a tensor library, and
//! keep the whole learning stack dependency-free and deterministic.
//!
//! ## Batched passes
//!
//! Training runs forward and backward over a tile of up to [`TILE`]
//! samples at a time ([`Mlp::forward_tile`], [`Mlp::backward_tile`], with
//! buffers in a reused [`Tape`]); inference ([`Mlp::forward`]) is the same
//! forward kernel at batch 1. Each layer is three GEMM-shaped loops,
//! each split into register blocks that are each a sweep of rank-1
//! updates:
//!
//! - forward: `out[s][o] = b[o] + sum_i x[s][i] * W[o][i]`;
//! - weight gradient: `gW[o][i] += sum_s dy[s][o] * x[s][i]`;
//! - input gradient: `dx[s][i] = sum_o dy[s][o] * W[o][i]`.
//!
//! The block shape is chosen at run time: 6 x 8 blocks compiled for AVX2
//! on a CPU that has it, for outputs at least 8 columns wide, and 4 x 4
//! blocks on the build's baseline x86-64 (SSE2) otherwise, batch-1
//! inference included. Both run the one walker and the same block code.
//!
//! Each output element is one running sum, started from the same value
//! and taken in ascending index order with a separate multiply and add:
//! neither path uses FMA, which would round the product and sum once
//! instead of twice. That is the order of accumulating the samples one
//! at a time, so a tile's gradients are bitwise those of the per-sample
//! loop, whatever the tile size, the block shape or the CPU. Activations
//! are stored feature-major and gradients sample-major, which puts a
//! contiguous operand along the vectorized dimension of every loop.
//!
//! ## Activation
//!
//! Hidden layers run this module's own [`tanh`], not libm's; the output
//! layer is linear (logits and value estimates). The `tanh` is
//! built only from IEEE `+ - * /` and bit operations, so a seeded network
//! computes the same bits on every host. It is inlined, branch-free, into
//! the forward writeback of each register block, where libm's `tanh` cost
//! a call per element.

use rand::rngs::StdRng;
use rand::Rng;

/// Hyperbolic tangent from IEEE `+ - * /` and bit operations only, with no
/// branch: both halves below are computed and one is selected.
///
/// - `|x| < 0.625`: the odd rational `x + x z P(z) / Q(z)`, `z = x^2`, with
///   Cephes' `tanh` coefficients.
/// - Otherwise `1 - 2 / (e^{2|x|} + 1)`, with `2|x|` clamped to 40 (where
///   the result has been exactly 1 since `|x| = 19.1`). `e^y` is Cephes'
///   `exp`: `y = n ln 2 + r` by a Cody-Waite split of `ln 2`, `n` rounded
///   by the `1.5 * 2^52` magic add (`f64::round` and `floor` are library
///   calls on baseline x86-64), `e^r = 1 + 2P / (Q - P)` from Cephes'
///   rational, and `2^n` written into the exponent bits.
///
/// The two halves share their final division. (Folding the `exp`'s own
/// division into it as well is a tenth faster but breaks monotonicity
/// between neighbouring doubles.)
///
/// Both halves are computed on `|x|` and the sign of `x` copied onto the
/// result, so `tanh(-x)` is bitwise `-tanh(x)` and `tanh(-0.0)` is `-0.0`.
/// NaN fails the test `|x| >= 0.625`, so it takes the rational half and
/// stays NaN; `±inf` gives `±1`.
///
/// Accuracy: at most 2 ulp (4.0e-16 relative) from glibc's `tanh` over a
/// 3.6M-point sweep of [-25, 25], 30M uniform points in [-4, 4] and
/// 4,000 magnitudes from 1e-300 to 1; monotone non-decreasing over the
/// sweep and across every double near the switch. The unit tests pin
/// these.
#[inline(always)]
pub fn tanh(x: f64) -> f64 {
    // Cephes tanh: P and Q of the rational half, Q monic.
    const TP: [f64; 3] = [
        -9.643_991_794_250_523e-1,
        -9.928_772_310_019_185e1,
        -1.614_687_684_417_084_5e3,
    ];
    const TQ: [f64; 3] = [
        1.128_116_784_916_329_3e2,
        2.235_488_390_601_004_5e3,
        4.844_063_053_251_255e3,
    ];
    // Cephes exp: the rational in r^2, and ln 2 split so that n * LN2_HI
    // is exact for the n this function reaches.
    const EP: [f64; 3] = [1.261_771_930_748_105_8e-4, 3.029_944_077_074_419_5e-2, 1.0];
    const EQ: [f64; 4] = [
        3.001_985_051_386_644_6e-6,
        2.524_483_403_496_841e-3,
        2.272_655_482_081_550_3e-1,
        2.0,
    ];
    const LN2_HI: f64 = 6.931_457_519_531_25e-1;
    const LN2_LO: f64 = 1.428_606_820_309_417_3e-6;
    const ROUND: f64 = 6_755_399_441_055_744.0; // 1.5 * 2^52

    let a = x.abs();
    // Rational half.
    let z = a * a;
    let p = (TP[0] * z + TP[1]) * z + TP[2];
    let q = ((z + TQ[0]) * z + TQ[1]) * z + TQ[2];
    // Exponential half: e^y = 2^n (1 + 2 ep / (eq - ep)).
    let y = (2.0 * a).min(40.0);
    let k = std::f64::consts::LOG2_E * y + ROUND;
    let n = k - ROUND;
    let r = y - n * LN2_HI - n * LN2_LO;
    let rr = r * r;
    let ep = r * ((EP[0] * rr + EP[1]) * rr + EP[2]);
    let eq = ((EQ[0] * rr + EQ[1]) * rr + EQ[2]) * rr + EQ[3];
    // The low bits of `k` hold `n`; shifting `n + 1023` into the exponent
    // field drops the magic constant's bits.
    let two_n = f64::from_bits(k.to_bits().wrapping_add(1023) << 52);
    let e = (1.0 + 2.0 * (ep / (eq - ep))) * two_n;
    // Both halves end in `base + num / den`; selecting the operands first
    // leaves one division for the two. NaN fails the test and takes the
    // rational half, which keeps it NaN.
    let (base, num, den) = if a >= 0.625 {
        (1.0, -2.0, e + 1.0)
    } else {
        (a, a * z * p, q)
    };
    (base + num / den).copysign(x)
}

/// One dense layer with its gradient and Adam moment buffers.
#[derive(Debug, Clone, PartialEq)]
struct Linear {
    n_in: usize,
    n_out: usize,
    w: Vec<f64>, // row-major [n_out x n_in]
    b: Vec<f64>,
    gw: Vec<f64>,
    gb: Vec<f64>,
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

/// A GEMM-shaped loop split into register blocks: `block::<R, C>(r0, c0)`
/// computes the `R x C` block of outputs at row `r0`, column `c0`.
trait Blocks {
    fn block<const R: usize, const C: usize>(&mut self, r0: usize, c0: usize);
}

/// Rows and columns of the AVX2 register block: its 48 running sums fill
/// twelve of the sixteen `ymm` registers, two per row.
#[cfg(target_arch = "x86_64")]
const AVX2_BLOCK: (usize, usize) = (6, 8);

/// Walks a `rows x cols` output in register blocks, choosing the shape
/// per call: [`AVX2_BLOCK`] when the output has a full block of columns
/// and the CPU has AVX2, 4 x 4 (eight SSE2 registers) otherwise. With
/// fewer columns, as in batch-1 inference, every AVX2 block would be a
/// narrow edge, and those ran slower than the 4 x 4 walk.
///
/// Both choices run [`walk`] over the same block code, and each output's
/// one running sum is taken in ascending index order with a separate
/// multiply and add on either, so they write the same bits.
fn for_blocks(k: &mut impl Blocks, rows: usize, cols: usize) {
    #[cfg(target_arch = "x86_64")]
    if cols >= AVX2_BLOCK.1 && is_x86_feature_detected!("avx2") {
        // SAFETY: `walk_avx2` only requires AVX2, which the CPU was just
        // found to support.
        return unsafe { walk_avx2(k, rows, cols) };
    }
    walk::<4, 4>(k, rows, cols);
}

/// [`walk`] in [`AVX2_BLOCK`] blocks, compiled for AVX2: the walker and
/// the block code are `#[inline(always)]`, so they take this function's
/// code generation.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn walk_avx2(k: &mut impl Blocks, rows: usize, cols: usize) {
    walk::<{ AVX2_BLOCK.0 }, { AVX2_BLOCK.1 }>(k, rows, cols);
}

/// Walks a `rows x cols` output in `RB x CB` register blocks, then 4-wide
/// and 1-wide edges in each dimension. The 4 x 1 edge blocks keep four
/// independent sums in flight, which is what batch-1 inference runs on.
#[inline(always)]
fn walk<const RB: usize, const CB: usize>(k: &mut impl Blocks, rows: usize, cols: usize) {
    #[inline(always)]
    fn row_of<const R: usize, const CB: usize>(k: &mut impl Blocks, r0: usize, cols: usize) {
        let mut c0 = 0;
        while c0 + CB <= cols {
            k.block::<R, CB>(r0, c0);
            c0 += CB;
        }
        while c0 + 4 <= cols {
            k.block::<R, 4>(r0, c0);
            c0 += 4;
        }
        for c in c0..cols {
            k.block::<R, 1>(r0, c);
        }
    }
    let mut r0 = 0;
    while r0 + RB <= rows {
        row_of::<RB, CB>(k, r0, cols);
        r0 += RB;
    }
    while r0 + 4 <= rows {
        row_of::<4, CB>(k, r0, cols);
        r0 += 4;
    }
    for r in r0..rows {
        row_of::<1, CB>(k, r, cols);
    }
}

/// The register block every kernel runs: `acc[r][c] += u[r][t] * v[t *
/// stride + c]` for `t` in ascending order over the length of the `u`
/// rows.
#[inline(always)]
fn rank1_sweep<const R: usize, const C: usize>(
    acc: &mut [[f64; C]; R],
    u: [&[f64]; R],
    v: &[f64],
    stride: usize,
) {
    let n = u[0].len();
    let u = u.map(|row| &row[..n]);
    for t in 0..n {
        let vt = &v[t * stride..t * stride + C];
        for (a, ur) in acc.iter_mut().zip(&u) {
            let ur = ur[t];
            // The full-width block written out, so that unoptimized test
            // builds do not pay a loop step per multiply-add.
            if C == 4 {
                a[0] += ur * vt[0];
                a[1] += ur * vt[1];
                a[2] += ur * vt[2];
                a[3] += ur * vt[3];
            } else {
                for c in 0..C {
                    a[c] += ur * vt[c];
                }
            }
        }
    }
}

/// Forward blocks: rows are outputs `o`, columns samples `s`. A hidden
/// layer applies [`tanh`] in the writeback; the output layer is linear.
struct Forward<'a> {
    layer: &'a Linear,
    x: &'a [f64],
    len: usize,
    hidden: bool,
    out: &'a mut [f64],
}

impl Blocks for Forward<'_> {
    #[inline(always)]
    fn block<const R: usize, const C: usize>(&mut self, o0: usize, s0: usize) {
        let (n_in, len) = (self.layer.n_in, self.len);
        let mut acc = [[0.0; C]; R];
        for (r, row) in acc.iter_mut().enumerate() {
            *row = [self.layer.b[o0 + r]; C];
        }
        let w = std::array::from_fn(|r| &self.layer.w[(o0 + r) * n_in..(o0 + r + 1) * n_in]);
        rank1_sweep(&mut acc, w, &self.x[s0..], len);
        for (r, row) in acc.iter().enumerate() {
            for (c, &a) in row.iter().enumerate() {
                self.out[(o0 + r) * len + s0 + c] = if self.hidden { tanh(a) } else { a };
            }
        }
    }
}

/// Weight-gradient blocks: rows are inputs `i`, columns outputs `o`.
struct WeightGrad<'a> {
    layer: &'a mut Linear,
    x: &'a [f64],
    dy: &'a [f64],
    len: usize,
}

impl Blocks for WeightGrad<'_> {
    #[inline(always)]
    fn block<const R: usize, const C: usize>(&mut self, i0: usize, o0: usize) {
        let (n_in, n_out, len) = (self.layer.n_in, self.layer.n_out, self.len);
        let gw = &mut self.layer.gw;
        let mut acc = [[0.0; C]; R];
        for (r, row) in acc.iter_mut().enumerate() {
            for (c, a) in row.iter_mut().enumerate() {
                *a = gw[(o0 + c) * n_in + i0 + r];
            }
        }
        let x = std::array::from_fn(|r| &self.x[(i0 + r) * len..(i0 + r + 1) * len]);
        rank1_sweep(&mut acc, x, &self.dy[o0..], n_out);
        for (r, row) in acc.iter().enumerate() {
            for (c, &a) in row.iter().enumerate() {
                gw[(o0 + c) * n_in + i0 + r] = a;
            }
        }
    }
}

/// Input-gradient blocks: rows are samples `s`, columns inputs `i`. The
/// input is a hidden layer's `tanh` output `y`, whose derivative is
/// `1 - y^2`.
struct InputGrad<'a> {
    layer: &'a Linear,
    dy: &'a [f64],
    y: &'a [f64],
    len: usize,
    dx: &'a mut [f64],
}

impl Blocks for InputGrad<'_> {
    #[inline(always)]
    fn block<const R: usize, const C: usize>(&mut self, s0: usize, i0: usize) {
        let (n_in, n_out, len) = (self.layer.n_in, self.layer.n_out, self.len);
        let mut acc = [[0.0; C]; R];
        let dy = std::array::from_fn(|r| &self.dy[(s0 + r) * n_out..(s0 + r + 1) * n_out]);
        rank1_sweep(&mut acc, dy, &self.layer.w[i0..], n_in);
        for (r, row) in acc.iter().enumerate() {
            for (c, &a) in row.iter().enumerate() {
                let (s, i) = (s0 + r, i0 + c);
                let y = self.y[i * len + s];
                self.dx[s * n_in + i] = a * (1.0 - y * y);
            }
        }
    }
}

impl Linear {
    fn new(n_in: usize, n_out: usize, rng: &mut StdRng) -> Self {
        // Xavier/Glorot uniform initialization.
        let bound = (6.0 / (n_in + n_out) as f64).sqrt();
        let w = (0..n_in * n_out)
            .map(|_| rng.random_range(-bound..bound))
            .collect();
        Linear {
            n_in,
            n_out,
            w,
            b: vec![0.0; n_out],
            gw: vec![0.0; n_in * n_out],
            gb: vec![0.0; n_out],
            mw: vec![0.0; n_in * n_out],
            vw: vec![0.0; n_in * n_out],
            mb: vec![0.0; n_out],
            vb: vec![0.0; n_out],
        }
    }

    /// `out[o][s] = b[o] + sum_i W[o][i] * x[i][s]` for `len` samples,
    /// passed through [`tanh`] for a `hidden` layer; `x` is `[n_in x len]`
    /// and `out` `[n_out x len]`, both feature-major.
    fn forward(&self, x: &[f64], len: usize, hidden: bool, out: &mut [f64]) {
        let mut k = Forward {
            layer: self,
            x,
            len,
            hidden,
            out,
        };
        for_blocks(&mut k, self.n_out, len);
    }

    /// Accumulates the parameter gradients of `len` samples in sample
    /// order: `gW[o][i] += sum_s dy[s][o] * x[i][s]`, `gb[o] += sum_s
    /// dy[s][o]`. `x` is this layer's input, feature-major `[n_in x len]`;
    /// `dy` the gradient w.r.t. its pre-activation output, sample-major
    /// `[len x n_out]`.
    fn accumulate_grad(&mut self, x: &[f64], dy: &[f64], len: usize) {
        let (n_in, n_out) = (self.n_in, self.n_out);
        for (o, gb) in self.gb.iter_mut().enumerate() {
            for s in 0..len {
                *gb += dy[s * n_out + o];
            }
        }
        let mut k = WeightGrad {
            layer: self,
            x,
            dy,
            len,
        };
        for_blocks(&mut k, n_in, n_out);
    }

    /// Back-propagates `dy` (sample-major `[len x n_out]`) through this
    /// layer and the `tanh` of its input `y` (the previous hidden layer's
    /// output, feature-major `[n_in x len]`): writes
    /// `dx[s][i] = (sum_o dy[s][o] * W[o][i]) * (1 - y[i][s]^2)`,
    /// sample-major `[len x n_in]`.
    fn input_grad(&self, dy: &[f64], y: &[f64], len: usize, dx: &mut [f64]) {
        let mut k = InputGrad {
            layer: self,
            dy,
            y,
            len,
            dx,
        };
        for_blocks(&mut k, len, self.n_in);
    }

    fn zero_grad(&mut self) {
        self.gw.fill(0.0);
        self.gb.fill(0.0);
    }

    fn grad_sq_norm(&self) -> f64 {
        self.gw.iter().map(|g| g * g).sum::<f64>() + self.gb.iter().map(|g| g * g).sum::<f64>()
    }

    fn scale_grad(&mut self, k: f64) {
        self.gw.iter_mut().for_each(|g| *g *= k);
        self.gb.iter_mut().for_each(|g| *g *= k);
    }

    fn adam_step(&mut self, lr: f64, b1: f64, b2: f64, eps: f64, t: u64) {
        let bc1 = 1.0 - b1.powi(t as i32);
        let bc2 = 1.0 - b2.powi(t as i32);
        for i in 0..self.w.len() {
            self.mw[i] = b1 * self.mw[i] + (1.0 - b1) * self.gw[i];
            self.vw[i] = b2 * self.vw[i] + (1.0 - b2) * self.gw[i] * self.gw[i];
            let mhat = self.mw[i] / bc1;
            let vhat = self.vw[i] / bc2;
            self.w[i] -= lr * mhat / (vhat.sqrt() + eps);
        }
        for i in 0..self.b.len() {
            self.mb[i] = b1 * self.mb[i] + (1.0 - b1) * self.gb[i];
            self.vb[i] = b2 * self.vb[i] + (1.0 - b2) * self.gb[i] * self.gb[i];
            let mhat = self.mb[i] / bc1;
            let vhat = self.vb[i] / bc2;
            self.b[i] -= lr * mhat / (vhat.sqrt() + eps);
        }
    }
}

/// Samples per tile of the batched passes. A tile of the paper's 3 x 50
/// policy keeps every layer's activations and gradients in about 150 KB,
/// inside L2.
pub const TILE: usize = 64;

/// Buffers of the batched passes over one tile of up to [`TILE`]
/// samples, for one network's layer widths: each layer's activations,
/// kept by [`Mlp::forward_tile`] for [`Mlp::backward_tile`], and the
/// gradient rows the backward pass walks down the layers.
///
/// Activations are feature-major, `[width x len]`: unit `i` of sample
/// `s` sits at `i * len + s`. Gradients are sample-major `[len x width]`.
#[derive(Debug, Clone)]
pub struct Tape {
    len: usize,
    /// `acts[0]` is the input, `acts[l + 1]` the output of layer `l`.
    acts: Vec<Vec<f64>>,
    dy: Vec<f64>,
    dx: Vec<f64>,
}

impl Tape {
    /// Allocates a tape for `net`'s layer widths.
    pub fn new(net: &Mlp) -> Self {
        let widths: Vec<usize> = std::iter::once(net.n_in())
            .chain(net.layers.iter().map(|l| l.n_out))
            .collect();
        let widest = widths.iter().copied().max().unwrap_or(0);
        Tape {
            len: 0,
            acts: widths.iter().map(|w| vec![0.0; w * TILE]).collect(),
            dy: vec![0.0; widest * TILE],
            dx: vec![0.0; widest * TILE],
        }
    }

    /// Loads a tile's inputs, one row per sample, in order.
    ///
    /// # Panics
    ///
    /// Panics on more than [`TILE`] rows, or a row whose width is not the
    /// network's input width.
    pub fn load<'a>(&mut self, rows: impl ExactSizeIterator<Item = &'a [f64]>) {
        let len = rows.len();
        assert!(len <= TILE, "a tile holds at most {TILE} samples");
        let input = &mut self.acts[0];
        let n_in = input.len() / TILE;
        for (s, row) in rows.enumerate() {
            assert_eq!(row.len(), n_in, "input width mismatch");
            for (i, &v) in row.iter().enumerate() {
                input[i * len + s] = v;
            }
        }
        self.len = len;
    }
}

/// Read-only view of one dense layer's parameters and accumulated
/// gradients.
#[derive(Debug, Clone, Copy)]
pub struct LayerView<'a> {
    /// Input width.
    pub n_in: usize,
    /// Output width.
    pub n_out: usize,
    /// Weights, row-major `[n_out x n_in]`.
    pub w: &'a [f64],
    /// Biases.
    pub b: &'a [f64],
    /// Accumulated weight gradient, laid out like `w`.
    pub gw: &'a [f64],
    /// Accumulated bias gradient.
    pub gb: &'a [f64],
}

/// A fully-connected feed-forward network: [`tanh`] hidden layers and a
/// linear output layer.
///
/// # Examples
///
/// ```
/// use autockt_rl::mlp::Mlp;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let net = Mlp::new(&[4, 16, 2], &mut rng);
/// let y = net.forward(&[0.1, -0.2, 0.3, 0.0]);
/// assert_eq!(y.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Linear>,
    adam_t: u64,
}

impl Mlp {
    /// Builds a network with the given layer sizes (first entry is the
    /// input dimension, last is the output dimension).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are supplied.
    pub fn new(sizes: &[usize], rng: &mut StdRng) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let layers = sizes
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Mlp { layers, adam_t: 0 }
    }

    /// Input dimension (0 for a layerless net, which the constructors
    /// never build).
    pub fn n_in(&self) -> usize {
        self.layers.first().map_or(0, |l| l.n_in)
    }

    /// Output dimension (0 for a layerless net, which the constructors
    /// never build).
    pub fn n_out(&self) -> usize {
        self.layers.last().map_or(0, |l| l.n_out)
    }

    /// Forward pass of one sample: the batched forward at batch 1.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.n_in()`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n_in(), "input width mismatch");
        let mut cur = x.to_vec();
        let mut next = Vec::new();
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            next.clear();
            next.resize(layer.n_out, 0.0);
            layer.forward(&cur, 1, li != last, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    /// Batched forward pass over the tile loaded in `tape`, keeping every
    /// layer's activations there for [`Mlp::backward_tile`]. Returns the
    /// network output, feature-major `[n_out x len]`.
    pub fn forward_tile<'t>(&self, tape: &'t mut Tape) -> &'t [f64] {
        let len = tape.len;
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            let (done, rest) = tape.acts.split_at_mut(li + 1);
            layer.forward(&done[li], len, li != last, &mut rest[0]);
        }
        &tape.acts[last + 1][..self.n_out() * len]
    }

    /// Batched backward pass: accumulates the parameter gradients of the
    /// tile that [`Mlp::forward_tile`] last ran on `tape`, given the loss
    /// gradient w.r.t. the (linear) network output, feature-major
    /// `[n_out x len]`.
    /// Every gradient element is summed in sample order, so the result is
    /// bitwise that of accumulating the samples one at a time.
    ///
    /// # Panics
    ///
    /// Panics if `dout` does not hold `n_out` values for each sample of
    /// the tile.
    pub fn backward_tile(&mut self, tape: &mut Tape, dout: &[f64]) {
        let (len, n_out) = (tape.len, self.n_out());
        assert_eq!(dout.len(), n_out * len, "bad output gradient size");
        for s in 0..len {
            for o in 0..n_out {
                tape.dy[s * n_out + o] = dout[o * len + s];
            }
        }
        for (li, layer) in self.layers.iter_mut().enumerate().rev() {
            layer.accumulate_grad(&tape.acts[li], &tape.dy, len);
            if li > 0 {
                layer.input_grad(&tape.dy, &tape.acts[li], len, &mut tape.dx);
                std::mem::swap(&mut tape.dy, &mut tape.dx);
            }
        }
    }

    /// The layers, input first.
    pub fn layers(&self) -> impl Iterator<Item = LayerView<'_>> {
        self.layers.iter().map(|l| LayerView {
            n_in: l.n_in,
            n_out: l.n_out,
            w: &l.w,
            b: &l.b,
            gw: &l.gw,
            gb: &l.gb,
        })
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Global L2 norm of the accumulated gradient.
    pub fn grad_norm(&self) -> f64 {
        self.layers
            .iter()
            .map(Linear::grad_sq_norm)
            .sum::<f64>()
            .sqrt()
    }

    /// Scales all accumulated gradients (used for minibatch averaging and
    /// gradient clipping).
    pub fn scale_grad(&mut self, k: f64) {
        for l in &mut self.layers {
            l.scale_grad(k);
        }
    }

    /// Applies one Adam update with the accumulated gradients, then clears
    /// them.
    pub fn adam_step(&mut self, lr: f64) {
        self.adam_t += 1;
        for l in &mut self.layers {
            l.adam_step(lr, 0.9, 0.999, 1e-8, self.adam_t);
        }
        self.zero_grad();
    }
}

/// Numerically stable softmax over a slice.
pub fn softmax(z: &[f64]) -> Vec<f64> {
    let mut p = vec![0.0; z.len()];
    softmax_lse(z, &mut p);
    p
}

/// [`softmax`] of `z` into `p`, returning [`log_sum_exp`] of `z` from the
/// same exponentials. Both are bitwise what the two functions return.
///
/// # Panics
///
/// Panics if `p` and `z` differ in length.
pub(crate) fn softmax_lse(z: &[f64], p: &mut [f64]) -> f64 {
    assert_eq!(p.len(), z.len(), "softmax buffer length");
    let m = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for (e, v) in p.iter_mut().zip(z) {
        *e = (v - m).exp();
    }
    let s: f64 = p.iter().sum();
    p.iter_mut().for_each(|e| *e /= s);
    m + s.ln()
}

/// Log-sum-exp of a slice, numerically stable.
pub fn log_sum_exp(z: &[f64]) -> f64 {
    let m = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    m + z.iter().map(|v| (v - m).exp()).sum::<f64>().ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    /// Runs one sample through the batched passes; `dout` maps the output
    /// to the loss gradient. Returns the output.
    fn backprop_one(net: &mut Mlp, x: &[f64], dout: impl FnOnce(&[f64]) -> Vec<f64>) -> Vec<f64> {
        let mut tape = Tape::new(net);
        tape.load(std::iter::once(x));
        let y = net.forward_tile(&mut tape).to_vec();
        net.backward_tile(&mut tape, &dout(&y));
        y
    }

    /// Distance of `got` from `want` in units of `want`'s last place.
    fn ulps(got: f64, want: f64) -> f64 {
        if got.to_bits() == want.to_bits() {
            return 0.0;
        }
        let w = want.abs();
        let ulp = f64::from_bits(w.to_bits() + 1) - w;
        ((got - want) / ulp).abs()
    }

    /// The points of the dense contract sweep: 1M steps across [-25, 25]
    /// and 4,000 magnitudes from 1e-300 to 1, both signs.
    fn sweep() -> impl Iterator<Item = f64> {
        let n = 1_000_000;
        let dense = (0..=n).map(move |i| -25.0 + 50.0 * f64::from(i) / f64::from(n));
        let tiny = (0..4000).flat_map(|i| {
            let x = 10f64.powf(-300.0 + 300.0 * f64::from(i) / 3999.0);
            [x, -x]
        });
        dense.chain(tiny)
    }

    #[test]
    fn tanh_within_two_ulp_of_libm() {
        let (worst, at) = sweep()
            .map(|x| (ulps(tanh(x), x.tanh()), x))
            .fold((0.0, 0.0), |a, b| if b.0 > a.0 { b } else { a });
        assert!(worst <= 2.0, "{worst} ulp at x = {at:e}");
    }

    #[test]
    fn tanh_is_odd_bitwise() {
        for x in sweep() {
            assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits(), "x = {x:e}");
        }
    }

    #[test]
    fn tanh_special_values() {
        assert_eq!(tanh(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f64).to_bits());
        assert!(tanh(f64::NAN).is_nan());
        assert!(tanh(-f64::NAN).is_nan());
        assert_eq!(tanh(f64::INFINITY), 1.0);
        assert_eq!(tanh(f64::NEG_INFINITY), -1.0);
        assert_eq!(tanh(f64::MAX), 1.0);
        assert_eq!(tanh(f64::MIN_POSITIVE), f64::MIN_POSITIVE);
        // Either side of the switch between the two halves.
        let below = f64::from_bits(0.625f64.to_bits() - 1);
        for x in [below, 0.625] {
            assert!(ulps(tanh(x), x.tanh()) <= 2.0, "x = {x}");
        }
    }

    #[test]
    fn tanh_saturates_exactly_from_19_1() {
        let mut x = 19.1;
        while x < 1e3 {
            assert_eq!(tanh(x), 1.0, "x = {x}");
            assert_eq!(tanh(-x), -1.0, "x = {x}");
            x += 0.013;
        }
    }

    #[test]
    fn tanh_is_monotone() {
        let mut prev = f64::NEG_INFINITY;
        let n = 1_000_000;
        for i in 0..=n {
            let x = -25.0 + 50.0 * f64::from(i) / f64::from(n);
            let y = tanh(x);
            assert!(y >= prev, "tanh falls at x = {x:e}");
            prev = y;
        }
        // Every double within 10,000 ulps of the switch between halves.
        let mid = 0.625f64.to_bits();
        let mut prev = tanh(f64::from_bits(mid - 10_000));
        for b in mid - 9_999..=mid + 10_000 {
            let y = tanh(f64::from_bits(b));
            assert!(y >= prev, "tanh falls at x = {:e}", f64::from_bits(b));
            prev = y;
        }
    }

    #[test]
    fn forward_shapes() {
        let net = Mlp::new(&[3, 8, 8, 2], &mut rng());
        assert_eq!(net.n_in(), 3);
        assert_eq!(net.n_out(), 2);
        assert_eq!(net.forward(&[0.0, 0.0, 0.0]).len(), 2);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        // Loss = 0.5 * sum(y^2); analytic grad vs numerical perturbation of
        // a weight checked through the full backprop chain.
        let mut net = Mlp::new(&[2, 5, 3], &mut rng());
        let x = [0.3, -0.7];
        net.zero_grad();
        backprop_one(&mut net, &x, <[f64]>::to_vec);
        // Check a handful of weights in each layer.
        let h = 1e-6;
        for li in 0..net.layers.len() {
            for wi in [0usize, 1, 3] {
                let analytic = net.layers[li].gw[wi];
                let orig = net.layers[li].w[wi];
                net.layers[li].w[wi] = orig + h;
                let yp = net.forward(&x);
                let lp: f64 = 0.5 * yp.iter().map(|v| v * v).sum::<f64>();
                net.layers[li].w[wi] = orig - h;
                let ym = net.forward(&x);
                let lm: f64 = 0.5 * ym.iter().map(|v| v * v).sum::<f64>();
                net.layers[li].w[wi] = orig;
                let numeric = (lp - lm) / (2.0 * h);
                assert!(
                    (analytic - numeric).abs() < 1e-6,
                    "layer {li} w[{wi}]: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn adam_reduces_regression_loss() {
        // Fit y = [x0 + x1, x0 - x1] from random samples.
        let mut r = rng();
        let mut net = Mlp::new(&[2, 16, 2], &mut r);
        let loss_of = |net: &Mlp, data: &[([f64; 2], [f64; 2])]| -> f64 {
            data.iter()
                .map(|(x, t)| {
                    let y = net.forward(x);
                    0.5 * ((y[0] - t[0]).powi(2) + (y[1] - t[1]).powi(2))
                })
                .sum::<f64>()
                / data.len() as f64
        };
        let data: Vec<([f64; 2], [f64; 2])> = (0..64)
            .map(|_| {
                let x0: f64 = r.random_range(-1.0..1.0);
                let x1: f64 = r.random_range(-1.0..1.0);
                ([x0, x1], [x0 + x1, x0 - x1])
            })
            .collect();
        let before = loss_of(&net, &data);
        let mut tape = Tape::new(&net);
        for _ in 0..300 {
            net.zero_grad();
            tape.load(data.iter().map(|(x, _)| x.as_slice()));
            let y = net.forward_tile(&mut tape);
            // Feature-major: output o of sample s sits at o * len + s.
            let n = data.len();
            let dout: Vec<f64> = (0..2 * n).map(|k| y[k] - data[k % n].1[k / n]).collect();
            net.backward_tile(&mut tape, &dout);
            net.scale_grad(1.0 / data.len() as f64);
            net.adam_step(3e-3);
        }
        let after = loss_of(&net, &data);
        assert!(
            after < before * 0.05,
            "loss should drop 20x: {before} -> {after}"
        );
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1000.0, 1000.0, 1000.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|v| (v - 1.0 / 3.0).abs() < 1e-12));
        let q = softmax(&[-1e9, 0.0]);
        assert!(q[1] > 0.999);
    }

    #[test]
    fn log_sum_exp_matches_naive_in_safe_range() {
        let z = [0.1f64, -0.4, 2.0];
        let naive = z.iter().map(|v| v.exp()).sum::<f64>().ln();
        assert!((log_sum_exp(&z) - naive).abs() < 1e-12);
    }

    #[test]
    fn softmax_lse_is_bitwise_softmax_and_log_sum_exp() {
        let mut r = rng();
        for d in 1..8 {
            let z: Vec<f64> = (0..d).map(|_| r.random_range(-30.0..30.0)).collect();
            let m = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let e: Vec<f64> = z.iter().map(|v| (v - m).exp()).collect();
            let s: f64 = e.iter().sum();
            let mut p = vec![0.0; d];
            let lse = softmax_lse(&z, &mut p);
            assert_eq!(lse.to_bits(), log_sum_exp(&z).to_bits());
            for (pi, ei) in p.iter().zip(&e) {
                assert_eq!(pi.to_bits(), (ei / s).to_bits());
            }
        }
    }

    #[test]
    fn clone_is_independent() {
        let mut a = Mlp::new(&[2, 4, 1], &mut rng());
        let b = a.clone();
        let x = [0.2, 0.4];
        let before = b.forward(&x)[0];
        backprop_one(&mut a, &x, |y| vec![y[0] + 1.0]);
        a.adam_step(0.1);
        assert!(
            (b.forward(&x)[0] - before).abs() < 1e-15,
            "clone unaffected"
        );
        assert!((a.forward(&x)[0] - before).abs() > 1e-9, "original trained");
    }

    /// The three loops of one layer of `n_in -> n_out` units over `len`
    /// samples, walked in 4 x 4 blocks or by [`walk_avx2`]: the bits of the
    /// forward output, the weight gradient (accumulated onto a nonzero
    /// one) and the input gradient. Inputs are drawn from `seed`.
    #[cfg(target_arch = "x86_64")]
    fn three_loops(
        avx2: bool,
        (n_in, n_out, len): (usize, usize, usize),
        hidden: bool,
        seed: u64,
    ) -> [Vec<u64>; 3] {
        fn run(avx2: bool, k: &mut impl Blocks, rows: usize, cols: usize) {
            if avx2 {
                // SAFETY: every caller checks that the CPU supports AVX2.
                unsafe { walk_avx2(k, rows, cols) }
            } else {
                walk::<4, 4>(k, rows, cols);
            }
        }
        let mut r = StdRng::seed_from_u64(seed);
        let mut draw =
            |n: usize| -> Vec<f64> { (0..n).map(|_| r.random_range(-1.0..1.0)).collect() };
        let mut layer = Linear::new(n_in, n_out, &mut rng());
        layer.b = draw(n_out);
        layer.gw = draw(n_in * n_out);
        let (x, dy) = (draw(n_in * len), draw(len * n_out));
        let y: Vec<f64> = draw(n_in * len).into_iter().map(tanh).collect();
        let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();

        let mut out = vec![0.0; n_out * len];
        let mut k = Forward {
            layer: &layer,
            x: &x,
            len,
            hidden,
            out: &mut out,
        };
        run(avx2, &mut k, n_out, len);
        let mut dx = vec![0.0; len * n_in];
        let mut k = InputGrad {
            layer: &layer,
            dy: &dy,
            y: &y,
            len,
            dx: &mut dx,
        };
        run(avx2, &mut k, len, n_in);
        let mut k = WeightGrad {
            layer: &mut layer,
            x: &x,
            dy: &dy,
            len,
        };
        run(avx2, &mut k, n_in, n_out);
        [bits(&out), bits(&layer.gw), bits(&dx)]
    }

    /// Whether the AVX2 walker can run here; prints a note when it cannot.
    #[cfg(target_arch = "x86_64")]
    fn have_avx2() -> bool {
        let have = is_x86_feature_detected!("avx2");
        if !have {
            eprintln!("no AVX2 on this CPU: the AVX2 walker is not compared");
        }
        have
    }

    #[cfg(target_arch = "x86_64")]
    proptest::proptest! {
        /// The AVX2 walker writes the portable walker's bits on every
        /// loop, over shapes from 1 to 17 that hit every edge remainder
        /// of both block shapes.
        #[test]
        fn avx2_walk_matches_portable(
            n_in in 1usize..18,
            n_out in 1usize..18,
            len in 1usize..18,
            hidden in 0usize..2,
            seed in 0u64..u64::MAX,
        ) {
            if have_avx2() {
                let shape = (n_in, n_out, len);
                let hidden = hidden == 1;
                proptest::prop_assert_eq!(
                    three_loops(true, shape, hidden, seed),
                    three_loops(false, shape, hidden, seed),
                    "shape {:?}, hidden {}",
                    shape,
                    hidden
                );
            }
        }
    }

    /// The same at the layer widths the paper's networks have, at batch 1
    /// (inference) and a full tile.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_walk_matches_portable_at_network_widths() {
        if !have_avx2() {
            return;
        }
        for (n_in, n_out) in [(7, 50), (50, 50), (50, 21), (50, 1)] {
            for len in [1, TILE] {
                for hidden in [false, true] {
                    let shape = (n_in, n_out, len);
                    assert_eq!(
                        three_loops(true, shape, hidden, 7),
                        three_loops(false, shape, hidden, 7),
                        "shape {shape:?}, hidden {hidden}"
                    );
                }
            }
        }
    }
}
