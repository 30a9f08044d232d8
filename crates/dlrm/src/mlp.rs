//! A dense multi-layer perceptron with hand-derived backprop and Adagrad.
//!
//! Parameters are stored as one flat `Vec<f32>` (per layer: row-major weight
//! matrix, then bias). The flat layout is deliberate: the PS training engine
//! partitions dense parameters across parameter servers by slicing this
//! vector, and checkpoints are a single memcpy.

use dlrover_sim::splitmix64;
use serde::{Deserialize, Serialize};

/// A fully connected network: ReLU on hidden layers, identity on the output
/// layer (callers apply their own link function, e.g. sigmoid).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    dims: Vec<usize>,
    params: Vec<f32>,
    acc: Vec<f32>,
}

/// Outputs of a layer whose sums [`Mlp::forward_into`] advances together.
const LANES: usize = 8;

/// Intermediate activations retained for backprop. Reusable: a trace
/// handed back to [`Mlp::forward_into`] keeps its buffer.
#[derive(Debug, Clone, Default)]
pub struct ForwardTrace {
    /// Post-activation values of every layer back to back, the input first.
    activations: Vec<f32>,
    /// Width of the last layer, whose values end `activations`.
    output_dim: usize,
}

impl ForwardTrace {
    /// The network output (last layer activations).
    pub fn output(&self) -> &[f32] {
        &self.activations[self.activations.len() - self.output_dim..]
    }
}

impl Mlp {
    /// Creates an MLP with layer sizes `dims = [input, h1, …, output]` and
    /// deterministic Xavier-ish initialisation from `seed`.
    ///
    /// # Panics
    /// Panics if fewer than two dims are given or any dim is zero.
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        assert!(dims.iter().all(|&d| d > 0), "zero-width layer");
        let n_params: usize = dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum();
        let mut params = Vec::with_capacity(n_params);
        let mut s = splitmix64(seed ^ 0x4D31);
        let mut offset_seed = s;
        for w in dims.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let scale = (2.0 / fan_in as f32).sqrt() * 0.5;
            for _ in 0..fan_in * fan_out {
                offset_seed = splitmix64(offset_seed);
                let u = (offset_seed >> 11) as f32 / (1u64 << 53) as f32;
                params.push((u - 0.5) * 2.0 * scale);
            }
            params.extend(std::iter::repeat_n(0.0, fan_out));
            s = splitmix64(s);
        }
        let acc = vec![0.0; params.len()];
        Mlp { dims: dims.to_vec(), params, acc }
    }

    /// Layer sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of parameters (weights + biases).
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.dims[0]
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        *self.dims.last().expect("dims nonempty")
    }

    /// Flat parameter vector (for checkpointing / PS sharding).
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Overwrites the flat parameter vector.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn set_params(&mut self, params: &[f32]) {
        assert_eq!(params.len(), self.params.len(), "param length mismatch");
        self.params.copy_from_slice(params);
    }

    /// Adagrad accumulator vector (checkpointed alongside params).
    pub fn accumulators(&self) -> &[f32] {
        &self.acc
    }

    /// Restores Adagrad accumulators.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn set_accumulators(&mut self, acc: &[f32]) {
        assert_eq!(acc.len(), self.acc.len(), "accumulator length mismatch");
        self.acc.copy_from_slice(acc);
    }

    /// Forward pass retaining activations for a later [`Self::backward`].
    ///
    /// # Panics
    /// Panics if `input.len() != input_dim()`.
    pub fn forward(&self, input: &[f32]) -> ForwardTrace {
        let mut trace = ForwardTrace::default();
        self.forward_into(input, &mut trace);
        trace
    }

    /// [`Self::forward`] into a caller-owned trace, which allocates only
    /// the first time it sees a network of this size. Every output is
    /// `bias + Σ_i w[o][i]·x[i]` summed left to right.
    ///
    /// # Panics
    /// Panics if `input.len() != input_dim()`.
    pub fn forward_into(&self, input: &[f32], trace: &mut ForwardTrace) {
        assert_eq!(input.len(), self.dims[0], "input dim mismatch");
        trace.output_dim = self.output_dim();
        let acts = &mut trace.activations;
        acts.resize(self.dims.iter().sum(), 0.0);
        acts[..input.len()].copy_from_slice(input);
        let (mut offset, mut start) = (0, 0);
        for (layer, w) in self.dims.windows(2).enumerate() {
            let (fan_in, fan_out) = (w[0], w[1]);
            let (prev, rest) = acts[start..].split_at_mut(fan_in);
            let (weights, biases) =
                self.params[offset..offset + fan_in * fan_out + fan_out].split_at(fan_in * fan_out);
            let prev = &prev[..fan_in];
            let out = &mut rest[..fan_out];
            // `LANES` outputs advance together: their addition chains are
            // independent, so they overlap in the pipeline, and each sum
            // still runs left to right.
            let mut o = 0;
            while o < fan_out {
                let lanes = LANES.min(fan_out - o);
                let mut acc = [0.0f32; LANES];
                acc[..lanes].copy_from_slice(&biases[o..o + lanes]);
                if lanes == LANES {
                    let rows: [&[f32]; LANES] =
                        std::array::from_fn(|l| &weights[(o + l) * fan_in..(o + l + 1) * fan_in]);
                    for i in 0..fan_in {
                        for l in 0..LANES {
                            acc[l] += rows[l][i] * prev[i];
                        }
                    }
                } else {
                    for (a, row) in acc.iter_mut().zip(weights[o * fan_in..].chunks_exact(fan_in)) {
                        for (wv, xv) in row.iter().zip(prev) {
                            *a += wv * xv;
                        }
                    }
                }
                // ReLU on hidden layers only.
                if layer + 2 < self.dims.len() {
                    acc.iter_mut().for_each(|a| *a = a.max(0.0));
                }
                out[o..o + lanes].copy_from_slice(&acc[..lanes]);
                o += lanes;
            }
            offset += fan_in * fan_out + fan_out;
            start += fan_in;
        }
    }

    /// Backward pass: given `d loss / d output`, accumulates parameter
    /// gradients into `param_grads` (flat, same layout as `params`) and
    /// returns `d loss / d input`.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn backward(
        &self,
        trace: &ForwardTrace,
        output_grad: &[f32],
        param_grads: &mut [f32],
    ) -> Vec<f32> {
        self.backward_into(trace, output_grad, param_grads, &mut Vec::new()).to_vec()
    }

    /// [`Self::backward`] with its working memory in the caller-owned
    /// `act_grads` (`d loss / d activation` of every layer, laid out like
    /// the trace); the returned `d loss / d input` is its head.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn backward_into<'a>(
        &self,
        trace: &ForwardTrace,
        output_grad: &[f32],
        param_grads: &mut [f32],
        act_grads: &'a mut Vec<f32>,
    ) -> &'a mut [f32] {
        assert_eq!(output_grad.len(), self.output_dim(), "output grad dim mismatch");
        assert_eq!(param_grads.len(), self.params.len(), "grad buffer mismatch");
        let total: usize = self.dims.iter().sum();
        assert_eq!(trace.activations.len(), total, "trace is from another network");
        act_grads.resize(total, 0.0);
        let mut out_at = total - output_grad.len();
        act_grads[out_at..].copy_from_slice(output_grad);

        // Walk layers in reverse: `offset` is the layer's first parameter,
        // `out_at` its first output activation.
        let mut offset = self.params.len();
        for layer in (0..self.dims.len() - 1).rev() {
            let (fan_in, fan_out) = (self.dims[layer], self.dims[layer + 1]);
            offset -= fan_in * fan_out + fan_out;
            let in_at = out_at - fan_in;
            let prev = &trace.activations[in_at..out_at];
            let out = &trace.activations[out_at..out_at + fan_out];
            let (dx, rest) = act_grads[in_at..].split_at_mut(fan_in);

            // d loss / d pre-activation.
            let dz = &mut rest[..fan_out];
            if layer + 2 < self.dims.len() {
                for (g, &a) in dz.iter_mut().zip(out) {
                    if a <= 0.0 {
                        *g = 0.0;
                    }
                }
            }

            // Weight & bias grads, and the downstream gradient. A zero `g`
            // is skipped, not added: `-0.0 + 0.0` is not a no-op.
            let weights = &self.params[offset..offset + fan_in * fan_out];
            let (w_grads, b_grads) = param_grads[offset..offset + fan_in * fan_out + fan_out]
                .split_at_mut(fan_in * fan_out);
            dx.fill(0.0);
            for (o, &g) in dz.iter().enumerate() {
                if g == 0.0 {
                    continue;
                }
                let row = &mut w_grads[o * fan_in..(o + 1) * fan_in];
                for (wg, &xv) in row.iter_mut().zip(prev) {
                    *wg += g * xv;
                }
                b_grads[o] += g;
                for (d, &wv) in dx.iter_mut().zip(&weights[o * fan_in..(o + 1) * fan_in]) {
                    *d += g * wv;
                }
            }
            out_at = in_at;
        }
        &mut act_grads[..self.dims[0]]
    }

    /// Applies a flat gradient with Adagrad.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn apply_grads(&mut self, grads: &[f32], lr: f32) {
        assert_eq!(grads.len(), self.params.len(), "grad length mismatch");
        for ((p, a), &g) in self.params.iter_mut().zip(self.acc.iter_mut()).zip(grads) {
            *a += g * g;
            *p -= lr * g / (a.sqrt() + 1e-8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_count_matches_layout() {
        let m = Mlp::new(&[4, 8, 2], 1);
        assert_eq!(m.param_count(), 4 * 8 + 8 + 8 * 2 + 2);
        assert_eq!(m.input_dim(), 4);
        assert_eq!(m.output_dim(), 2);
    }

    #[test]
    fn forward_is_deterministic() {
        let m1 = Mlp::new(&[3, 5, 1], 42);
        let m2 = Mlp::new(&[3, 5, 1], 42);
        let x = [0.5, -0.2, 1.0];
        assert_eq!(m1.forward(&x).output(), m2.forward(&x).output());
        let m3 = Mlp::new(&[3, 5, 1], 43);
        assert_ne!(m1.forward(&x).output(), m3.forward(&x).output());
    }

    #[test]
    fn zero_input_gives_bias_driven_output() {
        // Fresh biases are zero, so the output of a fresh net at 0 is 0.
        let m = Mlp::new(&[3, 4, 2], 7);
        let out = m.forward(&[0.0; 3]);
        assert_eq!(out.output(), &[0.0, 0.0]);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut m = Mlp::new(&[3, 4, 1], 9);
        let x = [0.3, -0.7, 0.9];
        // Loss = 0.5 * out². dLoss/dOut = out.
        let trace = m.forward(&x);
        let out = trace.output()[0];
        let mut grads = vec![0.0; m.param_count()];
        m.backward(&trace, &[out], &mut grads);

        let eps = 1e-3f32;
        let mut params = m.params().to_vec();
        for i in (0..m.param_count()).step_by(3) {
            let orig = params[i];
            params[i] = orig + eps;
            m.set_params(&params);
            let up = 0.5 * m.forward(&x).output()[0].powi(2);
            params[i] = orig - eps;
            m.set_params(&params);
            let down = 0.5 * m.forward(&x).output()[0].powi(2);
            params[i] = orig;
            m.set_params(&params);
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - grads[i]).abs() < 2e-2_f32.max(numeric.abs() * 0.05),
                "param {i}: numeric {numeric} vs analytic {}",
                grads[i]
            );
        }
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let m = Mlp::new(&[3, 6, 1], 13);
        let x = [0.4f32, 0.1, -0.6];
        let trace = m.forward(&x);
        let out = trace.output()[0];
        let mut grads = vec![0.0; m.param_count()];
        let dx = m.backward(&trace, &[out], &mut grads);

        let eps = 1e-3f32;
        for i in 0..3 {
            let mut xp = x;
            xp[i] += eps;
            let up = 0.5 * m.forward(&xp).output()[0].powi(2);
            xp[i] = x[i] - eps;
            let down = 0.5 * m.forward(&xp).output()[0].powi(2);
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - dx[i]).abs() < 1e-2_f32.max(numeric.abs() * 0.05),
                "input {i}: numeric {numeric} vs analytic {}",
                dx[i]
            );
        }
    }

    #[test]
    fn training_reduces_loss_on_toy_regression() {
        // Learn y = x0 + 2*x1 on a tiny grid.
        let mut m = Mlp::new(&[2, 8, 1], 3);
        let data: Vec<([f32; 2], f32)> = (0..16)
            .map(|i| {
                let x0 = (i % 4) as f32 / 3.0;
                let x1 = (i / 4) as f32 / 3.0;
                ([x0, x1], x0 + 2.0 * x1)
            })
            .collect();
        let loss = |m: &Mlp| -> f32 {
            data.iter().map(|(x, y)| (m.forward(x).output()[0] - y).powi(2)).sum::<f32>()
                / data.len() as f32
        };
        let initial = loss(&m);
        for _ in 0..300 {
            let mut grads = vec![0.0; m.param_count()];
            for (x, y) in &data {
                let trace = m.forward(x);
                let err = trace.output()[0] - y;
                m.backward(&trace, &[2.0 * err / data.len() as f32], &mut grads);
            }
            m.apply_grads(&grads, 0.1);
        }
        let final_loss = loss(&m);
        assert!(final_loss < initial * 0.1, "loss did not drop: {initial} -> {final_loss}");
    }

    #[test]
    fn relu_blocks_gradient_through_dead_units() {
        // A unit with non-positive activation must contribute zero gradient.
        let m = Mlp::new(&[1, 1, 1], 5);
        let x = [-100.0f32]; // drives hidden unit far negative
        let trace = m.forward(&x);
        if trace.activations[1] <= 0.0 {
            let mut grads = vec![0.0; m.param_count()];
            let dx = m.backward(&trace, &[1.0], &mut grads);
            assert_eq!(dx[0], 0.0);
            // First-layer weight grad must be zero too.
            assert_eq!(grads[0], 0.0);
        }
    }

    #[test]
    fn set_params_roundtrip() {
        let mut m = Mlp::new(&[2, 3, 1], 1);
        let snapshot = m.params().to_vec();
        m.apply_grads(&vec![0.1; m.param_count()], 0.5);
        assert_ne!(m.params(), snapshot.as_slice());
        m.set_params(&snapshot);
        assert_eq!(m.params(), snapshot.as_slice());
    }

    #[test]
    fn adagrad_accumulators_grow() {
        let mut m = Mlp::new(&[2, 2, 1], 1);
        assert!(m.accumulators().iter().all(|&a| a == 0.0));
        m.apply_grads(&vec![0.5; m.param_count()], 0.1);
        assert!(m.accumulators().iter().all(|&a| a > 0.0));
    }

    #[test]
    #[should_panic(expected = "input dim mismatch")]
    fn wrong_input_size_panics() {
        let m = Mlp::new(&[3, 2], 1);
        let _ = m.forward(&[1.0, 2.0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Hidden-layer pre-activations (before ReLU), recomputed from the
    /// flat layout. Finite differences are only trustworthy away from the
    /// ReLU kink, so the properties below discard cases where any hidden
    /// unit sits within `margin` of zero.
    fn hidden_preacts(m: &Mlp, input: &[f32]) -> Vec<f32> {
        let mut pre = Vec::new();
        let mut x = input.to_vec();
        let mut offset = 0;
        for (layer, w) in m.dims().windows(2).enumerate() {
            let (fan_in, fan_out) = (w[0], w[1]);
            let weights = &m.params()[offset..offset + fan_in * fan_out];
            let biases =
                &m.params()[offset + fan_in * fan_out..offset + fan_in * fan_out + fan_out];
            let mut out = vec![0.0f32; fan_out];
            for (o, out_v) in out.iter_mut().enumerate() {
                let row = &weights[o * fan_in..(o + 1) * fan_in];
                *out_v = biases[o] + row.iter().zip(&x).map(|(w, x)| w * x).sum::<f32>();
            }
            if layer + 2 < m.dims().len() {
                pre.extend_from_slice(&out);
                for v in &mut out {
                    *v = v.max(0.0);
                }
            }
            x = out;
            offset += fan_in * fan_out + fan_out;
        }
        pre
    }

    /// Loss `L = Σ cᵢ·outᵢ` — linear in the output, so `dL/dout = c`
    /// exactly and the finite-difference error is pure ReLU/float noise.
    fn linear_loss(m: &Mlp, input: &[f32], c: &[f32]) -> f32 {
        m.forward(input).output().iter().zip(c).map(|(o, c)| o * c).sum()
    }

    proptest! {
        /// Backward's parameter gradients match central finite differences
        /// on arbitrary small shapes, seeds, and inputs (away from ReLU
        /// kinks, where the numeric derivative is undefined).
        #[test]
        fn param_gradients_match_finite_differences(
            input_dim in 1usize..=4,
            hidden in 1usize..=5,
            output_dim in 1usize..=3,
            seed in 0u64..1_000,
            xs in proptest::collection::vec(-1.0f32..1.0, 4),
            cs in proptest::collection::vec(-1.0f32..1.0, 3),
        ) {
            let mut m = Mlp::new(&[input_dim, hidden, output_dim], seed);
            let x = &xs[..input_dim];
            let c = &cs[..output_dim];
            prop_assume!(hidden_preacts(&m, x).iter().all(|p| p.abs() > 0.05));

            let trace = m.forward(x);
            let mut grads = vec![0.0; m.param_count()];
            m.backward(&trace, c, &mut grads);

            let eps = 1e-3f32;
            let mut params = m.params().to_vec();
            for i in 0..m.param_count() {
                let orig = params[i];
                params[i] = orig + eps;
                m.set_params(&params);
                let up = linear_loss(&m, x, c);
                params[i] = orig - eps;
                m.set_params(&params);
                let down = linear_loss(&m, x, c);
                params[i] = orig;
                m.set_params(&params);
                let numeric = (up - down) / (2.0 * eps);
                prop_assert!(
                    (numeric - grads[i]).abs() < 2e-2_f32.max(numeric.abs() * 0.05),
                    "param {i}: numeric {numeric} vs analytic {}", grads[i]
                );
            }
        }

        /// Backward's input gradient matches central finite differences.
        #[test]
        fn input_gradients_match_finite_differences(
            input_dim in 1usize..=4,
            hidden in 1usize..=5,
            output_dim in 1usize..=3,
            seed in 0u64..1_000,
            xs in proptest::collection::vec(-1.0f32..1.0, 4),
            cs in proptest::collection::vec(-1.0f32..1.0, 3),
        ) {
            let m = Mlp::new(&[input_dim, hidden, output_dim], seed);
            let x = &xs[..input_dim];
            let c = &cs[..output_dim];
            prop_assume!(hidden_preacts(&m, x).iter().all(|p| p.abs() > 0.05));

            let trace = m.forward(x);
            let mut grads = vec![0.0; m.param_count()];
            let dx = m.backward(&trace, c, &mut grads);

            let eps = 1e-3f32;
            for i in 0..input_dim {
                let mut xp = x.to_vec();
                xp[i] = x[i] + eps;
                let up = linear_loss(&m, &xp, c);
                xp[i] = x[i] - eps;
                let down = linear_loss(&m, &xp, c);
                let numeric = (up - down) / (2.0 * eps);
                prop_assert!(
                    (numeric - dx[i]).abs() < 2e-2_f32.max(numeric.abs() * 0.05),
                    "input {i}: numeric {numeric} vs analytic {}", dx[i]
                );
            }
        }

        /// One Adagrad step equals the closed-form update
        /// `a' = a + g²; p' = p − lr·g/(√a' + 1e-8)` element-wise (same
        /// operation order, so exactly — Eqn. per DL2's Adagrad trainer).
        #[test]
        fn adagrad_step_matches_closed_form(
            seed in 0u64..1_000,
            lr in 1e-4f32..1.0,
            gs in proptest::collection::vec(-2.0f32..2.0, 2 * 3 + 3 + 3 * 2 + 2),
            warmup in proptest::collection::vec(-2.0f32..2.0, 2 * 3 + 3 + 3 * 2 + 2),
        ) {
            let mut m = Mlp::new(&[2, 3, 2], seed);
            // Arbitrary pre-existing accumulator state via a warm-up step.
            m.apply_grads(&warmup, lr);
            let params = m.params().to_vec();
            let acc = m.accumulators().to_vec();

            m.apply_grads(&gs, lr);
            for i in 0..m.param_count() {
                let a2 = acc[i] + gs[i] * gs[i];
                let p2 = params[i] - lr * gs[i] / (a2.sqrt() + 1e-8);
                prop_assert_eq!(m.accumulators()[i], a2, "acc {}", i);
                prop_assert_eq!(m.params()[i], p2, "param {}", i);
                prop_assert!(m.accumulators()[i] >= acc[i], "accumulator shrank at {}", i);
            }
        }

        /// A zero gradient is a strict no-op for both parameters and
        /// accumulator state, at any learning rate.
        #[test]
        fn adagrad_zero_gradient_is_a_noop(seed in 0u64..1_000, lr in 1e-4f32..10.0) {
            let mut m = Mlp::new(&[3, 4, 1], seed);
            let params = m.params().to_vec();
            let acc = m.accumulators().to_vec();
            m.apply_grads(&vec![0.0; m.param_count()], lr);
            prop_assert_eq!(m.params(), params.as_slice());
            prop_assert_eq!(m.accumulators(), acc.as_slice());
        }
    }
}
