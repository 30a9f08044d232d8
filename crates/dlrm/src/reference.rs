//! The kernels as they stood before the arena tables, the flat sparse
//! gradient and the scratch-reusing towers: SipHash row maps with two heap
//! blocks per row, a `Vec` per activation, a `HashMap` of `Vec`s per batch.
//! Kept verbatim (only renamed, and `Mlp::forward`/`backward` turned into
//! free functions over the live [`Mlp`]'s parameters) as the reference the
//! differential tests below hold the live kernels to, bit for bit.

use std::collections::HashMap;

use dlrover_sim::splitmix64;

use crate::data::{Sample, NUM_DENSE, NUM_SPARSE};
use crate::mlp::Mlp;
use crate::model::{ModelCheckpoint, ModelConfig, ModelKind};

/// One embedding table: `virtual_rows` addressable slots, materialised
/// lazily.
#[derive(Debug, Clone)]
pub(crate) struct RefTable {
    dim: usize,
    virtual_rows: u64,
    init_scale: f32,
    seed: u64,
    /// Materialised rows: slot -> (weights, adagrad accumulators).
    rows: HashMap<u64, (Vec<f32>, Vec<f32>)>,
}

impl RefTable {
    /// Creates a table with `virtual_rows` hash slots and `dim`-dimensional
    /// vectors. New rows initialise to small deterministic pseudo-random
    /// values derived from `seed`.
    ///
    /// # Panics
    /// Panics if `dim == 0` or `virtual_rows == 0`.
    pub(crate) fn new(virtual_rows: u64, dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "embedding dim must be positive");
        assert!(virtual_rows > 0, "table must have at least one row");
        RefTable { dim, virtual_rows, init_scale: 0.05, seed, rows: HashMap::new() }
    }

    /// The slot an id hashes to: `hash(id) mod M`.
    pub(crate) fn slot(&self, id: u64) -> u64 {
        splitmix64(id ^ self.seed) % self.virtual_rows
    }

    /// Resident bytes: weights + accumulators, 4 bytes each.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.rows.len() * self.dim * 4 * 2
    }

    /// Looks up (materialising if needed) and copies the row for `id` into
    /// `out`.
    ///
    /// # Panics
    /// Panics if `out.len() != dim`.
    pub(crate) fn lookup(&mut self, id: u64, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "output buffer dim mismatch");
        let slot = self.slot(id);
        let dim = self.dim;
        let scale = self.init_scale;
        let seed = self.seed;
        let (weights, _) = self.rows.entry(slot).or_insert_with(|| {
            let mut w = Vec::with_capacity(dim);
            let mut s = splitmix64(slot ^ seed ^ 0xE5B3);
            for _ in 0..dim {
                s = splitmix64(s);
                let u = (s >> 11) as f32 / (1u64 << 53) as f32;
                w.push((u - 0.5) * 2.0 * scale);
            }
            (w, vec![0.0; dim])
        });
        out.copy_from_slice(weights);
    }

    /// Read-only lookup: returns zeros for never-seen ids (inference on a
    /// frozen model must not allocate).
    pub(crate) fn lookup_frozen(&self, id: u64, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "output buffer dim mismatch");
        match self.rows.get(&self.slot(id)) {
            Some((w, _)) => out.copy_from_slice(w),
            None => out.fill(0.0),
        }
    }

    /// Applies an Adagrad update `w ← w − lr · g / (√acc + ε)` to the row of
    /// `id`, materialising it if necessary.
    ///
    /// # Panics
    /// Panics if `grad.len() != dim`.
    pub(crate) fn apply_grad(&mut self, id: u64, grad: &[f32], lr: f32) {
        assert_eq!(grad.len(), self.dim, "gradient dim mismatch");
        // Touch ensures the row exists.
        let mut scratch = vec![0.0; self.dim];
        self.lookup(id, &mut scratch);
        let slot = self.slot(id);
        let (weights, acc) = self.rows.get_mut(&slot).expect("row just materialised");
        for ((w, a), &g) in weights.iter_mut().zip(acc.iter_mut()).zip(grad) {
            *a += g * g;
            *w -= lr * g / (a.sqrt() + 1e-8);
        }
    }

    /// Serialises the materialised rows (used by checkpointing). Row order
    /// is sorted for determinism.
    pub(crate) fn export_rows(&self) -> Vec<(u64, Vec<f32>, Vec<f32>)> {
        let mut rows: Vec<_> =
            self.rows.iter().map(|(&slot, (w, a))| (slot, w.clone(), a.clone())).collect();
        rows.sort_by_key(|(slot, _, _)| *slot);
        rows
    }

    /// Restores rows previously produced by [`Self::export_rows`].
    pub(crate) fn import_rows(&mut self, rows: Vec<(u64, Vec<f32>, Vec<f32>)>) {
        self.rows.clear();
        for (slot, w, a) in rows {
            debug_assert_eq!(w.len(), self.dim);
            self.rows.insert(slot, (w, a));
        }
    }
}

/// Forward pass retaining activations for a later [`Self::backward`].
///
/// # Panics
/// Panics if `input.len() != input_dim()`.
pub(crate) fn mlp_forward(m: &Mlp, input: &[f32]) -> Vec<Vec<f32>> {
    assert_eq!(input.len(), m.dims()[0], "input dim mismatch");
    let mut activations = Vec::with_capacity(m.dims().len());
    activations.push(input.to_vec());
    let mut offset = 0;
    for (layer, w) in m.dims().windows(2).enumerate() {
        let (fan_in, fan_out) = (w[0], w[1]);
        let prev = &activations[layer];
        let weights = &m.params()[offset..offset + fan_in * fan_out];
        let biases = &m.params()[offset + fan_in * fan_out..offset + fan_in * fan_out + fan_out];
        let mut out = vec![0.0f32; fan_out];
        for (o, out_v) in out.iter_mut().enumerate() {
            let row = &weights[o * fan_in..(o + 1) * fan_in];
            let mut acc = biases[o];
            for (wv, xv) in row.iter().zip(prev) {
                acc += wv * xv;
            }
            // ReLU on hidden layers only.
            *out_v = if layer + 2 < m.dims().len() { acc.max(0.0) } else { acc };
        }
        activations.push(out);
        offset += fan_in * fan_out + fan_out;
    }
    activations
}

/// Backward pass: given `d loss / d output`, accumulates parameter
/// gradients into `param_grads` (flat, same layout as `params`) and
/// returns `d loss / d input`.
///
/// # Panics
/// Panics on shape mismatches.
pub(crate) fn mlp_backward(
    m: &Mlp,
    activations: &[Vec<f32>],
    output_grad: &[f32],
    param_grads: &mut [f32],
) -> Vec<f32> {
    assert_eq!(output_grad.len(), m.output_dim(), "output grad dim mismatch");
    assert_eq!(param_grads.len(), m.params().len(), "grad buffer mismatch");

    let mut upstream = output_grad.to_vec();
    // Walk layers in reverse; track the flat offset of each layer.
    let mut offsets = Vec::with_capacity(m.dims().len() - 1);
    let mut off = 0;
    for w in m.dims().windows(2) {
        offsets.push(off);
        off += w[0] * w[1] + w[1];
    }

    for layer in (0..m.dims().len() - 1).rev() {
        let fan_in = m.dims()[layer];
        let fan_out = m.dims()[layer + 1];
        let offset = offsets[layer];
        let prev = &activations[layer];
        let out = &activations[layer + 1];
        let is_hidden = layer + 2 < m.dims().len();

        // d loss / d pre-activation.
        let mut dz = upstream;
        if is_hidden {
            for (g, &a) in dz.iter_mut().zip(out) {
                if a <= 0.0 {
                    *g = 0.0;
                }
            }
        }

        // Weight & bias grads.
        let (w_grads, b_grads) =
            param_grads[offset..offset + fan_in * fan_out + fan_out].split_at_mut(fan_in * fan_out);
        for (o, &g) in dz.iter().enumerate() {
            if g == 0.0 {
                continue;
            }
            let row = &mut w_grads[o * fan_in..(o + 1) * fan_in];
            for (wg, &xv) in row.iter_mut().zip(prev) {
                *wg += g * xv;
            }
            b_grads[o] += g;
        }

        // Downstream gradient.
        let weights = &m.params()[offset..offset + fan_in * fan_out];
        let mut dx = vec![0.0f32; fan_in];
        for (o, &g) in dz.iter().enumerate() {
            if g == 0.0 {
                continue;
            }
            let row = &weights[o * fan_in..(o + 1) * fan_in];
            for (d, &wv) in dx.iter_mut().zip(row) {
                *d += g * wv;
            }
        }
        upstream = dx;
    }
    upstream
}

/// A batch gradient in the old shape.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RefGradients {
    pub(crate) dense: Vec<f32>,
    /// `(table_index, id, grad)`, ascending `(table_index, id)`.
    pub(crate) sparse: Vec<(usize, u64, Vec<f32>)>,
    pub(crate) mean_loss: f32,
    pub(crate) samples: usize,
}

/// Cached cross-tower state: per-layer inputs and scalars.
type CrossState = (Vec<Vec<f32>>, Vec<f32>);

/// A trainable CTR model (one of the three families).
#[derive(Debug, Clone)]
pub(crate) struct RefModel {
    kind: ModelKind,
    config: ModelConfig,
    tables: Vec<RefTable>,
    /// Wide part: dim-1 hashed tables, one per categorical feature.
    wide: Vec<RefTable>,
    deep: Mlp,
    /// Flat dense parameters *other than* the MLP: cross ‖ head ‖ pairs.
    extra: Vec<f32>,
    extra_acc: Vec<f32>,
}

impl RefModel {
    /// Builds a model of the requested family.
    pub(crate) fn new(kind: ModelKind, config: ModelConfig, seed: u64) -> Self {
        let d = config.embedding_dim;
        let input_dim = NUM_SPARSE * d + NUM_DENSE;
        let mut dims = vec![input_dim];
        dims.extend_from_slice(&config.hidden);
        dims.push(1);
        let deep = Mlp::new(&dims, seed ^ 0xDEEB);

        let tables: Vec<RefTable> = (0..NUM_SPARSE)
            .map(|f| RefTable::new(config.hash_size, d, seed ^ (f as u64) << 8))
            .collect();
        let wide = if kind == ModelKind::WideDeep {
            (0..NUM_SPARSE)
                .map(|f| RefTable::new(config.hash_size, 1, seed ^ 0xA11CE ^ (f as u64) << 8))
                .collect()
        } else {
            Vec::new()
        };

        let extra_len = match kind {
            ModelKind::WideDeep => 0,
            ModelKind::XDeepFm => NUM_SPARSE * (NUM_SPARSE - 1) / 2,
            // cross layers: per layer w (input_dim) + b (input_dim), then a
            // linear head over x_L: input_dim weights + 1 bias.
            ModelKind::Dcn => config.cross_layers * 2 * input_dim + input_dim + 1,
        };
        // Small deterministic init for pair weights / cross weights.
        let mut extra = vec![0.0f32; extra_len];
        let mut s = splitmix64(seed ^ 0xC705);
        for v in extra.iter_mut() {
            s = splitmix64(s);
            *v = (((s >> 11) as f32 / (1u64 << 53) as f32) - 0.5) * 0.02;
        }

        RefModel { kind, tables, wide, deep, extra_acc: vec![0.0; extra.len()], extra, config }
    }

    fn input_dim(&self) -> usize {
        NUM_SPARSE * self.config.embedding_dim + NUM_DENSE
    }

    /// Assembles the dense input vector for one sample, materialising rows
    /// when `frozen` is false.
    fn assemble_input(&mut self, sample: &Sample, frozen: bool) -> Vec<f32> {
        let d = self.config.embedding_dim;
        let mut x = vec![0.0f32; self.input_dim()];
        for (f, &id) in sample.sparse.iter().enumerate() {
            let slice = &mut x[f * d..(f + 1) * d];
            if frozen {
                self.tables[f].lookup_frozen(id, slice);
            } else {
                self.tables[f].lookup(id, slice);
            }
        }
        let dense_off = NUM_SPARSE * d;
        x[dense_off..].copy_from_slice(&sample.dense);
        x
    }

    /// Cross-tower forward; returns (per-layer inputs x_0..x_L, per-layer
    /// scalars s_l). `x_states.last()` is x_L.
    fn cross_forward(&self, x0: &[f32]) -> (Vec<Vec<f32>>, Vec<f32>) {
        let dim = x0.len();
        let l = self.config.cross_layers;
        let mut states = Vec::with_capacity(l + 1);
        let mut scalars = Vec::with_capacity(l);
        states.push(x0.to_vec());
        for layer in 0..l {
            let off = layer * 2 * dim;
            let w = &self.extra[off..off + dim];
            let b = &self.extra[off + dim..off + 2 * dim];
            let x_l = &states[layer];
            let s: f32 = w.iter().zip(x_l).map(|(a, b)| a * b).sum();
            let next: Vec<f32> = (0..dim).map(|i| x0[i] * s + b[i] + x_l[i]).collect();
            states.push(next);
            scalars.push(s);
        }
        (states, scalars)
    }

    /// Logit of one sample given the assembled input, plus the cached
    /// per-branch state needed for backprop.
    fn forward_logit(
        &self,
        sample: &Sample,
        x: &[f32],
        frozen: bool,
    ) -> (f32, Vec<Vec<f32>>, Option<CrossState>) {
        let trace = mlp_forward(&self.deep, x);
        let mut logit = trace.last().expect("trace has at least the input")[0];
        let mut cross_state = None;

        match self.kind {
            ModelKind::WideDeep => {
                let mut buf = [0.0f32; 1];
                for (f, &id) in sample.sparse.iter().enumerate() {
                    if frozen {
                        self.wide[f].lookup_frozen(id, &mut buf);
                    } else {
                        // Wide rows materialise during compute_gradients via
                        // apply path; here use frozen read (zero default) to
                        // keep forward immutable.
                        self.wide[f].lookup_frozen(id, &mut buf);
                    }
                    logit += buf[0];
                }
            }
            ModelKind::XDeepFm => {
                let d = self.config.embedding_dim;
                let mut k = 0;
                for i in 0..NUM_SPARSE {
                    let ei = &x[i * d..(i + 1) * d];
                    for j in (i + 1)..NUM_SPARSE {
                        let ej = &x[j * d..(j + 1) * d];
                        let dot: f32 = ei.iter().zip(ej).map(|(a, b)| a * b).sum();
                        logit += self.extra[k] * dot;
                        k += 1;
                    }
                }
            }
            ModelKind::Dcn => {
                let (states, scalars) = self.cross_forward(x);
                let dim = x.len();
                let head_off = self.config.cross_layers * 2 * dim;
                let head_w = &self.extra[head_off..head_off + dim];
                let head_b = self.extra[head_off + dim];
                let x_l = states.last().expect("cross states nonempty");
                logit += head_w.iter().zip(x_l).map(|(a, b)| a * b).sum::<f32>() + head_b;
                cross_state = Some((states, scalars));
            }
        }
        (logit, trace, cross_state)
    }

    pub(crate) fn predict(&self, batch: &[Sample]) -> Vec<f32> {
        let d = self.config.embedding_dim;
        batch
            .iter()
            .map(|sample| {
                let mut x = vec![0.0f32; self.input_dim()];
                for (f, &id) in sample.sparse.iter().enumerate() {
                    self.tables[f].lookup_frozen(id, &mut x[f * d..(f + 1) * d]);
                }
                x[NUM_SPARSE * d..].copy_from_slice(&sample.dense);
                let (logit, _, _) = self.forward_logit(sample, &x, true);
                1.0 / (1.0 + (-logit).exp())
            })
            .collect()
    }

    pub(crate) fn compute_gradients(&mut self, batch: &[Sample]) -> RefGradients {
        assert!(!batch.is_empty(), "empty batch");
        let d = self.config.embedding_dim;
        let input_dim = self.input_dim();
        let inv_n = 1.0 / batch.len() as f32;

        let mut dense_grad = vec![0.0f32; self.extra.len() + self.deep.param_count()];
        let (extra_grad, mlp_grad) = dense_grad.split_at_mut(self.extra.len());
        let mut sparse_acc: std::collections::HashMap<(usize, u64), Vec<f32>> =
            std::collections::HashMap::new();
        let mut total_loss = 0.0f32;

        for sample in batch {
            let x = self.assemble_input(sample, false);
            let (logit, trace, cross_state) = self.forward_logit(sample, &x, false);
            let p = 1.0 / (1.0 + (-logit).exp());
            let y = if sample.label { 1.0 } else { 0.0 };
            total_loss += -(y * (p.max(1e-7)).ln() + (1.0 - y) * ((1.0 - p).max(1e-7)).ln());
            let dlogit = (p - y) * inv_n;

            // Deep tower.
            let mut dx = mlp_backward(&self.deep, &trace, &[dlogit], mlp_grad);

            // Family-specific terms also feed gradient into x.
            match self.kind {
                ModelKind::WideDeep => {
                    for (f, &id) in sample.sparse.iter().enumerate() {
                        sparse_acc.entry((NUM_SPARSE + f, id)).or_insert_with(|| vec![0.0; 1])
                            [0] += dlogit;
                    }
                }
                ModelKind::XDeepFm => {
                    let mut k = 0;
                    for i in 0..NUM_SPARSE {
                        for j in (i + 1)..NUM_SPARSE {
                            let (head, tail) = x.split_at(j * d);
                            let ei = &head[i * d..(i + 1) * d];
                            let ej = &tail[..d];
                            let dot: f32 = ei.iter().zip(ej).map(|(a, b)| a * b).sum();
                            extra_grad[k] += dlogit * dot;
                            let w = self.extra[k];
                            let coef = dlogit * w;
                            if coef != 0.0 {
                                for t in 0..d {
                                    dx[i * d + t] += coef * ej[t];
                                    dx[j * d + t] += coef * ei[t];
                                }
                            }
                            k += 1;
                        }
                    }
                }
                ModelKind::Dcn => {
                    let (states, scalars) =
                        cross_state.expect("DCN forward always produces cross state");
                    let dim = input_dim;
                    let head_off = self.config.cross_layers * 2 * dim;
                    let x_l = states.last().expect("nonempty");
                    // Head gradients.
                    for t in 0..dim {
                        extra_grad[head_off + t] += dlogit * x_l[t];
                    }
                    extra_grad[head_off + dim] += dlogit;
                    // dL/dx_L from the head.
                    let head_w = &self.extra[head_off..head_off + dim];
                    let mut g_next: Vec<f32> = head_w.iter().map(|&w| dlogit * w).collect();
                    let mut g_x0 = vec![0.0f32; dim];
                    for layer in (0..self.config.cross_layers).rev() {
                        let off = layer * 2 * dim;
                        let w = &self.extra[off..off + dim];
                        let x_layer = &states[layer];
                        let s = scalars[layer];
                        // dL/ds = Σ g_next[i] * x0[i]
                        let ds: f32 = g_next.iter().zip(&x).map(|(g, xv)| g * xv).sum();
                        for t in 0..dim {
                            // b grad
                            extra_grad[off + dim + t] += g_next[t];
                            // w grad
                            extra_grad[off + t] += ds * x_layer[t];
                            // x0 accumulation
                            g_x0[t] += g_next[t] * s;
                        }
                        // dL/dx_l = g_next + w * ds
                        let mut g_prev = g_next.clone();
                        for t in 0..dim {
                            g_prev[t] += w[t] * ds;
                        }
                        g_next = g_prev;
                    }
                    // Total gradient into x from the cross branch.
                    for t in 0..dim {
                        dx[t] += g_next[t] + g_x0[t];
                    }
                }
            }

            // Embedding gradients from dx.
            for (f, &id) in sample.sparse.iter().enumerate() {
                let slice = &dx[f * d..(f + 1) * d];
                if slice.iter().all(|&g| g == 0.0) {
                    continue;
                }
                let acc = sparse_acc.entry((f, id)).or_insert_with(|| vec![0.0; d]);
                for (a, &g) in acc.iter_mut().zip(slice) {
                    *a += g;
                }
            }
        }

        // Flatten sparse grads deterministically.
        let mut sparse: Vec<(usize, u64, Vec<f32>)> =
            sparse_acc.into_iter().map(|((t, id), g)| (t, id, g)).collect();
        sparse.sort_by_key(|(t, id, _)| (*t, *id));

        RefGradients {
            dense: dense_grad,
            sparse,
            mean_loss: total_loss * inv_n,
            samples: batch.len(),
        }
    }

    pub(crate) fn apply_gradients(&mut self, grads: &RefGradients) {
        assert_eq!(
            grads.dense.len(),
            self.extra.len() + self.deep.param_count(),
            "dense gradient shape mismatch"
        );
        let lr = self.config.learning_rate;
        let (extra_grad, mlp_grad) = grads.dense.split_at(self.extra.len());
        for ((p, a), &g) in self.extra.iter_mut().zip(self.extra_acc.iter_mut()).zip(extra_grad) {
            *a += g * g;
            *p -= lr * g / (a.sqrt() + 1e-8);
        }
        self.deep.apply_grads(mlp_grad, lr);
        for (table_idx, id, g) in &grads.sparse {
            if *table_idx < NUM_SPARSE {
                self.tables[*table_idx].apply_grad(*id, g, lr);
            } else {
                let f = table_idx - NUM_SPARSE;
                assert!(f < NUM_SPARSE, "bad wide table index {table_idx}");
                assert_eq!(self.kind, ModelKind::WideDeep, "wide grads on non-wide model");
                self.wide[f].apply_grad(*id, g, lr);
            }
        }
    }

    pub(crate) fn embedding_bytes(&self) -> usize {
        self.tables.iter().chain(self.wide.iter()).map(RefTable::resident_bytes).sum()
    }

    pub(crate) fn materialized_rows(&self) -> usize {
        self.tables.iter().chain(self.wide.iter()).map(|t| t.rows.len()).sum()
    }

    pub(crate) fn dense_param_count(&self) -> usize {
        self.extra.len() + self.deep.param_count()
    }

    pub(crate) fn snapshot(&self) -> ModelCheckpoint {
        let mut dense = self.extra.clone();
        dense.extend_from_slice(self.deep.params());
        let mut dense_acc = self.extra_acc.clone();
        dense_acc.extend_from_slice(self.deep.accumulators());
        ModelCheckpoint {
            kind: self.kind,
            dense,
            dense_acc,
            tables: self.tables.iter().map(RefTable::export_rows).collect(),
            wide: self.wide.iter().map(RefTable::export_rows).collect(),
        }
    }

    pub(crate) fn restore(&mut self, ckpt: &ModelCheckpoint) {
        assert_eq!(ckpt.kind, self.kind, "checkpoint is for a different model family");
        assert_eq!(ckpt.dense.len(), self.dense_param_count(), "dense shape mismatch");
        assert_eq!(ckpt.tables.len(), self.tables.len(), "table count mismatch");
        let split = self.extra.len();
        self.extra.copy_from_slice(&ckpt.dense[..split]);
        self.extra_acc.copy_from_slice(&ckpt.dense_acc[..split]);
        self.deep.set_params(&ckpt.dense[split..]);
        self.deep.set_accumulators(&ckpt.dense_acc[split..]);
        for (t, rows) in self.tables.iter_mut().zip(&ckpt.tables) {
            t.import_rows(rows.clone());
        }
        for (t, rows) in self.wide.iter_mut().zip(&ckpt.wide) {
            t.import_rows(rows.clone());
        }
    }
}

#[cfg(test)]
mod differential {
    use proptest::prelude::*;

    use super::*;
    use crate::data::{DatasetConfig, SyntheticCriteo};
    use crate::model::{CtrModel, DlrmModel, GradScratch, Gradients};

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A gradient in the old shape with every float as its bit pattern:
    /// `==` on floats would let `-0.0` pass for `0.0`.
    type Canonical = (Vec<u32>, Vec<(usize, u64, Vec<u32>)>, u32, usize);

    fn canonical_live(g: &Gradients) -> Canonical {
        let sparse = g.sparse.iter().map(|(t, id, v)| (t, id, bits(v))).collect();
        (bits(&g.dense), sparse, g.mean_loss.to_bits(), g.samples)
    }

    fn canonical_ref(g: &RefGradients) -> Canonical {
        let sparse = g.sparse.iter().map(|(t, id, v)| (*t, *id, bits(v))).collect();
        (bits(&g.dense), sparse, g.mean_loss.to_bits(), g.samples)
    }

    type RowBits = Vec<(u64, Vec<u32>, Vec<u32>)>;

    /// A checkpoint with every float as its bit pattern.
    fn canonical_ckpt(c: &ModelCheckpoint) -> (Vec<u32>, Vec<u32>, Vec<RowBits>, Vec<RowBits>) {
        let rows = |tables: &[crate::model::TableRows]| -> Vec<RowBits> {
            tables
                .iter()
                .map(|t| t.iter().map(|(slot, w, a)| (*slot, bits(w), bits(a))).collect())
                .collect()
        };
        (bits(&c.dense), bits(&c.dense_acc), rows(&c.tables), rows(&c.wide))
    }

    const KINDS: [ModelKind; 3] = [ModelKind::WideDeep, ModelKind::XDeepFm, ModelKind::Dcn];
    const DIMS: [usize; 3] = [1, 4, 16];

    /// Trains the live and the reference model side by side the way
    /// `RealModeTrainer::train_round` does — each gradient applied one step
    /// late — with a snapshot/restore into fresh models at `restore_at`,
    /// and holds gradients, checkpoints and predictions equal bit for bit.
    /// Odd steps take the trainer's concurrent path (`&self` compute, then
    /// `materialise`), even ones `compute_gradients_into`; after each the
    /// live tables hold as many rows as the reference's.
    fn run_case(
        kind: ModelKind,
        config: ModelConfig,
        seed: u64,
        batches: &[usize],
        restore_at: usize,
    ) {
        let data = SyntheticCriteo::new(DatasetConfig::default(), seed);
        let mut live = DlrmModel::new(kind, config.clone(), seed);
        let mut reference = RefModel::new(kind, config.clone(), seed);
        let mut pending: Option<(Gradients, RefGradients)> = None;
        // Reused across steps, as the trainer reuses its pool.
        let mut g = Gradients::default();
        let mut scratch = GradScratch::default();
        let mut start = 0u64;
        for (step, &n) in batches.iter().enumerate() {
            let batch = data.batch(start, n);
            start += n as u64;
            if step % 2 == 1 {
                live.compute_gradients_shared(&batch, &mut g, &mut scratch);
                live.materialise(&mut scratch);
            } else {
                live.compute_gradients_into(&batch, &mut g);
            }
            let rg = reference.compute_gradients(&batch);
            assert_eq!(canonical_live(&g), canonical_ref(&rg), "gradients, step {}", step);
            assert_eq!(
                live.materialized_rows(),
                reference.materialized_rows(),
                "rows, step {step}"
            );
            if let Some((prev, rprev)) = pending.replace((g.clone(), rg)) {
                live.apply_gradients(&prev);
                reference.apply_gradients(&rprev);
            }
            if step == restore_at {
                let (snap, rsnap) = (live.snapshot(), reference.snapshot());
                assert_eq!(canonical_ckpt(&snap), canonical_ckpt(&rsnap), "mid snapshot");
                // Fresh models: the live arena is rebuilt in slot order,
                // not in the order training touched the rows.
                live = DlrmModel::new(kind, config.clone(), seed);
                live.restore(&rsnap);
                reference = RefModel::new(kind, config.clone(), seed);
                reference.restore(&snap);
            }
        }
        let (prev, rprev) = pending.expect("at least one step");
        live.apply_gradients(&prev);
        reference.apply_gradients(&rprev);
        assert_eq!(
            canonical_ckpt(&live.snapshot()),
            canonical_ckpt(&reference.snapshot()),
            "final snapshot"
        );
        assert_eq!(live.embedding_bytes(), reference.embedding_bytes());
        // Seen ids (the last training batch) and mostly unseen ones.
        for at in [start - *batches.last().expect("nonempty") as u64, 9_000_000] {
            let batch = data.batch(at, 48);
            assert_eq!(bits(&live.predict(&batch)), bits(&reference.predict(&batch)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn live_kernels_match_the_reference_bit_for_bit(
            kind in 0usize..3,
            dim in 0usize..3,
            // 8 slots: every id of a table shares a row with others.
            colliding in proptest::bool::ANY,
            seed in 0u64..1_000_000,
            batches in proptest::collection::vec(1usize..=96, 1..13),
            restore_at in 0usize..12,
        ) {
            let config = ModelConfig {
                embedding_dim: DIMS[dim],
                hash_size: if colliding { 8 } else { 1 << 16 },
                hidden: vec![16, 8],
                cross_layers: 2,
                learning_rate: 0.05,
            };
            run_case(KINDS[kind], config, seed, &batches, restore_at);
        }
    }

    /// The corner the proptest's short runs do not reach: tables that have
    /// grown and hot rows with large accumulators, at the Fig. 8 model size.
    #[test]
    fn a_long_run_at_the_fig8_model_size_matches() {
        let config = ModelConfig {
            embedding_dim: 4,
            hash_size: 1 << 16,
            hidden: vec![16, 8],
            cross_layers: 2,
            learning_rate: 0.05,
        };
        for kind in KINDS {
            run_case(kind, config.clone(), 42, &[64; 60], 30);
        }
    }
}
