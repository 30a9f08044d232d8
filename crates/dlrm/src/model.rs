//! The three CTR model families of the paper's evaluation (§6):
//! Model-X = Wide & Deep, Model-Y = xDeepFM, Model-Z = DCN.
//!
//! All three share the DLRM skeleton of Fig. 2 — embedding tables for the
//! sparse part, a dense tower for the dense part — and differ in the extra
//! interaction structure:
//!
//! * **Wide & Deep**: a hashed linear ("wide") term per categorical feature
//!   plus the deep tower.
//! * **xDeepFM (lite)**: learned field-pair interactions
//!   `Σ_{i<j} w_ij ⟨e_i, e_j⟩` plus the deep tower. This keeps xDeepFM's
//!   hallmark — explicit vector-wise feature interactions — at a compute
//!   budget suitable for simulation (the full CIN is a stack of such maps).
//! * **DCN**: explicit cross layers `x_{l+1} = x₀·(w_lᵀx_l) + b_l + x_l`
//!   plus the deep tower.
//!
//! The API is deliberately split into [`DlrmModel::compute_gradients`] and
//! [`DlrmModel::apply_gradients`] so the PS training engine can hold
//! gradients in flight and apply them late — reproducing asynchronous
//! parameter-server staleness, the mechanism behind the paper's concern that
//! stragglers "submit too many stale gradients to PSes" (§2.2).

use serde::{Deserialize, Serialize};

use crate::data::{Sample, NUM_DENSE, NUM_SPARSE};
use crate::embedding::EmbeddingTable;
use crate::mlp::{ForwardTrace, Mlp};

/// Which model family to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Model-X: Wide & Deep (Cheng et al. 2016).
    WideDeep,
    /// Model-Y: xDeepFM-style explicit pairwise interactions (Lian et al. 2018).
    XDeepFm,
    /// Model-Z: Deep & Cross Network (Wang et al. 2017).
    Dcn,
}

impl ModelKind {
    /// The paper's model labels: X, Y, Z.
    pub fn paper_label(&self) -> &'static str {
        match self {
            ModelKind::WideDeep => "Model-X (Wide&Deep)",
            ModelKind::XDeepFm => "Model-Y (xDeepFM)",
            ModelKind::Dcn => "Model-Z (DCN)",
        }
    }

    /// All three evaluation models.
    pub fn all() -> [ModelKind; 3] {
        [ModelKind::WideDeep, ModelKind::XDeepFm, ModelKind::Dcn]
    }
}

/// Hyper-parameters shared by the three families.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Embedding dimension `D`.
    pub embedding_dim: usize,
    /// Virtual rows (`M`) per embedding table.
    pub hash_size: u64,
    /// Deep-tower hidden layer widths.
    pub hidden: Vec<usize>,
    /// Cross-layer count (DCN only).
    pub cross_layers: usize,
    /// Adagrad learning rate.
    pub learning_rate: f32,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            embedding_dim: 8,
            hash_size: 1 << 22,
            hidden: vec![64, 32],
            cross_layers: 3,
            learning_rate: 0.05,
        }
    }
}

/// A batch gradient: flat dense part + sparse per-row part. Reusable: a
/// value handed back to [`CtrModel::compute_gradients_into`] keeps its
/// buffers.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Gradients {
    /// Flat gradient over all dense parameters (cross ‖ head ‖ pairs ‖ MLP).
    pub dense: Vec<f32>,
    /// Sparse gradients per `(table_index, id)`.
    pub sparse: SparseGrads,
    /// Mean logloss over the batch (diagnostic).
    pub mean_loss: f32,
    /// Number of samples in the batch.
    pub samples: usize,
}

/// The sparse part of a batch gradient: one accumulated row gradient per
/// distinct `(table_index, id)` the batch touched, all in one flat value
/// array. Wide-part rows use table indices `NUM_SPARSE..2·NUM_SPARSE` and
/// are one value wide; embedding rows are `embedding_dim` wide.
///
/// Keys are `(table, id)`, never the slot the id hashes to: two ids that
/// share a row are two Adagrad steps on it, not one step with the summed
/// gradient.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SparseGrads {
    /// `(table_index, id, offset of the gradient in values)`, ascending by
    /// `(table_index, id)` — the order the rows are updated in.
    keys: Vec<(usize, u64, usize)>,
    /// The gradients, back to back in key order.
    values: Vec<f32>,
    /// Width of an embedding row's gradient.
    dim: usize,
}

impl SparseGrads {
    /// `(table_index, id, gradient)` in ascending `(table_index, id)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64, &[f32])> {
        self.keys
            .iter()
            .map(|&(table, id, at)| (table, id, &self.values[at..at + self.width(table)]))
    }

    fn width(&self, table: usize) -> usize {
        if table < NUM_SPARSE {
            self.dim
        } else {
            1
        }
    }

    /// Empties the gradient for a batch of `dim`-wide embeddings.
    fn reset(&mut self, dim: usize) {
        self.keys.clear();
        self.values.clear();
        self.dim = dim;
    }

    /// Appends the keys of `table`, which must be larger than every table
    /// pushed before. `touches` lists the `(id, sample)` pairs that
    /// contribute and `grad(sample)` is that sample's gradient for the
    /// table; an id's gradients are summed in sample order, from zero.
    fn push_table<'a>(
        &mut self,
        table: usize,
        touches: &mut [(u64, usize)],
        grad: impl Fn(usize) -> &'a [f32],
    ) {
        let width = self.width(table);
        touches.sort_unstable();
        let mut open = None;
        for &(id, sample) in touches.iter() {
            if open != Some(id) {
                open = Some(id);
                self.keys.push((table, id, self.values.len()));
                self.values.resize(self.values.len() + width, 0.0);
            }
            let at = self.values.len() - width;
            for (a, &g) in self.values[at..].iter_mut().zip(grad(sample)) {
                *a += g;
            }
        }
    }
}

/// Exported rows of one embedding table: `(slot, weights, accumulators)`.
pub type TableRows = Vec<(u64, Vec<f32>, Vec<f32>)>;

/// A full model checkpoint (dense params + optimizer state + materialised
/// embedding rows). Produced by [`DlrmModel::snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelCheckpoint {
    /// Model family (restore refuses mismatches).
    pub kind: ModelKind,
    /// Flat dense parameters.
    pub dense: Vec<f32>,
    /// Flat Adagrad accumulators for the dense parameters.
    pub dense_acc: Vec<f32>,
    /// Embedding rows per table.
    pub tables: Vec<TableRows>,
    /// Wide-part rows per feature (empty unless Wide&Deep).
    pub wide: Vec<TableRows>,
}

impl ModelCheckpoint {
    /// Approximate serialised size in bytes (drives checkpoint-latency
    /// simulation: flash vs RDS).
    pub fn approx_bytes(&self) -> usize {
        let dense = (self.dense.len() + self.dense_acc.len()) * 4;
        let table_bytes: usize = self
            .tables
            .iter()
            .chain(self.wide.iter())
            .flat_map(|t| t.iter())
            .map(|(_, w, a)| 8 + (w.len() + a.len()) * 4)
            .sum();
        dense + table_bytes
    }
}

/// Working memory of one gradient computation — buffers reused so that
/// neither pass allocates once they have grown — plus the embedding rows
/// the computation read before they existed. The model owns one for
/// [`CtrModel::compute_gradients_into`]; a caller of
/// [`DlrmModel::compute_gradients_shared`] owns one per concurrent batch.
#[derive(Debug, Clone, Default)]
pub struct GradScratch {
    /// Assembled input of the current sample: embeddings ‖ dense features.
    x: Vec<f32>,
    /// Deep-tower activations.
    trace: ForwardTrace,
    /// [`Mlp::backward_into`]'s working memory; its head is `dL/dx`.
    act_grads: Vec<f32>,
    /// xDeepFM: `⟨e_i, e_j⟩` of every field pair `i < j`, in pair order.
    pair_dots: Vec<f32>,
    /// DCN: the cross layers' inputs `x_0..x_L`, back to back.
    cross_states: Vec<f32>,
    /// DCN: the cross layers' scalars `s_l = w_lᵀx_l`.
    cross_scalars: Vec<f32>,
    /// DCN backward: `dL/dx_l` as it walks down the cross layers.
    g_next: Vec<f32>,
    /// DCN backward: the gradient the cross layers send into `x_0`.
    g_x0: Vec<f32>,
    /// Batch-wide: every sample's gradient into its `NUM_SPARSE`
    /// embeddings, and its `dlogit`.
    emb_grads: Vec<f32>,
    dlogits: Vec<f32>,
    /// The `(id, sample)` pairs of one table while its keys are reduced.
    touches: Vec<(u64, usize)>,
    /// `(table, id)` of every embedding read that found no row, in read
    /// order, until [`DlrmModel::materialise`] inserts them.
    misses: Vec<(usize, u64)>,
}

/// A trainable CTR model (one of the three families).
#[derive(Debug, Clone)]
pub struct DlrmModel {
    kind: ModelKind,
    config: ModelConfig,
    tables: Vec<EmbeddingTable>,
    /// Wide part: dim-1 hashed tables, one per categorical feature.
    wide: Vec<EmbeddingTable>,
    deep: Mlp,
    /// Flat dense parameters *other than* the MLP: cross ‖ head ‖ pairs.
    extra: Vec<f32>,
    extra_acc: Vec<f32>,
    scratch: GradScratch,
}

/// The trait face of [`DlrmModel`], kept object-safe for engine plumbing.
pub trait CtrModel {
    /// Forward pass returning click probabilities (no parameter updates,
    /// no row materialisation).
    fn predict(&self, batch: &[Sample]) -> Vec<f32>;
    /// Computes batch gradients into `out` without applying them.
    fn compute_gradients_into(&mut self, batch: &[Sample], out: &mut Gradients);
    /// Computes batch gradients without applying them.
    fn compute_gradients(&mut self, batch: &[Sample]) -> Gradients {
        let mut out = Gradients::default();
        self.compute_gradients_into(batch, &mut out);
        out
    }
    /// Applies gradients with Adagrad.
    fn apply_gradients(&mut self, grads: &Gradients);
    /// Convenience: compute + apply, returning the mean logloss.
    fn train_batch(&mut self, batch: &[Sample]) -> f32 {
        let g = self.compute_gradients(batch);
        let loss = g.mean_loss;
        self.apply_gradients(&g);
        loss
    }
    /// Bytes resident in embedding tables (sparse part).
    fn embedding_bytes(&self) -> usize;
    /// Distinct categories materialised across tables.
    fn materialized_rows(&self) -> usize;
    /// Dense parameter count.
    fn dense_param_count(&self) -> usize;
    /// Snapshot for checkpointing.
    fn snapshot(&self) -> ModelCheckpoint;
    /// Restores a snapshot.
    ///
    /// # Panics
    /// Panics if the checkpoint's family or shapes mismatch.
    fn restore(&mut self, ckpt: &ModelCheckpoint);
}

impl DlrmModel {
    /// Builds a model of the requested family.
    pub fn new(kind: ModelKind, config: ModelConfig, seed: u64) -> Self {
        let d = config.embedding_dim;
        let input_dim = NUM_SPARSE * d + NUM_DENSE;
        let mut dims = vec![input_dim];
        dims.extend_from_slice(&config.hidden);
        dims.push(1);
        let deep = Mlp::new(&dims, seed ^ 0xDEEB);

        let tables: Vec<EmbeddingTable> = (0..NUM_SPARSE)
            .map(|f| EmbeddingTable::new(config.hash_size, d, seed ^ (f as u64) << 8))
            .collect();
        let wide = if kind == ModelKind::WideDeep {
            (0..NUM_SPARSE)
                .map(|f| EmbeddingTable::new(config.hash_size, 1, seed ^ 0xA11CE ^ (f as u64) << 8))
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
        let mut s = dlrover_sim::splitmix64(seed ^ 0xC705);
        for v in extra.iter_mut() {
            s = dlrover_sim::splitmix64(s);
            *v = (((s >> 11) as f32 / (1u64 << 53) as f32) - 0.5) * 0.02;
        }

        DlrmModel {
            kind,
            tables,
            wide,
            deep,
            extra_acc: vec![0.0; extra.len()],
            extra,
            config,
            scratch: GradScratch::default(),
        }
    }

    /// Model family.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Hyper-parameters.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    fn input_dim(&self) -> usize {
        NUM_SPARSE * self.config.embedding_dim + NUM_DENSE
    }

    /// Assembles the dense input vector of one sample into `s.x`. A row
    /// that does not exist yet reads as the value it will be materialised
    /// with and is noted in `s.misses`.
    fn assemble_input(&self, sample: &Sample, s: &mut GradScratch) {
        let d = self.config.embedding_dim;
        s.x.resize(self.input_dim(), 0.0);
        for (f, &id) in sample.sparse.iter().enumerate() {
            if !self.tables[f].peek(id, &mut s.x[f * d..(f + 1) * d]) {
                s.misses.push((f, id));
            }
        }
        s.x[NUM_SPARSE * d..].copy_from_slice(&sample.dense);
    }

    /// Inserts the embedding rows `scratch` read before they existed, in
    /// the order they were read, and empties its list. A row's initial
    /// value depends on `(slot, seed)` only and an existing row is left
    /// alone, so the tables end as if the computation had inserted each
    /// row when it read it.
    pub fn materialise(&mut self, scratch: &mut GradScratch) {
        for (f, id) in scratch.misses.drain(..) {
            self.tables[f].row_offset(id);
        }
    }

    /// Cross-tower forward over `x0`: fills `states` with the per-layer
    /// inputs `x_0..x_L` and `scalars` with the per-layer `s_l`.
    fn cross_forward(&self, x0: &[f32], states: &mut Vec<f32>, scalars: &mut Vec<f32>) {
        let dim = x0.len();
        let l = self.config.cross_layers;
        states.resize((l + 1) * dim, 0.0);
        states[..dim].copy_from_slice(x0);
        scalars.clear();
        for layer in 0..l {
            let off = layer * 2 * dim;
            let w = &self.extra[off..off + dim];
            let b = &self.extra[off + dim..off + 2 * dim];
            let (done, rest) = states.split_at_mut((layer + 1) * dim);
            let x_l = &done[layer * dim..];
            let s: f32 = w.iter().zip(x_l).map(|(a, b)| a * b).sum();
            for (i, next) in rest[..dim].iter_mut().enumerate() {
                *next = x0[i] * s + b[i] + x_l[i];
            }
            scalars.push(s);
        }
    }

    /// Logit of the sample assembled in `s.x`; leaves the per-branch state
    /// backprop needs in `s`.
    fn forward_logit(&self, sample: &Sample, s: &mut GradScratch) -> f32 {
        self.deep.forward_into(&s.x, &mut s.trace);
        let mut logit = s.trace.output()[0];

        match self.kind {
            ModelKind::WideDeep => {
                // A frozen read keeps forward immutable: a wide row counts
                // as 0.0 until its first update materialises it.
                let mut buf = [0.0f32; 1];
                for (f, &id) in sample.sparse.iter().enumerate() {
                    self.wide[f].lookup_frozen(id, &mut buf);
                    logit += buf[0];
                }
            }
            ModelKind::XDeepFm => {
                let d = self.config.embedding_dim;
                s.pair_dots.clear();
                for i in 0..NUM_SPARSE {
                    let ei = &s.x[i * d..(i + 1) * d];
                    for j in (i + 1)..NUM_SPARSE {
                        let ej = &s.x[j * d..(j + 1) * d];
                        let dot: f32 = ei.iter().zip(ej).map(|(a, b)| a * b).sum();
                        logit += self.extra[s.pair_dots.len()] * dot;
                        s.pair_dots.push(dot);
                    }
                }
            }
            ModelKind::Dcn => {
                self.cross_forward(&s.x, &mut s.cross_states, &mut s.cross_scalars);
                let dim = s.x.len();
                let head_off = self.config.cross_layers * 2 * dim;
                let head_w = &self.extra[head_off..head_off + dim];
                let head_b = self.extra[head_off + dim];
                let x_l = &s.cross_states[self.config.cross_layers * dim..];
                logit += head_w.iter().zip(x_l).map(|(a, b)| a * b).sum::<f32>() + head_b;
            }
        }
        logit
    }

    /// [`CtrModel::compute_gradients_into`] through `&self`, so that
    /// several threads can compute against one model: the embedding rows
    /// the batch reads before they exist are not inserted but added to
    /// `s`'s list, and [`Self::materialise`] inserts them later. Until it
    /// does, the model's rows are those of the moment before this call.
    ///
    /// # Panics
    /// Panics if `batch` is empty.
    pub fn compute_gradients_shared(
        &self,
        batch: &[Sample],
        out: &mut Gradients,
        s: &mut GradScratch,
    ) {
        assert!(!batch.is_empty(), "empty batch");
        let d = self.config.embedding_dim;
        let dim = self.input_dim();
        let inv_n = 1.0 / batch.len() as f32;

        s.emb_grads.clear();
        s.dlogits.clear();
        out.dense.clear();
        out.dense.resize(self.extra.len() + self.deep.param_count(), 0.0);
        let (extra_grad, mlp_grad) = out.dense.split_at_mut(self.extra.len());
        let mut total_loss = 0.0f32;

        for sample in batch {
            self.assemble_input(sample, s);
            let logit = self.forward_logit(sample, s);
            let p = 1.0 / (1.0 + (-logit).exp());
            let y = if sample.label { 1.0 } else { 0.0 };
            total_loss += -(y * (p.max(1e-7)).ln() + (1.0 - y) * ((1.0 - p).max(1e-7)).ln());
            let dlogit = (p - y) * inv_n;

            // Deep tower.
            let x = &s.x;
            let dx = self.deep.backward_into(&s.trace, &[dlogit], mlp_grad, &mut s.act_grads);

            // Family-specific terms also feed gradient into x.
            match self.kind {
                // The wide rows' gradient is `dlogit` itself (reduced below).
                ModelKind::WideDeep => {}
                ModelKind::XDeepFm => {
                    let mut k = 0;
                    for i in 0..NUM_SPARSE {
                        for j in (i + 1)..NUM_SPARSE {
                            extra_grad[k] += dlogit * s.pair_dots[k];
                            let coef = dlogit * self.extra[k];
                            if coef != 0.0 {
                                let (ei, ej) = (&x[i * d..(i + 1) * d], &x[j * d..(j + 1) * d]);
                                let (head, tail) = dx.split_at_mut(j * d);
                                let dxi = head[i * d..(i + 1) * d].iter_mut().zip(ej);
                                for ((di, &b), (dj, &a)) in dxi.zip(tail[..d].iter_mut().zip(ei)) {
                                    *di += coef * b;
                                    *dj += coef * a;
                                }
                            }
                            k += 1;
                        }
                    }
                }
                ModelKind::Dcn => {
                    let layers = self.config.cross_layers;
                    let head_off = layers * 2 * dim;
                    let x_l = &s.cross_states[layers * dim..];
                    // Head gradients.
                    for t in 0..dim {
                        extra_grad[head_off + t] += dlogit * x_l[t];
                    }
                    extra_grad[head_off + dim] += dlogit;
                    // dL/dx_L from the head.
                    let head_w = &self.extra[head_off..head_off + dim];
                    let g_next = &mut s.g_next;
                    g_next.clear();
                    g_next.extend(head_w.iter().map(|&w| dlogit * w));
                    let g_x0 = &mut s.g_x0;
                    g_x0.clear();
                    g_x0.resize(dim, 0.0);
                    for layer in (0..layers).rev() {
                        let off = layer * 2 * dim;
                        let w = &self.extra[off..off + dim];
                        let x_layer = &s.cross_states[layer * dim..(layer + 1) * dim];
                        let sc = s.cross_scalars[layer];
                        // dL/ds = Σ g_next[i] * x0[i]
                        let ds: f32 = g_next.iter().zip(x).map(|(g, xv)| g * xv).sum();
                        for t in 0..dim {
                            // b grad
                            extra_grad[off + dim + t] += g_next[t];
                            // w grad
                            extra_grad[off + t] += ds * x_layer[t];
                            // x0 accumulation
                            g_x0[t] += g_next[t] * sc;
                        }
                        // dL/dx_l = g_next + w * ds
                        for t in 0..dim {
                            g_next[t] += w[t] * ds;
                        }
                    }
                    // Total gradient into x from the cross branch.
                    for t in 0..dim {
                        dx[t] += g_next[t] + g_x0[t];
                    }
                }
            }

            s.emb_grads.extend_from_slice(&dx[..NUM_SPARSE * d]);
            s.dlogits.push(dlogit);
        }

        // Sparse gradients: per (table, id), the batch's samples summed in
        // batch order. A sample whose slice is all zero enters no key
        // (adding it would not be a no-op either: `-0.0 + 0.0`).
        out.sparse.reset(d);
        for f in 0..NUM_SPARSE {
            let slice = |i: usize| &s.emb_grads[(i * NUM_SPARSE + f) * d..][..d];
            s.touches.clear();
            s.touches.extend(
                batch
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| slice(i).iter().any(|&g| g != 0.0))
                    .map(|(i, sample)| (sample.sparse[f], i)),
            );
            out.sparse.push_table(f, &mut s.touches, slice);
        }
        if self.kind == ModelKind::WideDeep {
            // Wide rows are always entered, even when `dlogit == 0`: the
            // update then still materialises the row.
            for f in 0..NUM_SPARSE {
                s.touches.clear();
                s.touches.extend(batch.iter().enumerate().map(|(i, b)| (b.sparse[f], i)));
                out.sparse.push_table(NUM_SPARSE + f, &mut s.touches, |i| &s.dlogits[i..=i]);
            }
        }
        out.mean_loss = total_loss * inv_n;
        out.samples = batch.len();
    }
}

impl CtrModel for DlrmModel {
    fn predict(&self, batch: &[Sample]) -> Vec<f32> {
        let d = self.config.embedding_dim;
        let mut s = GradScratch::default();
        s.x.resize(self.input_dim(), 0.0);
        batch
            .iter()
            .map(|sample| {
                for (f, &id) in sample.sparse.iter().enumerate() {
                    self.tables[f].lookup_frozen(id, &mut s.x[f * d..(f + 1) * d]);
                }
                s.x[NUM_SPARSE * d..].copy_from_slice(&sample.dense);
                let logit = self.forward_logit(sample, &mut s);
                1.0 / (1.0 + (-logit).exp())
            })
            .collect()
    }

    fn compute_gradients_into(&mut self, batch: &[Sample], out: &mut Gradients) {
        let mut s = std::mem::take(&mut self.scratch);
        self.compute_gradients_shared(batch, out, &mut s);
        self.materialise(&mut s);
        self.scratch = s;
    }

    fn apply_gradients(&mut self, grads: &Gradients) {
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
        for (table_idx, id, g) in grads.sparse.iter() {
            if table_idx < NUM_SPARSE {
                self.tables[table_idx].apply_grad(id, g, lr);
            } else {
                let f = table_idx - NUM_SPARSE;
                assert!(f < NUM_SPARSE, "bad wide table index {table_idx}");
                assert_eq!(self.kind, ModelKind::WideDeep, "wide grads on non-wide model");
                self.wide[f].apply_grad(id, g, lr);
            }
        }
    }

    fn embedding_bytes(&self) -> usize {
        self.tables.iter().chain(self.wide.iter()).map(EmbeddingTable::resident_bytes).sum()
    }

    fn materialized_rows(&self) -> usize {
        self.tables.iter().chain(self.wide.iter()).map(EmbeddingTable::materialized_rows).sum()
    }

    fn dense_param_count(&self) -> usize {
        self.extra.len() + self.deep.param_count()
    }

    fn snapshot(&self) -> ModelCheckpoint {
        let mut dense = self.extra.clone();
        dense.extend_from_slice(self.deep.params());
        let mut dense_acc = self.extra_acc.clone();
        dense_acc.extend_from_slice(self.deep.accumulators());
        ModelCheckpoint {
            kind: self.kind,
            dense,
            dense_acc,
            tables: self.tables.iter().map(EmbeddingTable::export_rows).collect(),
            wide: self.wide.iter().map(EmbeddingTable::export_rows).collect(),
        }
    }

    fn restore(&mut self, ckpt: &ModelCheckpoint) {
        assert_eq!(ckpt.kind, self.kind, "checkpoint is for a different model family");
        assert_eq!(ckpt.dense.len(), self.dense_param_count(), "dense shape mismatch");
        assert_eq!(
            ckpt.dense_acc.len(),
            self.dense_param_count(),
            "dense accumulator shape mismatch"
        );
        assert_eq!(ckpt.tables.len(), self.tables.len(), "table count mismatch");
        assert_eq!(ckpt.wide.len(), self.wide.len(), "wide table count mismatch");
        let split = self.extra.len();
        self.extra.copy_from_slice(&ckpt.dense[..split]);
        self.extra_acc.copy_from_slice(&ckpt.dense_acc[..split]);
        self.deep.set_params(&ckpt.dense[split..]);
        self.deep.set_accumulators(&ckpt.dense_acc[split..]);
        for (t, rows) in self.tables.iter_mut().zip(&ckpt.tables) {
            t.import_rows(rows);
        }
        for (t, rows) in self.wide.iter_mut().zip(&ckpt.wide) {
            t.import_rows(rows);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{DatasetConfig, SyntheticCriteo};
    use crate::metrics::{auc, logloss};

    fn small_config() -> ModelConfig {
        ModelConfig {
            embedding_dim: 4,
            hash_size: 1 << 16,
            hidden: vec![16, 8],
            cross_layers: 2,
            learning_rate: 0.05,
        }
    }

    fn dataset() -> SyntheticCriteo {
        SyntheticCriteo::new(DatasetConfig::default(), 42)
    }

    fn train_and_eval(kind: ModelKind, steps: usize, batch: usize) -> (f32, f64) {
        let data = dataset();
        let mut model = DlrmModel::new(kind, small_config(), 7);
        let mut last_loss = 0.0;
        for step in 0..steps {
            let b = data.batch(step as u64 * batch as u64, batch);
            last_loss = model.train_batch(&b);
        }
        // Held-out range far from the training prefix.
        let test = data.batch(10_000_000, 1_500);
        let probs = model.predict(&test);
        let labels: Vec<bool> = test.iter().map(|s| s.label).collect();
        (last_loss, auc(&probs, &labels))
    }

    #[test]
    fn wide_deep_learns_above_chance() {
        let (_, a) = train_and_eval(ModelKind::WideDeep, 150, 64);
        assert!(a > 0.56, "Wide&Deep AUC {a} barely above chance");
    }

    #[test]
    fn xdeepfm_learns_above_chance() {
        let (_, a) = train_and_eval(ModelKind::XDeepFm, 150, 64);
        assert!(a > 0.56, "xDeepFM AUC {a} barely above chance");
    }

    #[test]
    fn dcn_learns_above_chance() {
        let (_, a) = train_and_eval(ModelKind::Dcn, 150, 64);
        assert!(a > 0.56, "DCN AUC {a} barely above chance");
    }

    #[test]
    fn training_reduces_logloss() {
        let data = dataset();
        let mut model = DlrmModel::new(ModelKind::WideDeep, small_config(), 7);
        let eval = |m: &DlrmModel| {
            let test = data.batch(5_000_000, 800);
            let probs = m.predict(&test);
            let labels: Vec<bool> = test.iter().map(|s| s.label).collect();
            logloss(&probs, &labels)
        };
        let before = eval(&model);
        for step in 0..120 {
            let b = data.batch(step * 64, 64);
            model.train_batch(&b);
        }
        let after = eval(&model);
        assert!(after < before, "logloss did not improve: {before} -> {after}");
    }

    #[test]
    fn embedding_memory_grows_with_training() {
        let data = dataset();
        let mut model = DlrmModel::new(ModelKind::Dcn, small_config(), 7);
        assert_eq!(model.embedding_bytes(), 0);
        let mut previous = 0;
        for step in 0..5 {
            let b = data.batch(step * 256, 256);
            model.train_batch(&b);
            let bytes = model.embedding_bytes();
            assert!(bytes > previous, "embedding memory must grow early in training");
            previous = bytes;
        }
    }

    #[test]
    fn gradients_are_deterministic() {
        let data = dataset();
        let batch = data.batch(0, 32);
        let mut m1 = DlrmModel::new(ModelKind::XDeepFm, small_config(), 7);
        let mut m2 = DlrmModel::new(ModelKind::XDeepFm, small_config(), 7);
        let g1 = m1.compute_gradients(&batch);
        let g2 = m2.compute_gradients(&batch);
        assert_eq!(g1, g2);
    }

    #[test]
    fn compute_without_apply_leaves_dense_params_fixed() {
        let data = dataset();
        let batch = data.batch(0, 16);
        let mut model = DlrmModel::new(ModelKind::Dcn, small_config(), 7);
        let before = model.snapshot();
        let _ = model.compute_gradients(&batch);
        let after = model.snapshot();
        assert_eq!(before.dense, after.dense, "compute_gradients must not mutate params");
    }

    #[test]
    fn snapshot_restore_roundtrip_preserves_predictions() {
        let data = dataset();
        let mut model = DlrmModel::new(ModelKind::WideDeep, small_config(), 7);
        for step in 0..20 {
            model.train_batch(&data.batch(step * 64, 64));
        }
        let ckpt = model.snapshot();
        let test = data.batch(1_000_000, 200);
        let probs_before = model.predict(&test);

        // Train further, then restore: predictions must revert exactly.
        for step in 20..40 {
            model.train_batch(&data.batch(step * 64, 64));
        }
        assert_ne!(model.predict(&test), probs_before);
        model.restore(&ckpt);
        assert_eq!(model.predict(&test), probs_before);
    }

    #[test]
    fn checkpoint_size_tracks_model_growth() {
        let data = dataset();
        let mut model = DlrmModel::new(ModelKind::Dcn, small_config(), 7);
        let empty = model.snapshot().approx_bytes();
        for step in 0..10 {
            model.train_batch(&data.batch(step * 128, 128));
        }
        let grown = model.snapshot().approx_bytes();
        assert!(grown > empty);
    }

    #[test]
    #[should_panic(expected = "different model family")]
    fn restore_rejects_wrong_family() {
        let mut a = DlrmModel::new(ModelKind::Dcn, small_config(), 7);
        let b = DlrmModel::new(ModelKind::XDeepFm, small_config(), 7);
        a.restore(&b.snapshot());
    }

    #[test]
    #[should_panic(expected = "dense accumulator shape mismatch")]
    fn restore_rejects_short_dense_accumulators() {
        let mut model = DlrmModel::new(ModelKind::XDeepFm, small_config(), 7);
        let mut ckpt = model.snapshot();
        ckpt.dense_acc.pop();
        model.restore(&ckpt);
    }

    #[test]
    #[should_panic(expected = "wide table count mismatch")]
    fn restore_rejects_missing_wide_tables() {
        let mut model = DlrmModel::new(ModelKind::WideDeep, small_config(), 7);
        let mut ckpt = model.snapshot();
        ckpt.wide.pop();
        model.restore(&ckpt);
    }

    #[test]
    #[should_panic(expected = "row accumulator width mismatch")]
    fn restore_rejects_a_misshapen_row() {
        let data = dataset();
        let mut model = DlrmModel::new(ModelKind::Dcn, small_config(), 7);
        model.train_batch(&data.batch(0, 8));
        let mut ckpt = model.snapshot();
        ckpt.tables[3][0].2.pop();
        model.restore(&ckpt);
    }

    /// Two ids of one table that hash to the same row are two Adagrad
    /// steps on it, in id order — not one step with the summed gradient.
    #[test]
    fn colliding_ids_stay_separate_keys() {
        let config = ModelConfig { hash_size: 1, ..small_config() };
        let data = dataset();
        let batch = data.batch(0, 32);
        let mut model = DlrmModel::new(ModelKind::WideDeep, config, 7);
        let g = model.compute_gradients(&batch);
        let last = NUM_SPARSE - 1; // ~200K categories: the ids all differ
        let mut ids: Vec<u64> = batch.iter().map(|s| s.sparse[last]).collect();
        ids.sort_unstable();
        ids.dedup();
        assert!(ids.len() > 1);
        let keyed: Vec<u64> =
            g.sparse.iter().filter(|&(t, _, _)| t == last).map(|(_, id, _)| id).collect();
        assert_eq!(keyed, ids, "one key per id, ascending");
        let keys: Vec<(usize, u64)> = g.sparse.iter().map(|(t, id, _)| (t, id)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys ascend by (table, id)");
        model.apply_gradients(&g);
        assert_eq!(model.materialized_rows(), 2 * NUM_SPARSE, "one row per table");
    }

    /// A reused `Gradients` carries nothing over from the batch before.
    #[test]
    fn reused_gradient_buffers_start_clean() {
        let data = dataset();
        let mut model = DlrmModel::new(ModelKind::Dcn, small_config(), 7);
        let mut reused = Gradients::default();
        model.compute_gradients_into(&data.batch(0, 64), &mut reused);
        model.compute_gradients_into(&data.batch(64, 5), &mut reused);
        let fresh = model.compute_gradients(&data.batch(64, 5));
        assert_eq!(reused, fresh);
    }

    #[test]
    fn stale_gradients_still_train_but_perturb_loss() {
        // Apply each batch's gradient one step late: training still works
        // (async PS does exactly this) — this is the mechanism behind the
        // paper's data-sharding design.
        let data = dataset();
        let mut model = DlrmModel::new(ModelKind::WideDeep, small_config(), 7);
        let mut pending: Option<Gradients> = None;
        let mut losses = Vec::new();
        for step in 0..100 {
            let b = data.batch(step * 64, 64);
            let g = model.compute_gradients(&b);
            losses.push(g.mean_loss);
            if let Some(prev) = pending.take() {
                model.apply_gradients(&prev);
            }
            pending = Some(g);
        }
        let early: f32 = losses[..20].iter().sum::<f32>() / 20.0;
        let late: f32 = losses[80..].iter().sum::<f32>() / 20.0;
        assert!(late < early, "stale-gradient training failed to reduce loss: {early} -> {late}");
    }

    #[test]
    fn paper_labels_are_stable() {
        assert!(ModelKind::WideDeep.paper_label().contains("Model-X"));
        assert!(ModelKind::XDeepFm.paper_label().contains("Model-Y"));
        assert!(ModelKind::Dcn.paper_label().contains("Model-Z"));
        assert_eq!(ModelKind::all().len(), 3);
    }

    #[test]
    fn predict_does_not_materialise_rows() {
        let data = dataset();
        let model = DlrmModel::new(ModelKind::Dcn, small_config(), 7);
        let _ = model.predict(&data.batch(0, 64));
        assert_eq!(model.materialized_rows(), 0);
    }
}
