//! The DLRM substrate: real, trainable CTR models in pure Rust.
//!
//! The paper evaluates DLRover-RM on three recommendation models —
//! Wide & Deep, xDeepFM, and DCN — trained on the Criteo click log. This
//! crate provides from-scratch equivalents so the convergence experiment
//! (Fig. 8) runs *genuine* gradient descent rather than a scripted curve:
//!
//! * [`EmbeddingTable`] — lazily materialised, hashed embedding tables. Rows are
//!   created on first touch, which reproduces the paper's embedding-memory
//!   growth (§2.2, Fig. 1b) for free: bytes in use grow with the number of
//!   distinct categories seen.
//! * [`Mlp`] — a dense multi-layer perceptron with hand-derived backprop and
//!   Adagrad, the optimizer of choice for sparse CTR models.
//! * [`model`] — the three model families behind the paper's Model-X/Y/Z,
//!   exposed through the [`CtrModel`] trait with a *split*
//!   compute-gradients / apply-gradients API, so the PS training engine can
//!   inject gradient staleness exactly like an async parameter server.
//! * [`SyntheticCriteo`] — a synthetic Criteo-like generator with a planted logistic
//!   ground truth (Zipf-distributed categorical ids, log-normal dense
//!   features), making learnability real but fully reproducible offline.
//! * [`logloss`] and [`auc`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod data;
mod embedding;
mod metrics;
mod mlp;
pub mod model;
#[cfg(test)]
mod reference;

pub use data::{DatasetConfig, Sample, SyntheticCriteo};
pub use embedding::EmbeddingTable;
pub use metrics::{auc, logloss};
pub use mlp::{ForwardTrace, Mlp};
pub use model::{CtrModel, GradScratch, Gradients, ModelCheckpoint, ModelKind};
