//! The DLRM substrate: real, trainable CTR models in pure Rust.
//!
//! The paper evaluates DLRover-RM on three recommendation models —
//! Wide & Deep, xDeepFM, and DCN — trained on the Criteo click log. This
//! crate provides from-scratch equivalents so the convergence experiment
//! (Fig. 8) runs *genuine* gradient descent rather than a scripted curve:
//!
//! * [`embedding`] — lazily materialised, hashed embedding tables. Rows are
//!   created on first touch, which reproduces the paper's embedding-memory
//!   growth (§2.2, Fig. 1b) for free: bytes in use grow with the number of
//!   distinct categories seen.
//! * [`mlp`] — a dense multi-layer perceptron with hand-derived backprop and
//!   Adagrad, the optimizer of choice for sparse CTR models.
//! * [`model`] — the three model families behind the paper's Model-X/Y/Z,
//!   exposed through the [`model::CtrModel`] trait with a *split*
//!   compute-gradients / apply-gradients API, so the PS training engine can
//!   inject gradient staleness exactly like an async parameter server.
//! * [`data`] — a synthetic Criteo-like generator with a planted logistic
//!   ground truth (Zipf-distributed categorical ids, log-normal dense
//!   features), making learnability real but fully reproducible offline.
//! * [`metrics`] — logloss and AUC.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod embedding;
pub mod metrics;
pub mod mlp;
pub mod model;
#[cfg(test)]
mod reference;

pub use data::{DatasetConfig, Sample, SyntheticCriteo};
pub use embedding::EmbeddingTable;
pub use metrics::{auc, logloss};
pub use mlp::Mlp;
pub use model::{CtrModel, GradScratch, Gradients, ModelCheckpoint, ModelKind};
