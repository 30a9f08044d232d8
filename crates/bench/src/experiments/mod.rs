//! One module per table/figure. Each exposes `run(seed) -> String` (the
//! rendered report); the four that audit their runs with the oracle take
//! [`RunArgs`] and also return what the oracle found.

/// What the `exp` command line can tell an experiment.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// `--seed` (42 regenerates the committed artefacts).
    pub seed: u64,
    /// `--plans`: fault plans for the experiments that sweep them
    /// (`chaos`, `tournament`, `reconfig`); `None` is the experiment's own
    /// default, the size of its committed artefact.
    pub plans: Option<u64>,
    /// `--episodes`: training episodes of `tournament`'s learned contenders.
    pub episodes: Option<u32>,
}

impl RunArgs {
    /// Every experiment at its default size.
    pub fn new(seed: u64) -> Self {
        RunArgs { seed, plans: None, episodes: None }
    }
}

/// One experiment registry entry: `(id, description, entry point)`. The
/// entry point returns the rendered report and the number of oracle
/// invariant violations the run saw (0 from an experiment that gates on
/// none); `exp` exits non-zero when any experiment it ran reports one.
pub type Runner = (&'static str, &'static str, fn(&RunArgs) -> (String, usize));

/// Every experiment, in paper order. Shared by the `exp` binary's
/// dispatcher, the `crate::fixture` test fixture, and the
/// [`crate::golden`] regression corpus, so the three can never drift.
pub const REGISTRY: &[Runner] = &[
    ("fig1a", "operator time distribution (lookup share)", |a| (fig1::run_fig1a(a.seed), 0)),
    ("fig1b", "embedding memory growth over 15h", |a| (fig1::run_fig1b(a.seed), 0)),
    ("table1", "CPU-only vs hybrid cost", |a| (table1::run(a.seed), 0)),
    ("fig3", "fleet utilisation CDF + pending times", |a| (fig3::run(a.seed), 0)),
    ("table2", "cluster job mix", |a| (table2::run(a.seed), 0)),
    ("fig7", "JCT by scheduler and model", |a| (fig7::run(a.seed), 0)),
    ("fig8", "convergence under elasticity (real training)", |a| (fig8::run(a.seed), 0)),
    ("fig9", "warm-starting accuracy", |a| (fig9::run(a.seed), 0)),
    ("fig10", "cold-start throughput ramp", |a| (fig10::run(a.seed), 0)),
    ("fig11", "throughput model fit", |a| (fig11::run(a.seed), 0)),
    ("fig12", "hot-PS recovery strategies", |a| (fig12_13::run_fig12(a.seed), 0)),
    ("fig13", "worker-straggler recovery strategies", |a| (fig12_13::run_fig13(a.seed), 0)),
    ("fig14", "12-month migration ramp", |a| (production::run_fig14(a.seed), 0)),
    ("fig15", "cluster-level JCT reductions", |a| (production::run_fig15(a.seed), 0)),
    ("table4", "failure rates before/after", |a| (production::run_table4(a.seed), 0)),
    ("ablations", "design-choice ablations", |a| (ablations::run(a.seed), 0)),
    ("chaos", "scripted fault plans vs the invariant oracle", chaos::run),
    ("resilience", "recovery latency + goodput retained per fault kind", |a| {
        (resilience::run(a.seed), 0)
    }),
    ("ckptplane", "tiered checkpoint plane: policy x recovery path sweep", ckptplane::run),
    ("tournament", "scheduler round-robin: heuristics vs learned, under chaos", tournament::run),
    ("reconfig", "execution-plan reconfiguration ablation under PS contention", reconfig::run),
];

mod ablations;
mod chaos;
mod ckptplane;
mod fig1;
mod fig10;
mod fig11;
mod fig12_13;
mod fig3;
mod fig7;
mod fig8;
mod fig9;
pub mod fleetscale;
mod fleetstudy;
mod production;
mod reconfig;
mod resilience;
mod table1;
mod table2;
mod tournament;

/// Common helpers shared by the experiment modules.
pub mod common {
    use dlrover_perfmodel::{ModelCoefficients, ThroughputModel, WorkloadConstants};

    /// The three evaluation models (paper §6: Model-X/Y/Z). They share the
    /// coefficient ratios but differ in workload constants: xDeepFM's
    /// explicit interactions make it lookup-heavier (larger effective `D`),
    /// DCN carries a larger dense part (`M`).
    pub fn model_workloads() -> [(&'static str, WorkloadConstants); 3] {
        [
            (
                "Model-X (Wide&Deep)",
                WorkloadConstants { model_size: 80.0, bandwidth: 1_000.0, embedding_dim: 0.45 },
            ),
            (
                "Model-Y (xDeepFM)",
                WorkloadConstants { model_size: 120.0, bandwidth: 1_000.0, embedding_dim: 0.65 },
            ),
            (
                "Model-Z (DCN)",
                WorkloadConstants { model_size: 160.0, bandwidth: 1_000.0, embedding_dim: 0.5 },
            ),
        ]
    }

    /// Ground-truth throughput model for one of the evaluation workloads.
    pub fn truth_for(constants: WorkloadConstants) -> ThroughputModel {
        ThroughputModel::new(constants, ModelCoefficients::simulation_truth())
    }

    /// Historical profiling observations (the config-DB time series a
    /// warm-started job inherits), generated from the workload's truth.
    pub fn history_for(
        constants: WorkloadConstants,
    ) -> Vec<dlrover_perfmodel::ThroughputObservation> {
        let truth = truth_for(constants);
        let mut obs = Vec::new();
        for w in [2u32, 4, 8, 16, 24] {
            for p in [1u32, 2, 4, 8] {
                for cpu in [4.0, 8.0, 16.0] {
                    let s = dlrover_perfmodel::JobShape::new(w, p, cpu, cpu, 512);
                    obs.push(dlrover_perfmodel::ThroughputObservation {
                        shape: s,
                        iter_time: truth.iter_time(&s),
                    });
                }
            }
        }
        obs
    }
}
