//! Golden digests of real-compute training (Fig. 8's substrate).
//!
//! `tests/golden/fig8.digest` pins nothing — fig8 records no telemetry
//! events, so its trace digest is the FNV offset basis — and
//! `determinism.rs::real_training_is_deterministic` compares a run only
//! with itself. These constants pin every trained bit instead: an FNV-1a
//! over each round's `(round, loss bits)` plus the final held-out
//! `(logloss, auc)` bits. They were recorded from the kernels as of PR 12
//! (SipHash row maps, per-sample `Vec`s), *before* the arena tables and
//! scratch-reusing towers landed, so any storage or scratch change that
//! moves one f32 operation or reorders one reduction fails here.
//!
//! A constant may change only with a change that means to alter training
//! arithmetic, and `results/fig8.json` then changes with it.

use dlrover_rm::prelude::*;

const EVAL_START: u64 = 40_000_000;
const EVAL_N: usize = 1_500;

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Trains `config` to completion with three initial workers, applying the
/// Fig. 8 churn schedule when `elastic`, and digests everything training
/// produced.
fn digest(config: RealModeConfig, elastic: bool) -> u64 {
    let total = config.total_samples;
    let mut t = RealModeTrainer::new(config, 3);
    let mut round = 0u64;
    while !t.is_complete() {
        if elastic {
            match round {
                40 => t.apply(ElasticEvent::FailWorker(0)),
                70 => t.apply(ElasticEvent::AddWorker),
                100 => t.apply(ElasticEvent::AddWorker),
                150 => t.apply(ElasticEvent::RemoveWorker(1)),
                _ => {}
            }
        }
        assert!(t.train_round().is_some() || t.is_complete(), "wedged at round {round}");
        round += 1;
    }
    assert_eq!(t.samples_trained(), total);
    let mut d = Fnv::new();
    for &(r, loss) in t.loss_history() {
        d.push(r);
        d.push(u64::from(loss.to_bits()));
    }
    let (logloss, auc) = t.evaluate(EVAL_START, EVAL_N);
    d.push(logloss.to_bits());
    d.push(auc.to_bits());
    d.push(t.embedding_bytes() as u64);
    d.0
}

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{name}: trained bits moved — got {got:#018x}, golden {want:#018x}");
}

#[test]
fn wide_deep_static_run_is_pinned() {
    let got = digest(RealModeConfig::small(ModelKind::WideDeep, 42), false);
    check("wide_deep/static", got, 0x0748_3cf1_9f0e_6cc2);
}

#[test]
fn xdeepfm_static_run_is_pinned() {
    let got = digest(RealModeConfig::small(ModelKind::XDeepFm, 42), false);
    check("xdeepfm/static", got, 0x0ac4_edd8_d90a_1c8e);
}

#[test]
fn dcn_static_run_is_pinned() {
    let got = digest(RealModeConfig::small(ModelKind::Dcn, 42), false);
    check("dcn/static", got, 0xff4d_5bf5_779e_24c8);
}

/// Worker failure, two scale-outs and a scale-in change how many mutually
/// stale gradients a round applies — the order-sensitive path.
#[test]
fn elastic_run_is_pinned() {
    let got = digest(RealModeConfig::small(ModelKind::WideDeep, 7), true);
    check("wide_deep/elastic", got, 0x13b8_48b7_6db8_4f02);
}

/// Wide rows (dim 16) in tables large enough that ids rarely share a
/// slot: the opposite corner from `small`'s dim-4, always-colliding
/// tables.
#[test]
fn wide_rows_in_large_tables_are_pinned() {
    let mut config = RealModeConfig::small(ModelKind::Dcn, 11);
    config.model.embedding_dim = 16;
    config.model.hash_size = 1 << 20;
    config.total_samples /= 4;
    let got = digest(config, true);
    check("dcn/dim16/elastic", got, 0x3797_a101_026d_d005);
}
