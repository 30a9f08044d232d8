//! `dlrm-train`: real SGD through `RealModeTrainer` under worker churn
//! (the Fig. 8 elastic schedule), then evaluation on held-out samples.
//! `dlrm` and `pstrain::real` only — no simulator layer runs. Op = sample
//! trained, step = one `train_round`, block = 25 rounds of one leg; a cycle
//! is the four legs, and a run is whole cycles.

use std::hint::black_box;
use std::time::Instant;

use dlrover_dlrm::model::{CtrModel, DlrmModel};
use dlrover_dlrm::{EmbeddingTable, SyntheticCriteo};
use dlrover_pstrain::{ElasticEvent, RealModeTrainer};
use dlrover_sim::RngStreams;
use rand::Rng;

use crate::harness::{per_call_seconds, Info, Mode, Recorder, Workload};
use crate::inputs::{train_legs, TrainLeg};
use crate::metrics::MetricSet;
use crate::spans::SelfTimeTable;
use crate::stats::{self, Block, Digest};

/// Held-out samples each leg is evaluated on.
const EVAL_SAMPLES: usize = 1_500;
/// A leg whose final held-out AUC is below its floor did not learn: a
/// failure. The scale-1 legs end at 0.68-0.74 depending on the held-out
/// window (the full Fig. 8 run reaches ~0.74); a smoke-scale leg trains too
/// little for more than "better than chance".
fn auc_floor(scale: f64) -> f64 {
    if scale >= 1.0 {
        0.62
    } else {
        0.52
    }
}
/// Workers each leg starts with.
const WORKERS: usize = 3;
/// Rounds filed as one block of the throughput estimate.
const ROUNDS_PER_BLOCK: u64 = 25;

#[derive(Debug, Clone, Copy, PartialEq)]
struct Outcome {
    digest: u64,
    auc: f64,
    rounds: u64,
}

/// The workload.
pub struct DlrmTrain {
    legs: Vec<TrainLeg>,
    /// Rounds at which a worker fails, two are added and one is removed.
    schedule: [u64; 4],
    /// First index of the held-out evaluation window.
    eval_start: u64,
    /// Trainers `setup` built for the first cycle.
    built: Vec<Option<RealModeTrainer>>,
    next: usize,
    reference: Vec<Option<Outcome>>,
    /// Host milliseconds of each traced round.
    traced_rounds_ms: Vec<f64>,
    embedding_bytes: usize,
    auc_floor: f64,
}

impl DlrmTrain {
    fn leg_blocks(blocks: &[Block], leg: usize) -> Vec<Block> {
        blocks.iter().filter(|b| b.group == leg as u32).copied().collect()
    }
}

impl Workload for DlrmTrain {
    fn setup(seed: u64, scale: f64) -> Self {
        let legs = train_legs(scale);
        // The trainers' own seeds are pinned (see `train_legs`); the seed
        // moves the churn schedule around the Fig. 8 rounds and picks the
        // held-out window.
        let mut rng = RngStreams::new(seed).fork("dlrm-train").stream("schedule");
        let schedule = [40u64, 70, 100, 150].map(|r| r - 8 + rng.gen_range(0..=16u64));
        let eval_start = 40_000_000 + rng.gen_range(0..1_000_000u64);
        let built = legs
            .iter()
            .map(|leg| Some(RealModeTrainer::new(leg.config.clone(), WORKERS)))
            .collect();
        DlrmTrain {
            reference: vec![None; legs.len()],
            legs,
            schedule,
            eval_start,
            built,
            next: 0,
            traced_rounds_ms: Vec::new(),
            embedding_bytes: 0,
            auc_floor: auc_floor(scale),
        }
    }

    fn warm_up(&mut self) {
        for leg in &self.legs {
            let mut trainer = RealModeTrainer::new(leg.config.clone(), WORKERS);
            for _ in 0..50 {
                black_box(trainer.train_round());
            }
        }
    }

    fn cycle_done(&self) -> bool {
        self.next.is_multiple_of(self.legs.len())
    }

    fn block(&mut self, rec: &mut Recorder, mode: Mode) {
        let index = self.next % self.legs.len();
        self.next += 1;
        let leg = &self.legs[index];
        let mut trainer = self.built[index]
            .take()
            .unwrap_or_else(|| RealModeTrainer::new(leg.config.clone(), WORKERS));
        let [fail, add_a, add_b, remove] = self.schedule;

        // Rounds of one leg are alike, so the leg is filed as blocks of
        // `ROUNDS_PER_BLOCK` rounds: enough blocks for a median per leg.
        let batch = u64::from(leg.config.sharding.batch_size);
        let mut round = 0u64;
        let mut filed = 0u64;
        let mut open = Block { group: index as u32, ops: 0, seconds: 0.0 };
        while !trainer.is_complete() {
            match round {
                r if r == fail => trainer.apply(ElasticEvent::FailWorker(0)),
                r if r == add_a || r == add_b => trainer.apply(ElasticEvent::AddWorker),
                r if r == remove => trainer.apply(ElasticEvent::RemoveWorker(1)),
                _ => {}
            }
            rec.tracer.set_op(round);
            let t = Instant::now();
            let s = rec.tracer.open("pstrain.train_round");
            let loss = trainer.train_round();
            rec.tracer.close(s);
            let seconds = t.elapsed().as_secs_f64();
            match mode {
                Mode::Plain => rec.steps_ms.push(seconds * 1e3),
                Mode::Traced => self.traced_rounds_ms.push(seconds * 1e3),
            }
            if loss.is_none() && !trainer.is_complete() {
                break; // wedged: no live worker holds a shard
            }
            round += 1;
            // Each live worker trains one batch per round (fewer only while
            // the queue drains; the last block squares that up below).
            open.ops += trainer.live_workers() as u64 * batch;
            open.seconds += seconds;
            if round.is_multiple_of(ROUNDS_PER_BLOCK) {
                filed += open.ops;
                rec.push_block(mode, open);
                open = Block { ops: 0, seconds: 0.0, ..open };
            }
        }
        let t = Instant::now();
        let s = rec.tracer.open("pstrain.evaluate");
        let (loss, auc) = trainer.evaluate(self.eval_start, EVAL_SAMPLES);
        rec.tracer.close(s);
        open.seconds += t.elapsed().as_secs_f64();

        // The last rounds and the evaluation make the last block, whose op
        // count makes the leg's blocks sum to the samples really trained.
        let samples = trainer.samples_trained();
        open.ops = samples.saturating_sub(filed);
        if open.ops > 0 {
            rec.push_block(mode, open);
        } else if let Some(last) = rec.last_block_mut(mode) {
            last.seconds += open.seconds;
        }
        rec.attempted += samples;
        if mode == Mode::Traced {
            self.embedding_bytes = self.embedding_bytes.max(trainer.embedding_bytes());
        }

        let mut d = Digest::default();
        trainer.loss_history().iter().for_each(|(r, l)| {
            d.push(*r);
            d.push(u64::from(l.to_bits()));
        });
        d.push_f64(loss);
        d.push_f64(auc);
        d.push(samples);
        let got = Outcome { digest: d.value(), auc, rounds: round };
        if samples != leg.config.total_samples {
            rec.fail(leg.config.total_samples, || {
                format!("{}: trained {samples} of {} samples", leg.name, leg.config.total_samples)
            });
        } else if auc < self.auc_floor {
            let floor = self.auc_floor;
            rec.fail(samples, || format!("{}: held-out AUC {auc:.4} < {floor}", leg.name));
        }
        match self.reference[index] {
            Some(first) if first.digest != got.digest => {
                rec.fail(samples, || format!("{}: loss digest differs between cycles", leg.name));
            }
            Some(_) => {}
            None => self.reference[index] = Some(got),
        }
    }

    fn info(&self) -> Vec<Info> {
        let done: Vec<Outcome> = self.reference.iter().flatten().copied().collect();
        let mut d = Digest::default();
        done.iter().for_each(|o| d.push(o.digest));
        let auc_min = done.iter().map(|o| o.auc).fold(f64::INFINITY, f64::min);
        let mut info = vec![
            Info::num("auc_min", auc_min, "auc"),
            Info { name: "sim_digest", value: format!("{:#018x}", d.value()), unit: "fnv" },
            Info::num(
                "rounds_per_cycle",
                done.iter().map(|o| o.rounds).sum::<u64>() as f64,
                "count",
            ),
        ];
        for (leg, o) in self.legs.iter().zip(&done) {
            info.push(Info { name: "auc", value: format!("{} {}", leg.name, o.auc), unit: "auc" });
        }
        info
    }

    fn layer_metrics(&mut self, rec: &Recorder, table: &SelfTimeTable, out: &mut MetricSet) {
        let auc_min = self.reference.iter().flatten().map(|o| o.auc).fold(f64::INFINITY, f64::min);
        out.set("dlrm.auc_min", auc_min);
        out.set("dlrm.embedding_mb", self.embedding_bytes as f64 / 1e6);
        out.set("pstrain.real_round_p50_ms", stats::median(&self.traced_rounds_ms));
        const LEG_METRICS: [&str; 4] = [
            "pstrain.real_samples_per_s.wide_deep",
            "pstrain.real_samples_per_s.xdeepfm",
            "pstrain.real_samples_per_s.dcn",
            "pstrain.real_samples_per_s.lookup",
        ];
        for (i, name) in LEG_METRICS.into_iter().enumerate() {
            let blocks = Self::leg_blocks(&rec.traced_blocks, i);
            let ops: u64 = blocks.iter().map(|b| b.ops).sum();
            out.set(name, ops as f64 / stats::robust_seconds(&blocks));
        }

        // Probes: the kernels `train_round` and `evaluate` call, per leg on
        // batches of the leg's own data. Reported as the mean over the legs
        // (they train equally many samples).
        let mut kernel_s = 0.0;
        let (mut grad_us, mut apply_us, mut predict_us) = (0.0, 0.0, 0.0);
        let mut datagen = Vec::new();
        for (i, leg) in self.legs.iter().enumerate() {
            let c = &leg.config;
            let data = SyntheticCriteo::new(c.dataset.clone(), c.seed);
            let n = c.sharding.batch_size as usize;
            let batches: Vec<_> = (0..64).map(|b| data.batch((b * n) as u64, n)).collect();
            let mut model = DlrmModel::new(c.kind, c.model.clone(), c.seed);
            let grad_s = per_call_seconds(0.15, |k| {
                black_box(model.compute_gradients(&batches[k % batches.len()]));
            }) / n as f64;
            let grads = model.compute_gradients(&batches[0]);
            let apply_s = per_call_seconds(0.1, |_| model.apply_gradients(&grads)) / n as f64;
            let predict_s = per_call_seconds(0.1, |k| {
                black_box(model.predict(&batches[k % batches.len()]));
            }) / n as f64;
            datagen.push(
                n as f64
                    / per_call_seconds(0.05, |k| {
                        black_box(data.batch((k * n) as u64, n));
                    }),
            );
            grad_us += grad_s * 1e6 / self.legs.len() as f64;
            apply_us += apply_s * 1e6 / self.legs.len() as f64;
            predict_us += predict_s * 1e6 / self.legs.len() as f64;
            // Every trained sample is one gradient and one apply, every
            // evaluated one a predict.
            let blocks = Self::leg_blocks(&rec.traced_blocks, i);
            let samples: u64 = blocks.iter().map(|b| b.ops).sum();
            kernel_s += samples as f64 * (grad_s + apply_s)
                + (blocks.len() * EVAL_SAMPLES) as f64 * predict_s;
        }
        out.set("dlrm.grad_us_per_sample", grad_us);
        out.set("dlrm.apply_us_per_sample", apply_us);
        out.set("dlrm.predict_us_per_sample", predict_us);
        out.set("dlrm.datagen_samples_per_s", stats::median(&datagen));
        out.set("dlrm.kernel_share_est", kernel_s / (table.wall_ns as f64 / 1e9));

        // Lookups over a working set far larger than L2: the lookup leg's
        // table shape with 200K rows materialised (~40 MB with the map's own
        // overhead), read back in a scattered order.
        let lookup = &self.legs[3].config.model;
        let mut probe = EmbeddingTable::new(lookup.hash_size, lookup.embedding_dim, 7);
        let mut row = vec![0.0f32; lookup.embedding_dim];
        let ids: Vec<u64> = (0..200_000u64).map(dlrover_sim::splitmix64).collect();
        ids.iter().for_each(|&id| probe.lookup(id, &mut row));
        let lookup_s = per_call_seconds(0.2, |k| {
            probe.lookup(ids[k.wrapping_mul(7_919) % ids.len()], &mut row);
        });
        black_box(&row);
        out.set("dlrm.lookup_ns", lookup_s * 1e9);
    }
}
