//! `yield_batch`: the §2.2 Monte-Carlo yield study of the RC-CR
//! shifter, 4096 samples a request, each request with its own seed,
//! run through the batched variant engine (SIMD lanes, batched LU).

use crate::analytic::analytic_yield;
use crate::harness::{
    self, counter_total, first_of, median, memory_trace, span_forest, span_seconds, Rng, SpanNode,
    Workload,
};
use ahfic::mixed::RcCrBench;
use ahfic::yield_mc::{YieldResult, YieldStudy};
use ahfic_spice::analysis::{BatchMode, Options};
use ahfic_spice::trace::TraceHandle;
use std::collections::BTreeMap;
use std::time::Instant;

const SAMPLES: usize = 4096;
const SIGMA: f64 = 0.05;
const REQUIRED_DB: f64 = 30.0;
/// Studies per round.
const STUDIES_PER_ROUND: usize = 4;
/// A single study is held to 6 binomial standard deviations: the
/// two-sided normal tail beyond 6σ is 2e-9, so no seed fails it by
/// chance. The pooled samples of a run are held to 4σ.
const STUDY_SIGMAS: f64 = 6.0;
const POOLED_SIGMAS: f64 = 4.0;

#[derive(Default)]
struct Layers {
    wall_s: f64,
    op_s: f64,
    studies: usize,
    // Exact counts over the counted round.
    samples: f64,
    fallbacks: f64,
}

pub struct YieldBatch {
    seed: u64,
    study_seeds: Vec<u64>,
    expected: f64,
    passed: u64,
    sampled: u64,
    non_finite: u64,
    layers: Layers,
}

fn options(trace: Option<&TraceHandle>) -> Options {
    harness::options(trace).batch(BatchMode::Auto)
}

fn study(seed: u64) -> YieldStudy {
    YieldStudy {
        samples: SAMPLES,
        seed,
        ..YieldStudy::paper_example(SIGMA)
    }
}

impl YieldBatch {
    /// Seconds the batched AC solves take for one study's samples, timed
    /// from outside on the same bench the study compiles: the whole
    /// `characterize_many` call minus its `op_batch` spans.
    fn ac_probe(&self) -> Result<f64, String> {
        let (sink, handle) = memory_trace();
        let opts = options(Some(&handle));
        let lanes = opts.batch.lanes().ok_or("batching is off")?;
        let bench = RcCrBench::new(45e6, 1e-12)
            .map_err(|e| e.to_string())?
            .with_options(opts);
        let mut rng = Rng::derive(self.seed, 0xac);
        let mismatch: Vec<f64> = (0..SAMPLES)
            .map(|_| SIGMA * rng.uniform(-2.0, 2.0))
            .collect();
        let mut ac = Vec::new();
        for _ in 0..7 {
            sink.take();
            let t0 = Instant::now();
            let out = bench.characterize_many(&mismatch, lanes);
            let wall = t0.elapsed().as_secs_f64();
            if out.iter().any(Result::is_err) {
                return Err("AC probe sample failed".into());
            }
            let op_s = span_seconds(&span_forest(&sink.take()), "op_batch");
            ac.push(wall - op_s);
        }
        Ok(median(&ac))
    }
}

impl Workload for YieldBatch {
    type Output = YieldResult;

    fn setup(seed: u64, _trace: Option<&TraceHandle>) -> Result<Self, String> {
        let y = YieldBatch {
            seed,
            study_seeds: Vec::new(),
            expected: 0.0,
            passed: 0,
            sampled: 0,
            non_finite: 0,
            layers: Layers::default(),
        };
        // Warm-up request.
        study(Rng::derive(seed, u64::MAX).next_u64())
            .run_with_options(options(None))
            .map_err(|e| e.to_string())?;
        Ok(y)
    }

    fn prepare_checks(&mut self) -> Result<(), String> {
        self.expected = analytic_yield(SIGMA, REQUIRED_DB);
        Ok(())
    }

    fn round_len(&self) -> usize {
        STUDIES_PER_ROUND
    }

    fn min_rounds(&self) -> usize {
        25
    }

    fn work_per_request(&self) -> f64 {
        SAMPLES as f64
    }

    fn request(
        &mut self,
        round: usize,
        i: usize,
        trace: Option<&TraceHandle>,
    ) -> Result<YieldResult, String> {
        if i == 0 {
            let mut rng = Rng::derive(self.seed, round as u64);
            self.study_seeds = (0..STUDIES_PER_ROUND).map(|_| rng.next_u64()).collect();
        }
        study(self.study_seeds[i])
            .run_with_options(options(trace))
            .map_err(|e| e.to_string())
    }

    fn check(&mut self, _round: usize, _i: usize, r: &YieldResult) -> Result<(), String> {
        if !r.failures.is_empty() || r.attempted() != SAMPLES {
            return Err(format!(
                "{} failed of {} samples",
                r.failures.len(),
                r.attempted()
            ));
        }
        // A sample balanced to within ~1e-8 scores a non-finite IRR (the
        // closed form cancels to 0/0 in the program), about one study in
        // 1500; it is logged and left out of the pooled count.
        self.non_finite += r.non_finite as u64;
        let finite = r.irr_db.len();
        let p = self.expected;
        let sd = (p * (1.0 - p) / finite as f64).sqrt();
        if (r.yield_frac - p).abs() > STUDY_SIGMAS * sd {
            return Err(format!(
                "yield {:.4} vs analytic {p:.4} (sd {sd:.4})",
                r.yield_frac
            ));
        }
        self.passed += (r.yield_frac * finite as f64).round() as u64;
        self.sampled += finite as u64;
        Ok(())
    }

    fn check_run(&mut self) -> Result<(), String> {
        let p = self.expected;
        let n = self.sampled as f64;
        let sd = (p * (1.0 - p) / n).sqrt();
        let y = self.passed as f64 / n;
        eprintln!(
            "pooled yield {y:.5} over {n} samples; analytic {p:.5}; {} non-finite samples",
            self.non_finite
        );
        if (y - p).abs() > POOLED_SIGMAS * sd {
            return Err(format!(
                "pooled yield {y:.5} vs analytic {p:.5} (sd {sd:.2e})"
            ));
        }
        Ok(())
    }

    fn observe(&mut self, spans: &[SpanNode], wall_s: f64, count: bool) {
        let l = &mut self.layers;
        let mut studies = Vec::new();
        first_of(spans, &["yield_mc"], &mut studies);
        l.wall_s += wall_s;
        l.studies += studies.len();
        l.op_s += span_seconds(spans, "op_batch");
        if count {
            l.samples += counter_total(spans, "op_batch.samples");
            l.fallbacks += counter_total(spans, "op_batch.fallbacks");
        }
    }

    fn layers(&mut self) -> Result<BTreeMap<&'static str, f64>, String> {
        let ac_s = self.ac_probe()?;
        let l = &self.layers;
        let ac_total = ac_s * l.studies as f64;
        let mut m = BTreeMap::new();
        m.insert("op_batch.lane_ratio", (l.samples - l.fallbacks) / l.samples);
        m.insert("yield_mc.op_share", l.op_s / l.wall_s);
        m.insert("yield_mc.ac_share", ac_total / l.wall_s);
        m.insert(
            "yield_mc.other_share",
            (l.wall_s - l.op_s - ac_total) / l.wall_s,
        );
        Ok(m)
    }
}
