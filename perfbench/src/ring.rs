//! `ring_tran`: the Table 1 experiment. Each request generates the
//! diff-pair model of one Fig. 8 shape and runs the 5-stage ECL ring's
//! 30 ns transient; a round visits all six shapes in seeded order.

use crate::harness::{first_of, median, options, Rng, SpanNode, TranLayer, Workload};
use ahfic_geom::{MaskRules, ModelGenerator, ProcessData, TransistorShape};
use ahfic_rf::ringosc::{
    build_ring_oscillator, measure_ring_frequency, predict_from_stage_delay, RingOscParams,
};
use ahfic_spice::analysis::{Session, TranParams};
use ahfic_spice::circuit::Circuit;
use ahfic_spice::measure::{oscillation_frequency, OscMeasurement};
use ahfic_spice::model::BjtModel;
use ahfic_spice::trace::TraceHandle;
use std::collections::BTreeMap;
use std::time::Instant;

/// The paper's Table 1 winner.
const FASTEST: &str = "N1.2-12D";

#[derive(Default)]
struct Layers {
    wall_s: f64,
    generate_s: f64,
    requests: usize,
    tran: TranLayer,
}

pub struct Ring {
    seed: u64,
    generator: ModelGenerator,
    shapes: Vec<TransistorShape>,
    follower: BjtModel,
    params: RingOscParams,
    order: Vec<usize>,
    predicted: Vec<f64>,
    last_generate_s: f64,
    layers: Layers,
}

/// One request's result: the shape and its measured oscillation.
pub struct RingOut {
    shape: usize,
    osc: OscMeasurement,
}

impl Ring {
    fn plan_round(&mut self, round: usize) {
        self.order = (0..self.shapes.len()).collect();
        Rng::derive(self.seed, round as u64).shuffle(&mut self.order);
    }

    fn run(&mut self, shape: usize, trace: Option<&TraceHandle>) -> Result<RingOut, String> {
        let t0 = Instant::now();
        let pair = self.generator.generate(&self.shapes[shape]);
        self.last_generate_s = t0.elapsed().as_secs_f64();
        let osc = measure_ring_frequency(&self.params, &pair, &self.follower, &options(trace))
            .map_err(|e| format!("{}: {e}", self.shapes[shape]))?;
        Ok(RingOut { shape, osc })
    }

    /// Times the oscillation measurement alone, on the waveform of the
    /// same differential probe `measure_ring_frequency` builds.
    fn measure_probe(&self) -> Result<f64, String> {
        let pair = self
            .generator
            .generate(&FASTEST.parse().map_err(|e| format!("{e:?}"))?);
        let (mut ckt, p, n) = build_ring_oscillator(&self.params, &pair, &self.follower);
        let diff = ckt.node("diff");
        let node =
            |c: &Circuit, probe: &str| c.find_node(&probe[2..probe.len() - 1]).ok_or("probe");
        let (pp, pn) = (node(&ckt, &p)?, node(&ckt, &n)?);
        ckt.vcvs("Ediff", diff, Circuit::gnd(), pp, pn, 1.0);
        ckt.resistor("Rdiff", diff, Circuit::gnd(), 1e6);
        let sess = Session::compile_with(&ckt, options(None)).map_err(|e| e.to_string())?;
        let wave = sess
            .tran(&TranParams::new(self.params.t_stop, self.params.dt_max))
            .map_err(|e| e.to_string())?
            .into_wave();
        let mut times = Vec::new();
        for _ in 0..15 {
            let t0 = Instant::now();
            std::hint::black_box(oscillation_frequency(&wave, "v(diff)", 0.4).ok());
            times.push(t0.elapsed().as_secs_f64());
        }
        Ok(median(&times))
    }
}

impl Workload for Ring {
    type Output = RingOut;

    fn setup(seed: u64, _trace: Option<&TraceHandle>) -> Result<Self, String> {
        let generator = ModelGenerator::new(ProcessData::default(), MaskRules::default());
        let follower = generator.generate(&FASTEST.parse().map_err(|e| format!("{e:?}"))?);
        let mut ring = Ring {
            seed,
            generator,
            shapes: TransistorShape::fig8_catalogue(),
            follower,
            params: RingOscParams::default(),
            order: Vec::new(),
            predicted: Vec::new(),
            last_generate_s: 0.0,
            layers: Layers::default(),
        };
        // Warm-up request on the paper's winner, whatever the seed.
        let first = ring
            .shapes
            .iter()
            .position(|s| s.to_string() == FASTEST)
            .ok_or("no N1.2-12D in the Fig. 8 catalogue")?;
        ring.run(first, None)?;
        Ok(ring)
    }

    /// The designer's stage-delay estimate of every shape's frequency.
    fn prepare_checks(&mut self) -> Result<(), String> {
        self.predicted = self
            .shapes
            .iter()
            .map(|s| {
                let pair = self.generator.generate(s);
                predict_from_stage_delay(&self.params, &pair, &self.follower, &options(None))
                    .map_err(|e| format!("prediction for {s}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    fn round_len(&self) -> usize {
        self.shapes.len()
    }

    /// 42 transients: enough for a p75 with ten samples beyond it.
    fn min_rounds(&self) -> usize {
        7
    }

    fn work_per_request(&self) -> f64 {
        1.0
    }

    fn request(
        &mut self,
        round: usize,
        i: usize,
        trace: Option<&TraceHandle>,
    ) -> Result<RingOut, String> {
        if i == 0 {
            self.plan_round(round);
        }
        self.run(self.order[i], trace)
    }

    fn check(&mut self, _round: usize, _i: usize, out: &RingOut) -> Result<(), String> {
        let shape = &self.shapes[out.shape];
        let o = &out.osc;
        if o.cycles < 3 || o.amplitude_pp <= 0.1 {
            return Err(format!(
                "{shape}: {} cycles, {:.3} V swing; no sustained oscillation",
                o.cycles, o.amplitude_pp
            ));
        }
        let ratio = o.frequency / self.predicted[out.shape];
        if !(0.7..=1.4).contains(&ratio) {
            return Err(format!(
                "{shape}: {:.4e} Hz is {ratio:.3}x the stage-delay prediction",
                o.frequency
            ));
        }
        Ok(())
    }

    /// The shapes rank as the prediction ranks them, and N1.2-12D is
    /// the fastest (the paper's Table 1 conclusion).
    fn check_round(&mut self, outs: &[Option<RingOut>]) -> Result<(), String> {
        let mut measured = vec![0.0; self.shapes.len()];
        for o in outs.iter().flatten() {
            measured[o.shape] = o.osc.frequency;
        }
        let rank = |f: &[f64]| {
            let mut idx: Vec<usize> = (0..f.len()).collect();
            idx.sort_by(|&a, &b| f[b].total_cmp(&f[a]));
            idx
        };
        let (by_sim, by_pred) = (rank(&measured), rank(&self.predicted));
        let names = |r: &[usize]| {
            r.iter()
                .map(|&k| self.shapes[k].to_string())
                .collect::<Vec<_>>()
                .join(" > ")
        };
        if by_sim != by_pred {
            return Err(format!(
                "simulated order {} differs from predicted {}",
                names(&by_sim),
                names(&by_pred)
            ));
        }
        if self.shapes[by_sim[0]].to_string() != FASTEST {
            return Err(format!(
                "fastest shape is {}, not {FASTEST}",
                self.shapes[by_sim[0]]
            ));
        }
        Ok(())
    }

    fn observe(&mut self, spans: &[SpanNode], wall_s: f64, count: bool) {
        let l = &mut self.layers;
        let mut trans = Vec::new();
        first_of(spans, &["tran"], &mut trans);
        l.wall_s += wall_s;
        l.generate_s += self.last_generate_s;
        l.requests += 1;
        for s in trans {
            l.tran.add(s, count);
        }
    }

    fn layers(&mut self) -> Result<BTreeMap<&'static str, f64>, String> {
        let measure_s = self.measure_probe()?;
        let l = &self.layers;
        let mut m = BTreeMap::new();
        l.tran.insert_metrics(&mut m);
        m.insert("geom.generate_us", l.generate_s / l.requests as f64 * 1e6);
        m.insert("osc.measure_ms", measure_s * 1e3);
        m.insert("ring.tran_share", l.tran.wall_s / l.wall_s);
        m.insert(
            "ring.other_share",
            (l.wall_s - l.tran.wall_s - l.generate_s - measure_s * l.requests as f64) / l.wall_s,
        );
        Ok(m)
    }
}
