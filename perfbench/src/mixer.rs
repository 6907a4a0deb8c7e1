//! `mixer_irr`: points of the Fig. 5 surface measured on the
//! transistor-level Hartley mixer (LO-only shooting PSS, then a PAC for
//! the wanted sideband and one for the image).

use crate::analytic::irr_db;
use crate::harness::{first_of, options, Rng, SpanNode, Workload};
use ahfic_rf::mixer_tl::{measure_irr_transistor_db, HartleyMixerParams, TransistorIrr};
use ahfic_spice::trace::TraceHandle;
use std::collections::BTreeMap;

/// (phase error in degrees, fractional gain error) of one round.
const POINTS: [(f64, f64); 7] = [
    (2.0, 0.0),
    (2.0, 0.02),
    (5.0, 0.0),
    (5.0, 0.02),
    (10.0, 0.0),
    (10.0, 0.02),
    (10.0, 0.05),
];
/// The closed form is checked where the deliberate phase error
/// dominates the mixer's own arm imbalance.
const CLOSED_FORM_FROM_DEG: f64 = 5.0;
const CLOSED_FORM_DB: f64 = 1.5;

#[derive(Default)]
struct Layers {
    wall_s: f64,
    pac_s: f64,
    pss_in_pac_s: f64,
    requests: usize,
    // Exact counts over the counted round.
    pss_solves: f64,
    shooting: f64,
    gmres: f64,
    newton: f64,
    counted: f64,
}

pub struct Mixer {
    seed: u64,
    order: Vec<usize>,
    layers: Layers,
}

fn measure(point: usize, trace: Option<&TraceHandle>) -> Result<TransistorIrr, String> {
    let (phase, gain) = POINTS[point];
    let params = HartleyMixerParams::default()
        .phase_error_deg(phase)
        .gain_error(gain);
    measure_irr_transistor_db(&params, &options(trace))
        .map_err(|e| format!("({phase} deg, {gain}): {e}"))
}

pub struct MixerOut {
    point: usize,
    irr: TransistorIrr,
}

impl Workload for Mixer {
    type Output = MixerOut;

    fn setup(seed: u64, _trace: Option<&TraceHandle>) -> Result<Self, String> {
        // Warm-up request on a seeded point.
        measure(Rng::derive(seed, u64::MAX).below(POINTS.len()), None)?;
        Ok(Mixer {
            seed,
            order: Vec::new(),
            layers: Layers::default(),
        })
    }

    fn prepare_checks(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn round_len(&self) -> usize {
        POINTS.len()
    }

    fn min_rounds(&self) -> usize {
        15
    }

    fn work_per_request(&self) -> f64 {
        1.0
    }

    fn request(
        &mut self,
        round: usize,
        i: usize,
        trace: Option<&TraceHandle>,
    ) -> Result<MixerOut, String> {
        if i == 0 {
            self.order = (0..POINTS.len()).collect();
            Rng::derive(self.seed, round as u64).shuffle(&mut self.order);
        }
        let point = self.order[i];
        Ok(MixerOut {
            point,
            irr: measure(point, trace)?,
        })
    }

    fn check(&mut self, _round: usize, _i: usize, out: &MixerOut) -> Result<(), String> {
        let (phase, gain) = POINTS[out.point];
        let r = &out.irr;
        if r.gain_rf_db <= r.gain_image_db || r.gain_rf_db.is_nan() {
            return Err(format!(
                "({phase} deg, {gain}): wanted gain {:.2} dB not above image gain {:.2} dB",
                r.gain_rf_db, r.gain_image_db
            ));
        }
        let closed = irr_db(phase, gain);
        if phase >= CLOSED_FORM_FROM_DEG && (r.irr_db - closed).abs() > CLOSED_FORM_DB {
            return Err(format!(
                "({phase} deg, {gain}): IRR {:.2} dB vs closed form {closed:.2} dB",
                r.irr_db
            ));
        }
        Ok(())
    }

    /// IRR falls as the phase error grows at a fixed gain error.
    fn check_round(&mut self, outs: &[Option<MixerOut>]) -> Result<(), String> {
        let mut by_point = [f64::NAN; POINTS.len()];
        for o in outs.iter().flatten() {
            by_point[o.point] = o.irr.irr_db;
        }
        for a in 0..POINTS.len() {
            for b in 0..POINTS.len() {
                let ((pa, ga), (pb, gb)) = (POINTS[a], POINTS[b]);
                if ga == gb && pa < pb && by_point[a] <= by_point[b] {
                    return Err(format!(
                        "IRR {:.2} dB at {pa} deg is not above {:.2} dB at {pb} deg (gain {ga})",
                        by_point[a], by_point[b]
                    ));
                }
            }
        }
        Ok(())
    }

    fn observe(&mut self, spans: &[SpanNode], wall_s: f64, count: bool) {
        let l = &mut self.layers;
        let mut pacs = Vec::new();
        first_of(spans, &["pac"], &mut pacs);
        l.wall_s += wall_s;
        l.requests += 1;
        for pac in pacs {
            l.pac_s += pac.wall_s;
            let mut pss = Vec::new();
            first_of(&pac.children, &["pss"], &mut pss);
            l.pss_in_pac_s += pss.iter().map(|s| s.wall_s).sum::<f64>();
        }
        if count {
            let mut pss = Vec::new();
            first_of(spans, &["pss"], &mut pss);
            l.pss_solves += pss.len() as f64;
            for s in pss {
                l.shooting += s.counter("pss.shooting_iterations");
                l.gmres += s.counter("pss.gmres_iterations");
                l.newton += s.counter("pss.newton_iterations");
            }
            l.counted += 1.0;
        }
    }

    fn layers(&mut self) -> Result<BTreeMap<&'static str, f64>, String> {
        let l = &self.layers;
        let mut m = BTreeMap::new();
        m.insert("pss.solves", l.pss_solves / l.counted);
        m.insert("pss.shooting_iterations", l.shooting / l.counted);
        m.insert("pss.gmres_iterations", l.gmres / l.counted);
        m.insert("pss.newton_iterations", l.newton / l.counted);
        m.insert("pac.ms", l.pac_s / l.requests as f64 * 1e3);
        m.insert("pac.pss_share", l.pss_in_pac_s / l.pac_s);
        m.insert("mixer.pac_share", l.pac_s / l.wall_s);
        m.insert("mixer.other_share", (l.wall_s - l.pac_s) / l.wall_s);
        Ok(m)
    }
}
