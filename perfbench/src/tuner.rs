//! `tuner_serve`: batches of netlist-text jobs on variants of the
//! Fig. 5 image-rejection front end, served by one single-worker
//! `JobQueue`. The only workload through parse, deck hashing, the
//! compile cache, lint, compile, warm-started operating points and
//! supervision.

use crate::harness::{
    counter_total, first_of, median, options, span_seconds, Rng, SpanNode, TranLayer, Workload,
};
use ahfic_num::interp::logspace;
use ahfic_serve::{JobOutput, JobQueue, JobReport, JobRequest, JobSpec, QueueConfig};
use ahfic_spice::analysis::{Session, SolverChoice, TranParams};
use ahfic_spice::cache::DeckKey;
use ahfic_spice::circuit::Prepared;
use ahfic_spice::lint::LintPolicy;
use ahfic_spice::parse::parse_netlist;
use ahfic_spice::trace::TraceHandle;
use ahfic_spice::wave::{AcWaveform, Waveform};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

const HOT_DECKS: usize = 8;
const JOBS_PER_BATCH: usize = 16;
/// Four batches: 64 jobs, one of which names a deck never seen before.
const BATCHES_PER_ROUND: usize = 4;
/// Room for the hot decks and four fresh ones; later fresh decks evict.
const CACHE_DECKS: usize = 12;
/// Traced rounds whose work counts are reported (enough to evict).
const COUNTED_ROUNDS: usize = 8;
const FRESH_SALT: u64 = 0x5eed_f4e5;

/// One variant of the front end; resistances in ohms, capacitances in
/// farads.
#[derive(Clone, Debug)]
struct FrontEnd {
    vcc: f64,
    bf: f64,
    rb1: f64,
    rc: f64,
    re: f64,
    rpi: f64,
    rpq: f64,
    rsi: f64,
    rsq: f64,
    rl: f64,
    cpi: f64,
    cpq: f64,
}

impl FrontEnd {
    /// A variant within ±10% (supply ±4%) of the nominal deck.
    fn draw(rng: &mut Rng) -> Self {
        let mut k = |nominal: f64, spread: f64| nominal * rng.uniform(1.0 - spread, 1.0 + spread);
        FrontEnd {
            vcc: k(5.0, 0.04),
            bf: k(90.0, 0.1),
            rb1: k(47e3, 0.1),
            rc: k(1e3, 0.1),
            re: k(220.0, 0.1),
            rpi: k(800.0, 0.1),
            rpq: k(800.0, 0.1),
            rsi: k(2e3, 0.1),
            rsq: k(2e3, 0.1),
            rl: k(1e3, 0.1),
            cpi: k(2e-12, 0.1),
            cpq: k(2e-12, 0.1),
        }
    }

    /// The SPICE deck: two common-emitter paths, an RC/CR shifter pair
    /// and a resistive summer.
    fn netlist(&self) -> String {
        let mut s = String::from("* image-rejection front end\n");
        s += &format!("VCC vcc 0 DC {:e}\n", self.vcc);
        s += "VRF vin 0 DC 0 AC 1 0 SIN(0 10m 100meg)\n";
        s += &format!(
            ".model rfnpn NPN (BF={:e} RB=120 RE=1.5 RC=25 CJE=60f CJC=40f TF=12p)\n",
            self.bf
        );
        for tag in ["i", "q"] {
            s += &format!("RB1{tag} vcc b{tag} {:e}\n", self.rb1);
            s += &format!("RB2{tag} b{tag} 0 10k\n");
            s += &format!("CIN{tag} vin b{tag} 10p\n");
            s += &format!("RC{tag} vcc c{tag} {:e}\n", self.rc);
            s += &format!("RE{tag} e{tag} 0 {:e}\n", self.re);
            s += &format!("CE{tag} e{tag} 0 20p\n");
            s += &format!("Q{tag} c{tag} b{tag} e{tag} rfnpn\n");
        }
        s += &format!("CPI ci oi {:e}\n", self.cpi);
        s += &format!("RPI oi 0 {:e}\n", self.rpi);
        s += &format!("RPQ cq oq {:e}\n", self.rpq);
        s += &format!("CPQ oq 0 {:e}\n", self.cpq);
        s += &format!("RSI oi sum {:e}\n", self.rsi);
        s += &format!("RSQ oq sum {:e}\n", self.rsq);
        s += &format!("RL sum 0 {:e}\n", self.rl);
        s += ".end\n";
        s
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Op,
    Ac,
    Tran,
}

/// A deck of the workload: hot variant `k`, or the fresh deck of a
/// round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum DeckId {
    Hot(usize),
    Fresh(usize),
}

/// Cold dense-solver results for one deck.
struct Reference {
    prep: Prepared,
    op: Vec<f64>,
    ac: AcWaveform,
    tran: Waveform,
}

/// Layer accumulators over traced batches.
#[derive(Default)]
struct Layers {
    batch_s: f64,
    op_s: f64,
    ops: usize,
    ac_s: f64,
    acs: usize,
    tran: TranLayer,
    // Exact counts over the counted rounds.
    op_newton: f64,
    counted_ops: f64,
    hits: f64,
    misses: f64,
    evictions: f64,
}

pub struct Tuner {
    seed: u64,
    hot: Vec<FrontEnd>,
    hot_text: Vec<String>,
    queue: JobQueue,
    traced_queue: Option<JobQueue>,
    /// The current round's jobs, batch by batch, and its fresh deck.
    plan: Vec<Vec<(DeckId, Kind)>>,
    fresh: Option<(FrontEnd, String)>,
    refs: HashMap<DeckId, Reference>,
    freqs: Vec<f64>,
    tran: TranParams,
    layers: Layers,
}

fn new_queue(trace: Option<&TraceHandle>) -> JobQueue {
    let config = QueueConfig::new().threads(1).cache_capacity(CACHE_DECKS);
    JobQueue::new(match trace {
        Some(t) => config.trace(t.clone()),
        None => config,
    })
}

impl Tuner {
    fn deck(&self, id: DeckId) -> Option<(&FrontEnd, &str)> {
        match id {
            DeckId::Hot(k) => Some((&self.hot[k], &self.hot_text[k])),
            DeckId::Fresh(_) => self.fresh.as_ref().map(|(f, t)| (f, t.as_str())),
        }
    }

    fn text(&self, id: DeckId) -> &str {
        self.deck(id).map_or("", |d| d.1)
    }

    /// Jobs of round `round`: each batch holds 8 Op, 4 Ac and 4 Tran
    /// jobs in seeded order on seeded hot decks, and one job of the
    /// round names the round's fresh deck.
    fn plan_round(&mut self, round: usize) {
        let mut rng = Rng::derive(self.seed, FRESH_SALT + round as u64);
        let fresh = FrontEnd::draw(&mut rng);
        let text = fresh.netlist();
        self.fresh = Some((fresh, text));
        let (fb, fj) = (rng.below(BATCHES_PER_ROUND), rng.below(JOBS_PER_BATCH));
        self.plan = (0..BATCHES_PER_ROUND)
            .map(|b| {
                let mut kinds: Vec<Kind> = [Kind::Op; 8]
                    .into_iter()
                    .chain([Kind::Ac; 4])
                    .chain([Kind::Tran; 4])
                    .collect();
                rng.shuffle(&mut kinds);
                kinds
                    .into_iter()
                    .enumerate()
                    .map(|(j, kind)| {
                        let id = if (b, j) == (fb, fj) {
                            DeckId::Fresh(round)
                        } else {
                            DeckId::Hot(rng.below(HOT_DECKS))
                        };
                        (id, kind)
                    })
                    .collect()
            })
            .collect();
        self.refs.retain(|id, _| matches!(id, DeckId::Hot(_)));
    }

    fn job(&self, id: DeckId, kind: Kind, trace: Option<&TraceHandle>) -> JobRequest {
        let spec = match kind {
            Kind::Op => JobSpec::Op,
            Kind::Ac => JobSpec::Ac {
                freqs: self.freqs.clone(),
            },
            Kind::Tran => JobSpec::Tran(self.tran),
        };
        JobRequest::new(self.text(id), spec).options(options(trace))
    }

    fn reference(&self, text: &str) -> Result<Reference, String> {
        let ckt = parse_netlist(text).map_err(|e| e.to_string())?;
        let sess = Session::compile_with(&ckt, options(None).solver(SolverChoice::Dense))
            .map_err(|e| e.to_string())?;
        let op = sess.op().map_err(|e| format!("reference op: {e}"))?;
        let ac = sess
            .ac(op.x(), &self.freqs)
            .map_err(|e| format!("reference ac: {e}"))?;
        let tran = sess
            .tran(&self.tran)
            .map_err(|e| format!("reference tran: {e}"))?
            .into_wave();
        Ok(Reference {
            prep: sess.prepared().clone(),
            op: op.x().to_vec(),
            ac,
            tran,
        })
    }
}

/// Kirchhoff's current law at the resistor-only DC nodes `oi`, `oq`
/// and `sum` (capacitors are open at DC), from node voltages and the
/// deck's resistor values.
fn check_kcl(fe: &FrontEnd, prep: &Prepared, x: &[f64]) -> Result<(), String> {
    let v = |name: &str| -> Result<f64, String> {
        let node = prep
            .circuit
            .find_node(name)
            .ok_or_else(|| format!("no node {name}"))?;
        Ok(prep.voltage(x, node))
    };
    let (oi, oq, sum, cq) = (v("oi")?, v("oq")?, v("sum")?, v("cq")?);
    let i_rpi = oi / fe.rpi;
    let i_rsi = (oi - sum) / fe.rsi;
    let i_rpq = (cq - oq) / fe.rpq;
    let i_rsq = (oq - sum) / fe.rsq;
    let i_rl = sum / fe.rl;
    let scale = [i_rpi, i_rsi, i_rpq, i_rsq, i_rl]
        .iter()
        .fold(0.0_f64, |m, i| m.max(i.abs()));
    // Newton leaves linear rows satisfied to rounding; allow 1e-9 of
    // the branch currents plus a gmin-sized 1 pA.
    let tol = 1e-9 * scale + 1e-12;
    for (node, residual) in [
        ("oi", i_rpi + i_rsi),
        ("oq", i_rpq - i_rsq),
        ("sum", i_rsi + i_rsq - i_rl),
    ] {
        if residual.abs() > tol {
            return Err(format!(
                "KCL at {node}: residual {residual:e} A > {tol:e} A"
            ));
        }
    }
    if scale < 1e-6 {
        return Err(format!("summer carries no current ({scale:e} A)"));
    }
    Ok(())
}

/// Node voltages of a converged operating point agree with the cold
/// reference within the Newton tolerance (reltol 1e-3, vntol 1 µV).
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-3 * b.abs().max(a.abs()) + 1e-6
}

fn compare_wave(name: &str, got: &Waveform, want: &Waveform) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "tran has {} points, reference {}",
            got.len(),
            want.len()
        ));
    }
    for sig in want.signal_names() {
        if !sig.starts_with("v(") {
            continue;
        }
        let (g, w) = (
            got.signal(sig).map_err(|e| e.to_string())?,
            want.signal(sig).map_err(|e| e.to_string())?,
        );
        if let Some(k) = (0..w.len()).find(|&k| !close(g[k], w[k])) {
            return Err(format!(
                "{name} {sig} at t={:e}: {} vs reference {}",
                want.axis()[k],
                g[k],
                w[k]
            ));
        }
    }
    Ok(())
}

fn compare_ac(got: &AcWaveform, want: &AcWaveform) -> Result<(), String> {
    for sig in ["v(sum)", "v(oi)", "v(oq)"] {
        let (g, w) = (
            got.signal(sig).map_err(|e| e.to_string())?,
            want.signal(sig).map_err(|e| e.to_string())?,
        );
        if g.len() != w.len() {
            return Err(format!("ac {sig}: {} points vs {}", g.len(), w.len()));
        }
        for k in 0..w.len() {
            let d = (g[k] - w[k]).abs();
            if d > 1e-3 * w[k].abs() + 1e-9 {
                return Err(format!(
                    "ac {sig} at {:e} Hz: |{:?} - {:?}| = {d:e}",
                    want.freqs()[k],
                    g[k],
                    w[k]
                ));
            }
        }
    }
    Ok(())
}

impl Workload for Tuner {
    type Output = Vec<JobReport>;

    fn setup(seed: u64, trace: Option<&TraceHandle>) -> Result<Self, String> {
        let hot: Vec<FrontEnd> = (0..HOT_DECKS)
            .map(|k| FrontEnd::draw(&mut Rng::derive(seed, k as u64 + 1)))
            .collect();
        let hot_text: Vec<String> = hot.iter().map(FrontEnd::netlist).collect();
        let t = Tuner {
            seed,
            hot,
            hot_text,
            queue: new_queue(None),
            traced_queue: trace.map(|h| new_queue(Some(h))),
            plan: Vec::new(),
            fresh: None,
            refs: HashMap::new(),
            freqs: logspace(1e6, 10e9, 40),
            tran: TranParams::new(5e-9, 50e-12),
            layers: Layers::default(),
        };
        // Warm-up: every hot deck through every analysis, on every
        // queue, so the cache and the operating-point hints are hot.
        let warm: Vec<(DeckId, Kind)> = (0..HOT_DECKS)
            .flat_map(|k| [Kind::Op, Kind::Ac, Kind::Tran].map(|kind| (DeckId::Hot(k), kind)))
            .collect();
        for q in std::iter::once(&t.queue).chain(t.traced_queue.as_ref()) {
            let jobs = warm
                .iter()
                .map(|&(id, kind)| t.job(id, kind, None))
                .collect();
            if let Some(bad) = q.run(jobs).iter().find(|r| !r.is_ok()) {
                return Err(format!("warm-up job failed: {:?}", bad.outcome()));
            }
        }
        Ok(t)
    }

    fn prepare_checks(&mut self) -> Result<(), String> {
        for k in 0..HOT_DECKS {
            let r = self.reference(&self.hot_text[k])?;
            self.refs.insert(DeckId::Hot(k), r);
        }
        Ok(())
    }

    fn round_len(&self) -> usize {
        BATCHES_PER_ROUND
    }

    fn min_rounds(&self) -> usize {
        25
    }

    fn work_per_request(&self) -> f64 {
        JOBS_PER_BATCH as f64
    }

    fn counted_rounds(&self) -> usize {
        COUNTED_ROUNDS
    }

    fn request(
        &mut self,
        round: usize,
        i: usize,
        trace: Option<&TraceHandle>,
    ) -> Result<Vec<JobReport>, String> {
        if i == 0 {
            self.plan_round(round);
        }
        let jobs = self.plan[i]
            .iter()
            .map(|&(id, kind)| self.job(id, kind, trace))
            .collect();
        let queue = match trace {
            Some(_) => self.traced_queue.as_ref().ok_or("no traced queue")?,
            None => &self.queue,
        };
        Ok(queue.run(jobs))
    }

    fn check(&mut self, _round: usize, i: usize, out: &Vec<JobReport>) -> Result<(), String> {
        let plan = self.plan[i].clone();
        if out.len() != plan.len() {
            return Err(format!("{} reports for {} jobs", out.len(), plan.len()));
        }
        for (report, &(id, kind)) in out.iter().zip(&plan) {
            if !self.refs.contains_key(&id) {
                let r = self.reference(self.text(id))?;
                self.refs.insert(id, r);
            }
            let reference = &self.refs[&id];
            let fe = self.deck(id).ok_or("no deck")?.0;
            let result = match report.outcome() {
                Err(e) => Err(format!("job failed: {e}")),
                Ok(JobOutput::Op(op)) if op.x().len() != reference.op.len() => Err(format!(
                    "op has {} unknowns, reference {}",
                    op.x().len(),
                    reference.op.len()
                )),
                Ok(JobOutput::Op(op)) if kind == Kind::Op => check_kcl(fe, &reference.prep, op.x())
                    .and_then(|()| {
                        match (0..op.x().len()).find(|&k| !close(op.x()[k], reference.op[k])) {
                            Some(k) => Err(format!(
                                "op unknown {k}: {} vs reference {}",
                                op.x()[k],
                                reference.op[k]
                            )),
                            None => Ok(()),
                        }
                    }),
                Ok(JobOutput::Ac(w)) if kind == Kind::Ac => compare_ac(w, &reference.ac),
                Ok(JobOutput::Tran(t)) if kind == Kind::Tran => {
                    if t.is_complete() {
                        compare_wave("tran", t.wave(), &reference.tran)
                    } else {
                        Err(format!("tran stopped: {:?}", t.status()))
                    }
                }
                Ok(_) => Err("output of the wrong analysis".into()),
            };
            result.map_err(|e| format!("{:?} job on {id:?}: {e}", kind))?;
        }
        Ok(())
    }

    fn observe(&mut self, spans: &[SpanNode], _wall_s: f64, count: bool) {
        let l = &mut self.layers;
        let mut analyses = Vec::new();
        first_of(spans, &["op", "ac", "tran"], &mut analyses);
        for s in &analyses {
            match s.name.as_str() {
                "op" => {
                    l.op_s += s.wall_s;
                    l.ops += 1;
                    if count {
                        l.op_newton += s.counter("op.newton_iterations");
                        l.counted_ops += 1.0;
                    }
                }
                "ac" => {
                    l.ac_s += s.wall_s;
                    l.acs += 1;
                }
                _ => {
                    l.tran.add(s, count);
                }
            }
        }
        l.batch_s += span_seconds(spans, "serve.batch");
        if count {
            l.hits += counter_total(spans, "cache.hit");
            l.misses += counter_total(spans, "cache.miss");
            l.evictions += counter_total(spans, "cache.evict");
        }
    }

    fn layers(&mut self) -> Result<BTreeMap<&'static str, f64>, String> {
        let l = &self.layers;
        let mut m = BTreeMap::new();
        m.insert("cache.hit_ratio", l.hits / (l.hits + l.misses));
        m.insert("cache.evictions", l.evictions);
        m.insert("serve.op_share", l.op_s / l.batch_s);
        m.insert("serve.ac_share", l.ac_s / l.batch_s);
        m.insert("serve.tran_share", l.tran.wall_s / l.batch_s);
        m.insert(
            "serve.other_share",
            (l.batch_s - l.op_s - l.ac_s - l.tran.wall_s) / l.batch_s,
        );
        m.insert("op.newton_per_op", l.op_newton / l.counted_ops);
        m.insert("op.ms", l.op_s / l.ops as f64 * 1e3);
        m.insert("ac.ms", l.ac_s / l.acs as f64 * 1e3);
        l.tran.insert_metrics(&mut m);
        // Front-end layers, timed from outside on the hot decks:
        // interleaved repetitions, median per deck.
        let circuits: Vec<_> = self
            .hot_text
            .iter()
            .map(|t| parse_netlist(t).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        const ITERS: usize = 40;
        let per_deck = |f: &mut dyn FnMut()| {
            let t0 = Instant::now();
            for _ in 0..ITERS {
                f();
            }
            t0.elapsed().as_secs_f64() / (ITERS * HOT_DECKS) as f64
        };
        let (mut parse, mut key, mut off, mut deny) = (vec![], vec![], vec![], vec![]);
        for _ in 0..7 {
            parse.push(per_deck(&mut || {
                for t in &self.hot_text {
                    std::hint::black_box(parse_netlist(std::hint::black_box(t)).ok());
                }
            }));
            key.push(per_deck(&mut || {
                for c in &circuits {
                    std::hint::black_box(DeckKey::of(std::hint::black_box(c), LintPolicy::Deny));
                }
            }));
            for (policy, out) in [(LintPolicy::Off, &mut off), (LintPolicy::Deny, &mut deny)] {
                out.push(per_deck(&mut || {
                    for c in &circuits {
                        std::hint::black_box(Prepared::compile_with(c, policy).ok());
                    }
                }));
            }
        }
        m.insert("parse.us_per_deck", median(&parse) * 1e6);
        m.insert("cache.key_us", median(&key) * 1e6);
        m.insert("compile.ms_per_deck", median(&off) * 1e3);
        m.insert("lint.us_per_deck", (median(&deny) - median(&off)) * 1e6);
        Ok(m)
    }
}
