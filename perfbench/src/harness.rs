//! Workload-independent machinery: seeded input generation, the
//! closed-loop runner, percentile rules, span trees read back from the
//! trace, and the one-line JSON result.

use ahfic_spice::analysis::Options;
use ahfic_trace::{InMemorySink, RecordKind, TraceHandle, TraceRecord};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups made per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// CPU time consumed so far by every thread of this process, in
/// seconds (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// Requests are timed in CPU time. Every workload runs one client and
/// one worker on compute-bound requests, so on a dedicated machine this
/// equals wall time; on a shared virtual machine the wall clock also
/// counts the time the vCPU was descheduled, which moved wall-time
/// throughput by up to 40% between runs while CPU time held within a
/// few percent.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::os::raw::c_long,
        tv_nsec: std::os::raw::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two C longs
    // on Linux) that outlives the call, and the clock id is a constant
    // the kernel supports; clock_gettime writes only through `tp`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU and wall seconds of one timed region.
#[derive(Clone, Copy, Debug)]
pub struct Lap {
    pub cpu: f64,
    pub wall: f64,
}

impl Lap {
    fn time<T>(f: impl FnOnce() -> T) -> (T, Lap) {
        let (c0, w0) = (cpu_seconds(), Instant::now());
        let out = f();
        let wall = w0.elapsed().as_secs_f64();
        (
            out,
            Lap {
                cpu: cpu_seconds() - c0,
                wall,
            },
        )
    }
}

/// SplitMix64: the benchmark's input generator. Every input a workload
/// hands the program is drawn from one of these, seeded from `--seed`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, salt)`.
    pub fn derive(seed: u64, salt: u64) -> Self {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xd134_2543_de82_ef95));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One workload: set-up, the requests of one round, their checks, and
/// the per-layer figures read from traced requests.
///
/// A run attempts whole rounds only, so the share of failed requests
/// cannot depend on how long the run lasted.
pub trait Workload: Sized {
    /// What one request returns; checked after its timing stops.
    type Output;

    /// Generates the inputs from `seed` and warms every layer up
    /// (compiles, model generation, warm-up requests). Timed as set-up.
    /// `trace` is the handle traced requests will get, if any.
    fn setup(seed: u64, trace: Option<&TraceHandle>) -> Result<Self, String>;

    /// Computes the independent references the checks compare against.
    /// Not part of set-up time.
    fn prepare_checks(&mut self) -> Result<(), String>;

    /// Requests per round.
    fn round_len(&self) -> usize;

    /// Work units one request performs (the unit of `throughput`).
    fn work_per_request(&self) -> f64;

    /// Traced rounds, from the first, whose work counts are reported.
    fn counted_rounds(&self) -> usize {
        1
    }

    /// Rounds an untraced run makes at least, however short `--seconds`.
    /// The latency tail is the percentile this many requests can
    /// report, so which percentile a workload reports never depends on
    /// the speed of the machine.
    fn min_rounds(&self) -> usize {
        1
    }

    /// Request `i` of round `round`. Errors are failed requests.
    fn request(
        &mut self,
        round: usize,
        i: usize,
        trace: Option<&TraceHandle>,
    ) -> Result<Self::Output, String>;

    /// Checks one request's output against the independent reference.
    fn check(&mut self, round: usize, i: usize, out: &Self::Output) -> Result<(), String>;

    /// Checks that span a round (orderings); `outs` holds the round's
    /// outputs, `None` where a request failed.
    fn check_round(&mut self, _outs: &[Option<Self::Output>]) -> Result<(), String> {
        Ok(())
    }

    /// Checks that span the whole run (pooled statistics).
    fn check_run(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Folds one traced request into the layer accumulators. `count`
    /// is set for the requests of the first `counted_rounds` traced
    /// rounds only, so the exact work counts never depend on the run
    /// length.
    fn observe(&mut self, spans: &[SpanNode], wall_s: f64, count: bool);

    /// Per-layer metrics after the traced run (layer probes timed from
    /// outside the program run here).
    fn layers(&mut self) -> Result<BTreeMap<&'static str, f64>, String>;
}

/// A closed span with its own counters and nested spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanNode {
    pub name: String,
    pub wall_s: f64,
    /// Counters recorded directly inside this span, summed by name.
    pub counters: BTreeMap<String, f64>,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// A counter of this span, or 0.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// A counter summed over this span and every span inside it.
    pub fn total(&self, name: &str) -> f64 {
        self.counter(name) + self.children.iter().map(|c| c.total(name)).sum::<f64>()
    }
}

/// Rebuilds the span tree of a record stream written by one thread, so
/// spans nest last-in-first-out. Counters outside every span are kept
/// on a synthetic root, which is returned as the last element.
pub fn span_forest(records: &[TraceRecord]) -> Vec<SpanNode> {
    let mut stack = vec![SpanNode::default()];
    for r in records {
        match r.kind {
            RecordKind::SpanStart => stack.push(SpanNode {
                name: r.name.clone(),
                ..SpanNode::default()
            }),
            RecordKind::SpanEnd => {
                if stack.len() > 1 {
                    let mut done = stack.pop().unwrap_or_default();
                    done.wall_s = r.value;
                    if let Some(parent) = stack.last_mut() {
                        parent.children.push(done);
                    }
                }
            }
            RecordKind::Counter => {
                if let Some(top) = stack.last_mut() {
                    *top.counters.entry(r.name.clone()).or_insert(0.0) += r.value;
                }
            }
            RecordKind::Event => {}
        }
    }
    let mut root = stack.swap_remove(0);
    let mut out = std::mem::take(&mut root.children);
    out.push(root);
    out
}

/// Every span named in `names` that is not inside another such span
/// (depth-first, in order).
pub fn first_of<'a>(spans: &'a [SpanNode], names: &[&str], out: &mut Vec<&'a SpanNode>) {
    for s in spans {
        if names.contains(&s.name.as_str()) {
            out.push(s);
        } else {
            first_of(&s.children, names, out);
        }
    }
}

/// Total wall time of the outermost spans named `name`.
pub fn span_seconds(spans: &[SpanNode], name: &str) -> f64 {
    let mut v = Vec::new();
    first_of(spans, &[name], &mut v);
    v.iter().map(|s| s.wall_s).sum()
}

/// The `analysis::tran` layer, accumulated over the `tran` spans of
/// traced requests: time over every call, exact counts and the factor
/// and solve shares over the counted rounds.
#[derive(Default)]
pub struct TranLayer {
    pub wall_s: f64,
    calls: f64,
    accepted: f64,
    rejected: f64,
    newton: f64,
    factorizations: f64,
    factor_s: f64,
    solve_s: f64,
    counted_wall_s: f64,
    counted_calls: f64,
}

impl TranLayer {
    pub fn add(&mut self, s: &SpanNode, count: bool) {
        self.wall_s += s.wall_s;
        self.calls += 1.0;
        if count {
            self.accepted += s.counter("tran.accepted_steps");
            self.rejected += s.counter("tran.rejected_steps");
            self.newton += s.counter("tran.newton_iterations");
            self.factorizations += s.counter("tran.factorizations");
            self.factor_s += s.counter("tran.factor_seconds");
            self.solve_s += s.counter("tran.solve_seconds");
            self.counted_wall_s += s.wall_s;
            self.counted_calls += 1.0;
        }
    }

    /// `tran.*` per call.
    pub fn insert_metrics(&self, m: &mut BTreeMap<&'static str, f64>) {
        let n = self.counted_calls;
        m.insert("tran.ms", self.wall_s / self.calls * 1e3);
        m.insert("tran.accepted_steps", self.accepted / n);
        m.insert("tran.rejected_steps", self.rejected / n);
        m.insert(
            "tran.newton_per_step",
            self.newton / (self.accepted + self.rejected),
        );
        m.insert("tran.factorizations", self.factorizations / n);
        let w = self.counted_wall_s;
        m.insert("tran.factor_share", self.factor_s / w);
        m.insert("tran.solve_share", self.solve_s / w);
        m.insert("tran.other_share", (w - self.factor_s - self.solve_s) / w);
    }
}

/// Sum of a counter over every span.
pub fn counter_total(spans: &[SpanNode], name: &str) -> f64 {
    spans.iter().map(|s| s.total(name)).sum()
}

/// Analysis options of every request: one thread, and the trace handle
/// of a traced request.
pub fn options(trace: Option<&TraceHandle>) -> Options {
    let o = Options::new().threads(1);
    match trace {
        Some(t) => o.trace_handle(t.clone()),
        None => o,
    }
}

/// An in-memory sink and the handle that writes to it.
pub fn memory_trace() -> (Arc<InMemorySink>, TraceHandle) {
    let sink = Arc::new(InMemorySink::new());
    let handle = TraceHandle::new(&sink);
    (sink, handle)
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile `q` of sorted samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    sorted[idx]
}

/// The highest percentile up to `wanted` that a run of `n` samples can
/// report: one with at least ten samples beyond it, and the median alone
/// below forty samples.
pub fn reportable_quantile(n: usize, wanted: f64) -> f64 {
    if n < 40 {
        return 0.5;
    }
    for q in [0.99, 0.95, 0.9, 0.75] {
        if q > wanted {
            continue;
        }
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        if n - (idx + 1) >= 10 {
            return q;
        }
    }
    0.5
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unreadable VmHWM")?;
    Ok(kib / 1024.0)
}

/// A metric as the result line prints it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn metric(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[Metric] = &[
    metric("throughput", "work/s"),
    metric("latency_p90_ms", "ms"),
    metric("setup_s", "s"),
    metric("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not reach reads 0.
pub const PER_LAYER: &[Metric] = &[
    metric("parse.us_per_deck", "us"),
    metric("cache.key_us", "us"),
    metric("cache.hit_ratio", "ratio"),
    metric("cache.evictions", "count"),
    metric("compile.ms_per_deck", "ms"),
    metric("lint.us_per_deck", "us"),
    metric("serve.op_share", "share"),
    metric("serve.ac_share", "share"),
    metric("serve.tran_share", "share"),
    metric("serve.other_share", "share"),
    metric("op.newton_per_op", "count"),
    metric("op.ms", "ms"),
    metric("ac.ms", "ms"),
    metric("tran.ms", "ms"),
    metric("tran.accepted_steps", "count"),
    metric("tran.rejected_steps", "count"),
    metric("tran.newton_per_step", "count"),
    metric("tran.factorizations", "count"),
    metric("tran.factor_share", "share"),
    metric("tran.solve_share", "share"),
    metric("tran.other_share", "share"),
    metric("geom.generate_us", "us"),
    metric("osc.measure_ms", "ms"),
    metric("ring.tran_share", "share"),
    metric("ring.other_share", "share"),
    metric("op_batch.lane_ratio", "ratio"),
    metric("yield_mc.op_share", "share"),
    metric("yield_mc.ac_share", "share"),
    metric("yield_mc.other_share", "share"),
    metric("pss.solves", "count"),
    metric("pss.shooting_iterations", "count"),
    metric("pss.gmres_iterations", "count"),
    metric("pss.newton_iterations", "count"),
    metric("pac.ms", "ms"),
    metric("pac.pss_share", "share"),
    metric("mixer.pac_share", "share"),
    metric("mixer.other_share", "share"),
    metric("trace.overhead_pct", "%"),
];

/// The outcome of one run, printed as the last line of stdout.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl RunResult {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Tallies of attempted and failed requests, with the first failures
/// kept for the log.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }
}

/// Runs one round; returns the latency of every request.
fn run_round<W: Workload>(
    w: &mut W,
    round: usize,
    trace: Option<&(Arc<InMemorySink>, TraceHandle)>,
    count: bool,
    tally: &mut Tally,
) -> Vec<Lap> {
    let n = w.round_len();
    let mut lat = Vec::with_capacity(n);
    let mut outs: Vec<Option<W::Output>> = Vec::with_capacity(n);
    for i in 0..n {
        tally.attempted += 1;
        if let Some((sink, _)) = trace {
            sink.take();
        }
        let (out, lap) = Lap::time(|| w.request(round, i, trace.map(|t| &t.1)));
        lat.push(lap);
        if let Some((sink, _)) = trace {
            // Spans are wall-clock, so layer shares are of wall time.
            w.observe(&span_forest(&sink.take()), lap.wall, count);
        }
        match out {
            Ok(o) => match w.check(round, i, &o) {
                Ok(()) => outs.push(Some(o)),
                Err(e) => {
                    tally.fail(format!("round {round} request {i}: {e}"));
                    outs.push(None);
                }
            },
            Err(e) => {
                tally.fail(format!("round {round} request {i}: {e}"));
                outs.push(None);
            }
        }
    }
    if outs.iter().all(Option::is_some) {
        if let Err(e) = w.check_round(&outs) {
            // A round-level check speaks for every request of the round.
            for i in 0..n {
                tally.fail(format!("round {round} request {i}: {e}"));
            }
        }
    }
    lat
}

/// Runs a workload for `seconds` and returns its result line.
pub fn drive<W: Workload>(seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    let trace = traced.then(memory_trace);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut w = None;
    for _ in 0..SETUP_REPEATS {
        drop(w.take());
        let (built, lap) = Lap::time(|| W::setup(seed, trace.as_ref().map(|t| &t.1)));
        setups.push(lap.cpu);
        w = Some(built?);
    }
    let mut w = w.ok_or("no set-up ran")?;
    w.prepare_checks()?;
    let work = w.work_per_request();
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut metrics = Vec::new();
    if let Some(trace) = &trace {
        // Traced and untraced rounds alternate, so drift hits both and
        // their ratio is the tracing overhead.
        let counted = w.counted_rounds();
        let (mut t_on, mut n_on, mut t_off, mut n_off) = (0.0, 0usize, 0.0, 0usize);
        let mut round = 0;
        while round < 2 * counted || start.elapsed().as_secs_f64() < seconds {
            let on = round % 2 == 0;
            let lat = run_round(
                &mut w,
                round,
                on.then_some(trace),
                round / 2 < counted,
                &mut tally,
            );
            let (t, n) = if on {
                (&mut t_on, &mut n_on)
            } else {
                (&mut t_off, &mut n_off)
            };
            *t += lat.iter().map(|l| l.cpu).sum::<f64>();
            *n += lat.len();
            round += 1;
        }
        let mut layers = w.layers()?;
        let overhead = ((t_on / n_on as f64) / (t_off / n_off as f64) - 1.0) * 100.0;
        layers.insert("trace.overhead_pct", overhead);
        for m in PER_LAYER {
            metrics.push((m.name, m.unit, layers.get(m.name).copied().unwrap_or(0.0)));
        }
        if let Some(extra) = layers
            .keys()
            .find(|k| !PER_LAYER.iter().any(|m| m.name == **k))
        {
            return Err(format!("layer metric {extra} is not declared"));
        }
    } else {
        let mut lat = Vec::new();
        let mut rounds = Vec::new();
        let min_rounds = w.min_rounds().max(1);
        while rounds.len() < min_rounds || start.elapsed().as_secs_f64() < seconds {
            let laps = run_round(&mut w, rounds.len(), None, false, &mut tally);
            rounds.push(laps.iter().map(|l| l.cpu).sum::<f64>());
            lat.extend(laps);
        }
        let busy: f64 = lat.iter().map(|l| l.cpu).sum();
        let busy_wall: f64 = lat.iter().map(|l| l.wall).sum();
        let mut lat: Vec<f64> = lat.iter().map(|l| l.cpu).collect();
        lat.sort_by(f64::total_cmp);
        rounds.sort_by(f64::total_cmp);
        let per_round = work * w.round_len() as f64;
        let q = reportable_quantile(min_rounds * w.round_len(), 0.9);
        eprintln!(
            "{} requests in {} rounds; latency_p90_ms reports the p{:.0}; \
             mean throughput {:.6} work/s in CPU time, {:.6} work/s in wall time; \
             median latency {:.6} ms in CPU time",
            lat.len(),
            rounds.len(),
            q * 100.0,
            work * lat.len() as f64 / busy,
            work * lat.len() as f64 / busy_wall,
            percentile(&lat, 0.5) * 1e3,
        );
        let values = [
            per_round / percentile(&rounds, 0.9),
            percentile(&lat, q) * 1e3,
            median(&setups),
            peak_rss_mib()?,
        ];
        for (m, v) in END_TO_END.iter().zip(values) {
            metrics.push((m.name, m.unit, v));
        }
    }
    let mut correct = true;
    if let Err(e) = w.check_run() {
        eprintln!("run-level check failed: {e}");
        correct = false;
    }
    for note in &tally.notes {
        eprintln!("failed: {note}");
    }
    for (name, _, v) in &mut metrics {
        if !v.is_finite() {
            eprintln!("metric {name} is not finite");
            *v = 0.0;
            correct = false;
        }
    }
    Ok(RunResult {
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        assert_eq!(reportable_quantile(39, 0.9), 0.5);
        assert_eq!(reportable_quantile(40, 0.9), 0.75);
        assert_eq!(reportable_quantile(99, 0.9), 0.75);
        assert_eq!(reportable_quantile(100, 0.9), 0.9);
        assert_eq!(reportable_quantile(5000, 0.9), 0.9);
        assert_eq!(reportable_quantile(1, 0.9), 0.5);
        // The rule itself: every reported quantile has >= 10 samples
        // beyond its nearest rank.
        for n in 40..400 {
            let q = reportable_quantile(n, 0.9);
            let idx = ((q * n as f64).ceil() as usize) - 1;
            assert!(n - idx > 10, "n={n} q={q}");
        }
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn span_forest_nests_lifo() {
        use RecordKind::*;
        let rec = |k, n: &str, v| TraceRecord::new(k, n, v);
        let recs = vec![
            rec(SpanStart, "a", 0.0),
            rec(Counter, "x", 1.0),
            rec(SpanStart, "b", 0.0),
            rec(Counter, "x", 2.0),
            rec(SpanEnd, "b", 0.5),
            rec(SpanEnd, "a", 2.0),
            rec(Counter, "loose", 3.0),
        ];
        let f = span_forest(&recs);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].name, "a");
        assert_eq!(f[0].wall_s, 2.0);
        assert_eq!(f[0].counter("x"), 1.0);
        assert_eq!(f[0].total("x"), 3.0);
        assert_eq!(f[0].children[0].wall_s, 0.5);
        assert_eq!(f[1].counter("loose"), 3.0);
        assert_eq!(span_seconds(&f, "b"), 0.5);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::derive(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::derive(7, 1).next_u64(), Rng::derive(7, 2).next_u64());
        let mut v: Vec<usize> = (0..10).collect();
        Rng::derive(3, 0).shuffle(&mut v);
        let mut s = v.clone();
        s.sort();
        assert_eq!(s, (0..10).collect::<Vec<_>>());
    }

    /// BENCHMARK.json declares exactly the workloads and metrics this
    /// program prints.
    #[test]
    fn benchmark_json_matches_the_program() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = |m: &Metric| format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(json.contains(&declared(m)), "{} not declared", m.name);
        }
        for w in crate::WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{w}\"")),
                "{w} not declared"
            );
        }
        let names = json.matches("\"name\":").count();
        assert_eq!(
            names,
            END_TO_END.len() + PER_LAYER.len() + crate::WORKLOADS.len()
        );
    }

    #[test]
    fn result_line_is_json() {
        let r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("throughput", "work/s", 1.5)],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"throughput\": {\"value\": 1.5, \"unit\": \"work/s\"}}}"
        );
    }
}
