//! The AHFIC benchmark: one workload per process, closed loop, one
//! client, one worker thread.
//!
//! ```text
//! ahfic-perfbench --workload <tuner_serve|ring_tran|yield_batch|mixer_irr>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) prints the per-layer metrics. The last line of
//! standard output is the JSON result; progress and check failures go
//! to standard error.

mod analytic;
mod harness;
mod mixer;
mod ring;
mod tuner;
mod yield_batch;

use harness::{drive, RunResult};

pub const WORKLOADS: [&str; 4] = ["tuner_serve", "ring_tran", "yield_batch", "mixer_irr"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(a: &Args) -> Result<RunResult, String> {
    let (seed, s, t) = (a.seed, a.seconds, a.trace);
    match a.workload.as_str() {
        "tuner_serve" => drive::<tuner::Tuner>(seed, s, t),
        "ring_tran" => drive::<ring::Ring>(seed, s, t),
        "yield_batch" => drive::<yield_batch::YieldBatch>(seed, s, t),
        "mixer_irr" => drive::<mixer::Mixer>(seed, s, t),
        w => Err(format!("unknown workload {w}")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "workload {} seed {} seconds {} trace {}; simd {:?}; {} cpus",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        ahfic_num::simd::simd_level(),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    match run(&args) {
        Ok(r) => println!("{}", r.to_json()),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
