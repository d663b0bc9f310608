//! `perfbench`: the repository benchmark. It drives the public API of the
//! two deployable stacks — `ReplicatedLayeredMap` (subject `replicated`,
//! see `kv.rs`) and `BlockedSkipMap` (subject `blocked`, see `ingest.rs`) —
//! from two closed-loop client threads: each client issues its next call
//! only when the previous one returned.
//!
//! ```text
//! perfbench --workload <kv_read_mostly|ingest_scan>
//!           --seed <u64> --seconds <s> --trace <0|1> [--trace-out <csv>]
//! ```
//!
//! One run makes several fresh set-ups (build, preload, warm-up) of the
//! subject, each followed by one phase:
//!
//! * untraced timed phases share `--seconds` and give every timing metric,
//!   each the median over the set-ups (a latency percentile is taken per
//!   set-up from its raw per-call durations);
//! * one model phase, with recording contexts, in which the clients
//!   alternate single calls from preload to end: its shared-node line
//!   counts do not depend on the scheduler and give the NUMA-modeled
//!   `numa_cost_per_op` (a remote line costs 5 local ones; the counts need
//!   no NUMA hardware), and the footprint at its end gives `bytes_per_key`;
//! * with `--trace 1`, every timed phase but the first uses recording
//!   contexts and keeps call spans, and the run reports per-layer metrics
//!   from the program's public counters plus the tracing overhead.
//!
//! After every phase the run checks the outputs (see each workload) and
//! counts failed operations. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.

mod gen;
mod harness;
mod ingest;
mod kv;
mod report;

use harness::Mode;
use report::SubRun;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const WORKLOADS: [&str; 2] = ["kv_read_mostly", "ingest_scan"];
/// Timed set-ups per run; every timing metric is a median over the
/// untraced ones.
const TIMED_SUBRUNS: usize = 8;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == val)
                        .ok_or_else(|| format!("unknown workload {val:?}"))?,
                )
            }
            "--seed" => seed = Some(val.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(val)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let clock = harness::Clock::calibrate();
    let stamp_ns = clock.stamp_ns();
    // A traced run keeps its first set-up untraced: it gives the baseline
    // of the tracing overhead and the set-up decomposition.
    let mut plan: Vec<Mode> = (0..TIMED_SUBRUNS)
        .map(|i| Mode::Timed {
            traced: args.trace && i > 0,
        })
        .collect();
    plan.push(Mode::Model);
    let window = Duration::from_secs_f64(args.seconds / TIMED_SUBRUNS as f64);
    let kv_inputs = (args.workload == "kv_read_mostly").then(kv::Inputs::new);
    let runs: Vec<SubRun> = plan
        .iter()
        .enumerate()
        .map(|(i, &mode)| match &kv_inputs {
            Some(inp) => kv::sub_run(inp, args.seed, i as u64, mode, window, clock),
            None => ingest::sub_run(args.seed, i as u64, mode, window, clock),
        })
        .collect();
    let out = report::outcome(&runs, args.trace, &clock, stamp_ns);
    println!(
        "perfbench {} seed {} seconds {} trace {}: attempted {} failed {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.attempted,
        out.failed
    );
    for n in &out.notes {
        println!("  {n}");
    }
    for mt in &out.metrics {
        println!("  {:<36} {:>16.4} {}", mt.name, mt.value, mt.unit);
    }
    if let (true, Some(path)) = (args.trace, &args.trace_out) {
        match report::write_spans(path, &runs, &clock) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing spans to {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", report::json(&out));
    ExitCode::SUCCESS
}
