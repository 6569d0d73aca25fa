//! The threadcmp benchmark. Run it through `run.py`, which builds the
//! program and this package first:
//!
//! ```text
//! python3 perfbench/run.py --workload loops --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `loops` and `tasks` (closed loop, one caller, the paper's
//! kernels under every model), `serve` (open loop against `tpm-harness
//! serve`) and `simulate` (closed loop, the simulated figures and the
//! whole-service simulator). `--trace 0` prints the end-to-end metrics of
//! the named workload; `--trace 1` runs the per-layer ladder and every
//! workload with spans and counters, and prints the per-layer metrics. The
//! last line of standard output is the result object.

mod check;
mod closed;
mod ladder;
mod report;
mod serve;
mod simulate;
mod stats;
mod sys;

use std::path::PathBuf;
use std::time::Instant;

use report::{Better, Report};

/// Input sizes: the measured configuration, or a quick one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Small inputs that exercise every path in about a second.
    Smoke,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    scale: Scale,
}

const USAGE: &str = "usage: perfbench --workload <loops|tasks|serve|simulate> --seed <n> \
     --seconds <s> --trace <0|1> --server-bin <path to tpm-harness> [--smoke]";

/// Rounds per end-to-end run. Each round sets the workload up afresh (a new
/// executor, or a new server) and measures for a share of the seconds; the
/// end-to-end metrics are medians over rounds.
pub const ROUNDS: usize = 5;

const WORKLOADS: [&str; 4] = ["loops", "tasks", "serve", "simulate"];

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut server_bin) =
        (None, None, None, None, None);
    let mut scale = Scale::Full;
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            scale = Scale::Smoke;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        server_bin: server_bin.ok_or("--server-bin is required")?,
        scale,
    })
}

fn main() {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "[perfbench] workload {} seed {} seconds {} trace {} on {} core(s)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::nproc()
    );
    let mut report = Report::default();
    let result = if args.trace {
        traced(&args, &mut report)
    } else {
        untraced(&args, start, &mut report)
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    report.print();
}

/// The end-to-end run of one workload.
fn untraced(a: &Args, start: Instant, report: &mut Report) -> Result<(), String> {
    match a.workload.as_str() {
        "loops" => closed::run(
            closed::loops_items,
            a.seed,
            a.scale,
            start,
            a.seconds,
            report,
        ),
        "tasks" => closed::run(
            closed::tasks_items,
            a.seed,
            a.scale,
            start,
            a.seconds,
            report,
        ),
        "simulate" => simulate::run(a.seed, a.scale, start, a.seconds, report),
        "serve" => serve::run(&a.server_bin, a.seed, start, a.seconds, a.scale, report)?,
        _ => unreachable!("workload names are checked when parsed"),
    }
    Ok(())
}

/// The traced run: the primitive and empty-region ladder, then every
/// workload, each for a quarter of the seconds (half untraced, half traced,
/// so the tracing overhead is measured in the same process).
fn traced(a: &Args, report: &mut Report) -> Result<(), String> {
    let part = a.seconds / 4.0;
    ladder::run(a.scale, report);
    for (name, make) in [
        ("loops", closed::loops_items as closed::MakeItems),
        ("tasks", closed::tasks_items),
    ] {
        let mut ready = closed::prepare(make, a.seed, a.scale);
        let plain = closed::passes(&mut ready, part / 2.0, false, report);
        let traced = closed::passes(&mut ready, part / 2.0, true, report);
        closed::report_layers(&traced, name, ready.threads(), report);
        if name == "loops" {
            closed::report_kernels(&ready, report);
        }
        report.put(
            format!("trace_overhead_ratio.{name}"),
            traced.itemwise(0.25) / plain.itemwise(0.25),
            "ratio",
            Better::Lower,
        );
    }
    let ready = simulate::prepare(a.seed, a.scale);
    let plain = simulate::measure(&ready, part / 2.0, false, report);
    let traced = simulate::measure(&ready, part / 2.0, true, report);
    report.put(
        "trace_overhead_ratio.simulate",
        traced.itemwise(0.25) / plain.itemwise(0.25),
        "ratio",
        Better::Lower,
    );
    let ready = serve::prepare(&a.server_bin, a.seed)?;
    serve::measure_traced(ready, part, a.scale, report)
}
