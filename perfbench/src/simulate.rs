//! The `simulate` workload: one thread runs every simulated figure with its
//! claim checks, then a block of whole-service simulation seeds, per pass.

use std::time::Instant;

use tpm_core::JobRegistry;
use tpm_desim::DesimConfig;
use tpm_harness::experiments::{all_figures, check_claims};

use crate::closed::Passes;
use crate::report::{Better, Report};
use crate::{sys, Scale, ROUNDS};

/// Simulated seeds per pass.
fn block(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 50,
        Scale::Smoke => 4,
    }
}

/// Totals of one pass.
#[derive(Default, Clone, Copy)]
struct Pass {
    figures_s: f64,
    desim_s: f64,
    virtual_ns: u64,
    faults: u64,
}

/// A ready workload: the job registry the simulated service runs.
pub struct Ready {
    registry: JobRegistry,
    seeds: std::ops::Range<u64>,
}

fn one_pass(r: &Ready, report: Option<&mut Report>) -> Pass {
    let mut p = Pass::default();
    let t = Instant::now();
    let figures = all_figures();
    let claims: Vec<Vec<String>> = figures
        .iter()
        .enumerate()
        .map(|(i, f)| check_claims(i + 1, f))
        .collect();
    p.figures_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let runs: Vec<_> = r
        .seeds
        .clone()
        .map(|seed| {
            let cfg = DesimConfig {
                seed,
                ..DesimConfig::default()
            };
            tpm_desim::run(&cfg, &r.registry)
        })
        .collect();
    p.desim_s = t.elapsed().as_secs_f64();
    if let Some(report) = report {
        for (i, violations) in claims.iter().enumerate() {
            let outcome = if violations.is_empty() {
                Ok(())
            } else {
                Err(violations.join("; "))
            };
            report.check(&format!("claims of Fig.{}", i + 1), outcome);
        }
        for run in &runs {
            let outcome = if run.failed() {
                Err(run.render_failure())
            } else {
                Ok(())
            };
            report.check(&format!("desim seed {}", run.seed), outcome);
        }
    }
    for run in &runs {
        p.virtual_ns += run.virtual_ns;
        p.faults += run.stats.faults_fired;
    }
    p
}

/// Builds the job registry and runs one unchecked warm-up pass.
pub fn prepare(seed: u64, scale: Scale) -> Ready {
    let base = seed.wrapping_mul(1000);
    let r = Ready {
        registry: tpm_harness::jobs::registry(),
        seeds: base..base + block(scale),
    };
    one_pass(&r, None);
    r
}

/// The end-to-end run: [`ROUNDS`] rounds, each a fresh set-up (timed, the
/// first from `start`) followed by `seconds / ROUNDS` of passes.
pub fn run(seed: u64, scale: Scale, start: Instant, seconds: f64, report: &mut Report) {
    let mut setup = Vec::new();
    let mut rounds = Vec::new();
    let mut per_pass = 0.0;
    for i in 0..ROUNDS {
        let t = if i == 0 { start } else { Instant::now() };
        let r = prepare(seed, scale);
        setup.push(t.elapsed().as_secs_f64());
        per_pass = r.ops_per_pass();
        rounds.push(measure(&r, seconds / ROUNDS as f64, false, report));
    }
    crate::closed::report_e2e(&setup, &rounds, per_pass, report);
}

/// Runs passes for `seconds` (at least one), checking every claim and
/// simulated seed; with `traced`, records the per-layer metrics. Returns
/// the passes, with the figures and the seed block as the two items.
pub fn measure(r: &Ready, seconds: f64, traced: bool, report: &mut Report) -> Passes {
    let cpu0 = sys::cpu_time("self");
    let mut passes: Vec<Pass> = Vec::new();
    let wall = Instant::now();
    while passes.is_empty() || wall.elapsed().as_secs_f64() < seconds {
        passes.push(one_pass(r, Some(report)));
    }
    let cpu_s = match (cpu0, sys::cpu_time("self")) {
        (Ok(a), Ok(b)) => (b - a).as_secs_f64(),
        _ => f64::NAN,
    };
    let times: Vec<f64> = passes.iter().map(|p| p.figures_s + p.desim_s).collect();
    if traced {
        let n = passes.len() as f64;
        let sum = |f: fn(&Pass) -> f64| passes.iter().map(f).sum::<f64>();
        report.put(
            "sim.figures_s",
            sum(|p| p.figures_s) / n,
            "s",
            Better::Lower,
        );
        report.put("desim.s", sum(|p| p.desim_s) / n, "s", Better::Lower);
        report.put(
            "desim.virtual_per_wall",
            sum(|p| p.virtual_ns as f64) / 1e9 / sum(|p| p.desim_s),
            "ratio",
            Better::Higher,
        );
        report.put(
            "desim.faults",
            sum(|p| p.faults as f64) / n,
            "count",
            Better::Higher,
        );
    }
    Passes {
        times,
        calls: vec![
            passes.iter().map(|p| p.figures_s).collect(),
            passes.iter().map(|p| p.desim_s).collect(),
        ],
        cpu_s,
        layers: None,
    }
}

impl Ready {
    /// Checked operations per pass: ten figures' claims and the seed block.
    pub fn ops_per_pass(&self) -> f64 {
        10.0 + self.seeds.clone().count() as f64
    }
}
