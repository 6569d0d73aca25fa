//! The run's result: operation counts, metrics, and the output format.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, CPU, memory).
    Lower,
    /// Larger is better (rates, ratios of useful work).
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    better: Better,
    /// Printed for the reader but kept out of the result object.
    note_only: bool,
}

/// Operations attempted and failed, plus the metrics of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations whose result was checked (kernel calls, requests, claim
    /// checks, simulated seeds, conservation checks).
    pub attempted: u64,
    /// Checked operations that failed: wrong results, error replies,
    /// refusals, timeouts, invariant violations, claim-check failures.
    pub failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    /// Records a metric that goes into the result object.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, better: Better) {
        self.push(name.into(), value, unit, better, false);
    }

    /// Records a figure that is printed for the reader only.
    pub fn note(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        better: Better,
    ) {
        self.push(name.into(), value, unit, better, true);
    }

    fn push(
        &mut self,
        name: String,
        value: f64,
        unit: &'static str,
        better: Better,
        note_only: bool,
    ) {
        debug_assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} recorded twice"
        );
        self.metrics.push(Metric {
            name,
            value,
            unit,
            better,
            note_only,
        });
    }

    /// Counts one checked operation; `Err` counts it as failed and says why.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("[check] FAILED {what}: {e}");
        }
    }

    /// Prints every metric by name, unit and direction, then the result
    /// object as the last line of standard output.
    pub fn print(&self) {
        let fail_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        for m in &self.metrics {
            println!(
                "{:<40} {:>14.6} {:<6} ({} is better)",
                m.name,
                m.value,
                m.unit,
                m.better.name()
            );
        }
        println!(
            "{:<40} {:>14.6} {:<6} (lower is better; {} of {} operations)",
            "fail_ratio", fail_ratio, "ratio", self.failed, self.attempted
        );
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let body: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.note_only)
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0 && finite,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}
