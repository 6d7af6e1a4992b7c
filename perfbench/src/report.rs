//! The run's result: named metrics with units, operation and check counts,
//! and the final JSON line.

use std::fmt::Write as _;

#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted: builds, requests, delta batches and standalone
    /// output checks.
    pub attempted: u64,
    /// Attempted operations that failed, were refused, returned an
    /// unexpected typed error or failed their output check.
    pub failed: u64,
    problems: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Counts one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.tally(1, u64::from(!ok), why);
    }

    /// Counts `attempted` operations of which `failed` failed for `why`.
    pub fn tally(&mut self, attempted: u64, failed: u64, why: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.problems.len() < 20 {
            self.problems.push(why());
        }
    }

    pub fn ok_share(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }

    /// Prints every metric with its unit, the problems found, and last the
    /// one-line JSON result.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("  {name:<28} {value:>16.6} {unit}");
        }
        for problem in &self.problems {
            eprintln!("perfbench: check failed: {problem}");
        }
        let mut json = String::new();
        write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
        .expect("writing to a String");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String");
        }
        json.push_str("}}");
        println!("{json}");
    }
}
