//! Shared infrastructure for the paper-claims table and the perf scenarios.
//!
//! The [`paper`] module computes the paper's checkable claims (iteration
//! counts, size bounds, approximation ratios, LOCAL rounds and messages) as
//! rows of one checked table. The `exp_paper` binary prints it as an aligned
//! [`Table`] and writes the same rows as CSV under `target/experiments/`;
//! `tests/paper_claims.rs` asserts every row and pins the table's digest.
//! Where a row runs a substitute for a construction the paper cites, the
//! README's *Substitutions* section names it.
//!
//! The [`scenarios`] module is the structured counterpart: a seeded, named
//! perf-scenario suite whose `bench_runner` binary emits machine-readable
//! `BENCH.json` results and gates CI against a checked-in baseline.

pub mod paper;
pub mod scenarios;

use std::fmt::Display;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// A simple results table: named columns, rows of values, aligned text
/// output plus CSV export.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given name and column headers.
    pub fn new(name: &str, columns: &[&str]) -> Self {
        Table {
            name: name.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; the number of cells must match the number of columns.
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row has {} cells but the table has {} columns",
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
    }

    /// Convenience for building a row out of displayable values.
    pub fn row<D: Display>(&mut self, cells: &[D]) {
        self.add_row(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.name));
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(header.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout and writes it as CSV under
    /// `target/experiments/<name>.csv`.
    pub fn print_and_save(&self) {
        println!("{}", self.render());
        if let Err(e) = self.save_csv() {
            eprintln!("warning: could not save CSV for {}: {e}", self.name);
        }
    }

    /// Writes the table as CSV and returns the path.
    pub fn save_csv(&self) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from("target/experiments");
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        let mut file = fs::File::create(&path)?;
        writeln!(file, "{}", self.columns.join(","))?;
        for row in &self.rows {
            writeln!(file, "{}", row.join(","))?;
        }
        Ok(path)
    }
}

/// Formats a float with a fixed number of decimals.
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Parses a `--seed <N>` (or `--seed=<N>`) command-line argument, falling
/// back to `default` so a default run reproduces the pinned table while
/// `--seed` makes runs comparable across machines.
///
/// # Panics
///
/// Panics with a usage message if `--seed` is present but malformed.
pub fn seed_from_args(default: u64) -> u64 {
    seed_from(std::env::args().skip(1), default)
}

fn seed_from<I: Iterator<Item = String>>(mut args: I, default: u64) -> u64 {
    while let Some(arg) = args.next() {
        let value = if arg == "--seed" {
            args.next()
        } else if let Some(rest) = arg.strip_prefix("--seed=") {
            Some(rest.to_string())
        } else {
            continue;
        };
        let value = value.unwrap_or_else(|| panic!("--seed requires a value (u64)"));
        return value
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("--seed expects a u64, got `{value}`"));
    }
    default
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_rows() {
        let mut t = Table::new("demo", &["n", "edges", "ratio"]);
        t.row(&["10", "45", "1.50"]);
        t.row(&["100", "4950", "12.25"]);
        let text = t.render();
        assert!(text.contains("demo"));
        assert!(text.contains("4950"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic]
    fn mismatched_row_length_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.add_row(vec!["1".into()]);
    }

    #[test]
    fn fmt_rounds() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(2.0, 0), "2");
    }

    #[test]
    fn seed_parsing() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(seed_from(args(&[]).into_iter(), 7), 7);
        assert_eq!(seed_from(args(&["--seed", "42"]).into_iter(), 7), 42);
        assert_eq!(seed_from(args(&["--seed=43"]).into_iter(), 7), 43);
        assert_eq!(seed_from(args(&["--other", "1"]).into_iter(), 7), 7);
    }

    #[test]
    #[should_panic]
    fn malformed_seed_panics() {
        seed_from(["--seed".to_string(), "xyz".to_string()].into_iter(), 7);
    }
}
