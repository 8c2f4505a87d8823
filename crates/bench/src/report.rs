//! Small reporting helpers: aligned tables and sample statistics.

use std::time::Duration;

/// A printable table with a title, column headers and string rows.
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// A sample series — latencies, or one value per trial — in whatever unit
/// the caller pushes, with the summary statistics every report uses.
#[derive(Clone, Debug, Default)]
pub struct Series {
    pub samples: Vec<f64>,
}

impl Series {
    pub fn new() -> Self {
        Series::default()
    }

    pub fn push(&mut self, v: f64) {
        self.samples.push(v);
    }

    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// The `p`-th percentile (0–100), interpolating linearly between the
    /// two closest ranks — so the median of an even count is the mean of
    /// the middle pair and three trials still have distinct quartiles.
    /// NaN when the series is empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let mut s = self.samples.clone();
        s.sort_by(f64::total_cmp);
        let Some(last) = s.len().checked_sub(1) else {
            return f64::NAN;
        };
        let rank = last as f64 * p / 100.0;
        let (lo, hi) = (rank.floor() as usize, (rank.ceil() as usize).min(last));
        s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// First and third quartile.
    pub fn quartiles(&self) -> (f64, f64) {
        (self.percentile(25.0), self.percentile(75.0))
    }
}

/// Human-friendly duration (ns/µs/ms adaptive).
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} us", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", ns as f64 / 1_000_000_000.0)
    }
}

/// Human-friendly ops/sec.
pub fn fmt_ops(ops_per_sec: f64) -> String {
    if ops_per_sec >= 1_000_000.0 {
        format!("{:.2} Mops/s", ops_per_sec / 1_000_000.0)
    } else if ops_per_sec >= 1_000.0 {
        format!("{:.1} Kops/s", ops_per_sec / 1_000.0)
    } else {
        format!("{ops_per_sec:.0} ops/s")
    }
}
