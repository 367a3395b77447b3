//! Plain-text table rendering and latency percentiles for the experiment
//! harness.

use serde::Serialize;

/// A printable experiment table; rows are also JSON-serializable so results
/// can be archived mechanically.
#[derive(Clone, Debug, Serialize)]
pub struct Table {
    /// Experiment id, e.g. "E3".
    pub id: String,
    /// One-line title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row cells, already formatted.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (expected shape, observations).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Table {
            id: id.to_owned(),
            title: title.to_owned(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.columns.len());
        self.rows.push(cells);
    }

    /// Appends a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Renders as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
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
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }
}

/// The `q`-quantile (0.0–1.0) of an ascending-sorted sample, by
/// nearest rank; `0.0` for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.99), 5.0);
    }

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("E0", "demo", &["x", "time"]);
        t.row(vec!["1".into(), "10us".into()]);
        t.row(vec!["100".into(), "1ms".into()]);
        t.note("expected: linear");
        let s = t.render();
        assert!(s.contains("E0"));
        assert!(s.contains("expected: linear"));
        assert!(s.lines().count() >= 6);
    }
}
