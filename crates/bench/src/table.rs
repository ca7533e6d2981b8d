//! Plain-text experiment tables.
//!
//! Every experiment produces an [`ExperimentTable`]: a title, column
//! headers, and string rows. Tables render with aligned columns for the
//! terminal and serialize to JSON (`experiments --json`) so a write-up can
//! quote exact runs.

/// One experiment's tabular output.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ExperimentTable {
    /// Experiment id, e.g. `"E4"`.
    pub id: String,
    /// Human title, e.g. `"Lemma 1 cost model validation"`.
    pub title: String,
    /// What paper artifact this regenerates.
    pub artifact: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Free-form observations recorded by the harness.
    pub notes: Vec<String>,
    /// Named machine-readable summary values (`trees_grown`,
    /// `cache_hit_rate`, …): what the experiment tests assert on and what
    /// `--json` consumers read, so neither parses formatted rows.
    pub metrics: Vec<(String, f64)>,
}

impl ExperimentTable {
    /// Start a table.
    pub fn new(id: &str, title: &str, artifact: &str, headers: &[&str]) -> Self {
        ExperimentTable {
            id: id.to_string(),
            title: title.to_string(),
            artifact: artifact.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Append a row; must match the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch in {}", self.id);
        self.rows.push(cells);
    }

    /// Append an observation note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Record (or overwrite) a named machine-readable summary value.
    pub fn metric(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    /// Read a named summary value recorded by [`ExperimentTable::metric`].
    pub fn metric_value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        out.push_str(&format!("   (reproduces: {})\n", self.artifact));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cell, width = widths[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }
}

/// Format a float with 3 significant decimals, compactly.
pub fn f3(x: f64) -> String {
    if !x.is_finite() {
        // `{}` keeps the sign of -inf.
        format!("{x}")
    } else if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = ExperimentTable::new("E0", "demo", "none", &["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "12345".into()]);
        t.note("hello");
        let s = t.render();
        assert!(s.contains("E0"));
        assert!(s.contains("alpha"));
        assert!(s.contains("note: hello"));
        // Columns right-aligned to the widest cell.
        assert!(s.lines().any(|l| l.trim_start().starts_with("name")));
        // A header-less table still renders (title, empty header, empty rule).
        let bare = ExperimentTable::new("E0", "demo", "none", &[]).render();
        assert_eq!(bare.lines().count(), 4, "{bare:?}");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_checked() {
        let mut t = ExperimentTable::new("E0", "demo", "none", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn metrics_record_and_overwrite() {
        let mut t = ExperimentTable::new("E0", "demo", "none", &["a"]);
        assert_eq!(t.metric_value("trees_grown"), None);
        t.metric("trees_grown", 12.0);
        t.metric("cache_hit_rate", 0.5);
        t.metric("trees_grown", 14.0);
        assert_eq!(t.metric_value("trees_grown"), Some(14.0));
        assert_eq!(t.metric_value("cache_hit_rate"), Some(0.5));
        assert_eq!(t.metrics.len(), 2, "overwrite, not append");
        // Metrics ride along in the serialized table: the `--json` form
        // round-trips names, values and order.
        let json = serde_json::to_string(&t).unwrap();
        let back: ExperimentTable = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.metrics[0],
            ("trees_grown".to_string(), 14.0),
            "first recorded stays first"
        );
        assert_eq!(back.metrics, t.metrics);
        assert_eq!((back.id, back.headers, back.rows), (t.id, t.headers, t.rows));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f3(0.0), "0");
        assert_eq!(f3(0.12349), "0.1235");
        assert_eq!(f3(7.38905), "7.39");
        assert_eq!(f3(1234.4), "1234");
        assert_eq!(f3(f64::INFINITY), "inf");
        assert_eq!(f3(f64::NEG_INFINITY), "-inf");
        assert_eq!(f3(f64::NAN), "NaN");
    }
}
