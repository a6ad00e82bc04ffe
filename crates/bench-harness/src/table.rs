//! Minimal aligned-table and CSV rendering for experiment reports.

/// A rectangular report: header plus rows, printable as an aligned text
/// table or CSV.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Table title.
    pub(crate) title: String,
    /// Column headers.
    pub(crate) header: Vec<String>,
    /// Data rows (already formatted).
    pub(crate) rows: Vec<Vec<String>>,
}

impl Report {
    /// New empty report with a title and header.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Report {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub(crate) fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Render as an aligned text table.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
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
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render as CSV (RFC-4180-ish; cells containing commas are quoted).
    pub fn to_csv(&self) -> String {
        let esc = |c: &String| -> String {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        };
        let mut out = String::new();
        out.push_str(&self.header.iter().map(esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Format a matches/s rate in the figure's unit (millions).
pub(crate) fn fmt_mps(rate: f64) -> String {
    format!("{:.2}", rate / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_and_csv() {
        let mut r = Report::new("t", &["a", "bb"]);
        r.push(vec!["1".into(), "22".into()]);
        r.push(vec!["333".into(), "4".into()]);
        let text = r.to_text();
        assert!(text.contains("== t =="));
        assert!(text.contains("333"));
        let csv = r.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(csv.lines().next().unwrap(), "a,bb");
    }

    #[test]
    fn csv_quoting() {
        let mut r = Report::new("t", &["x"]);
        r.push(vec!["a,b".into()]);
        assert!(r.to_csv().contains("\"a,b\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        let mut r = Report::new("t", &["x", "y"]);
        r.push(vec!["only-one".into()]);
    }
}
