//! Plain-text table rendering for examples and the reproduction harness.

/// A simple fixed-width text table.
///
/// # Examples
///
/// ```
/// use nanopower::report::TextTable;
///
/// let mut t = TextTable::new(&["node", "Vth (V)"]);
/// t.row(&["180 nm", "0.300"]);
/// t.row(&["130 nm", "0.288"]);
/// let s = t.render();
/// assert!(s.contains("180 nm"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    ///
    /// # Panics
    ///
    /// Panics if the row has more cells than there are headers.
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        assert!(
            cells.len() <= self.headers.len(),
            "row has more cells than headers"
        );
        let mut row: Vec<String> = cells.iter().map(|s| s.to_string()).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Renders the table with aligned columns and a separator line.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{:>width$}", c, width = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a float compactly for table cells (3 significant-ish digits).
pub fn fmt_sig(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{:.0}", x)
    } else if x.abs() >= 10.0 {
        format!("{:.1}", x)
    } else if x.abs() >= 0.1 {
        format!("{:.2}", x)
    } else {
        format!("{:.3}", x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(&["a", "long header"]);
        t.row(&["1", "2"]).row(&["333", "4"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].len() == lines[3].len());
    }

    #[test]
    fn pads_short_rows() {
        let mut t = TextTable::new(&["a", "b", "c"]);
        t.row(&["1"]);
        assert!(t.render().contains('1'));
    }

    #[test]
    #[should_panic(expected = "more cells than headers")]
    fn long_row_panics() {
        let mut t = TextTable::new(&["a"]);
        t.row(&["1", "2"]);
    }

    #[test]
    fn sig_formatting() {
        assert_eq!(fmt_sig(0.0), "0");
        assert_eq!(fmt_sig(12345.6), "12346");
        assert_eq!(fmt_sig(45.67), "45.7");
        assert_eq!(fmt_sig(0.456), "0.46");
        assert_eq!(fmt_sig(0.0456), "0.046");
    }
}
