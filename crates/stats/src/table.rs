//! Plain-text table rendering for the figure/table harnesses.
//!
//! Every `um-bench` binary prints its figure as rows of aligned columns, so
//! the output can be compared side by side with the paper's plots.

use std::fmt::Write as _;

/// A simple column-aligned text table.
///
/// # Examples
///
/// ```
/// use um_stats::table::Table;
///
/// let mut t = Table::new(vec!["app".into(), "tail (ms)".into()]);
/// t.row(vec!["Text".into(), "4.1".into()]);
/// t.row(vec!["SGraph".into(), "3.8".into()]);
/// let s = t.render();
/// assert!(s.contains("Text"));
/// assert!(s.lines().count() >= 4); // header + rule + 2 rows
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `header` is empty.
    pub fn new(header: Vec<String>) -> Self {
        assert!(!header.is_empty(), "a table needs at least one column");
        Self {
            header,
            rows: Vec::new(),
        }
    }

    /// Convenience constructor from string slices.
    pub fn with_columns(cols: &[&str]) -> Self {
        Self::new(cols.iter().map(|c| c.to_string()).collect())
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with a header rule, columns padded to fit.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:<width$}", cell, width = widths[i]);
            }
            // Trim trailing padding for clean diffs.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// Formats a float with 1 decimal (the paper's figure annotation style).
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a normalized value as a multiplier, e.g. `10.4x`.
pub fn times(v: f64) -> String {
    format!("{v:.1}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::with_columns(&["a", "bbbb"]);
        t.row(vec!["xxxx".into(), "y".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("xxxx"));
    }

    #[test]
    fn no_trailing_whitespace() {
        let mut t = Table::with_columns(&["col", "c"]);
        t.row(vec!["a".into(), "b".into()]);
        for line in t.render().lines() {
            assert_eq!(line, line.trim_end());
        }
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::with_columns(&["one"]);
        t.row(vec!["a".into(), "b".into()]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_header_rejected() {
        let _ = Table::new(vec![]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f1(1.26), "1.3");
        assert_eq!(f2(1.256), "1.26");
        assert_eq!(f3(1.2345), "1.234");
        assert_eq!(times(10.44), "10.4x");
    }
}
