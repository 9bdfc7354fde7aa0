//! Minimal fixed-width text tables for the figure renderers behind `regen`.
//!
//! The paper's artifact renders matplotlib figures; our harness prints the
//! same rows/series as aligned text so results can be diffed and inspected
//! without a plotting stack.

/// A simple column-aligned text table.
///
/// # Example
///
/// ```
/// use pimsim_stats::table::Table;
///
/// let mut t = Table::new(vec!["policy".into(), "FI".into()]);
/// t.row(vec!["F3FS".into(), "0.81".into()]);
/// let s = t.render();
/// assert!(s.contains("policy"));
/// assert!(s.contains("F3FS"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row. Rows shorter than the header are right-padded with
    /// empty cells; longer rows extend the column count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned text with a separator under the header.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        let all_rows = std::iter::once(&self.header).chain(self.rows.iter());
        for row in all_rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |row: &[String]| -> String {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(cell);
                for _ in cell.chars().count()..*width {
                    line.push(' ');
                }
            }
            line.trim_end().to_owned()
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats an `f64` with three decimal places, the convention used by the
/// figure renderers.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats an `f64` with two decimal places.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(vec!["a".into(), "long-header".into()]);
        t.row(vec!["wide-cell".into(), "x".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        // Both data columns start at the same offset in header and row.
        let h_off = lines[0].find("long-header").unwrap();
        let r_off = lines[2].find('x').unwrap();
        assert_eq!(h_off, r_off);
    }

    #[test]
    fn ragged_rows_are_tolerated() {
        let mut t = Table::new(vec!["a".into()]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        t.row(vec![]);
        assert_eq!(t.len(), 2);
        let s = t.render();
        assert!(s.contains('3'));
    }

    #[test]
    fn float_formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f2(1.234), "1.23");
    }
}
