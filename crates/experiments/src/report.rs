//! Plain-text table rendering for experiment output.

use std::fmt::Write as _;

/// A simple aligned text table.
///
/// # Example
///
/// ```
/// use experiments::TextTable;
///
/// let mut t = TextTable::new(vec!["bench".into(), "rate".into()]);
/// t.row(vec!["perl".into(), "76.2%".into()]);
/// let s = t.render();
/// assert!(s.contains("perl"));
/// assert!(s.contains("76.2%"));
/// ```
#[derive(Clone, Debug)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        TextTable {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header"
        );
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns: first column left-aligned,
    /// the rest right-aligned.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let emit_row = |cells: &[String], out: &mut String| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                if i == 0 {
                    let _ = write!(out, "{cell:<w$}");
                } else {
                    let _ = write!(out, "{cell:>w$}");
                }
            }
            out.push('\n');
        };
        emit_row(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            emit_row(row, &mut out);
        }
        out
    }
}

/// Formats a fraction as a percentage with one decimal ("66.0%").
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a count with thousands separators ("1,234,567").
pub fn count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["name".into(), "value".into()]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows equal width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[3].starts_with("longer"));
        assert!(lines[3].ends_with("22"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new(vec!["a".into(), "b".into()]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.662), "66.2%");
        assert_eq!(count(0), "0");
        assert_eq!(count(999), "999");
        assert_eq!(count(1_000), "1,000");
        assert_eq!(count(123_456_789), "123,456,789");
    }
}
