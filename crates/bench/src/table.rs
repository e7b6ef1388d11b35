//! Plain-text table rendering for experiment reports.

use core::fmt::Write;

/// A simple aligned text table.
///
/// # Examples
///
/// ```
/// use apiary_bench::TextTable;
///
/// let mut t = TextTable::new(&["part", "cells"]);
/// t.row(&["VU3P", "862000"]);
/// let s = t.render();
/// assert!(s.contains("VU3P"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> TextTable {
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the header count.
    pub fn row(&mut self, cells: &[impl AsRef<str>]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows
            .push(cells.iter().map(|s| s.as_ref().to_string()).collect());
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "| {:<w$} ", c, w = width[i]);
            }
            let _ = writeln!(out, "|");
        };
        line(&mut out, &self.headers);
        for (i, w) in width.iter().enumerate() {
            let _ = write!(out, "|{:-<w$}", "", w = w + 2);
            if i == cols - 1 {
                let _ = writeln!(out, "|");
            }
        }
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(&["a", "bee"]);
        t.row(&["longer", "1"]);
        t.row(&["x", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines have equal width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(s.contains("longer"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["only one"]);
    }
}
