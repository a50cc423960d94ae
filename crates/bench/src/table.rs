//! Minimal aligned-text tables for the experiment ledger.

use std::fmt;

/// A rendered experiment table.
pub struct Table {
    /// Experiment id (E1…E8).
    pub id: &'static str,
    /// Human-readable claim under test.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(id: &'static str, title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            id,
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "ragged table row");
        self.rows.push(cells);
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {} — {}", self.id, self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (w, cell) in widths.iter().zip(cells) {
                write!(f, " {cell:>w$} |", w = w)?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<w$}|", "", w = w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("E0", "smoke", &["n", "value"]);
        t.row(vec!["1".into(), "long-cell".into()]);
        t.row(vec!["100".into(), "x".into()]);
        let s = t.to_string();
        assert!(s.contains("## E0 — smoke"));
        assert!(s.contains("|   1 | long-cell |"));
        assert!(s.contains("| 100 |         x |"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("E0", "smoke", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
