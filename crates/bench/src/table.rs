//! Console + TSV output for experiment tables.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Collects rows, pretty-prints them, and writes a TSV into `results/`.
#[derive(Debug)]
pub struct TableWriter {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableWriter {
    /// A table named `name` (used for the TSV filename) with the given
    /// column headers.
    pub fn new(name: &str, header: &[&str]) -> Self {
        TableWriter {
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of preformatted cells.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Convenience: a label plus floating-point cells with 4 digits.
    pub fn row_f(&mut self, label: &str, values: &[f64]) {
        let mut cells = vec![label.to_string()];
        cells.extend(values.iter().map(|v| format!("{v:.4}")));
        self.row(cells);
    }

    /// Render the table to a string (fixed-width columns).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
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

    /// Print to stdout and write `results/<name>.tsv`. Returns the TSV
    /// path.
    ///
    /// # Errors
    ///
    /// Returns an error when the results directory or file cannot be
    /// written.
    pub fn finish(&self) -> std::io::Result<PathBuf> {
        let path = Path::new("results").join(format!("{}.tsv", self.name));
        self.finish_to(&path)?;
        Ok(path)
    }

    /// Print to stdout and write the TSV to `path`, creating its
    /// directory.
    ///
    /// # Errors
    ///
    /// Returns an error when the directory or file cannot be written.
    pub fn finish_to(&self, path: &Path) -> std::io::Result<()> {
        println!("\n== {} ==", self.name);
        println!("{}", self.render());
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut f = fs::File::create(path)?;
        writeln!(f, "{}", self.header.join("\t"))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join("\t"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TableWriter::new("test", &["workload", "speedup"]);
        t.row_f("mcf", &[1.0912]);
        t.row_f("libquantum", &[1.002]);
        let s = t.render();
        assert!(s.contains("workload"));
        assert!(s.contains("1.0912"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_enforced() {
        let mut t = TableWriter::new("test", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
