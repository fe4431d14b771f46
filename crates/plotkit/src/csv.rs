//! Minimal CSV writing.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;

/// An in-memory CSV document with a fixed column set.
///
/// # Example
///
/// ```
/// use plotkit::Csv;
///
/// let mut csv = Csv::new(&["t", "queue"]);
/// csv.row(&[0.0, 100.0]);
/// csv.row(&[0.1, 150.0]);
/// assert!(csv.to_string().starts_with("t,queue\n0,100\n"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csv {
    header: Vec<String>,
    rows: Vec<Vec<f64>>,
}

impl Csv {
    /// Creates a document with the given column names.
    ///
    /// # Panics
    ///
    /// Panics if no columns are given.
    #[must_use]
    pub fn new(columns: &[&str]) -> Self {
        assert!(!columns.is_empty(), "need at least one column");
        Self { header: columns.iter().map(ToString::to_string).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the column count.
    pub fn row(&mut self, values: &[f64]) {
        assert_eq!(values.len(), self.header.len(), "row width must match the header");
        self.rows.push(values.to_vec());
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the document has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Writes the document to a file, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(create_parents(path.as_ref())?, self.to_string())
    }
}

impl std::fmt::Display for Csv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.header.join(","))?;
        let mut line = String::new();
        for row in &self.rows {
            line.clear();
            push_row(&mut line, row);
            f.write_str(&line)?;
        }
        Ok(())
    }
}

/// A CSV file written row by row through one buffered writer, in the
/// format [`Csv`] renders, for documents too large to hold in memory.
///
/// # Example
///
/// ```
/// use plotkit::csv::CsvWriter;
///
/// let path = std::env::temp_dir().join("plotkit_csv_writer_doc.csv");
/// let mut csv = CsvWriter::create(&path, &["t", "queue"]).unwrap();
/// csv.row(&[0.0, 100.0]).unwrap();
/// csv.finish().unwrap();
/// assert_eq!(std::fs::read_to_string(&path).unwrap(), "t,queue\n0,100\n");
/// # std::fs::remove_file(&path).unwrap();
/// ```
#[derive(Debug)]
pub struct CsvWriter {
    out: BufWriter<File>,
    width: usize,
    line: String,
}

impl CsvWriter {
    /// Creates the file (and its parent directories) and writes the
    /// header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if no columns are given.
    pub fn create(path: impl AsRef<Path>, columns: &[&str]) -> io::Result<Self> {
        assert!(!columns.is_empty(), "need at least one column");
        let mut out = BufWriter::new(File::create(create_parents(path.as_ref())?)?);
        writeln!(out, "{}", columns.join(","))?;
        Ok(Self { out, width: columns.len(), line: String::new() })
    }

    /// Writes a row.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the column count.
    pub fn row(&mut self, values: &[f64]) -> io::Result<()> {
        assert_eq!(values.len(), self.width, "row width must match the header");
        self.line.clear();
        push_row(&mut self.line, values);
        self.out.write_all(self.line.as_bytes())
    }

    /// Flushes the buffered rows to the file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn finish(mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Creates `path`'s parent directories and returns `path`.
fn create_parents(path: &Path) -> io::Result<&Path> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    Ok(path)
}

/// Appends one row and its newline to `line`.
fn push_row(line: &mut String, values: &[f64]) {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        // Trim trailing zeros for readability while keeping full
        // precision for non-round values.
        if v.fract() == 0.0 && v.abs() < 1e15 {
            let _ = write!(line, "{}", *v as i64);
        } else {
            let _ = write!(line, "{v}");
        }
    }
    line.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows() {
        let mut c = Csv::new(&["a", "b"]);
        c.row(&[1.0, 2.5]);
        assert_eq!(c.to_string(), "a,b\n1,2.5\n");
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn saves_to_nested_path() {
        let dir = std::env::temp_dir().join("plotkit_csv_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("sub/out.csv");
        let mut c = Csv::new(&["x"]);
        c.row(&[9.0]);
        c.save(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "x\n9\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_streams_the_bytes_the_document_renders() {
        let dir = std::env::temp_dir().join(format!("plotkit_csv_writer_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("sub/out.csv");
        let rows = [[0.0, -2.5, 1e15], [3.0, 0.1, f64::NAN], [-0.0, 1e-300, f64::INFINITY]];
        let mut doc = Csv::new(&["a", "b", "c"]);
        let mut writer = CsvWriter::create(&path, &["a", "b", "c"]).unwrap();
        for r in &rows {
            doc.row(r);
            writer.row(r).unwrap();
        }
        writer.finish().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), doc.to_string());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut c = Csv::new(&["a", "b"]);
        c.row(&[1.0]);
    }
}
