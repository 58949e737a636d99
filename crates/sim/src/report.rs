//! Plain-text tables, CSV, and JSON reporting — the single output layer
//! behind the `balloc` CLI.
//!
//! Experiments never print directly. They emit [`TextTable`]s and
//! preformatted lines through an [`OutputSink`], which
//!
//! * in [`OutputMode::Text`] streams human-readable text to stdout as it
//!   arrives and persists the experiment's JSON artifact under
//!   `target/experiments/`;
//! * in [`OutputMode::Json`] stays silent and lets the caller render the
//!   accumulated [`Report`] as one JSON document ([`Report::to_json`]);
//! * in [`OutputMode::Csv`] stays silent and lets the caller write every
//!   recorded table as CSV ([`Report::render_csv`] /
//!   [`Report::write_csv_files`]).
//!
//! Switching output format therefore needs no per-experiment code.

use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::PathBuf;

use serde::Serialize;

/// A simple aligned plain-text table, used by the `balloc` experiments
/// to print the paper's tables.
///
/// # Examples
///
/// ```
/// use balloc_sim::TextTable;
///
/// let mut table = TextTable::new(vec!["g".into(), "gap".into()]);
/// table.push_row(vec!["1".into(), "4.2".into()]);
/// table.push_row(vec!["16".into(), "24.9".into()]);
/// let rendered = table.render();
/// assert!(rendered.contains("g"));
/// assert!(rendered.contains("24.9"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    #[must_use]
    pub fn new(headers: Vec<String>) -> Self {
        assert!(!headers.is_empty(), "table needs at least one column");
        Self {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| display_width(h)).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(display_width(cell));
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                let pad = widths[c] - display_width(cell);
                out.push_str(cell);
                for _ in 0..pad {
                    out.push(' ');
                }
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }

    /// Writes the table as CSV (headers first, comma-separated, quoting
    /// cells containing commas or quotes).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the underlying writer.
    pub fn write_csv<W: Write>(&self, mut writer: W) -> io::Result<()> {
        let write_line = |writer: &mut W, cells: &[String]| -> io::Result<()> {
            let line = cells
                .iter()
                .map(|c| csv_escape(c))
                .collect::<Vec<_>>()
                .join(",");
            writeln!(writer, "{line}")
        };
        write_line(&mut writer, &self.headers)?;
        for row in &self.rows {
            write_line(&mut writer, row)?;
        }
        Ok(())
    }
}

/// Multi-line cells are aligned on their longest line.
fn display_width(s: &str) -> usize {
    s.lines().map(|l| l.chars().count()).max().unwrap_or(0)
}

/// Escapes one cell for CSV output: cells containing commas, quotes, or
/// newlines are wrapped in double quotes with embedded quotes doubled
/// (RFC 4180).
///
/// # Examples
///
/// ```
/// use balloc_sim::csv_escape;
/// assert_eq!(csv_escape("plain"), "plain");
/// assert_eq!(csv_escape("a,b"), "\"a,b\"");
/// assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
/// ```
#[must_use]
pub fn csv_escape(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// How an [`OutputSink`] renders what an experiment emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputMode {
    /// Human-readable text streamed to stdout (the default); the JSON
    /// artifact is persisted under `target/experiments/`.
    #[default]
    Text,
    /// One JSON document on stdout, nothing on disk.
    Json,
    /// Recorded tables as CSV — to stdout, or to files under `--out`.
    Csv,
}

/// One renderable element of a [`Report`], in emission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Block {
    /// A preformatted line (exactly one `println!` in text mode; may
    /// contain embedded newlines).
    Text(String),
    /// A named table.
    Table {
        /// Short slug naming the table (used for CSV file names).
        name: String,
        /// The table itself.
        table: TextTable,
        /// Whether text mode prints this table. Experiments that format a
        /// table by hand (for layout the aligned renderer cannot produce)
        /// record a *shadow* table with `visible = false` so CSV and JSON
        /// consumers still get structured rows.
        visible: bool,
    },
}

/// The structured result of one experiment run: everything the experiment
/// emitted through its [`OutputSink`], plus the serialized JSON artifact.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Report {
    id: String,
    blocks: Vec<Block>,
    artifact: Option<String>,
}

impl Report {
    /// Creates an empty report for the experiment `id`.
    #[must_use]
    pub fn new(id: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            blocks: Vec::new(),
            artifact: None,
        }
    }

    /// The experiment id this report belongs to.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The emitted blocks, in order.
    #[must_use]
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The pretty-printed JSON artifact, if the experiment recorded one.
    #[must_use]
    pub fn artifact_json(&self) -> Option<&str> {
        self.artifact.as_deref()
    }

    /// All recorded tables (visible and shadow), with their names.
    pub fn tables(&self) -> impl Iterator<Item = (&str, &TextTable)> {
        self.blocks.iter().filter_map(|b| match b {
            Block::Table { name, table, .. } => Some((name.as_str(), table)),
            Block::Text(_) => None,
        })
    }

    /// Renders the report exactly as text mode prints it: one `println!`
    /// per text block, `println!("{}", table.render())` per visible table.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for block in &self.blocks {
            match block {
                Block::Text(line) => {
                    out.push_str(line);
                    out.push('\n');
                }
                Block::Table { table, visible, .. } => {
                    if *visible {
                        out.push_str(&table.render());
                        out.push('\n');
                    }
                }
            }
        }
        out
    }

    /// Renders the report as one JSON document:
    ///
    /// ```json
    /// {
    ///   "experiment": "<id>",
    ///   "paper_ref": "<figure / table reference>",
    ///   "artifact": { ... }
    /// }
    /// ```
    ///
    /// The artifact is embedded verbatim (it is already valid JSON); a
    /// report without an artifact gets `"artifact": null`.
    #[must_use]
    pub fn to_json(&self, paper_ref: &str) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"experiment\": {},", json_escape(&self.id));
        let _ = writeln!(out, "  \"paper_ref\": {},", json_escape(paper_ref));
        match &self.artifact {
            Some(artifact) => {
                out.push_str("  \"artifact\": ");
                out.push_str(&indent_tail(artifact, "  "));
                out.push('\n');
            }
            None => out.push_str("  \"artifact\": null\n"),
        }
        out.push('}');
        out
    }

    /// Renders every recorded table as CSV on one stream, each preceded by
    /// a `# <id>/<name>` comment line and separated by blank lines.
    #[must_use]
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        for (i, (name, table)) in self.tables().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            let _ = writeln!(out, "# {}/{}", self.id, name);
            let mut buf = Vec::new();
            table
                .write_csv(&mut buf)
                .expect("writing CSV to a Vec cannot fail");
            out.push_str(&String::from_utf8(buf).expect("CSV output is UTF-8"));
        }
        out
    }

    /// Writes every recorded table to `<dir>/<id>_<name>.csv`, returning
    /// the written paths.
    ///
    /// # Errors
    ///
    /// Returns the first filesystem error encountered.
    pub fn write_csv_files(&self, dir: &std::path::Path) -> io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut paths = Vec::new();
        for (name, table) in self.tables() {
            let path = dir.join(format!("{}_{}.csv", self.id, name));
            let mut file = std::fs::File::create(&path)?;
            table.write_csv(&mut file)?;
            paths.push(path);
        }
        Ok(paths)
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Indents every line of `s` after the first by `pad` (for embedding a
/// pretty-printed JSON value inside a parent object).
fn indent_tail(s: &str, pad: &str) -> String {
    let mut lines = s.lines();
    let mut out = String::with_capacity(s.len());
    if let Some(first) = lines.next() {
        out.push_str(first);
    }
    for line in lines {
        out.push('\n');
        out.push_str(pad);
        out.push_str(line);
    }
    out
}

/// The sink every experiment writes through.
///
/// In [`OutputMode::Text`] each emission is printed immediately (so long
/// experiments show progress); in every mode the emissions are also
/// recorded into a [`Report`] the caller collects with
/// [`OutputSink::take_report`]. A failed print ends the printing, not
/// the run (see [`OutputSink::stdout_error`]).
#[derive(Debug)]
pub struct OutputSink {
    id: String,
    mode: OutputMode,
    /// Where text mode persists the JSON artifact; `None` disables
    /// persistence (used by tests).
    save_dir: Option<PathBuf>,
    report: Report,
    /// The first failed text-mode print.
    stdout_error: Option<io::Error>,
}

impl OutputSink {
    /// Default directory experiment artifacts are persisted under in text
    /// mode.
    pub const DEFAULT_SAVE_DIR: &'static str = "target/experiments";

    /// Creates a sink for the experiment `id` in the given mode, saving
    /// text-mode artifacts under [`OutputSink::DEFAULT_SAVE_DIR`].
    #[must_use]
    pub fn new(id: impl Into<String>, mode: OutputMode) -> Self {
        let id = id.into();
        Self {
            report: Report::new(id.clone()),
            id,
            mode,
            save_dir: Some(PathBuf::from(Self::DEFAULT_SAVE_DIR)),
            stdout_error: None,
        }
    }

    /// Overrides (or with `None`, disables) the text-mode artifact
    /// directory.
    #[must_use]
    pub fn with_save_dir(mut self, dir: Option<PathBuf>) -> Self {
        self.save_dir = dir;
        self
    }

    /// The sink's output mode.
    #[must_use]
    pub fn mode(&self) -> OutputMode {
        self.mode
    }

    /// The experiment id this sink was created for.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// `println!`, keeping the first failed write instead of panicking.
    fn print(&mut self, text: &str) {
        if self.stdout_error.is_none() {
            self.stdout_error = writeln!(io::stdout(), "{text}").err();
        }
    }

    /// The first text-mode print that failed; printing stopped there.
    #[must_use]
    pub fn stdout_error(&self) -> Option<&io::Error> {
        self.stdout_error.as_ref()
    }

    /// Emits one line of preformatted text (printed in text mode).
    pub fn line(&mut self, line: impl Into<String>) {
        let line = line.into();
        if self.mode == OutputMode::Text {
            self.print(&line);
        }
        self.report.blocks.push(Block::Text(line));
    }

    /// Emits an empty line.
    pub fn blank(&mut self) {
        self.line("");
    }

    /// Emits a named table (printed aligned in text mode, written as CSV
    /// in CSV mode).
    pub fn table(&mut self, name: impl Into<String>, table: TextTable) {
        if self.mode == OutputMode::Text {
            self.print(&table.render());
        }
        self.report.blocks.push(Block::Table {
            name: name.into(),
            table,
            visible: true,
        });
    }

    /// Records a table for CSV/JSON consumers *without* printing it in
    /// text mode — for experiments whose text rendering of the same data
    /// is hand-formatted.
    pub fn shadow_table(&mut self, name: impl Into<String>, table: TextTable) {
        self.report.blocks.push(Block::Table {
            name: name.into(),
            table,
            visible: false,
        });
    }

    /// Records the experiment's machine-readable artifact and, in text
    /// mode, persists it as `<save_dir>/<id>.json` and prints
    /// `results saved to <path>` (matching the legacy binaries). Failures
    /// to persist are reported as a warning on stderr, never fatally.
    pub fn save_artifact<T: Serialize>(&mut self, value: &T) {
        let json = match serde_json::to_string_pretty(value) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("warning: could not serialize results: {e}");
                return;
            }
        };
        self.report.artifact = Some(json.clone());
        if self.mode != OutputMode::Text {
            return;
        }
        let Some(dir) = &self.save_dir else { return };
        let path = dir.join(format!("{}.json", self.id));
        let write = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &json));
        match write {
            Ok(()) => {
                let line = format!("results saved to {}", path.display());
                self.print(&line);
                self.report.blocks.push(Block::Text(line));
            }
            Err(e) => eprintln!("warning: could not save results: {e}"),
        }
    }

    /// Takes the accumulated report, leaving an empty one behind.
    pub fn take_report(&mut self) -> Report {
        std::mem::replace(&mut self.report, Report::new(self.id.clone()))
    }
}

/// Serializes any experiment artifact to pretty JSON (used to persist
/// results referenced by EXPERIMENTS.md).
///
/// # Errors
///
/// Returns an error if serialization fails.
pub fn to_json<T: Serialize>(value: &T) -> serde_json::Result<String> {
    serde_json::to_string_pretty(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_headers_rejected() {
        let _ = TextTable::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = TextTable::new(vec!["a".into(), "b".into()]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["name".into(), "value".into()]);
        t.push_row(vec!["x".into(), "1".into()]);
        t.push_row(vec!["longer".into(), "22".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4); // header, rule, two rows
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    fn len_and_is_empty() {
        let mut t = TextTable::new(vec!["a".into()]);
        assert!(t.is_empty());
        t.push_row(vec!["1".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_output_is_parseable() {
        let mut t = TextTable::new(vec!["a".into(), "b".into()]);
        t.push_row(vec!["1,5".into(), "he said \"hi\"".into()]);
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().next().unwrap(), "a,b");
        assert!(text.contains("\"1,5\""));
        assert!(text.contains("\"he said \"\"hi\"\"\""));
    }

    fn sample_report() -> Report {
        let mut sink = OutputSink::new("demo", OutputMode::Json).with_save_dir(None);
        sink.line("== demo ==");
        let mut t = TextTable::new(vec!["x".into(), "y".into()]);
        t.push_row(vec!["1".into(), "2.5".into()]);
        sink.table("main", t);
        let mut shadow = TextTable::new(vec!["k".into()]);
        shadow.push_row(vec!["v".into()]);
        sink.shadow_table("hidden", shadow);
        sink.take_report()
    }

    #[test]
    fn render_text_matches_streamed_output_and_skips_shadow_tables() {
        let report = sample_report();
        let text = report.render_text();
        assert!(text.starts_with("== demo ==\n"));
        assert!(text.contains("x  y\n"));
        assert!(!text.contains("hidden"));
        assert!(!text.contains("k\n-\nv"));
    }

    #[test]
    fn tables_iterates_visible_and_shadow() {
        let report = sample_report();
        let names: Vec<&str> = report.tables().map(|(n, _)| n).collect();
        assert_eq!(names, ["main", "hidden"]);
    }

    #[test]
    fn report_json_wraps_artifact() {
        #[derive(Serialize)]
        struct A {
            v: u32,
        }
        let mut sink = OutputSink::new("demo", OutputMode::Json).with_save_dir(None);
        sink.save_artifact(&A { v: 7 });
        let json = sink.take_report().to_json("Figure 0.0");
        assert!(json.starts_with("{\n  \"experiment\": \"demo\","));
        assert!(json.contains("\"paper_ref\": \"Figure 0.0\""));
        assert!(json.contains("\"artifact\": {"));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn report_json_with_non_finite_metric_stays_valid_json() {
        // A non-finite metric (e.g. a 0/0 average from a degenerate run)
        // must not leak `NaN`/`inf` tokens into the JSON document: the
        // serializer maps it to null and the document round-trips.
        #[derive(Serialize)]
        struct Metrics {
            mean_gap: f64,
            throughput: f64,
        }
        let mut sink = OutputSink::new("demo", OutputMode::Json).with_save_dir(None);
        sink.save_artifact(&Metrics {
            mean_gap: f64::NAN,
            throughput: f64::INFINITY,
        });
        let report = sink.take_report();
        let artifact = report.artifact_json().expect("artifact recorded");
        assert!(artifact.contains("null"));
        assert!(!artifact.contains("NaN") && !artifact.contains("inf"));
        let back = serde_json::from_str(artifact).expect("valid JSON");
        assert_eq!(back.get("mean_gap"), &serde::Value::Null);
        assert_eq!(back.get("throughput"), &serde::Value::Null);
        // …and the wrapping document stays parseable too.
        let doc = report.to_json("Figure 0.0");
        assert!(serde_json::from_str(&doc).is_ok(), "{doc}");
    }

    #[test]
    fn report_json_without_artifact_is_null() {
        let json = Report::new("empty").to_json("—");
        assert!(json.contains("\"artifact\": null"));
    }

    #[test]
    fn render_csv_names_every_table() {
        let csv = sample_report().render_csv();
        assert!(csv.contains("# demo/main\n"));
        assert!(csv.contains("# demo/hidden\n"));
        assert!(csv.contains("x,y\n1,2.5\n"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn text_mode_sink_records_what_it_prints() {
        let mut sink = OutputSink::new("t", OutputMode::Text).with_save_dir(None);
        sink.line("hello");
        sink.blank();
        let report = sink.take_report();
        assert_eq!(report.render_text(), "hello\n\n");
    }

    #[test]
    fn json_serialization_works() {
        #[derive(Serialize)]
        struct Artifact {
            id: &'static str,
            gaps: Vec<f64>,
        }
        let json = to_json(&Artifact {
            id: "fig12_1",
            gaps: vec![1.0, 2.0],
        })
        .unwrap();
        assert!(json.contains("fig12_1"));
    }
}
