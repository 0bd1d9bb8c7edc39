//! Machine-readable benchmark results.
//!
//! Every figure/table bench writes its rows as JSON next to its console
//! output so results can be plotted or diffed across runs. Files land in
//! `target/bench-results/<bench>.json`.
//!
//! Also home to the per-fault-class campaign tally of the `campaign`
//! example: every mix reports its outcomes as one row per fault class, and
//! the KV mix's SLO sheet reuses the class partitioning.

use flash_campaign::{RunRecord, Verdict};
use flash_machine::FaultSpec;
use flash_obs::{json_escape_str, latency_summary};
use flash_sim::{LatencyHistogram, SimDuration};
use std::io::Write;
use std::path::PathBuf;

/// One benchmark's result sheet: named rows of named numeric columns.
#[derive(Clone, Debug)]
pub struct ResultSheet {
    /// Bench target name.
    pub bench: String,
    /// The paper artifact reproduced (e.g. `"Figure 5.5"`).
    pub reproduces: String,
    /// Column names, in order.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Row>,
}

/// One row of a [`ResultSheet`].
#[derive(Clone, Debug)]
pub struct Row {
    /// Row label (e.g. `"nodes=128"` or `"Node failure"`).
    pub label: String,
    /// Values, matching the sheet's column order.
    pub values: Vec<f64>,
}

impl ResultSheet {
    /// Creates an empty sheet.
    pub fn new(bench: impl Into<String>, reproduces: impl Into<String>, columns: &[&str]) -> Self {
        ResultSheet {
            bench: bench.into(),
            reproduces: reproduces.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the column count.
    pub fn push(&mut self, label: impl Into<String>, values: &[f64]) {
        assert_eq!(values.len(), self.columns.len(), "row/column mismatch");
        self.rows.push(Row {
            label: label.into(),
            values: values.to_vec(),
        });
    }

    /// Serializes the sheet as pretty JSON.
    pub fn to_json(&self) -> String {
        // Hand-rolled writer: the workspace deliberately avoids serde_json;
        // the structure is flat enough to emit directly. Strings go through
        // `flash_obs::json_escape_str` — Rust's `{:?}` formatting emits
        // `\u{…}` escapes, which no JSON parser accepts.
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"bench\": \"{}\",\n",
            json_escape_str(&self.bench)
        ));
        out.push_str(&format!(
            "  \"reproduces\": \"{}\",\n",
            json_escape_str(&self.reproduces)
        ));
        out.push_str(&format!(
            "  \"columns\": [{}],\n",
            self.columns
                .iter()
                .map(|c| format!("\"{}\"", json_escape_str(c)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let vals = row
                .values
                .iter()
                .map(|v| {
                    if v.is_finite() {
                        format!("{v}")
                    } else {
                        "null".to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "    {{\"label\": \"{}\", \"values\": [{vals}]}}",
                json_escape_str(&row.label)
            ));
            out.push_str(if i + 1 == self.rows.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the sheet to `target/bench-results/<bench>.json`, creating
    /// the directory as needed. Prints the path on success; IO problems are
    /// reported but non-fatal (benches still print their tables).
    pub fn write(&self) {
        let dir = results_dir();
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{}.json", self.bench));
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(self.to_json().as_bytes()))
        {
            Ok(()) => println!("[results written to {}]", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }

    /// Reads back a sheet written by [`ResultSheet::to_json`], which puts
    /// the columns and each row on a line of their own. Other top-level
    /// keys are ignored, so a committed baseline can carry a note and a
    /// history.
    pub fn parse(text: &str) -> Result<ResultSheet, String> {
        let mut sheet = ResultSheet::new("", "", &[]);
        let mut in_rows = false;
        for line in text.lines() {
            if in_rows {
                if let Some(rest) = line.trim_start().strip_prefix("{\"label\": ") {
                    let row = json_row(rest)?;
                    if row.values.len() != sheet.columns.len() {
                        return Err(format!("row {:?}: row/column mismatch", row.label));
                    }
                    sheet.rows.push(row);
                } else {
                    in_rows = false;
                }
            } else if let Some(rest) = line.strip_prefix("  \"bench\": ") {
                sheet.bench = json_str(rest)?.0;
            } else if let Some(rest) = line.strip_prefix("  \"reproduces\": ") {
                sheet.reproduces = json_str(rest)?.0;
            } else if let Some(mut rest) = line.strip_prefix("  \"columns\": [") {
                while rest.starts_with('"') {
                    let (column, tail) = json_str(rest)?;
                    sheet.columns.push(column);
                    rest = tail.trim_start_matches(", ");
                }
            } else if line == "  \"rows\": [" {
                in_rows = true;
            }
        }
        if sheet.columns.is_empty() {
            return Err("no \"columns\" line".to_string());
        }
        Ok(sheet)
    }

    /// The value in row `label`, column `column`.
    pub fn value(&self, label: &str, column: &str) -> Option<f64> {
        let col = self.columns.iter().position(|c| c == column)?;
        let row = self.rows.iter().find(|r| r.label == label)?;
        Some(row.values[col])
    }

    /// The one bench gate. When `FLASH_BENCH_CHECK` names a committed
    /// sheet, every row of this sheet must reach that sheet's `floor` in
    /// `column` (higher is better); otherwise the process exits 1.
    pub fn check_floors(&self, column: &str) {
        let Some(path) = std::env::var_os("FLASH_BENCH_CHECK").map(PathBuf::from) else {
            return;
        };
        let failures = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| ResultSheet::parse(&text))
            .map_or_else(
                |e| vec![format!("{}: {e}", path.display())],
                |committed| rows_below_floor(self, &committed, column),
            );
        for f in &failures {
            eprintln!("FLOOR CHECK FAILED {f}");
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
        println!("floor check passed: {column} vs {}", path.display());
    }
}

/// The rows of `fresh` whose `column` falls below `committed`'s `floor`
/// for the same label, or that have no finite committed floor (so renaming
/// a row cannot silently drop its gate). One message per failing row.
fn rows_below_floor(fresh: &ResultSheet, committed: &ResultSheet, column: &str) -> Vec<String> {
    let mut failures = Vec::new();
    for row in &fresh.rows {
        let value = fresh.value(&row.label, column).unwrap_or(f64::NAN);
        match committed.value(&row.label, "floor") {
            Some(floor) if floor.is_finite() => {
                if value < floor || value.is_nan() {
                    failures.push(format!(
                        "{}: {column} {value} below floor {floor}",
                        row.label
                    ));
                }
            }
            _ => failures.push(format!("{}: no committed floor", row.label)),
        }
    }
    failures
}

/// Reads one row line of [`ResultSheet::to_json`] after its `{"label": `.
fn json_row(s: &str) -> Result<Row, String> {
    let (label, rest) = json_str(s)?;
    let (values, _) = rest
        .strip_prefix(", \"values\": [")
        .and_then(|v| v.split_once(']'))
        .ok_or_else(|| format!("row {label:?}: no values"))?;
    let values = values
        .split(", ")
        .filter(|v| !v.is_empty())
        .map(|v| match v {
            "null" => Ok(f64::NAN),
            v => v.parse().map_err(|e| format!("row {label:?}: {v:?}: {e}")),
        })
        .collect::<Result<_, _>>()?;
    Ok(Row { label, values })
}

/// Reads the JSON string literal at the start of `s`, undoing
/// [`json_escape_str`]; returns it and the text after its closing quote.
fn json_str(s: &str) -> Result<(String, &str), String> {
    let mut chars = s
        .strip_prefix('"')
        .ok_or("expected a string")?
        .char_indices();
    let mut out = String::new();
    while let Some((i, c)) = chars.next() {
        out.push(match c {
            '"' => return Ok((out, &s[i + 2..])),
            '\\' => match chars.next().ok_or("unterminated string")?.1 {
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'u' => {
                    let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                    let code = u32::from_str_radix(&hex, 16).map_err(|e| e.to_string())?;
                    char::from_u32(code).ok_or("bad \\u escape")?
                }
                e => e,
            },
            c => c,
        });
    }
    Err("unterminated string".to_string())
}

/// The fault classes of the per-class result sheets, in row order. A run
/// is tallied in every class that appears anywhere in its schedule
/// (multi-faults included), so each row answers "when this class was
/// present, what happened?".
pub const FAULT_CLASSES: [&str; 5] = [
    "fail_stop",
    "fail_slow",
    "degraded_memory",
    "lossy_link",
    "pool_failure",
];

/// Marks which of the [`FAULT_CLASSES`] a fault belongs to (multi-faults
/// recurse and can mark several).
pub fn mark_fault_classes(f: &FaultSpec, present: &mut [bool; FAULT_CLASSES.len()]) {
    match f {
        FaultSpec::FailSlow(..) => present[1] = true,
        FaultSpec::DegradedMemory(..) => present[2] = true,
        FaultSpec::LossyLink(..) => present[3] = true,
        FaultSpec::PoolFailure { .. } => present[4] = true,
        FaultSpec::Multi(list) => {
            for m in list {
                mark_fault_classes(m, present);
            }
        }
        _ => present[0] = true,
    }
}

/// Which [`FAULT_CLASSES`] appear anywhere in a run's schedule.
pub fn run_fault_classes(r: &RunRecord) -> [bool; FAULT_CLASSES.len()] {
    let mut present = [false; FAULT_CLASSES.len()];
    for e in &r.schedule.events {
        mark_fault_classes(&e.fault, &mut present);
    }
    present
}

/// Verdict, violation, and detection-latency counts for one fault class.
#[derive(Default)]
pub struct ClassTally {
    /// Runs in which the class appeared.
    pub runs: u64,
    /// Runs judged [`Verdict::Contained`].
    pub contained: u64,
    /// Runs judged [`Verdict::DetectedRecovered`].
    pub detected: u64,
    /// Runs judged [`Verdict::SurvivedDegraded`].
    pub survived: u64,
    /// Total invariant violations across the class's runs.
    pub violations: u64,
    /// Detection latencies of the class's runs that detected their fault.
    pub detect: LatencyHistogram,
}

impl ClassTally {
    /// Folds one run into the tally.
    pub fn tally(&mut self, r: &RunRecord) {
        self.runs += 1;
        match r.verdict {
            Verdict::Contained => self.contained += 1,
            Verdict::DetectedRecovered => self.detected += 1,
            Verdict::SurvivedDegraded => self.survived += 1,
        }
        self.violations += r.violations.len() as u64;
        if let Some(ns) = r.detect_latency_ns {
            self.detect.record(SimDuration::from_nanos(ns));
        }
    }
}

/// The per-fault-class verdict sheet: one [`ClassTally`] per
/// [`FAULT_CLASSES`] entry plus an all-runs aggregate.
#[derive(Default)]
pub struct VerdictSheet {
    /// Per-class tallies, matching [`FAULT_CLASSES`] order.
    pub classes: [ClassTally; FAULT_CLASSES.len()],
    /// Every run, regardless of class.
    pub overall: ClassTally,
}

impl VerdictSheet {
    /// Creates an empty sheet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one run into the overall tally and into every class present
    /// in its schedule.
    pub fn tally(&mut self, r: &RunRecord) {
        self.overall.tally(r);
        for (i, p) in run_fault_classes(r).iter().enumerate() {
            if *p {
                self.classes[i].tally(r);
            }
        }
    }

    /// Renders the verdict table (header plus one row per fault class).
    pub fn verdict_table(&self) -> String {
        let mut out = format!(
            "{:<16} {:>5} {:>10} {:>19} {:>18} {:>11}\n",
            "fault class",
            "runs",
            "contained",
            "detected-recovered",
            "survived-degraded",
            "violations"
        );
        for (name, row) in FAULT_CLASSES.iter().zip(&self.classes) {
            out.push_str(&format!(
                "{name:<16} {:>5} {:>10} {:>19} {:>18} {:>11}\n",
                row.runs, row.contained, row.detected, row.survived, row.violations
            ));
        }
        out
    }

    /// Renders the detection-latency summaries: the all-runs histogram
    /// followed by one per fault class.
    pub fn detection_summary(&self) -> String {
        let mut out = latency_summary("detection latency (all runs)", &self.overall.detect);
        for (name, row) in FAULT_CLASSES.iter().zip(&self.classes) {
            out.push_str(&latency_summary(
                &format!("detection latency ({name})"),
                &row.detect,
            ));
        }
        out
    }
}

/// The directory bench results land in: the *workspace* target directory
/// (benches run with the package directory as cwd, so a relative path
/// would land inside `crates/bench`).
pub fn results_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("CARGO_TARGET_DIR") {
        // Cargo resolves a relative CARGO_TARGET_DIR against the workspace
        // root, not the process cwd (which is the package directory under
        // `cargo bench`) — do the same, or results drift into crates/bench.
        return resolve_target_dir(PathBuf::from(dir)).join("bench-results");
    }
    // The bench executable lives in <workspace>/target/release/deps/...;
    // derive the target directory from our own path.
    if let Ok(exe) = std::env::current_exe() {
        for anc in exe.ancestors() {
            if anc.file_name().and_then(|n| n.to_str()) == Some("target") {
                return anc.join("bench-results");
            }
        }
    }
    workspace_root().join("target").join("bench-results")
}

/// Resolves a (possibly relative) target-directory path against the
/// workspace root, mirroring cargo's own interpretation of
/// `CARGO_TARGET_DIR`.
fn resolve_target_dir(dir: PathBuf) -> PathBuf {
    if dir.is_absolute() {
        dir
    } else {
        workspace_root().join(dir)
    }
}

/// The workspace root: two levels above this crate's manifest
/// (`<workspace>/crates/bench`).
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|p| p.to_path_buf())
        .unwrap_or(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `to_json` writes valid JSON — Rust's `{:?}` would emit
    /// `\u{e9}`-style escapes no parser accepts — and `parse` reads back
    /// everything it writes, escapes and non-finite values included.
    #[test]
    fn sheet_roundtrip_structure() {
        let mut s = ResultSheet::new("tête", "Ta\tble \"5.4\" — «é»", &["μs", "naïve"]);
        s.push("nœud\n№1 \\ [x]\u{1}", &[1.0, 2.5e-7]);
        s.push("row2", &[70573622.0, f64::NAN]);
        let json = s.to_json();
        assert!(!json.contains("\\u{"), "Rust-style escapes leaked: {json}");
        // Non-ASCII passes through raw (valid JSON is UTF-8); control
        // characters use standard escapes; non-finite values become null.
        assert!(json.contains("\"bench\": \"tête\""));
        assert!(json.contains("Ta\\tble \\\"5.4\\\" — «é»"));
        assert!(json.contains("\"columns\": [\"μs\", \"naïve\"]"));
        assert!(json.contains("\"nœud\\n№1 \\\\ [x]\\u0001\""));
        assert!(json.contains("[70573622, null]"));
        let back = ResultSheet::parse(&json).unwrap();
        assert_eq!(back.bench, s.bench);
        assert_eq!(back.reproduces, s.reproduces);
        assert_eq!(back.columns, s.columns);
        assert_eq!(back.rows.len(), 2);
        assert_eq!(back.rows[0].label, s.rows[0].label);
        assert_eq!(back.rows[0].values, s.rows[0].values);
        assert_eq!(back.value("row2", "μs"), Some(70573622.0));
        assert!(back.value("row2", "naïve").unwrap().is_nan());
        assert_eq!(back.value("row2", "missing"), None);
        assert_eq!(back.value("missing", "μs"), None);
    }

    #[test]
    #[should_panic(expected = "row/column mismatch")]
    fn mismatched_row_panics() {
        let mut s = ResultSheet::new("x", "y", &["a"]);
        s.push("r", &[1.0, 2.0]);
    }

    #[test]
    fn floor_gate_fails_low_and_missing_rows() {
        let mut committed = ResultSheet::new("b", "", &["speedup", "floor"]);
        for (label, floor) in [
            ("at", 2.0),
            ("above", 2.0),
            ("below", 2.0),
            ("nan", f64::NAN),
        ] {
            committed.push(label, &[3.0, floor]);
        }
        let mut fresh = ResultSheet::new("b", "", &["speedup"]);
        fresh.push("at", &[2.0]);
        fresh.push("above", &[3.0]);
        assert!(rows_below_floor(&fresh, &committed, "speedup").is_empty());
        fresh.push("below", &[1.9]);
        fresh.push("renamed", &[9.0]);
        fresh.push("nan", &[9.0]);
        let failures = rows_below_floor(&fresh, &committed, "speedup");
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(failures[0].starts_with("below: speedup 1.9 below floor 2"));
        assert_eq!(failures[1], "renamed: no committed floor");
        assert_eq!(failures[2], "nan: no committed floor");
    }

    /// The committed host-time baselines are sheets the gate can read:
    /// each has a `floor` column and a finite floor on every row.
    #[test]
    fn committed_baselines_parse_with_floors() {
        for (file, rows) in [("BENCH_sim_speed.json", 10), ("BENCH_sweep_fork.json", 2)] {
            let text = std::fs::read_to_string(workspace_root().join(file)).unwrap();
            let sheet = ResultSheet::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert!(sheet.columns.iter().any(|c| c == "floor"), "{file}");
            assert_eq!(sheet.rows.len(), rows, "{file}");
            for row in &sheet.rows {
                let floor = sheet.value(&row.label, "floor").unwrap();
                assert!(floor.is_finite() && floor > 0.0, "{file}: {}", row.label);
            }
        }
    }

    #[test]
    fn relative_target_dir_resolves_against_workspace_root() {
        let resolved = resolve_target_dir(PathBuf::from("custom-target"));
        assert!(resolved.is_absolute());
        assert_eq!(resolved, workspace_root().join("custom-target"));
        assert!(
            !resolved.to_str().unwrap().contains("crates"),
            "must not resolve relative to the bench package dir: {resolved:?}"
        );
        let abs = PathBuf::from("/tmp/abs-target");
        assert_eq!(resolve_target_dir(abs.clone()), abs);
    }

    #[test]
    fn workspace_root_is_manifest_grandparent() {
        let root = workspace_root();
        assert!(root.join("Cargo.toml").exists(), "{root:?}");
        assert!(root.join("crates").is_dir(), "{root:?}");
    }
}
