//! The benchmark ledger's row format: an append-only JSONL file of
//! timestamped medians, one JSON object per line.
//!
//! Timestamps and git revisions are **passed in** by the caller, never
//! computed here — the ledger stays reproducible and the writer stays
//! hermetic. Scenario labels and the recorded fields need no JSON
//! escapes.

use std::io::Write as _;
use std::path::Path;

/// One appended measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryRow {
    /// Timestamp supplied by the caller (opaque; RFC 3339 in CI).
    pub ts: String,
    /// Git revision supplied by the caller (opaque; short hash in CI).
    pub rev: String,
    /// Scenario label.
    pub scenario: String,
    /// Median wall-clock nanoseconds for the scenario.
    pub median_ns: u128,
}

/// Render one row as a single JSONL line (no trailing newline).
pub fn render_row(row: &HistoryRow) -> String {
    format!(
        "{{\"ts\": \"{}\", \"rev\": \"{}\", \"scenario\": \"{}\", \"median_ns\": {}}}",
        row.ts, row.rev, row.scenario, row.median_ns
    )
}

/// Append rows to the ledger at `path`, creating it (and its parent
/// directory) if missing.
pub fn append_rows(path: &Path, rows: &[HistoryRow]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut out = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for row in rows {
        writeln!(out, "{}", render_row(row))?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(ts: &str, scenario: &str, ns: u128) -> HistoryRow {
        HistoryRow {
            ts: ts.to_string(),
            rev: "abc1234".to_string(),
            scenario: scenario.to_string(),
            median_ns: ns,
        }
    }

    #[test]
    fn append_creates_and_extends_the_ledger() {
        let dir = std::env::temp_dir().join(format!("eve-history-{}", std::process::id()));
        let path = dir.join("BENCH_history.jsonl");
        let _ = std::fs::remove_file(&path);
        let rows = [row("t0", "s", 1), row("t1", "s", 2)];
        append_rows(&path, &rows[..1]).expect("first append");
        append_rows(&path, &rows[1..]).expect("second append");
        let text = std::fs::read_to_string(&path).expect("ledger readable");
        let expected: String = rows.iter().map(|r| render_row(r) + "\n").collect();
        assert_eq!(text, expected);
        assert_eq!(
            render_row(&rows[1]),
            "{\"ts\": \"t1\", \"rev\": \"abc1234\", \"scenario\": \"s\", \"median_ns\": 2}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
