//! Machine-readable repro reports.
//!
//! Each experiment artefact (figure/table) is written as one JSON file under
//! the repro directory (default `target/repro/`), carrying the rendered
//! result tables *and* the execution accounting — wall-clock, run count,
//! summed busy time, worker count — so benchmark trajectories can be
//! tracked across commits with `jq` instead of scraping stdout.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

use wmn_metrics::Table;

use crate::json::Value;
use crate::telemetry::Snapshot;

/// Environment variable overriding the report directory.
pub const REPRO_DIR_ENV: &str = "RIPPLE_REPRO_DIR";

/// The directory repro JSON is written to: [`REPRO_DIR_ENV`] if set,
/// otherwise `target/repro` under the current working directory.
// Redirects where reports are written, never what they contain.
#[allow(clippy::disallowed_methods)]
pub fn repro_dir() -> PathBuf {
    match std::env::var_os(REPRO_DIR_ENV) {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from("target").join("repro"),
    }
}

/// Execution accounting attached to one artefact report.
#[derive(Clone, Copy, Debug)]
pub struct ArtifactTiming {
    /// Wall-clock time spent generating the artefact.
    pub wall: Duration,
    /// Executor counters accumulated while generating it.
    pub exec: Snapshot,
    /// Worker count the generating config requested.
    pub jobs: usize,
}

/// The JSON shape of one rendered [`Table`] (`title` / `headers` / `rows`),
/// shared by the artefact reports and the sweep documents.
pub fn table_value(table: &Table) -> Value {
    Value::obj()
        .with("title", table.title())
        .with("headers", table.headers().to_vec())
        .with("rows", Value::Arr(table.rows().iter().map(|row| Value::from(row.clone())).collect()))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `timing` block of a report: wall-clock, summed busy time, runs and
/// plans.
pub fn timing_value(timing: &ArtifactTiming) -> Value {
    Value::obj()
        .with("wall_ms", ms(timing.wall))
        .with("busy_ms", ms(timing.exec.busy))
        .with("runs", timing.exec.runs)
        .with("plans", timing.exec.plans)
}

/// Builds the JSON document for one artefact.
pub fn artifact_document(
    name: &str,
    tables: &[Table],
    timing: &ArtifactTiming,
    duration_secs: f64,
    seeds: &[u64],
) -> Value {
    Value::obj()
        .with("artefact", name)
        .with(
            "config",
            Value::obj()
                .with("duration_secs", duration_secs)
                .with("seeds", seeds.to_vec())
                .with("jobs", timing.jobs),
        )
        .with("timing", timing_value(timing))
        .with("tables", Value::Arr(tables.iter().map(table_value).collect()))
}

/// Writes one artefact report as `<dir>/<name>.json` and returns the path.
///
/// # Errors
///
/// Propagates filesystem errors (unwritable directory, full disk, …), and
/// fails with [`std::io::ErrorKind::InvalidData`] if the document contains a
/// non-finite number — a NaN in a report must abort emission, not be
/// laundered into `null`.
pub fn write_artifact(
    dir: &Path,
    name: &str,
    tables: &[Table],
    timing: &ArtifactTiming,
    duration_secs: f64,
    seeds: &[u64],
) -> std::io::Result<PathBuf> {
    let doc = artifact_document(name, tables, timing, duration_secs, seeds);
    write_document(dir, name, &doc)
}

/// Writes any JSON document as `<dir>/<name>.json` (newline-terminated)
/// through the checked emission path, and returns the path.
///
/// # Errors
///
/// Propagates filesystem errors; [`std::io::ErrorKind::InvalidData`] if the
/// document contains a non-finite number.
pub fn write_document(dir: &Path, name: &str, doc: &Value) -> std::io::Result<PathBuf> {
    let text = doc.to_json_string().map_err(|err| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{name}: {err}"))
    })?;
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let mut file = std::fs::File::create(&path)?;
    writeln!(file, "{text}")?;
    Ok(path)
}

// Unique temp-dir names from the process id, and a probe of the override the
// function under test reads.
#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn timing() -> ArtifactTiming {
        ArtifactTiming {
            wall: Duration::from_millis(250),
            exec: Snapshot { plans: 1, runs: 6, busy: Duration::from_millis(900) },
            jobs: 4,
        }
    }

    #[test]
    fn document_carries_tables_and_timing() {
        let mut t = Table::new("Fig. X", vec!["scheme", "v"]);
        t.add_numeric_row("RIPPLE", &[21.37]);
        let doc = artifact_document("figx", &[t], &timing(), 1.0, &[1, 2]);
        let s = doc.to_string();
        assert!(s.contains("\"artefact\": \"figx\""));
        assert!(s.contains("\"seeds\": [1, 2]"));
        assert!(s.contains("\"runs\": 6"));
        assert!(s.contains("\"jobs\": 4"));
        assert!(s.contains("\"21.37\""));
        assert!(s.contains("\"busy_ms\": 900"));
    }

    #[test]
    fn writes_file_into_fresh_directory() {
        let dir = std::env::temp_dir().join(format!("wmn-exec-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Table::new("T", vec!["a"]);
        let path = write_artifact(&dir, "t", &[t], &timing(), 0.5, &[7]).expect("writable");
        let body = std::fs::read_to_string(&path).expect("file exists");
        assert!(body.contains("\"artefact\": \"t\""));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A report written for a real executed plan reads back with plausible
    /// accounting: positive, finite wall-clock, non-negative, finite busy
    /// time, and the plan's run count.
    #[test]
    fn a_written_report_reads_back_with_sane_timing() {
        let dir = std::env::temp_dir().join(format!("wmn-exec-timing-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = crate::RunPlan::grid(
            &crate::executor::tests::scenarios(2),
            &[1, 2],
            wmn_sim::SimDuration::from_millis(5),
        )
        .expect("well-formed scenarios");
        let stats = crate::Executor::new(2).execute(&plan).stats;
        let exec = Snapshot { plans: 1, runs: stats.runs as u64, busy: stats.busy };
        let timing = ArtifactTiming { wall: stats.wall, exec, jobs: stats.jobs };
        let path =
            write_document(&dir, "timed", &Value::obj().with("timing", timing_value(&timing)))
                .expect("writable");
        let text = std::fs::read_to_string(&path).expect("file exists");
        let doc = crate::json::parse(&text).expect("a written report parses");
        let field = |key| doc.get("timing").and_then(|t| t.get(key)).and_then(Value::as_f64);
        let (wall, busy) = (field("wall_ms").expect("wall_ms"), field("busy_ms").expect("busy_ms"));
        assert!(wall > 0.0 && wall.is_finite(), "wall_ms {wall}");
        assert!(busy >= 0.0 && busy.is_finite(), "busy_ms {busy}");
        assert_eq!(field("runs"), Some(4.0));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn non_finite_values_abort_emission() {
        let dir = std::env::temp_dir().join(format!("wmn-exec-nonfinite-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Table::new("T", vec!["a"]);
        let err = write_artifact(&dir, "bad", &[t], &timing(), f64::NAN, &[7])
            .expect_err("a NaN config value must not serialise");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("duration_secs"), "error names the path: {err}");
        assert!(!dir.join("bad.json").exists(), "no partial file left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_dir_is_target_repro() {
        // Only meaningful when the override is unset (it is, in tests).
        if std::env::var_os(REPRO_DIR_ENV).is_none() {
            assert_eq!(repro_dir(), PathBuf::from("target").join("repro"));
        }
    }
}
