//! Offline campaign analyzer behind `repro report <DIR>`.
//!
//! Joins the artifacts a campaign leaves in one directory —
//! `journal.jsonl` checkpoints, `--telemetry-json` snapshots, `--trace`
//! CSV exports and `--log` JSONL event logs — into one `report.md` +
//! `report.csv` pair:
//!
//! * **Slowest cells** — journaled cells ranked by mean msgsim wasted
//!   time, with replayable run counts;
//! * **Load imbalance** — per traced run, the coefficient of variation of
//!   the per-PE finish times (the paper's load-balance lens: a perfectly
//!   balanced technique finishes every PE at the same instant);
//! * **Scheduling overhead** — the fraction of the traced run's PE-time
//!   spent in scheduling operations rather than useful work or idling;
//! * **Chunk sizes** — the decreasing chunk-size staircase summarized
//!   (count, first/last/mean), the signature that separates GSS/TSS/FAC
//!   from SS at a glance;
//! * **Telemetry / Quarantine / Logs** — snapshot counters, quarantined
//!   runs and structured-log level counts.
//!
//! The journal is read through `journal::read_journal`, the reader
//! `--resume` uses, so the report counts exactly the records a resume
//! would replay; a record line that fails its integrity check is counted
//! as quarantined, never read.
//!
//! Every input is optional — each section states what it found, so the CI
//! `report-smoke` job can grep every heading in [`SECTIONS`]
//! unconditionally — but present-and-malformed inputs are typed
//! [`ReproError::InvalidSpec`] failures (exit 4), never silently skipped:
//! a log line that stops parsing as the documented JSONL schema is a bug.

use crate::error::ReproError;
use crate::journal::{self, JournalMeta};
use dls_telemetry::Snapshot;
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// The `report.md` section headings, in order; the CI report-smoke job
/// greps for each one.
pub const SECTIONS: [&str; 8] = [
    "## Campaign",
    "## Slowest cells",
    "## Load imbalance",
    "## Scheduling overhead",
    "## Chunk sizes",
    "## Telemetry",
    "## Quarantine and faults",
    "## Logs",
];

/// Log levels accepted by the JSONL log schema.
const LEVELS: [&str; 4] = ["debug", "info", "warn", "error"];

/// The rendered analyzer output.
#[derive(Debug)]
pub struct CampaignReport {
    /// The full markdown report (`report.md`).
    pub markdown: String,
    /// Flat machine-readable rows (`report.csv`): `section,label,metric,value`.
    pub csv: String,
    runs: usize,
    cells: usize,
    labels: usize,
    log_records: usize,
}

impl CampaignReport {
    /// One-line console summary printed by `repro report`.
    pub fn summary(&self) -> String {
        format!(
            "report: {} journaled run(s) across {} cell(s), {} trace label(s), \
             {} log record(s)",
            self.runs, self.cells, self.labels, self.log_records
        )
    }
}

#[derive(Debug, Default)]
struct CellStat {
    runs: u32,
    msgsim_sum: f64,
    msgsim_runs: u32,
}

impl CellStat {
    fn mean_msgsim(&self) -> Option<f64> {
        (self.msgsim_runs > 0).then(|| self.msgsim_sum / f64::from(self.msgsim_runs))
    }
}

#[derive(Debug, Default)]
struct JournalInfo {
    meta: JournalMeta,
    cells: BTreeMap<String, CellStat>,
    records: usize,
    quarantined: usize,
}

/// Per-trace-label statistics derived from the exported CSVs.
#[derive(Debug, Default)]
struct TraceStats {
    finish_cov: Option<f64>,
    overhead_frac: Option<f64>,
    chunks: Option<ChunkStats>,
}

#[derive(Debug)]
struct ChunkStats {
    count: usize,
    first: u64,
    last: u64,
    mean: f64,
}

#[derive(Debug, Default)]
struct LogSummary {
    files: usize,
    records: usize,
    by_level: BTreeMap<String, usize>,
    heartbeats: usize,
    quarantines: Vec<String>,
}

/// Population coefficient of variation (σ/μ); 0 for degenerate inputs.
fn cov(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// Mean msgsim wasted time of one journaled run value, when the value is
/// a figure-campaign `FigPair` array.
fn mean_msgsim(value: &Value) -> Option<f64> {
    let pairs = value.as_array()?;
    if pairs.is_empty() {
        return None;
    }
    let mut sum = 0.0;
    for p in pairs {
        sum += p.get("msgsim")?.as_f64()?;
    }
    Some(sum / pairs.len() as f64)
}

/// Summarizes a journal (`None` if empty) through `journal::read_journal`,
/// the reader `--resume` uses: a line that fails its check is only counted.
fn parse_journal(name: &str, bytes: &[u8]) -> Result<Option<JournalInfo>, ReproError> {
    let file = journal::read_journal(bytes)
        .map_err(|e| ReproError::invalid_spec(format!("{name}: {e}")))?;
    let Some(file) = file else { return Ok(None) };
    let mut info =
        JournalInfo { meta: file.meta, quarantined: file.quarantined.len(), ..Default::default() };
    for (key, value, _) in file.records {
        // Keys look like `n=1024 p=8#<cell seed hex>:<run>`.
        let cell = key.rsplit_once('#').map_or(key.as_str(), |(c, _)| c).to_string();
        let stat = info.cells.entry(cell).or_default();
        stat.runs += 1;
        info.records += 1;
        if let Some(m) = mean_msgsim(&value) {
            stat.msgsim_sum += m;
            stat.msgsim_runs += 1;
        }
    }
    Ok(Some(info))
}

/// Splits one CSV data row into `f64` fields, failing loudly.
fn csv_fields(name: &str, lineno: usize, line: &str) -> Result<Vec<f64>, ReproError> {
    line.split(',')
        .map(|f| {
            f.trim().parse::<f64>().map_err(|_| {
                ReproError::invalid_spec(format!(
                    "{name}: line {}: `{f}` is not numeric",
                    lineno + 1
                ))
            })
        })
        .collect()
}

/// Per-PE finish times (max `end_s`) from a `*.timeline.csv` body.
fn finish_times(name: &str, text: &str) -> Result<Vec<f64>, ReproError> {
    let mut finish: BTreeMap<u64, f64> = BTreeMap::new();
    for (i, line) in text.lines().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        // Columns: pe,start_s,end_s,tasks,assignment_id,completed — the
        // trailing yes/no column is not numeric, so only split the front.
        let front: Vec<&str> = line.splitn(4, ',').collect();
        if front.len() < 3 {
            return Err(ReproError::invalid_spec(format!("{name}: short row on line {}", i + 1)));
        }
        let f = csv_fields(name, i, &front[..3].join(","))?;
        let pe = f[0] as u64;
        let end = f[2];
        let slot = finish.entry(pe).or_insert(0.0);
        if end > *slot {
            *slot = end;
        }
    }
    Ok(finish.into_values().collect())
}

/// Overhead fraction from a `*.utilization.csv` body
/// (`pe,busy_s,idle_s,overhead_s,chunks,utilization`).
fn overhead_fraction(name: &str, text: &str) -> Result<Option<f64>, ReproError> {
    let (mut busy, mut idle, mut overhead) = (0.0, 0.0, 0.0);
    let mut rows = 0;
    for (i, line) in text.lines().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        let f = csv_fields(name, i, line)?;
        if f.len() < 4 {
            return Err(ReproError::invalid_spec(format!("{name}: short row on line {}", i + 1)));
        }
        busy += f[1];
        idle += f[2];
        overhead += f[3];
        rows += 1;
    }
    let horizon = busy + idle + overhead;
    Ok((rows > 0 && horizon > 0.0).then(|| overhead / horizon))
}

/// Chunk-size summary from a `*.chunks.csv` body (`t_s,tasks`).
fn chunk_stats(name: &str, text: &str) -> Result<Option<ChunkStats>, ReproError> {
    let mut sizes: Vec<u64> = Vec::new();
    for (i, line) in text.lines().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        let f = csv_fields(name, i, line)?;
        if f.len() < 2 {
            return Err(ReproError::invalid_spec(format!("{name}: short row on line {}", i + 1)));
        }
        sizes.push(f[1] as u64);
    }
    Ok((!sizes.is_empty()).then(|| ChunkStats {
        count: sizes.len(),
        first: sizes[0],
        last: *sizes.last().unwrap(),
        mean: sizes.iter().sum::<u64>() as f64 / sizes.len() as f64,
    }))
}

/// Validates one structured-log JSONL line against the documented schema
/// and returns `(level, target, msg, fields)`.
fn parse_log_line(
    name: &str,
    lineno: usize,
    line: &str,
) -> Result<(String, String, String, Value), ReproError> {
    let bad = |why: &str| ReproError::invalid_spec(format!("{name}: line {}: {why}", lineno + 1));
    let v: Value = serde_json::from_str(line).map_err(|e| bad(&format!("not JSON: {e}")))?;
    let number = |k: &str| -> Result<f64, ReproError> {
        v.get(k).and_then(Value::as_f64).ok_or_else(|| bad(&format!("missing numeric `{k}`")))
    };
    number("seq")?;
    number("t_ms")?;
    let string = |k: &str| -> Result<String, ReproError> {
        Ok(v.get(k)
            .and_then(Value::as_str)
            .ok_or_else(|| bad(&format!("missing string `{k}`")))?
            .to_string())
    };
    let level = string("level")?;
    if !LEVELS.contains(&level.as_str()) {
        return Err(bad(&format!("unknown level `{level}`")));
    }
    let target = string("target")?;
    let msg = string("msg")?;
    let fields = v.get("fields").cloned().unwrap_or(Value::Null);
    Ok((level, target, msg, fields))
}

fn summarize_log(name: &str, text: &str, sum: &mut LogSummary) -> Result<(), ReproError> {
    sum.files += 1;
    let mut last_seq = -1.0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (level, _target, msg, fields) = parse_log_line(name, i, line)?;
        let v: Value = serde_json::from_str(line).expect("validated above");
        let seq = v.get("seq").and_then(Value::as_f64).expect("validated above");
        if seq <= last_seq {
            return Err(ReproError::invalid_spec(format!(
                "{name}: line {}: sequence number {seq} is not increasing",
                i + 1
            )));
        }
        last_seq = seq;
        sum.records += 1;
        *sum.by_level.entry(level).or_default() += 1;
        if msg == "heartbeat" {
            sum.heartbeats += 1;
        }
        if msg == "run quarantined" {
            let get = |k: &str| {
                fields.get(k).map(|v| match v {
                    Value::String(s) => s.clone(),
                    other => serde_json::to_string(other).unwrap_or_default(),
                })
            };
            sum.quarantines.push(format!(
                "cell [{}] run {} seed {}: {}",
                get("cell").unwrap_or_else(|| "?".into()),
                get("run").unwrap_or_else(|| "?".into()),
                get("seed").unwrap_or_else(|| "?".into()),
                get("panic").unwrap_or_else(|| "?".into()),
            ));
        }
    }
    Ok(())
}

fn read(dir: &Path, name: &str) -> Result<String, ReproError> {
    std::fs::read_to_string(dir.join(name))
        .map_err(|e| ReproError::io(format!("{}: {e}", dir.join(name).display())))
}

/// Analyzes every recognized artifact in `dir`. See the module docs for
/// the report's structure; a directory with no recognized artifacts is an
/// invalid-spec error (the caller almost certainly passed the wrong path).
pub fn analyze_dir(dir: &Path) -> Result<CampaignReport, ReproError> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| ReproError::io(format!("{}: {e}", dir.display())))?;
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();

    // --- journal -------------------------------------------------------
    let journal_info = if names.iter().any(|n| n == journal::JOURNAL_FILE) {
        let path = dir.join(journal::JOURNAL_FILE);
        let bytes =
            std::fs::read(&path).map_err(|e| ReproError::io(format!("{}: {e}", path.display())))?;
        parse_journal(journal::JOURNAL_FILE, &bytes)?
    } else {
        None
    };

    // --- trace CSV bundles, grouped by label ---------------------------
    let mut traces: BTreeMap<String, TraceStats> = BTreeMap::new();
    for n in &names {
        if let Some(label) = n.strip_suffix(".timeline.csv") {
            let times = finish_times(n, &read(dir, n)?)?;
            traces.entry(label.to_string()).or_default().finish_cov =
                (!times.is_empty()).then(|| cov(&times));
        } else if let Some(label) = n.strip_suffix(".utilization.csv") {
            traces.entry(label.to_string()).or_default().overhead_frac =
                overhead_fraction(n, &read(dir, n)?)?;
        } else if let Some(label) = n.strip_suffix(".chunks.csv") {
            traces.entry(label.to_string()).or_default().chunks = chunk_stats(n, &read(dir, n)?)?;
        }
    }

    // --- telemetry snapshots -------------------------------------------
    let mut snapshots: Vec<(String, Snapshot)> = Vec::new();
    for n in &names {
        if !n.ends_with(".json") || n.ends_with(".trace.json") {
            continue;
        }
        // Only files that parse as a non-empty Snapshot are telemetry;
        // other JSON in the directory (specs, plans) is not ours.
        if let Ok(snap) = Snapshot::from_json(&read(dir, n)?) {
            if !snap.is_empty() {
                snapshots.push((n.clone(), snap));
            }
        }
    }

    // --- structured logs -----------------------------------------------
    let mut logs = LogSummary::default();
    for n in &names {
        if n.ends_with(".jsonl") && n != journal::JOURNAL_FILE {
            summarize_log(n, &read(dir, n)?, &mut logs)?;
        }
    }

    if journal_info.is_none() && traces.is_empty() && snapshots.is_empty() && logs.files == 0 {
        return Err(ReproError::invalid_spec(format!(
            "{}: no journal, trace, telemetry or log artifacts recognized",
            dir.display()
        )));
    }

    Ok(render(dir, journal_info, traces, snapshots, logs))
}

fn render(
    dir: &Path,
    journal_info: Option<JournalInfo>,
    traces: BTreeMap<String, TraceStats>,
    snapshots: Vec<(String, Snapshot)>,
    logs: LogSummary,
) -> CampaignReport {
    let mut md = String::new();
    let mut csv = String::from("section,label,metric,value\n");
    let mut row = |section: &str, label: &str, metric: &str, value: String| {
        csv.push_str(&format!("{section},{label},{metric},{value}\n"));
    };

    md.push_str(&format!("# Campaign report: {}\n\n", dir.display()));

    // ## Campaign
    md.push_str(&format!("{}\n\n", SECTIONS[0]));
    let (runs, cells) = match &journal_info {
        Some(j) => {
            md.push_str(&format!(
                "* command: `{}`\n* fingerprint: `{}`\n* seed: {:#x}\n* build: {}\n\
                 * journaled runs: {} across {} cell(s)\n",
                j.meta.command,
                j.meta.fingerprint,
                j.meta.seed,
                j.meta.git_rev,
                j.records,
                j.cells.len(),
            ));
            if j.quarantined > 0 {
                md.push_str(&format!(
                    "* record(s) quarantined (failed their integrity check): {}\n",
                    j.quarantined
                ));
            }
            row("campaign", "journal", "runs", j.records.to_string());
            row("campaign", "journal", "cells", j.cells.len().to_string());
            (j.records, j.cells.len())
        }
        None => {
            md.push_str("no journal (or an empty one) found\n");
            (0, 0)
        }
    };
    md.push('\n');

    // ## Slowest cells
    md.push_str(&format!("{}\n\n", SECTIONS[1]));
    let mut ranked: Vec<(&String, &CellStat)> = journal_info
        .as_ref()
        .map(|j| j.cells.iter().filter(|(_, s)| s.mean_msgsim().is_some()).collect())
        .unwrap_or_default();
    ranked.sort_by(|a, b| {
        let (ma, mb) = (a.1.mean_msgsim().unwrap(), b.1.mean_msgsim().unwrap());
        mb.partial_cmp(&ma).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(b.0))
    });
    if ranked.is_empty() {
        md.push_str("no journaled wasted-time records\n");
    } else {
        md.push_str("| cell | runs | mean wasted time (msgsim, s) |\n|---|---|---|\n");
        for (cell, stat) in ranked.iter().take(5) {
            let mean = stat.mean_msgsim().unwrap();
            md.push_str(&format!("| {cell} | {} | {mean:.6} |\n", stat.runs));
            row("slowest_cells", cell, "mean_wasted_s", format!("{mean:.9}"));
        }
    }
    md.push('\n');

    // ## Load imbalance
    md.push_str(&format!("{}\n\n", SECTIONS[2]));
    if traces.values().all(|t| t.finish_cov.is_none()) {
        md.push_str("no timeline traces found\n");
    } else {
        md.push_str("| trace | c.o.v. of PE finish times |\n|---|---|\n");
        for (label, t) in &traces {
            if let Some(c) = t.finish_cov {
                md.push_str(&format!("| {label} | {c:.4} |\n"));
                row("load_imbalance", label, "finish_cov", format!("{c:.6}"));
            }
        }
    }
    md.push('\n');

    // ## Scheduling overhead
    md.push_str(&format!("{}\n\n", SECTIONS[3]));
    if traces.values().all(|t| t.overhead_frac.is_none()) {
        md.push_str("no utilization traces found\n");
    } else {
        md.push_str("| trace | scheduling-overhead fraction |\n|---|---|\n");
        for (label, t) in &traces {
            if let Some(f) = t.overhead_frac {
                md.push_str(&format!("| {label} | {f:.4} |\n"));
                row("scheduling_overhead", label, "overhead_frac", format!("{f:.6}"));
            }
        }
    }
    md.push('\n');

    // ## Chunk sizes
    md.push_str(&format!("{}\n\n", SECTIONS[4]));
    if traces.values().all(|t| t.chunks.is_none()) {
        md.push_str("no chunk-size traces found\n");
    } else {
        md.push_str("| trace | chunks | first | last | mean |\n|---|---|---|---|---|\n");
        for (label, t) in &traces {
            if let Some(c) = &t.chunks {
                md.push_str(&format!(
                    "| {label} | {} | {} | {} | {:.1} |\n",
                    c.count, c.first, c.last, c.mean
                ));
                row("chunk_sizes", label, "chunks", c.count.to_string());
                row("chunk_sizes", label, "first", c.first.to_string());
                row("chunk_sizes", label, "last", c.last.to_string());
            }
        }
    }
    md.push('\n');

    // ## Telemetry
    md.push_str(&format!("{}\n\n", SECTIONS[5]));
    if snapshots.is_empty() {
        md.push_str("no telemetry snapshots found\n");
    } else {
        for (name, snap) in &snapshots {
            md.push_str(&format!(
                "`{name}`: {} counter(s), {} gauge(s), {} histogram(s)\n\n",
                snap.counters.len(),
                snap.gauges.len(),
                snap.histograms.len()
            ));
            if !snap.histograms.is_empty() {
                md.push_str(
                    "| histogram | count | mean | p90 | max | dropped samples |\n\
                     |---|---|---|---|---|---|\n",
                );
                for h in &snap.histograms {
                    md.push_str(&format!(
                        "| {} | {} | {:.6} | {:.6} | {:.6} | {} |\n",
                        h.name, h.count, h.mean, h.p90, h.max, h.dropped_samples
                    ));
                }
                md.push('\n');
            }
            for c in &snap.counters {
                row("telemetry", name, &c.name, c.value.to_string());
            }
        }
    }
    md.push('\n');

    // ## Quarantine and faults
    md.push_str(&format!("{}\n\n", SECTIONS[6]));
    let fault_counters: Vec<(String, u64)> = snapshots
        .iter()
        .flat_map(|(_, s)| s.counters.iter())
        .filter(|c| {
            c.name.contains("dead_letters")
                || c.name.contains("dropped")
                || c.name.contains("delayed")
                || c.name.contains("quarantin")
        })
        .map(|c| (c.name.clone(), c.value))
        .collect();
    if logs.quarantines.is_empty() && fault_counters.is_empty() {
        md.push_str("no quarantined runs or fault counters observed\n");
    } else {
        for q in &logs.quarantines {
            md.push_str(&format!("* quarantined: {q}\n"));
        }
        row("quarantine", "logs", "quarantined_runs", logs.quarantines.len().to_string());
        for (name, value) in &fault_counters {
            md.push_str(&format!("* {name}: {value}\n"));
            row("quarantine", "telemetry", name, value.to_string());
        }
    }
    md.push('\n');

    // ## Logs
    md.push_str(&format!("{}\n\n", SECTIONS[7]));
    if logs.files == 0 {
        md.push_str("no structured logs found\n");
    } else {
        let levels: Vec<String> = logs.by_level.iter().map(|(l, n)| format!("{n} {l}")).collect();
        md.push_str(&format!(
            "{} file(s), {} record(s) ({}); {} heartbeat(s)\n",
            logs.files,
            logs.records,
            if levels.is_empty() { "none".into() } else { levels.join(", ") },
            logs.heartbeats
        ));
        row("logs", "all", "records", logs.records.to_string());
        row("logs", "all", "heartbeats", logs.heartbeats.to_string());
    }
    md.push('\n');

    CampaignReport {
        markdown: md,
        csv,
        runs,
        cells,
        labels: traces.len(),
        log_records: logs.records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dls-analyze-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write(dir: &Path, name: &str, text: &str) {
        std::fs::write(dir.join(name), text).unwrap();
    }

    /// A three-record `fig5` journal, sealed through the record codec.
    fn journal_text() -> String {
        [
            r#"{"schema":"dls-journal/2","command":"fig5","fingerprint":"f","seed":7,"git_rev":"abc"}"#,
            r#"{"key":"n=1024 p=2#0000000000000001:0","value":[{"msgsim":2.0,"replica":1.9}]}"#,
            r#"{"key":"n=1024 p=2#0000000000000001:1","value":[{"msgsim":4.0,"replica":3.9}]}"#,
            r#"{"key":"n=1024 p=4#0000000000000002:0","value":[{"msgsim":1.0,"replica":1.1}]}"#,
        ]
        .map(crate::record::seal)
        .concat()
    }

    const LOG: &str = concat!(
        "{\"seq\":0,\"t_ms\":1,\"level\":\"info\",\"target\":\"campaign\",\"msg\":\"cell start\",",
        "\"fields\":{\"cell\":\"n=1024 p=2\",\"runs\":2}}\n",
        "{\"seq\":1,\"t_ms\":5,\"level\":\"info\",\"target\":\"campaign\",\"msg\":\"heartbeat\",",
        "\"fields\":{\"done\":2,\"total\":2}}\n",
        "{\"seq\":2,\"t_ms\":6,\"level\":\"warn\",\"target\":\"campaign\",",
        "\"msg\":\"run quarantined\",\"fields\":{\"cell\":\"n=1024 p=2\",\"run\":1,",
        "\"seed\":\"0x2\",\"panic\":\"boom\"}}\n",
    );

    fn populate(dir: &Path) {
        write(dir, "journal.jsonl", &journal_text());
        write(dir, "campaign.log.jsonl", LOG);
        write(
            dir,
            "fig5-SS.timeline.csv",
            "pe,start_s,end_s,tasks,assignment_id,completed\n\
             0,0.0,2.0,8,0,yes\n0,2.0,4.0,8,2,yes\n1,0.0,1.0,8,1,yes\n",
        );
        write(
            dir,
            "fig5-SS.utilization.csv",
            "pe,busy_s,idle_s,overhead_s,chunks,utilization\n\
             0,3.0,0.0,1.0,2,0.75\n1,1.0,2.0,1.0,1,0.25\n",
        );
        write(dir, "fig5-SS.chunks.csv", "t_s,tasks\n0,8\n1,4\n2,2\n");
        let tel = Telemetry::enabled();
        tel.counter_add("msgsim.dead_letters", 3);
        tel.observe_secs("run_wall_s", 0.5);
        write(dir, "telemetry.json", &tel.snapshot().to_json());
    }

    use dls_telemetry::Telemetry;

    #[test]
    fn report_joins_journal_traces_telemetry_and_logs() {
        let dir = tmp_dir("full");
        populate(&dir);
        let report = analyze_dir(&dir).unwrap();
        for section in SECTIONS {
            assert!(report.markdown.contains(section), "missing {section}");
        }
        // Slowest cell first: n=1024 p=2 has mean 3.0 > p=4's 1.0.
        let p2 = report.markdown.find("| n=1024 p=2 |").unwrap();
        let p4 = report.markdown.find("| n=1024 p=4 |").unwrap();
        assert!(p2 < p4, "cells ranked by mean wasted time");
        // Finish times 4.0 and 1.0: cov = std/mean = 1.5/2.5 = 0.6.
        assert!(report.markdown.contains("| fig5-SS | 0.6000 |"), "{}", report.markdown);
        // Overhead 2.0 over an 8.0 horizon.
        assert!(report.markdown.contains("| fig5-SS | 0.2500 |"), "{}", report.markdown);
        assert!(report.markdown.contains("| fig5-SS | 3 | 8 | 2 |"), "{}", report.markdown);
        assert!(report.markdown.contains("quarantined: cell [n=1024 p=2] run 1"));
        assert!(report.markdown.contains("msgsim.dead_letters: 3"));
        assert!(report.csv.starts_with("section,label,metric,value\n"));
        assert!(report.csv.contains("slowest_cells,n=1024 p=2,mean_wasted_s,"));
        assert!(report.csv.contains("logs,all,heartbeats,1"));
        assert!(report.summary().contains("3 journaled run(s) across 2 cell(s)"));
    }

    #[test]
    fn invalid_log_lines_are_typed_errors() {
        for (broken, why) in [
            ("{\"seq\":0,\"t_ms\":1,\"level\":\"loud\",\"target\":\"t\",\"msg\":\"m\"}\n", "level"),
            ("{\"t_ms\":1,\"level\":\"info\",\"target\":\"t\",\"msg\":\"m\"}\n", "seq"),
            ("not json\n", "JSON"),
            (
                concat!(
                    "{\"seq\":5,\"t_ms\":1,\"level\":\"info\",\"target\":\"t\",\"msg\":\"m\"}\n",
                    "{\"seq\":5,\"t_ms\":2,\"level\":\"info\",\"target\":\"t\",\"msg\":\"m\"}\n",
                ),
                "increasing",
            ),
        ] {
            let dir = tmp_dir(&format!("badlog-{why}"));
            write(&dir, "bad.log.jsonl", broken);
            let err = analyze_dir(&dir).unwrap_err();
            assert_eq!(err.exit_code(), 4, "{why}: {err}");
            assert!(err.to_string().contains(why), "{why}: {err}");
        }
    }

    #[test]
    fn wrong_journal_schema_is_rejected() {
        let dir = tmp_dir("badschema");
        write(&dir, "journal.jsonl", &crate::record::seal(r#"{"schema":"dls-journal/9"}"#));
        let err = analyze_dir(&dir).unwrap_err();
        assert_eq!(err.exit_code(), 4);
        assert!(err.to_string().contains("dls-journal/9"));
    }

    #[test]
    fn empty_directory_is_an_error_and_failed_records_are_quarantined() {
        let dir = tmp_dir("empty");
        assert_eq!(analyze_dir(&dir).unwrap_err().exit_code(), 4);
        // A torn trailing journal line (crash mid-flush) is survivable data.
        write(
            &dir,
            "journal.jsonl",
            &(journal_text() + "{\"key\":\"n=1024 p=4#0000000000000002:1\",\"val"),
        );
        let report = analyze_dir(&dir).unwrap();
        assert!(report.markdown.contains("quarantined (failed their integrity check): 1"));
        assert!(report.summary().contains("3 journaled run(s)"));
        // So is a changed digit mid-file: that run is not counted.
        write(&dir, "journal.jsonl", &journal_text().replacen("4.0", "5.0", 1));
        let report = analyze_dir(&dir).unwrap();
        assert!(report.markdown.contains("quarantined (failed their integrity check): 1"));
        assert!(report.summary().contains("2 journaled run(s)"));
    }
}
