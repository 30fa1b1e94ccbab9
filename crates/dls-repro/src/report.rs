//! Plain-text tables and CSV output for experiment results.

use crate::hagerup_exp::WastedRow;
use crate::tss_exp::SpeedupRow;
use dls_metrics::{mean_below_threshold, SummaryStats};
use std::fmt::Write as _;

/// Renders an aligned plain-text table.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{:>width$}", cell, width = widths.get(i).copied().unwrap_or(0));
        }
        out.push('\n');
    };
    line(&mut out, &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    // saturating_sub: zero headers means zero separators, not an underflow
    // panic (telemetry summaries can legitimately render empty sections).
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Renders rows as CSV (RFC-4180-ish; cells are numeric or simple labels,
/// so quoting is only applied when a cell contains a comma or quote).
pub fn format_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let esc = |s: &str| -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    let mut out = String::new();
    out.push_str(&headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Formats Figure 3/4 speedup rows.
pub fn speedup_rows(rows: &[SpeedupRow]) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = vec!["technique", "p", "simulated", "original", "note"];
    let body = rows
        .iter()
        .map(|r| {
            let orig = r.reference.map(|v| format!("{v:.1}")).unwrap_or_else(|| "-".into());
            let note = match r.reference {
                Some(o) if r.simulated > 1.5 * o => "diverges (paper: not reproduced)",
                Some(_) => "matches",
                None => "",
            };
            vec![
                r.label.clone(),
                r.p.to_string(),
                format!("{:.1}", r.simulated),
                orig,
                note.to_string(),
            ]
        })
        .collect();
    (headers, body)
}

/// Formats Figure 5–8 wasted-time rows.
pub fn wasted_rows(rows: &[WastedRow]) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers =
        vec!["technique", "p", "msgsim[s]", "replica[s]", "discrepancy[s]", "relative[%]"];
    let body = rows
        .iter()
        .map(|r| {
            vec![
                r.technique.clone(),
                r.p.to_string(),
                format!("{:.2}", r.msgsim),
                format!("{:.2}", r.replica),
                format!("{:+.2}", r.discrepancy),
                format!("{:+.2}", r.relative_pct),
            ]
        })
        .collect();
    (headers, body)
}

/// Formats the Figure 9 analysis of a per-run wasted-time series: its
/// mean and max, the runs above `threshold`, and the mean without them.
pub fn outlier_summary(per_run: &[f64], threshold: f64) -> String {
    let stats = SummaryStats::from_slice(per_run);
    let outliers = per_run.iter().filter(|&&w| w > threshold).count();
    let mut out = String::new();
    let _ = writeln!(out, "runs:             {}", per_run.len());
    let _ = writeln!(out, "mean wasted:      {:.2} s", stats.mean());
    let _ = writeln!(out, "max wasted:       {:.2} s", stats.max());
    let _ = writeln!(
        out,
        "> {:.0} s:          {} runs ({:.1} %)",
        threshold,
        outliers,
        100.0 * outliers as f64 / per_run.len().max(1) as f64
    );
    if let Some(tm) = mean_below_threshold(per_run, threshold) {
        let _ = writeln!(out, "mean (<= {:.0} s):  {:.2} s", threshold, tm);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = format_table(
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows have equal width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len() || l.starts_with('-')));
    }

    #[test]
    fn empty_headers_do_not_panic() {
        let t = format_table(&[], &[]);
        // Header line + (empty) rule line, no separator padding.
        assert_eq!(t, "\n\n");
        // Rows beyond the header width are tolerated too.
        let t = format_table(&[], &[vec!["ignored".into()]]);
        assert!(t.ends_with('\n'));
    }

    #[test]
    fn single_column_table_has_no_separator_padding() {
        let t = format_table(&["col"], &[vec!["value".into()]]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        // The rule is exactly as wide as the widest cell.
        assert_eq!(lines[1], "-----");
        assert_eq!(lines[2], "value");
    }

    #[test]
    fn csv_escaping() {
        let c = format_csv(&["x"], &[vec!["a,b".into()], vec!["q\"q".into()]]);
        assert!(c.contains("\"a,b\""));
        assert!(c.contains("\"q\"\"q\""));
    }

    #[test]
    fn csv_plain_cells_unquoted() {
        let c = format_csv(&["x", "y"], &[vec!["1".into(), "2.5".into()]]);
        assert_eq!(c, "x,y\n1,2.5\n");
    }

    #[test]
    fn speedup_note_flags_divergence() {
        let rows = vec![
            SpeedupRow { label: "SS".into(), p: 80, simulated: 75.0, reference: Some(20.0) },
            SpeedupRow { label: "TSS".into(), p: 80, simulated: 74.0, reference: Some(73.0) },
        ];
        let (_, body) = speedup_rows(&rows);
        assert!(body[0][4].contains("diverges"));
        assert_eq!(body[1][4], "matches");
    }
}
