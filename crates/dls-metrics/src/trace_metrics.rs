//! Metrics derived from `dls-trace` event streams: per-PE busy/idle/
//! overhead breakdowns and the chunk-size-over-time series.
//!
//! These turn a raw chunk-lifecycle trace into the quantities the paper
//! plots: how a technique's chunk sizes decay over the run, and how each
//! PE's time splits into useful execution, scheduling overhead and idling.

use dls_trace::timeline::busy_intervals;
use dls_trace::TraceEvent;

/// How one PE spent a run (all values in virtual seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeBreakdown {
    /// PE index.
    pub pe: usize,
    /// Time executing tasks (chunk occupancy minus scheduling overhead).
    pub busy: f64,
    /// Time waiting for work: the horizon minus chunk occupancy.
    pub idle: f64,
    /// Scheduling overhead: the in-dynamics `h` charged once per chunk.
    pub overhead: f64,
    /// Chunks this PE executed.
    pub chunks: u64,
}

impl PeBreakdown {
    /// Fraction of the horizon spent executing tasks (0 for a zero horizon).
    pub fn utilization(&self) -> f64 {
        let horizon = self.busy + self.idle + self.overhead;
        if horizon > 0.0 {
            self.busy / horizon
        } else {
            0.0
        }
    }
}

/// Splits each PE's time over `[0, horizon]` into busy / idle / overhead
/// from the chunk-lifecycle events of a trace.
///
/// `h` is the per-scheduling-operation overhead that is *inside* each busy
/// interval (the in-dynamics `h`; pass 0.0 when overhead is accounted
/// post-hoc). Pass `horizon <= 0.0` to use the latest interval end seen in
/// the trace (the makespan as observed by the tracer).
pub fn pe_breakdowns(events: &[TraceEvent], p: usize, horizon: f64, h: f64) -> Vec<PeBreakdown> {
    assert!(h >= 0.0, "per-chunk overhead must be >= 0");
    let intervals = busy_intervals(events);
    let horizon =
        if horizon > 0.0 { horizon } else { intervals.iter().fold(0.0f64, |a, iv| a.max(iv.end)) };
    let mut out: Vec<PeBreakdown> = (0..p)
        .map(|pe| PeBreakdown { pe, busy: 0.0, idle: horizon, overhead: 0.0, chunks: 0 })
        .collect();
    for iv in intervals {
        if iv.pe >= p {
            continue; // stream mentions a PE outside the requested range
        }
        let occupied = (iv.end - iv.start).max(0.0);
        let overhead = h.min(occupied);
        let b = &mut out[iv.pe];
        b.busy += occupied - overhead;
        b.overhead += overhead;
        b.idle = (b.idle - occupied).max(0.0);
        b.chunks += 1;
    }
    out
}

/// Renders per-PE breakdowns as a utilization CSV
/// (`pe,busy_s,idle_s,overhead_s,chunks,utilization`).
pub fn breakdown_csv(breakdowns: &[PeBreakdown]) -> String {
    let mut out = String::from("pe,busy_s,idle_s,overhead_s,chunks,utilization\n");
    for b in breakdowns {
        out.push_str(&format!(
            "{},{:.9},{:.9},{:.9},{},{:.6}\n",
            b.pe,
            b.busy,
            b.idle,
            b.overhead,
            b.chunks,
            b.utilization()
        ));
    }
    out
}

/// The chunk-size-over-time series: `(assignment time, tasks)` for every
/// scheduling operation, in event order — the decay profile that
/// distinguishes the techniques (GSS's geometric decrease, TSS's linear
/// one, SS's flat line at 1).
pub fn chunk_size_series(events: &[TraceEvent]) -> Vec<(f64, u64)> {
    events.iter().filter_map(TraceEvent::chunk_assignment).map(|c| (c.at, c.count)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_trace::TraceKind;

    fn started(at: f64, worker: usize, id: u64, count: u64, exec: f64) -> TraceEvent {
        TraceEvent { at, kind: TraceKind::ChunkStarted { worker, id, count, exec_secs: exec } }
    }
    fn completed(at: f64, worker: usize, id: u64, count: u64) -> TraceEvent {
        TraceEvent { at, kind: TraceKind::ChunkCompleted { worker, id, count } }
    }
    fn assigned(at: f64, worker: usize, id: u64, count: u64) -> TraceEvent {
        TraceEvent {
            at,
            kind: TraceKind::ChunkAssigned { worker, id, start: 0, count, work_secs: count as f64 },
        }
    }

    #[test]
    fn breakdown_accounts_busy_idle_overhead() {
        // PE0: two chunks of 4 s each (0.5 s overhead inside each);
        // PE1: one chunk of 6 s. Horizon 10 s.
        let events = [
            started(0.0, 0, 1, 4, 4.0),
            completed(4.0, 0, 1, 4),
            started(4.0, 0, 2, 4, 4.0),
            completed(8.0, 0, 2, 4),
            started(1.0, 1, 3, 6, 6.0),
            completed(7.0, 1, 3, 6),
        ];
        let b = pe_breakdowns(&events, 2, 10.0, 0.5);
        assert_eq!(b.len(), 2);
        assert!((b[0].busy - 7.0).abs() < 1e-12);
        assert!((b[0].overhead - 1.0).abs() < 1e-12);
        assert!((b[0].idle - 2.0).abs() < 1e-12);
        assert_eq!(b[0].chunks, 2);
        assert!((b[1].busy - 5.5).abs() < 1e-12);
        assert!((b[1].idle - 4.0).abs() < 1e-12);
        assert!((b[0].utilization() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn zero_horizon_uses_latest_end() {
        let events = [started(0.0, 0, 1, 4, 4.0), completed(4.0, 0, 1, 4)];
        let b = pe_breakdowns(&events, 1, 0.0, 0.0);
        assert!((b[0].busy - 4.0).abs() < 1e-12);
        assert!((b[0].idle).abs() < 1e-12);
    }

    #[test]
    fn series_follows_assignment_order() {
        let events = [assigned(0.0, 0, 1, 100), assigned(0.1, 1, 2, 50), assigned(5.0, 0, 3, 25)];
        assert_eq!(chunk_size_series(&events), vec![(0.0, 100), (0.1, 50), (5.0, 25)]);
    }

    #[test]
    fn csv_shape() {
        let events = [started(0.0, 0, 1, 4, 4.0), completed(4.0, 0, 1, 4)];
        let csv = breakdown_csv(&pe_breakdowns(&events, 1, 8.0, 0.0));
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "pe,busy_s,idle_s,overhead_s,chunks,utilization");
        let row = lines.next().unwrap();
        assert!(row.starts_with("0,4.000000000,4.000000000,0.000000000,1,0.5"), "{row}");
    }
}
