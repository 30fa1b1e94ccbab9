//! Fail-soft vs fail-hard artifact tiers.
//!
//! A campaign produces two kinds of files. *Primary* artifacts — the result
//! CSVs and the checkpoint journal — are the experiment: losing one makes
//! the run worthless, so their write failures abort with
//! [`ReproError::Io`] (exit 3). *Secondary* artifacts — trace exports and
//! telemetry dumps — are diagnostics riding along: a campaign that computed
//! every result but could not dump its telemetry is degraded, not dead.
//! [`ArtifactSink`] collects those degraded writes; the CLI surfaces them
//! through [`ReproError::Degraded`] (exit 6) *after* the primary artifacts
//! are safely on disk, so a wrapping script can distinguish "rerun
//! everything" from "results are good, diagnostics are missing".

use crate::error::ReproError;
use crate::journal::{write_artifact, write_artifact_with};
use dls_chaos::{HostIo, RetryPolicy};
use std::path::Path;
use std::sync::Mutex;

/// The two artifact classes; see the module docs for the failure contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactTier {
    /// Result CSVs and the journal: a write failure is fatal (exit 3).
    Primary,
    /// Traces and telemetry dumps: a write failure degrades the run
    /// (exit 6) but never discards computed results.
    Secondary,
}

/// Collects secondary-artifact write failures across a command invocation.
///
/// Thread-safe so fail-soft writes inside campaign helpers need no plumbing
/// back to the caller beyond a shared reference.
#[derive(Debug, Default)]
pub struct ArtifactSink {
    degraded: Mutex<Vec<String>>,
}

impl ArtifactSink {
    /// A sink with no degraded artifacts recorded.
    pub fn new() -> ArtifactSink {
        ArtifactSink::default()
    }

    /// Writes `contents` to `path` atomically under the standard retry
    /// policy, honouring the tier's failure contract. Returns `Ok(true)` if
    /// the artifact landed, `Ok(false)` if a secondary artifact was
    /// degraded (recorded, warned on stderr), and `Err` only for a primary
    /// failure.
    pub fn write(
        &self,
        tier: ArtifactTier,
        path: &Path,
        contents: &[u8],
    ) -> Result<bool, ReproError> {
        match (tier, write_artifact(path, contents)) {
            (_, Ok(())) => Ok(true),
            (ArtifactTier::Primary, Err(e)) => Err(e),
            (ArtifactTier::Secondary, Err(e)) => {
                self.record_degraded(&path.display().to_string(), &e);
                Ok(false)
            }
        }
    }

    /// [`ArtifactSink::write`] through an injectable [`HostIo`] and retry
    /// policy — the seam the campaign service's cache persistence uses so
    /// `repro chaos serve` can crash-exhaust and fault-storm its writes.
    pub fn write_with(
        &self,
        tier: ArtifactTier,
        io: &dyn HostIo,
        retry: RetryPolicy,
        path: &Path,
        contents: &[u8],
    ) -> Result<bool, ReproError> {
        match (tier, write_artifact_with(io, retry, path, contents)) {
            (_, Ok(())) => Ok(true),
            (ArtifactTier::Primary, Err(e)) => Err(e),
            (ArtifactTier::Secondary, Err(e)) => {
                self.record_degraded(&path.display().to_string(), &e);
                Ok(false)
            }
        }
    }

    /// Applies the fail-soft contract to an already-made write attempt:
    /// an `Io` failure is recorded as a degraded artifact named `label`
    /// and absorbed; every other error class still propagates.
    pub fn soften(&self, label: &str, result: Result<(), ReproError>) -> Result<(), ReproError> {
        match result {
            Err(e @ ReproError::Io(_)) => {
                self.record_degraded(label, &e);
                Ok(())
            }
            other => other,
        }
    }

    /// Labels of every artifact degraded so far, in order of failure.
    pub fn degraded(&self) -> Vec<String> {
        self.sink().clone()
    }

    /// Converts the collected state into the command's verdict: `Ok(())`
    /// when everything landed, [`ReproError::Degraded`] otherwise. Call
    /// only after the primary artifacts are on disk.
    pub fn finish(&self) -> Result<(), ReproError> {
        let degraded = self.degraded();
        if degraded.is_empty() {
            Ok(())
        } else {
            Err(ReproError::Degraded(degraded))
        }
    }

    fn record_degraded(&self, label: &str, err: &ReproError) {
        crate::errln!("warning: degraded artifact {label}: {err}");
        self.sink().push(label.to_string());
    }

    fn sink(&self) -> std::sync::MutexGuard<'_, Vec<String>> {
        // The list of degraded labels is a plain data record: it stays valid
        // even if a writer panicked mid-push, so recover instead of letting
        // one quarantined panic abort every later artifact write.
        self.degraded.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dls-artifacts-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn successful_writes_leave_the_sink_clean() {
        let dir = tmp_dir("ok");
        let sink = ArtifactSink::new();
        assert!(sink.write(ArtifactTier::Primary, &dir.join("a.csv"), b"a").unwrap());
        assert!(sink.write(ArtifactTier::Secondary, &dir.join("b.json"), b"b").unwrap());
        assert!(sink.finish().is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn primary_failures_are_fatal_secondary_failures_degrade() {
        let missing = std::env::temp_dir()
            .join(format!("dls-artifacts-missing-{}", std::process::id()))
            .join("no-such-dir")
            .join("x.csv");
        let sink = ArtifactSink::new();
        let err = sink.write(ArtifactTier::Primary, &missing, b"x").unwrap_err();
        assert_eq!(err.exit_code(), crate::error::EXIT_IO);

        assert!(!sink.write(ArtifactTier::Secondary, &missing, b"x").unwrap());
        let verdict = sink.finish().unwrap_err();
        assert_eq!(verdict.exit_code(), crate::error::EXIT_DEGRADED);
        assert!(verdict.to_string().contains("x.csv"), "{verdict}");
    }

    #[test]
    fn poisoned_sink_lock_recovers() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let sink = ArtifactSink::new();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _guard = sink.degraded.lock().unwrap();
            panic!("poison for test");
        }));
        assert!(caught.is_err());
        assert!(sink.degraded.is_poisoned());
        // Recording and reading degraded artifacts must still work.
        sink.soften("late.json", Err(ReproError::io("flake"))).unwrap();
        assert_eq!(sink.degraded(), vec!["late.json".to_string()]);
    }

    #[test]
    fn soften_absorbs_io_errors_only() {
        let sink = ArtifactSink::new();
        sink.soften("trace.json", Err(ReproError::io("disk full"))).unwrap();
        assert_eq!(sink.degraded(), vec!["trace.json".to_string()]);
        let kept = sink.soften("spec", Err(ReproError::invalid_spec("bad"))).unwrap_err();
        assert_eq!(kept.exit_code(), crate::error::EXIT_INVALID_SPEC);
        sink.soften("noop", Ok(())).unwrap();
        assert_eq!(sink.degraded().len(), 1);
    }
}
