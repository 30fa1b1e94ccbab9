//! Typed errors for the harness, with distinct process exit codes.
//!
//! Every `repro` failure falls into one of a handful of classes a wrapping
//! script (CI, a sweep driver, a user's Makefile) wants to distinguish:
//! bad invocation, host I/O trouble, an invalid experiment specification, a
//! benchmark regression gate firing, or a graceful interrupt. [`ReproError`]
//! names those classes and [`ReproError::exit_code`] maps each to a stable
//! exit code, so `repro bench --compare` failing its gate (exit 5) is
//! scriptably different from a typo'd flag (exit 2) or a full disk (exit 3).

use crate::runner::QuarantinedRun;
use dls_core::SetupError;

/// Exit code for invocation errors (unknown flag, malformed value,
/// mismatched `--resume` journal).
pub const EXIT_USAGE: u8 = 2;
/// Exit code for host I/O failures (unwritable artifact, unreadable file).
pub const EXIT_IO: u8 = 3;
/// Exit code for invalid experiment specifications (bad technique
/// parameters, malformed spec/fault-plan JSON, impossible platform).
pub const EXIT_INVALID_SPEC: u8 = 4;
/// Exit code for a failed `bench --compare` regression gate, and for a
/// campaign that cannot complete (a fault run that lost tasks, a
/// simulation run that panicked where no run may be dropped).
pub const EXIT_REGRESSION: u8 = 5;
/// Exit code for a campaign that completed with degraded secondary
/// artifacts (a trace or telemetry dump could not be written; the primary
/// result CSVs and the journal are intact).
pub const EXIT_DEGRADED: u8 = 6;
/// Exit code after a graceful interrupt (mirrors the shell's 128+SIGINT).
pub const EXIT_INTERRUPTED: u8 = 130;

/// A classified harness error; see the module docs for the exit-code map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReproError {
    /// The invocation itself is wrong: unknown option, malformed value,
    /// missing positional argument, or a `--resume` journal that belongs
    /// to a different campaign. The CLI prints usage after these.
    Usage(String),
    /// A host-side I/O operation failed after the bounded retry policy
    /// gave up (artifact write, journal flush, baseline read).
    Io(String),
    /// The experiment specification cannot be simulated: invalid technique
    /// parameters, malformed JSON, or an inconsistent platform.
    InvalidSpec(String),
    /// The `bench --compare` regression gate fired.
    Regression(String),
    /// A simulation run panicked in a campaign whose output is indexed by
    /// run (Figure 9's per-run series), so it cannot be quarantined and
    /// dropped like a run of an averaging campaign. Carries the run and
    /// its seed, enough to replay the failure.
    RunPanicked(QuarantinedRun),
    /// The campaign completed — primary result CSVs and the journal are on
    /// disk — but one or more *secondary* artifacts (trace exports,
    /// telemetry dumps) could not be written after retries. Each entry
    /// names one degraded artifact.
    Degraded(Vec<String>),
    /// The run was interrupted (Ctrl-C or an injected cancellation) and
    /// shut down gracefully after flushing the checkpoint journal.
    Interrupted {
        /// `--resume` directory whose journal holds the completed runs,
        /// when one was configured.
        resume_dir: Option<String>,
    },
}

impl ReproError {
    /// Shorthand for [`ReproError::Usage`].
    pub fn usage(msg: impl Into<String>) -> Self {
        ReproError::Usage(msg.into())
    }

    /// Shorthand for [`ReproError::Io`].
    pub fn io(msg: impl Into<String>) -> Self {
        ReproError::Io(msg.into())
    }

    /// Shorthand for [`ReproError::InvalidSpec`].
    pub fn invalid_spec(msg: impl Into<String>) -> Self {
        ReproError::InvalidSpec(msg.into())
    }

    /// The process exit code for this error class.
    pub fn exit_code(&self) -> u8 {
        match self {
            ReproError::Usage(_) => EXIT_USAGE,
            ReproError::Io(_) => EXIT_IO,
            ReproError::InvalidSpec(_) => EXIT_INVALID_SPEC,
            ReproError::Regression(_) | ReproError::RunPanicked(_) => EXIT_REGRESSION,
            ReproError::Degraded(_) => EXIT_DEGRADED,
            ReproError::Interrupted { .. } => EXIT_INTERRUPTED,
        }
    }

    /// True for invocation errors, after which the CLI reprints its usage.
    pub fn is_usage(&self) -> bool {
        matches!(self, ReproError::Usage(_))
    }
}

impl std::fmt::Display for ReproError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReproError::Usage(m)
            | ReproError::Io(m)
            | ReproError::InvalidSpec(m)
            | ReproError::Regression(m) => f.write_str(m),
            ReproError::RunPanicked(run) => write!(f, "a simulation run panicked: {run}"),
            ReproError::Degraded(artifacts) => write!(
                f,
                "campaign completed, but {} secondary artifact{} could not be written: {}",
                artifacts.len(),
                if artifacts.len() == 1 { "" } else { "s" },
                artifacts.join(", "),
            ),
            ReproError::Interrupted { resume_dir: Some(dir) } => write!(
                f,
                "interrupted — completed runs are journaled; rerun the same command \
                 with `--resume {dir}` to continue where it left off"
            ),
            ReproError::Interrupted { resume_dir: None } => f.write_str(
                "interrupted — no `--resume` directory was configured, so completed \
                 runs were not journaled and a rerun starts from scratch",
            ),
        }
    }
}

impl std::error::Error for ReproError {}

impl From<SetupError> for ReproError {
    fn from(e: SetupError) -> Self {
        ReproError::InvalidSpec(e.to_string())
    }
}

impl From<dls_workload::WorkloadError> for ReproError {
    fn from(e: dls_workload::WorkloadError) -> Self {
        ReproError::InvalidSpec(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_stable() {
        let errs = [
            ReproError::usage("x"),
            ReproError::io("x"),
            ReproError::invalid_spec("x"),
            ReproError::Regression("x".into()),
            ReproError::Degraded(vec!["trace.json".into()]),
            ReproError::Interrupted { resume_dir: None },
        ];
        let codes: Vec<u8> = errs.iter().map(|e| e.exit_code()).collect();
        assert_eq!(codes, vec![2, 3, 4, 5, 6, 130]);
        let mut dedup = codes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len(), "exit codes must stay distinct");
    }

    #[test]
    fn interrupted_message_carries_the_resume_hint() {
        let with = ReproError::Interrupted { resume_dir: Some("ckpt".into()) };
        assert!(with.to_string().contains("--resume ckpt"));
        let without = ReproError::Interrupted { resume_dir: None };
        assert!(without.to_string().contains("not journaled"));
    }

    #[test]
    fn setup_errors_classify_as_invalid_spec() {
        let e: ReproError = SetupError::BadParam("k must be positive").into();
        assert_eq!(e.exit_code(), EXIT_INVALID_SPEC);
        assert!(e.to_string().contains("k must be positive"));
    }

    #[test]
    fn degraded_message_names_every_artifact() {
        let e = ReproError::Degraded(vec!["trace.json".into(), "telemetry.json".into()]);
        assert_eq!(e.exit_code(), EXIT_DEGRADED);
        let msg = e.to_string();
        assert!(msg.contains("2 secondary artifacts"), "{msg}");
        assert!(msg.contains("trace.json") && msg.contains("telemetry.json"), "{msg}");
    }

    #[test]
    fn only_usage_reprints_usage() {
        assert!(ReproError::usage("x").is_usage());
        assert!(!ReproError::io("x").is_usage());
        assert!(!ReproError::Interrupted { resume_dir: None }.is_usage());
    }
}
