//! Reproducibility harness: regenerates every table and figure of the paper.
//!
//! | Artifact | Module | CLI |
//! |---|---|---|
//! | Table II (required parameters) | `dls_core::Technique::required_params` | `repro table2` |
//! | Table III (experiment overview) | [`registry`] | `repro list` |
//! | Figure 2 (simulation information) | [`spec`] | — (JSON specs) |
//! | Figures 3–4 (TSS speedups) | [`tss_exp`] | `repro fig3`, `repro fig4` |
//! | Figures 5–8 (wasted time + discrepancy) | [`hagerup_exp`] | `repro fig5` … `repro fig8` |
//! | Figure 9 (FAC outlier runs) | [`outlier`] | `repro fig9` |
//!
//! The comparison oracle for Figures 5–8 is the [`dls_hagerup`] replica of
//! Hagerup's simulator, fed the *same* per-run task-time realizations as the
//! SimGrid-MSG analog — mirroring the paper's §III-B methodology (its
//! authors also had to replicate Hagerup's simulator after no fictitious
//! platform description reproduced the published values).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod artifacts;
pub mod chaos;
pub mod cli;
pub mod console;
pub mod error;
pub mod faults;
pub mod hagerup_exp;
pub mod journal;
pub mod outlier;
pub mod plot;
pub mod record;
pub mod reference;
pub mod registry;
pub mod report;
pub mod runner;
pub mod server;
pub mod spec;
pub mod sweep;
pub mod trace;
pub mod tss_exp;
pub mod verify;
