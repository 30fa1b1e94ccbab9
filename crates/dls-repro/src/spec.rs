//! Experiment specifications: paper Figure 2 as a serializable artifact.
//!
//! Figure 2 enumerates everything a DLS simulation needs: application
//! information (task count, technique, task-time model and its moments),
//! system information (hosts, network), and execution information (number
//! of runs, measured values). [`ExperimentSpec`] captures exactly that and
//! round-trips through JSON — the workspace's analog of SimGrid's platform
//! and deployment files.
//!
//! The strict-input helpers ([`reject_unknown_fields`], [`load_json_plan`])
//! check experiment specs, fault plans, host fault plans and `POST /run`
//! bodies, so a typo'd key is refused instead of silently running with the
//! field's default.

use crate::error::ReproError;
use dls_core::Technique;
use dls_platform::Platform;
use dls_workload::Workload;
use serde::{Deserialize, Serialize, Value};

/// Which quantity an experiment measures (Figure 2 "Measured Value(s)").
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq, Eq)]
pub enum MeasuredValue {
    /// Speedup vs. number of PEs (TSS publication, Figures 3–4).
    Speedup,
    /// Average wasted time over runs (BOLD publication, Figures 5–8).
    AverageWastedTime,
    /// Per-run average wasted time series (Figure 9).
    PerRunWastedTime,
}

/// The scheduling overhead accounting, serializable form.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub enum OverheadSpec {
    /// No overhead.
    None,
    /// `h × chunks` added post-hoc to each run's average wasted time.
    PostHocTotal {
        /// Seconds per scheduling operation.
        h: f64,
    },
    /// `h` charged on the executing PE per chunk, inside the simulation.
    InDynamics {
        /// Seconds per scheduling operation.
        h: f64,
    },
}

impl From<OverheadSpec> for dls_metrics::OverheadModel {
    fn from(o: OverheadSpec) -> Self {
        match o {
            OverheadSpec::None => dls_metrics::OverheadModel::None,
            OverheadSpec::PostHocTotal { h } => dls_metrics::OverheadModel::PostHocTotal { h },
            OverheadSpec::InDynamics { h } => dls_metrics::OverheadModel::InDynamics { h },
        }
    }
}

/// A complete, reproducible experiment description (paper Figure 2).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ExperimentSpec {
    /// Human-readable experiment id (e.g. `"fig5"`).
    pub id: String,
    /// Paper artifact this regenerates (e.g. `"Figure 5"`).
    pub artifact: String,
    /// Application information: the workload.
    pub workload: Workload,
    /// Application information: techniques under test.
    pub techniques: Vec<Technique>,
    /// System information: the platform.
    pub platform: Platform,
    /// Execution information: independent runs per configuration.
    pub runs: u32,
    /// Execution information: the measured value.
    pub measured: MeasuredValue,
    /// Overhead accounting.
    pub overhead: OverheadSpec,
    /// Campaign seed (run `i` uses the `i`-th derived seed).
    pub seed: u64,
}

impl ExperimentSpec {
    /// Serializes to pretty JSON. Falls back to an error-carrying JSON
    /// object in the (currently unreachable) serializer-failure case, so
    /// user-reachable CLI paths never panic on a spec export.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self)
            .unwrap_or_else(|e| format!("{{\"error\":\"spec serialization failed: {e}\"}}"))
    }

    /// Deserializes from JSON strictly: a field the spec does not have, at
    /// the top level or inside any nested object or list entry (the
    /// workload, the platform's hosts, a technique's parameters), is an
    /// error naming it. The decoded spec is its own template, so the known
    /// fields are exactly the ones it serializes.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        let value: Value = serde_json::from_str(s)?;
        let spec = Self::from_value(&value)?;
        reject_unknown_fields_in(&value, &spec.to_value()).map_err(serde_json::Error::custom)?;
        Ok(spec)
    }
}

/// Names the first field of the JSON object `value` that is not in
/// `known`, together with the known set. A non-object passes: decoding
/// rejects it with a better message.
pub fn reject_unknown_fields(value: &Value, known: &[&str]) -> Result<(), String> {
    let fields = value.as_object().unwrap_or_default();
    match fields.iter().find(|(field, _)| !known.contains(&field.as_str())) {
        Some((field, _)) => Err(format!("unknown field `{field}` (known: {})", known.join(", "))),
        None => Ok(()),
    }
}

/// [`reject_unknown_fields`] against the fields of `template`, then the
/// same check inside every field whose template holds an object, and
/// inside every entry of a list field: entry `i` against the template's
/// entry `i`, or its first entry when the template list is shorter. The
/// error names where the field sits, e.g.
/// ``fail_stops[1]: unknown field `wroker` (known: worker, at)`` or
/// ``platform.hosts[0]: unknown field `sped` (known: ...)``.
fn reject_unknown_fields_in(value: &Value, template: &Value) -> Result<(), String> {
    check_fields_at("", value, template)
}

fn check_fields_at(path: &str, value: &Value, template: &Value) -> Result<(), String> {
    let Some(fields) = template.as_object() else { return Ok(()) };
    let known: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    let at = |e: String| if path.is_empty() { e } else { format!("{path}: {e}") };
    reject_unknown_fields(value, &known).map_err(at)?;
    for (field, inner) in value.as_object().unwrap_or_default() {
        let Some(inner_template) = serde::object_get(fields, field) else { continue };
        let here = if path.is_empty() { field.clone() } else { format!("{path}.{field}") };
        match (inner.as_array(), inner_template.as_array()) {
            (Some(entries), Some(entry_templates)) => {
                for (i, entry) in entries.iter().enumerate() {
                    let Some(t) = entry_templates.get(i).or(entry_templates.first()) else { break };
                    check_fields_at(&format!("{here}[{i}]"), entry, t)?;
                }
            }
            _ => check_fields_at(&here, inner, inner_template)?,
        }
    }
    Ok(())
}

/// Loads the JSON plan file at `path` strictly: an unreadable file is an
/// I/O error (exit 3); undecodable JSON, a field `T` does not have, or a
/// plan `validate` refuses is an invalid spec (exit 4). The known fields
/// are read off `template`'s JSON form, so they cannot drift from the
/// structs: the top-level fields, and for each list the fields of the
/// template's first entry (give the template one entry per list whose
/// entries are objects).
pub fn load_json_plan<T, E>(
    path: &str,
    what: &str,
    template: &T,
    validate: impl Fn(&T) -> Result<(), E>,
) -> Result<T, ReproError>
where
    T: Serialize + for<'de> Deserialize<'de>,
    E: std::fmt::Display,
{
    let text = std::fs::read_to_string(path).map_err(|e| ReproError::io(format!("{path}: {e}")))?;
    let invalid = |e: String| ReproError::invalid_spec(format!("{path}: invalid {what}: {e}"));
    let value: Value = serde_json::from_str(&text).map_err(|e| invalid(e.to_string()))?;
    reject_unknown_fields_in(&value, &template.to_value()).map_err(invalid)?;
    let plan = T::from_value(&value).map_err(|e| invalid(e.to_string()))?;
    validate(&plan).map_err(|e| ReproError::invalid_spec(format!("{path}: {e}")))?;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_platform::LinkSpec;

    fn sample() -> ExperimentSpec {
        ExperimentSpec {
            id: "fig5".into(),
            artifact: "Figure 5".into(),
            workload: Workload::exponential(1024, 1.0).unwrap(),
            techniques: Technique::hagerup_set().to_vec(),
            platform: Platform::homogeneous_star("pe", 8, 1.0, LinkSpec::negligible()),
            runs: 1000,
            measured: MeasuredValue::AverageWastedTime,
            overhead: OverheadSpec::PostHocTotal { h: 0.5 },
            seed: 20170529,
        }
    }

    #[test]
    fn json_round_trip() {
        let spec = sample();
        let json = spec.to_json();
        let back = ExperimentSpec::from_json(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn json_is_human_readable() {
        let json = sample().to_json();
        assert!(json.contains("\"Exponential\""));
        assert!(json.contains("\"runs\": 1000"));
        assert!(json.contains("\"BOLD\"") || json.contains("\"Bold\""));
    }

    #[test]
    fn overhead_spec_conversion() {
        let m: dls_metrics::OverheadModel = OverheadSpec::PostHocTotal { h: 0.5 }.into();
        assert_eq!(m.post_hoc_addition(2), 1.0);
        let d: dls_metrics::OverheadModel = OverheadSpec::InDynamics { h: 0.25 }.into();
        assert_eq!(d.in_sim_h(), 0.25);
        let n: dls_metrics::OverheadModel = OverheadSpec::None.into();
        assert_eq!(n.post_hoc_addition(100), 0.0);
    }

    /// Every spec `repro spec` wrote still loads under the strict check.
    #[test]
    fn committed_specs_load_strictly() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
        let mut loaded = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            let spec = ExperimentSpec::from_json(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(ExperimentSpec::from_json(&spec.to_json()).unwrap(), spec);
            loaded += 1;
        }
        assert_eq!(loaded, 7, "specs/fig3.json .. specs/fig9.json");
    }

    /// A typo'd field is an error naming it and where it sits, at the top
    /// level and inside the nested workload and platform objects.
    #[test]
    fn unknown_fields_are_rejected_at_every_depth() {
        let json = sample().to_json();
        let cases = [
            ("\"seed\":", "\"sed\": 1,\n  \"seed\":", "unknown field `sed`"),
            (
                "\"mean\":",
                "\"meen\": 1.0, \"mean\":",
                "workload.model.Exponential: unknown field `meen`",
            ),
            ("\"speed\":", "\"sped\": 1.0, \"speed\":", "platform.hosts[0]: unknown field `sped`"),
        ];
        for (anchor, typo, expected) in cases {
            let bad = json.replacen(anchor, typo, 1);
            assert_ne!(bad, json, "anchor {anchor} not found");
            let err = ExperimentSpec::from_json(&bad).unwrap_err().to_string();
            assert!(err.contains(expected), "{err}");
        }
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(ExperimentSpec::from_json("{").is_err());
        assert!(ExperimentSpec::from_json("{}").is_err());
    }
}
