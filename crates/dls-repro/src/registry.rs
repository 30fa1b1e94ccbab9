//! Table III: the experiment registry, mapping every paper artifact to its
//! regenerator in this workspace.

/// One registry entry: a paper artifact and how to regenerate it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryEntry {
    /// Short id used by the `repro` CLI (e.g. `"fig5"`).
    pub id: &'static str,
    /// The paper artifact (e.g. `"Figure 5 (a-d)"`).
    pub artifact: &'static str,
    /// Paper section describing it.
    pub section: &'static str,
    /// One-line description of the workload/parameters.
    pub summary: &'static str,
    /// The `repro bench` cell timing its campaign, if any.
    pub bench: &'static str,
}

/// All reproducible artifacts, in paper order.
pub fn experiments() -> Vec<RegistryEntry> {
    vec![
        RegistryEntry {
            id: "table2",
            artifact: "Table II",
            section: "III",
            summary: "Required parameters per DLS technique",
            bench: "(unit-tested, dls-core)",
        },
        RegistryEntry {
            id: "fig3",
            artifact: "Figure 3 (a-b)",
            section: "IV-A",
            summary: "TSS exp. 1: speedup, n=100,000, constant 110 µs, p<=80",
            bench: "tss_panel",
        },
        RegistryEntry {
            id: "fig4",
            artifact: "Figure 4 (a-b)",
            section: "IV-A",
            summary: "TSS exp. 2: speedup, n=10,000, constant 2 ms, p<=80",
            bench: "-",
        },
        RegistryEntry {
            id: "fig5",
            artifact: "Figure 5 (a-d)",
            section: "IV-B1",
            summary: "Wasted time, n=1,024, exp(µ=1s), h=0.5s, p={2,8,64,256,1024}",
            bench: "fig5_cell",
        },
        RegistryEntry {
            id: "fig6",
            artifact: "Figure 6 (a-d)",
            section: "IV-B2",
            summary: "Wasted time, n=8,192, same parameters",
            bench: "fig6_cell",
        },
        RegistryEntry {
            id: "fig7",
            artifact: "Figure 7 (a-d)",
            section: "IV-B3",
            summary: "Wasted time, n=65,536, same parameters",
            bench: "fig7_cell",
        },
        RegistryEntry {
            id: "fig8",
            artifact: "Figure 8 (a-d)",
            section: "IV-B4",
            summary: "Wasted time, n=524,288, same parameters",
            bench: "fig8_cell",
        },
        RegistryEntry {
            id: "fig9",
            artifact: "Figure 9",
            section: "IV-B4",
            summary: "Per-run wasted time, FAC, p=2, n=524,288, 1,000 runs",
            bench: "-",
        },
    ]
}

/// Looks up an entry by CLI id.
pub fn find(id: &str) -> Option<RegistryEntry> {
    experiments().into_iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_paper_artifact() {
        let ids: Vec<&str> = experiments().iter().map(|e| e.id).collect();
        assert_eq!(ids, vec!["table2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"]);
    }

    #[test]
    fn table3_task_counts_present() {
        // Table III's four task counts appear in the figure summaries.
        let all: String = experiments().iter().map(|e| e.summary).collect::<Vec<_>>().join(" ");
        for n in ["1,024", "8,192", "65,536", "524,288"] {
            assert!(all.contains(n), "missing {n}");
        }
    }

    #[test]
    fn find_by_id() {
        assert!(find("fig5").is_some());
        assert!(find("nope").is_none());
        assert_eq!(find("fig5").unwrap().bench, "fig5_cell");
    }
}
