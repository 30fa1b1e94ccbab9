//! Criterion benches: the ablations EXPERIMENTS.md cites (`ablation_*`)
//! and the hot-path microbenches (`hotpath_*`). The paper's figures are
//! regenerated by `repro fig3` … `repro fig9` and timed end to end and per
//! layer by perfbench (`perfbench/run.py`), whose per-layer engine and
//! replica costs `.github/paired_gate.py` compares parent vs change. The
//! bench targets live in `benches/`.

#![forbid(unsafe_code)]
