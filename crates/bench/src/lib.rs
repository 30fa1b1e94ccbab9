//! Criterion benches beyond `repro bench`: the ablations EXPERIMENTS.md
//! cites (`ablation_*`) and the hot-path microbenches (`hotpath_*`). The
//! paper's figures are regenerated by `repro fig3` … `repro fig9` and timed
//! by the `repro bench` cells; the bench targets live in `benches/`.

#![forbid(unsafe_code)]
