//! Batched structure-of-arrays direct simulation: B seeds in lockstep.
//!
//! Every fig5–fig8 campaign cell is the *same* `(technique, n, p, spec)`
//! simulated over many seeds. For time-oblivious techniques — those whose
//! chunk-size sequence is a pure function of `(n, p, moments)`, see
//! [`Technique::is_time_oblivious`] — the chunk-boundary stream is identical
//! across every seed of a cell, so it can be generated once and replayed
//! over B per-seed state columns at a time.
//!
//! [`BatchDirectSimulator`] does exactly that. Per-seed state is laid out
//! structure-of-arrays (lane-major: `avail[seed * P + pe]`, one contiguous
//! PE row per seed), the per-step earliest-PE argmin is a two-level grouped
//! scan — per-lane cached minima over 8-PE groups, so each step rescans one
//! cache-line-sized group plus the group-minima row instead of all P PEs —
//! and the per-seed update replays the scalar simulator's exact f64
//! operation sequence:
//!
//! ```text
//! work_secs = prefix[e] - prefix[s]     // TaskTimes::chunk_sum, O(1)
//! work      = work_secs / speeds[pe]
//! done      = t + in_sim_h + work
//! compute[pe] += work;  finish[pe] = done
//! ```
//!
//! Nothing is reassociated *within* a seed — batching happens only *across*
//! seeds — so each run's [`DirectOutcome`] is bit-identical to what
//! [`DirectSimulator::run`] produces for that seed alone (pinned by the
//! `batch_equivalence` test suite and a property test over random grids).
//!
//! Dispatch rules (all fall back to the scalar path per seed, preserving
//! bit-identity trivially):
//! - adaptive / feedback-consuming techniques (AWF, AF, TAP, BOLD, WF);
//! - `p > LOCKSTEP_MAX_P` (see its docs: the per-step grouped argmin
//!   grows with p faster than the scalar heap's O(log p) pops, and loses
//!   by about 3× at p = 1024);
//! - degenerate batches (width ≤ 1).
//!
//! STAT gets its own batched path: its chunk→PE assignment is forced
//! (chunk j goes to PE j at availability 0), so no argmin is needed at all.

use crate::{DirectOutcome, DirectSimulator};
use dls_core::{LoopSetup, SetupError, Technique};
use dls_metrics::OverheadModel;
use dls_telemetry::Telemetry;
use dls_workload::TaskTimes;

/// Largest PE count simulated in lockstep; above it the batch dispatcher
/// falls back to per-seed scalar runs.
///
/// The lockstep step's grouped argmin scans a p/8-wide row of group minima
/// plus one 8-PE group, so its cost grows with p, while a scalar run pays
/// O(log p) per pop on the 4-ary ready queue. Measured over 32 seeds at
/// n = 8,192 (SS, FAC, FAC2, GSS; 2-vCPU Xeon VM): lockstep runs in
/// 0.4× the scalar time at p = 64, 0.45–0.55× at p = 128, 0.7–1.1× at
/// p = 256 and 2.7–3.1× at p = 1024. The crossover sits near p = 256, so
/// this cutoff is conservative: lockstep would still win at p = 128 (no
/// paper cell uses it), is about even at p = 256 and loses clearly at
/// p = 1024. Of the paper's PE counts, p = 2, 8 and 64 run batched; the
/// p ≥ 256 cells of every figure keep their scalar performance profile.
pub const LOCKSTEP_MAX_P: usize = 64;

/// Simulates B seeds of one campaign cell in lockstep (see module docs).
///
/// Construction mirrors [`DirectSimulator`]; `run_batch` takes one
/// realization per seed and returns one [`DirectOutcome`] per seed, in
/// order, each bit-identical to the scalar simulator's result.
#[derive(Debug, Clone)]
pub struct BatchDirectSimulator {
    inner: DirectSimulator,
}

impl BatchDirectSimulator {
    /// Batch simulator for `p` homogeneous unit-speed PEs.
    pub fn new(p: usize, overhead: OverheadModel) -> Self {
        BatchDirectSimulator { inner: DirectSimulator::new(p, overhead) }
    }

    /// Batch simulator with per-PE speeds (heterogeneous extension).
    pub fn with_speeds(speeds: Vec<f64>, overhead: OverheadModel) -> Self {
        BatchDirectSimulator { inner: DirectSimulator::with_speeds(speeds, overhead) }
    }

    /// Number of PEs.
    pub fn p(&self) -> usize {
        self.inner.p
    }

    /// The scalar simulator this batch simulator wraps (same `p`,
    /// overhead model and speeds).
    pub fn scalar(&self) -> &DirectSimulator {
        &self.inner
    }

    /// Runs `technique` over every realization in `batch`, returning one
    /// outcome per realization in order.
    ///
    /// Each outcome is bit-identical to `DirectSimulator::run(technique,
    /// setup, &batch[i])`. Time-oblivious techniques at `p ≤`
    /// [`LOCKSTEP_MAX_P`] take the lockstep kernel; everything else runs
    /// the scalar path per seed (with a fresh scheduler per seed, exactly
    /// as a campaign loop would).
    pub fn run_batch(
        &self,
        technique: Technique,
        setup: &LoopSetup,
        batch: &[TaskTimes],
    ) -> Result<Vec<DirectOutcome>, SetupError> {
        if setup.p != self.inner.p {
            return Err(SetupError::BadParam("setup.p must match the simulator's PE count"));
        }
        for tasks in batch {
            if setup.n != tasks.len() as u64 {
                return Err(SetupError::BadParam("setup.n must match every workload length"));
            }
        }
        // Surface technique/setup errors identically to the scalar path,
        // even for batches that would dispatch to a specialized kernel.
        technique.build(setup)?;
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        if !technique.is_time_oblivious() || self.inner.p > LOCKSTEP_MAX_P || batch.len() == 1 {
            return batch.iter().map(|tasks| self.inner.run(technique, setup, tasks)).collect();
        }
        if matches!(technique, Technique::Stat) {
            return self.run_stat_batch(setup, batch);
        }
        self.run_lockstep(technique, setup, batch)
    }

    /// [`BatchDirectSimulator::run_batch`] with host-side telemetry: the
    /// per-run counters (`hagerup.run_calls/chunks/tasks`) advance exactly
    /// as if each run had gone through [`DirectSimulator::run_with_ref`]
    /// with the same registry, plus
    /// one `hagerup.batch_wall_s` observation and a `hagerup.batch_calls`
    /// tick for the batch itself.
    pub fn run_batch_metered(
        &self,
        technique: Technique,
        setup: &LoopSetup,
        batch: &[TaskTimes],
        telemetry: &Telemetry,
    ) -> Result<Vec<DirectOutcome>, SetupError> {
        let wall = telemetry.span("hagerup.batch_wall_s");
        let out = self.run_batch(technique, setup, batch)?;
        wall.finish();
        telemetry.counter_inc("hagerup.batch_calls");
        telemetry.counter_add("hagerup.run_calls", batch.len() as u64);
        telemetry.counter_add("hagerup.chunks", out.iter().map(|o| o.chunks).sum());
        telemetry.counter_add("hagerup.tasks", setup.n * batch.len() as u64);
        Ok(out)
    }

    /// The lockstep kernel for pe-agnostic time-oblivious techniques
    /// (SS/CSS/FSC/GSS/TSS/FAC/FAC2): one shared chunk-boundary stream, a
    /// per-step earliest-PE argmin, a per-seed scalar-order state update.
    fn run_lockstep(
        &self,
        technique: Technique,
        setup: &LoopSetup,
        batch: &[TaskTimes],
    ) -> Result<Vec<DirectOutcome>, SetupError> {
        let p = self.inner.p;
        let b = batch.len();
        let n = setup.n as usize;

        // Generate the shared chunk-boundary stream once. These schedulers
        // ignore the requesting-PE argument and never return 0 before the
        // loop is exhausted (pinned by dls-core's conservation tests), so
        // any PE rotation produces the same stream.
        let mut scheduler = technique.build(setup)?;
        let mut bounds: Vec<usize> = Vec::with_capacity(128);
        bounds.push(0);
        let mut next = 0usize;
        let mut j = 0usize;
        while next < n {
            let c = scheduler.next_chunk(j % p) as usize;
            assert!(c > 0, "time-oblivious scheduler stalled before exhaustion");
            debug_assert!(next + c <= n, "scheduler over-assigned");
            next += c;
            bounds.push(next);
            j += 1;
        }

        let mut state = LockstepState::new(p, b, batch, &self.inner.speeds);
        let in_sim_h = self.inner.overhead.in_sim_h();
        state.run(&bounds, in_sim_h);
        Ok(state.assemble((bounds.len() - 1) as u64))
    }

    /// Batched STAT. The scalar dispatch order for STAT is forced: all PEs
    /// start at availability 0 with ties broken toward smaller indices, so
    /// productive chunk j always lands on PE j at t = 0 (a re-requesting
    /// served PE is dropped from the rotation without changing any state,
    /// even in the degenerate zero-work-tie case). That leaves a single
    /// pass over the PEs with a vectorizable seed lane per block.
    fn run_stat_batch(
        &self,
        setup: &LoopSetup,
        batch: &[TaskTimes],
    ) -> Result<Vec<DirectOutcome>, SetupError> {
        let p = self.inner.p;
        let b = batch.len();
        let in_sim_h = self.inner.overhead.in_sim_h();

        // Probe the per-PE blocks in index order. Blocks sum exactly to n,
        // so probing order cannot truncate any of them.
        let mut scheduler = Technique::Stat.build(setup)?;
        let blocks: Vec<usize> = (0..p).map(|pe| scheduler.next_chunk(pe) as usize).collect();
        debug_assert_eq!(blocks.iter().sum::<usize>() as u64, setup.n);

        let mut compute = vec![0.0f64; p * b];
        let mut finish = vec![0.0f64; p * b];
        let mut chunks_per_pe = vec![0u64; p * b];
        let mut tasks_per_pe = vec![0u64; p * b];
        let prefixes: Vec<&[f64]> = batch.iter().map(TaskTimes::prefix).collect();

        let mut chunks = 0u64;
        let mut s = 0usize;
        for (pe, &c) in blocks.iter().enumerate() {
            if c == 0 {
                // Zero block (n < p): the scalar loop drops this PE with no
                // state change and no chunk counted.
                continue;
            }
            let e = s + c;
            chunks += 1;
            for (k, prefix) in prefixes.iter().enumerate() {
                let work_secs = prefix[e] - prefix[s];
                let work = work_secs / self.inner.speeds[pe];
                let done = 0.0 + in_sim_h + work;
                let idx = pe * b + k;
                chunks_per_pe[idx] = 1;
                tasks_per_pe[idx] = c as u64;
                compute[idx] = work;
                finish[idx] = done;
            }
            s = e;
        }

        Ok(assemble(p, b, chunks, &compute, &finish, &chunks_per_pe, &tasks_per_pe))
    }
}

/// PE group width for the lockstep argmin: one cache line of f64s. Each
/// lane caches per-group minima, so a step rescans one 8-wide group plus
/// the group-minima row instead of all P PEs — at p = 64 that is two
/// contiguous 8-element scans versus a 64-element sweep.
const GROUP: usize = 8;

/// Columnar per-seed state for the lockstep kernel. Lane-major layout:
/// `avail[k * pp + pe]` is PE `pe`'s availability in seed lane `k`, where
/// `pp` rounds `p` up to a multiple of [`GROUP`]; padding entries hold
/// `+inf` so they can never win a strict-`<` argmin. `avail` doubles as
/// the per-PE finish time — the scalar loop writes both from the same
/// `done` value, so one array serves the argmin and the makespan.
struct LockstepState<'a> {
    p: usize,
    b: usize,
    /// `p` rounded up to a multiple of [`GROUP`] (row stride).
    pp: usize,
    /// Number of PE groups per lane (`pp / GROUP`).
    g: usize,
    avail: Vec<f64>,
    compute: Vec<f64>,
    chunks_per_pe: Vec<u64>,
    tasks_per_pe: Vec<u64>,
    /// `gmin[k * g + gi]`: minimum availability in lane `k`'s group `gi`.
    gmin: Vec<f64>,
    /// `garg[k * g + gi]`: the PE attaining that minimum (global index),
    /// ties broken toward the smaller PE.
    garg: Vec<u32>,
    prefixes: Vec<&'a [f64]>,
    speeds: &'a [f64],
    unit_speeds: bool,
}

impl<'a> LockstepState<'a> {
    fn new(p: usize, b: usize, batch: &'a [TaskTimes], speeds: &'a [f64]) -> Self {
        let g = p.div_ceil(GROUP);
        let pp = g * GROUP;
        let mut avail = vec![f64::INFINITY; pp * b];
        for k in 0..b {
            avail[k * pp..k * pp + p].fill(0.0);
        }
        LockstepState {
            p,
            b,
            pp,
            g,
            avail,
            compute: vec![0.0f64; pp * b],
            chunks_per_pe: vec![0u64; pp * b],
            tasks_per_pe: vec![0u64; pp * b],
            // All availabilities start at 0 and ties resolve to the
            // smallest PE, so each group's initial winner is its first PE.
            gmin: vec![0.0f64; g * b],
            garg: (0..g * b).map(|i| ((i % g) * GROUP) as u32).collect(),
            prefixes: batch.iter().map(TaskTimes::prefix).collect(),
            // IEEE-754 division by 1.0 returns the dividend bit-for-bit, so
            // the homogeneous unit-speed case (the `new` constructor's
            // default) may skip the per-chunk division without breaking
            // bit-identity with the scalar path, which always divides.
            unit_speeds: speeds.iter().all(|s| s.to_bits() == 1.0f64.to_bits()),
            speeds,
        }
    }

    /// The step loop. Per step and lane: pick the earliest PE from the
    /// group-minima row (leftmost minimum wins, so ties resolve to the
    /// smallest PE exactly like the scalar ready queue's `(avail, pe)`
    /// ordering), replay the chunk assignment in the scalar simulator's
    /// f64 operation order, then rescan only the winner's group:
    ///
    /// ```text
    /// work_secs = prefix[e] - prefix[s]     // TaskTimes::chunk_sum, O(1)
    /// work      = work_secs / speeds[pe]
    /// done      = t + in_sim_h + work
    /// ```
    ///
    /// Nothing is reassociated within a seed — batching happens only
    /// across lanes.
    fn run(&mut self, bounds: &[usize], in_sim_h: f64) {
        if self.g == 1 {
            self.run_single_group(bounds, in_sim_h);
        } else {
            self.run_grouped(bounds, in_sim_h);
        }
    }

    /// Step loop for `p ≤ 8` (one group): no top-level search — the lane's
    /// cached winner (`gmin[k]`/`garg[k]`) is consumed directly, the
    /// update applied, and the PE row rescanned to cache the next winner.
    /// Consuming the *previous* rescan's result keeps the update's store
    /// address off the fresh argmin chain's critical path (the rescan for
    /// step j+1 overlaps the update of step j in the pipeline).
    fn run_single_group(&mut self, bounds: &[usize], in_sim_h: f64) {
        let (b, pp) = (self.b, self.pp);
        for w in bounds.windows(2) {
            let (s, e) = (w[0], w[1]);
            for k in 0..b {
                let t = self.gmin[k];
                let pe = self.garg[k] as usize;

                // The chunk assignment, in scalar f64 op order.
                let work_secs = self.prefixes[k][e] - self.prefixes[k][s];
                let work = if self.unit_speeds { work_secs } else { work_secs / self.speeds[pe] };
                let done = t + in_sim_h + work;
                let rbase = k * pp;
                let idx = rbase + pe;
                self.chunks_per_pe[idx] += 1;
                self.tasks_per_pe[idx] += (e - s) as u64;
                self.compute[idx] += work;
                self.avail[idx] = done;

                // Rescan the PE row (one cache line; padding is +inf and
                // never wins) to cache the next step's winner.
                let (m, mi) = argmin(&self.avail[rbase..rbase + GROUP]);
                self.gmin[k] = m;
                self.garg[k] = mi as u32;
            }
        }
    }

    /// Step loop for `p > 8`: consume the lane's cached winner, apply the
    /// update, rescan only the winner's 8-wide group, then re-argmin the
    /// group-minima row to cache the next winner (same pipelining as
    /// [`LockstepState::run_single_group`]).
    fn run_grouped(&mut self, bounds: &[usize], in_sim_h: f64) {
        let (b, pp, g) = (self.b, self.pp, self.g);
        // Per-lane cached winner: availability, PE, and the PE's group.
        // All availabilities start at 0 and ties resolve leftmost, so the
        // initial winner is PE 0 of group 0 — the heap's first pop.
        let mut top_t = vec![0.0f64; b];
        let mut top_pe = vec![0u32; b];
        let mut top_gi = vec![0u32; b];
        for w in bounds.windows(2) {
            let (s, e) = (w[0], w[1]);
            for k in 0..b {
                let t = top_t[k];
                let pe = top_pe[k] as usize;
                let gi = top_gi[k] as usize;

                // The chunk assignment, in scalar f64 op order.
                let work_secs = self.prefixes[k][e] - self.prefixes[k][s];
                let work = if self.unit_speeds { work_secs } else { work_secs / self.speeds[pe] };
                let done = t + in_sim_h + work;
                let idx = k * pp + pe;
                self.chunks_per_pe[idx] += 1;
                self.tasks_per_pe[idx] += (e - s) as u64;
                self.compute[idx] += work;
                self.avail[idx] = done;

                // Bottom level: rescan the winner's 8-wide group (one
                // cache line; padding is +inf and never wins).
                let gbase = k * g;
                let rbase = k * pp + gi * GROUP;
                let (m, mi) = argmin(&self.avail[rbase..rbase + GROUP]);
                self.gmin[gbase + gi] = m;
                self.garg[gbase + gi] = (gi * GROUP + mi) as u32;

                // Top level: re-argmin the group minima to cache the next
                // step's winner.
                let (_, ng) = argmin(&self.gmin[gbase..gbase + g]);
                top_t[k] = self.gmin[gbase + ng];
                top_pe[k] = self.garg[gbase + ng];
                top_gi[k] = ng as u32;
            }
        }
    }

    /// Transposes the lane-major columnar state into per-seed outcomes;
    /// the makespan fold walks PEs in ascending order, matching the scalar
    /// `finish.iter().fold(0.0, f64::max)` exactly.
    fn assemble(&self, chunks: u64) -> Vec<DirectOutcome> {
        let (p, pp) = (self.p, self.pp);
        (0..self.b)
            .map(|k| {
                let row = k * pp;
                let makespan = self.avail[row..row + p].iter().fold(0.0f64, |a, &f| a.max(f));
                DirectOutcome {
                    makespan,
                    compute: self.compute[row..row + p].to_vec(),
                    chunks,
                    chunks_per_pe: self.chunks_per_pe[row..row + p].to_vec(),
                    tasks_per_pe: self.tasks_per_pe[row..row + p].to_vec(),
                }
            })
            .collect()
    }
}

/// Leftmost argmin: an ascending strict-`<` branchless compare chain, so
/// equal minima resolve to the smallest index — the scalar ready queue's
/// `(avail, pe)` tie order. (A depth-3 pairwise tournament was measured
/// slower here: the extra selects cost more than the shorter chain saves.)
#[inline(always)]
fn argmin(row: &[f64]) -> (f64, usize) {
    let mut m = row[0];
    let mut mi = 0usize;
    for (i, &v) in row.iter().enumerate().skip(1) {
        let lt = v < m;
        m = if lt { v } else { m };
        mi = if lt { i } else { mi };
    }
    (m, mi)
}

/// Transposes the PE-major columnar state into per-seed outcomes; the
/// makespan fold walks PEs in ascending order, matching the scalar
/// `finish.iter().fold(0.0, f64::max)` exactly.
fn assemble(
    p: usize,
    b: usize,
    chunks: u64,
    compute: &[f64],
    finish: &[f64],
    chunks_per_pe: &[u64],
    tasks_per_pe: &[u64],
) -> Vec<DirectOutcome> {
    (0..b)
        .map(|k| {
            let makespan = (0..p).fold(0.0f64, |a, pe| a.max(finish[pe * b + k]));
            DirectOutcome {
                makespan,
                compute: (0..p).map(|pe| compute[pe * b + k]).collect(),
                chunks,
                chunks_per_pe: (0..p).map(|pe| chunks_per_pe[pe * b + k]).collect(),
                tasks_per_pe: (0..p).map(|pe| tasks_per_pe[pe * b + k]).collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_workload::Workload;

    fn outcomes_bit_equal(a: &DirectOutcome, b: &DirectOutcome) -> bool {
        a.makespan.to_bits() == b.makespan.to_bits()
            && a.chunks == b.chunks
            && a.chunks_per_pe == b.chunks_per_pe
            && a.tasks_per_pe == b.tasks_per_pe
            && a.compute.len() == b.compute.len()
            && a.compute.iter().zip(&b.compute).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    fn realizations(n: u64, seeds: std::ops::Range<u64>) -> Vec<TaskTimes> {
        let wl = Workload::exponential(n, 1.0).unwrap();
        seeds.map(|s| wl.generate(s)).collect()
    }

    #[test]
    fn lockstep_matches_scalar_bitwise() {
        let n = 1024u64;
        let batch = realizations(n, 0..8);
        for p in [2usize, 8, 64] {
            let setup = LoopSetup::new(n, p).with_moments(1.0, 1.0);
            let sim = BatchDirectSimulator::new(p, OverheadModel::PostHocTotal { h: 0.5 });
            for tech in [Technique::SS, Technique::Gss { min_chunk: 1 }, Technique::Fac2] {
                let batched = sim.run_batch(tech, &setup, &batch).unwrap();
                for (tasks, got) in batch.iter().zip(&batched) {
                    let want = sim.scalar().run(tech, &setup, tasks).unwrap();
                    assert!(outcomes_bit_equal(got, &want), "{tech} p={p}");
                }
            }
        }
    }

    #[test]
    fn stat_batch_matches_scalar_including_n_less_than_p() {
        for (n, p) in [(100u64, 4usize), (3, 8), (7, 7)] {
            let batch = realizations(n, 0..5);
            let setup = LoopSetup::new(n, p).with_moments(1.0, 1.0);
            let sim = BatchDirectSimulator::new(p, OverheadModel::InDynamics { h: 0.25 });
            let batched = sim.run_batch(Technique::Stat, &setup, &batch).unwrap();
            for (tasks, got) in batch.iter().zip(&batched) {
                let want = sim.scalar().run(Technique::Stat, &setup, tasks).unwrap();
                assert!(outcomes_bit_equal(got, &want), "STAT n={n} p={p}");
            }
        }
    }

    #[test]
    fn adaptive_techniques_fall_back_to_scalar() {
        use dls_core::AwfVariant;
        let n = 512u64;
        let batch = realizations(n, 0..4);
        let setup = LoopSetup::new(n, 4).with_moments(1.0, 1.0);
        let sim = BatchDirectSimulator::new(4, OverheadModel::PostHocTotal { h: 0.1 });
        for tech in [Technique::Af, Technique::Awf { variant: AwfVariant::Chunk }, Technique::Bold]
        {
            let batched = sim.run_batch(tech, &setup, &batch).unwrap();
            for (tasks, got) in batch.iter().zip(&batched) {
                let want = sim.scalar().run(tech, &setup, tasks).unwrap();
                assert!(outcomes_bit_equal(got, &want), "{tech} scalar fallback");
            }
        }
    }

    #[test]
    fn large_p_falls_back_to_scalar() {
        let n = 2048u64;
        let p = LOCKSTEP_MAX_P + 1;
        let batch = realizations(n, 0..3);
        let setup = LoopSetup::new(n, p).with_moments(1.0, 1.0);
        let sim = BatchDirectSimulator::new(p, OverheadModel::None);
        let batched = sim.run_batch(Technique::SS, &setup, &batch).unwrap();
        for (tasks, got) in batch.iter().zip(&batched) {
            let want = sim.scalar().run(Technique::SS, &setup, tasks).unwrap();
            assert!(outcomes_bit_equal(got, &want), "p > LOCKSTEP_MAX_P fallback");
        }
    }

    #[test]
    fn heterogeneous_speeds_batch_matches_scalar() {
        let n = 700u64;
        let batch = realizations(n, 0..6);
        let speeds = vec![1.0, 2.0, 0.5, 1.5];
        let setup = LoopSetup::new(n, 4).with_moments(1.0, 1.0);
        let sim = BatchDirectSimulator::with_speeds(speeds, OverheadModel::None);
        let batched = sim.run_batch(Technique::Fac, &setup, &batch).unwrap();
        for (tasks, got) in batch.iter().zip(&batched) {
            let want = sim.scalar().run(Technique::Fac, &setup, tasks).unwrap();
            assert!(outcomes_bit_equal(got, &want));
        }
    }

    #[test]
    fn batch_split_is_invariant() {
        // Splitting one batch of 8 into 3+5 must not change any outcome:
        // seeds never interact.
        let n = 1024u64;
        let batch = realizations(n, 10..18);
        let setup = LoopSetup::new(n, 8).with_moments(1.0, 1.0);
        let sim = BatchDirectSimulator::new(8, OverheadModel::PostHocTotal { h: 0.3 });
        let whole = sim.run_batch(Technique::Tss { first: None, last: None }, &setup, &batch);
        let whole = whole.unwrap();
        let mut split =
            sim.run_batch(Technique::Tss { first: None, last: None }, &setup, &batch[..3]).unwrap();
        split.extend(
            sim.run_batch(Technique::Tss { first: None, last: None }, &setup, &batch[3..]).unwrap(),
        );
        for (a, b) in whole.iter().zip(&split) {
            assert!(outcomes_bit_equal(a, b));
        }
    }

    #[test]
    fn empty_batch_and_validation_errors() {
        let setup = LoopSetup::new(64, 4).with_moments(1.0, 1.0);
        let sim = BatchDirectSimulator::new(4, OverheadModel::None);
        assert!(sim.run_batch(Technique::SS, &setup, &[]).unwrap().is_empty());
        let wrong_len = realizations(63, 0..1);
        assert!(sim.run_batch(Technique::SS, &setup, &wrong_len).is_err());
        let bad_p = LoopSetup::new(64, 5).with_moments(1.0, 1.0);
        assert!(sim.run_batch(Technique::SS, &bad_p, &realizations(64, 0..1)).is_err());
    }

    #[test]
    fn metered_batch_records_per_run_counters() {
        let n = 256u64;
        let batch = realizations(n, 0..4);
        let setup = LoopSetup::new(n, 4).with_moments(1.0, 1.0);
        let sim = BatchDirectSimulator::new(4, OverheadModel::None);
        let tel = Telemetry::enabled();
        let out = sim.run_batch_metered(Technique::Fac2, &setup, &batch, &tel).unwrap();
        let snap = tel.snapshot();
        assert_eq!(snap.counter("hagerup.run_calls"), Some(4));
        assert_eq!(snap.counter("hagerup.batch_calls"), Some(1));
        assert_eq!(snap.counter("hagerup.chunks"), Some(out.iter().map(|o| o.chunks).sum()));
        assert_eq!(snap.counter("hagerup.tasks"), Some(n * 4));
        assert_eq!(snap.histogram("hagerup.batch_wall_s").unwrap().count, 1);
    }
}
