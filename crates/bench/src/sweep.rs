//! The warm-state checkpoint/fork sweep engine.
//!
//! The paper's statistical sweeps (Tables 5.3 and 5.4) run hundreds of
//! fault-injection experiments per fault type, and every one of them
//! re-executes an identical warm-up prelude — the cache fill of Section 5.2
//! or the parallel-make boot + ramp of Section 5.3 — before anything
//! actually differs between runs. The sweep engine runs that prelude once
//! per fill seed, snapshots the whole machine with
//! [`flash_machine::Machine::checkpoint`], and forks every per-fault run
//! from the snapshot: all fault types × several fault draws share one
//! prelude, so paper-scale run counts cost a fraction of the from-scratch
//! wall clock.
//!
//! ## Seed discipline
//!
//! A sweep is a pure function of `(machine config, runs_per_kind,
//! forks_per_checkpoint)`. Run `r` of a fault kind maps to checkpoint group
//! `g = r / K` and fork slot `j = r % K` (`K` = forks per kind per
//! checkpoint): the machine (and its fill workloads) is seeded with `g`,
//! and the fault is drawn from a [`DetRng`] seeded with
//! [`fault_rng_seed`]`(g, kind, j)`. A from-scratch run with the same
//! machine seed and fault spec is therefore exactly reproducible without
//! the engine — which is how fork determinism is asserted: the forked run's
//! [`flash_obs::Recorder::merged_hash`] must equal the from-scratch run's.
//!
//! ## Determinism of aggregation
//!
//! Groups are claimed by worker threads through an atomic counter, but each
//! group writes its results into its own pre-allocated slot, and the final
//! flattening orders runs by `(kind, run index)` — so the output is
//! bit-identical whatever the worker count or OS scheduling.

use flash_core::{
    finish_fault_experiment, prepare_fault_experiment, random_fault, run_indexed, ExperimentConfig,
    ExperimentOutcome, FaultKind, RecoveryConfig,
};
use flash_hive::{finish_parallel_make, prepare_parallel_make, EndToEndOutcome, HiveConfig};
use flash_machine::MachineParams;
use flash_sim::DetRng;

/// Shape of a checkpoint/fork sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// Completed runs per fault kind (the paper's per-type N).
    pub runs_per_kind: usize,
    /// Fault draws per kind taken from one checkpoint (`K`). Each
    /// checkpoint serves `kinds × K` forks; larger values amortize the
    /// prelude further at the cost of fill-seed diversity.
    pub forks_per_checkpoint: usize,
    /// Worker threads. `1` is fully sequential (and the aggregated output
    /// is identical for any value).
    pub workers: usize,
}

impl SweepConfig {
    /// A sweep of `runs_per_kind` runs with the default amortization
    /// (`K = 8`) and one worker per available CPU.
    pub fn new(runs_per_kind: usize) -> Self {
        SweepConfig {
            runs_per_kind,
            forks_per_checkpoint: 8,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// Number of checkpoint groups needed: `ceil(runs_per_kind / K)`.
    pub fn n_groups(&self) -> usize {
        self.runs_per_kind
            .div_ceil(self.forks_per_checkpoint.max(1))
    }
}

/// One completed sweep run.
#[derive(Clone, Debug)]
pub struct SweepRun<O> {
    /// The fault kind injected.
    pub kind: FaultKind,
    /// Run index within the kind (`0..runs_per_kind`).
    pub run: usize,
    /// The machine/fill seed of the checkpoint group this run forked from.
    pub fill_seed: u64,
    /// Injection point as a percentage of compile progress, for end-to-end
    /// sweeps over a stage ladder; `0` when the fault is injected directly
    /// after the fill prelude (validation sweeps).
    pub stage_pct: u32,
    /// The experiment outcome.
    pub outcome: O,
}

/// The per-run fault-draw seed: a pure function of (checkpoint group,
/// fault kind, fork slot), so any sweep run can be reproduced from scratch.
pub fn fault_rng_seed(fill_seed: u64, kind: FaultKind, fork: u64) -> u64 {
    (fill_seed.wrapping_mul(0x9E37_79B9) ^ kind as u64)
        .wrapping_add(fork.wrapping_mul(0x517C_C1B7_2722_0A95))
}

/// Runs `n_groups` checkpoint groups across `workers` threads: each worker
/// claims a group index, builds that group's warm state once with
/// `prepare`, produces all of the group's runs with `run_group`, and
/// deposits them at the group's own slot. The concatenation over group
/// order is therefore deterministic regardless of worker count.
pub fn run_checkpoint_groups<C, R, P, F>(
    workers: usize,
    n_groups: usize,
    prepare: P,
    run_group: F,
) -> Vec<Vec<R>>
where
    // No `C: Send`: a group's warm state is built and consumed by the same
    // worker thread (machines hold `Box<dyn Workload>`, which is not Send).
    R: Send,
    P: Fn(usize) -> C + Sync,
    F: Fn(usize, C) -> Vec<R> + Sync,
{
    run_indexed(workers, n_groups, |g| run_group(g, prepare(g)))
}

/// The one sweep enumerator. Checkpoint group `g` builds its warm state
/// with `prepare(g)`, then for each stage `s` of `stages`, each kind and
/// each fork slot `j < K` runs `run(state, stages[s], kind, rng)` as run
/// `g·S·K + s·K + j` of its kind (`S` stages), with `rng` seeded by
/// [`fault_rng_seed`]`(g, kind, s·K + j)`. Runs past `runs_per_kind` are
/// skipped. A validation sweep is the single-stage case.
fn sweep<W, O: Send>(
    cfg: &SweepConfig,
    kinds: &[FaultKind],
    stages: &[u32],
    prepare: impl Fn(u64) -> W + Sync,
    run: impl Fn(&mut W, u32, FaultKind, &mut DetRng) -> O + Sync,
) -> Vec<SweepRun<O>> {
    let k = cfg.forks_per_checkpoint.max(1);
    let per_group = k * stages.len();
    let groups = run_checkpoint_groups(
        cfg.workers,
        cfg.runs_per_kind.div_ceil(per_group),
        |g| prepare(g as u64),
        |g, mut state| {
            let mut out = Vec::with_capacity(kinds.len() * per_group);
            for (s, &pct) in stages.iter().enumerate() {
                for &kind in kinds {
                    for j in 0..k {
                        let run_index = g * per_group + s * k + j;
                        if run_index >= cfg.runs_per_kind {
                            continue;
                        }
                        let mut rng =
                            DetRng::new(fault_rng_seed(g as u64, kind, (s * k + j) as u64));
                        out.push(SweepRun {
                            kind,
                            run: run_index,
                            fill_seed: g as u64,
                            stage_pct: pct,
                            outcome: run(&mut state, pct, kind, &mut rng),
                        });
                    }
                }
            }
            out
        },
    );
    // Order by (kind position, run index), whatever the worker count.
    let pos = |k: FaultKind| {
        kinds
            .iter()
            .position(|&x| x as u64 == k as u64)
            .expect("sweep runs only carry fault kinds from the configured kind list")
    };
    let mut runs: Vec<SweepRun<O>> = groups.into_iter().flatten().collect();
    runs.sort_by_key(|r| (pos(r.kind), r.run));
    runs
}

/// Sweeps the Section 5.2 validation experiment (Table 5.3 methodology):
/// one cache-fill prelude per checkpoint group, then `kinds × K` forked
/// fault runs per group.
///
/// `make_cfg` maps a fill seed to the experiment configuration (it must set
/// `cfg.seed` to the given seed for the seed discipline to hold).
pub fn sweep_fault_experiments(
    cfg: &SweepConfig,
    kinds: &[FaultKind],
    make_cfg: impl Fn(u64) -> ExperimentConfig + Sync,
) -> Vec<SweepRun<ExperimentOutcome>> {
    sweep(
        cfg,
        kinds,
        &[0],
        |g| {
            let ecfg = make_cfg(g);
            (
                ecfg.params.n_nodes,
                prepare_fault_experiment(&ecfg).checkpoint(),
            )
        },
        |(n_nodes, ckpt), _, kind, rng| {
            finish_fault_experiment(ckpt.fork(), random_fault(kind, *n_nodes, rng))
        },
    )
}

/// The paper's Section 5.3 injection points, stratified: faults were
/// injected "at random times while the benchmark was running"; a sweep
/// samples that over a ladder of compile-progress points. Deeper rungs
/// share a longer prelude, which is where most of the fork speedup of the
/// end-to-end sweep comes from.
pub const DEFAULT_MAKE_STAGES: &[u32] = &[30, 50, 70, 90];

/// Sweeps the Section 5.3 end-to-end experiment (Table 5.4 methodology).
///
/// Each checkpoint group boots the parallel make once, then warms it up a
/// ladder of progress `stages` (percent of compile operations, ascending —
/// see [`DEFAULT_MAKE_STAGES`]); at each rung, every fault kind forks `K`
/// runs that inject right at that rung. Run `r` of a kind maps to group
/// `g = r / (S·K)`, rung `s = (r / K) % S` and fork slot `j = r % K`, with
/// the fault drawn from [`fault_rng_seed`]`(g, kind, s·K + j)` — so any
/// run is reproducible from scratch as `prepare → warm_to_percent(stages[s])
/// → finish` with machine seed `g`.
pub fn sweep_parallel_make(
    cfg: &SweepConfig,
    kinds: &[FaultKind],
    stages: &[u32],
    params: MachineParams,
    hive: &HiveConfig,
    recovery: RecoveryConfig,
) -> Vec<SweepRun<EndToEndOutcome>> {
    let stages = if stages.is_empty() { &[30] } else { stages };
    sweep(
        cfg,
        kinds,
        stages,
        |g| prepare_parallel_make(params, hive, recovery, g),
        |prep, pct, kind, rng| {
            // Climbing the ladder rung by rung is trace-identical to a
            // single warm to this rung (warm_to_percent is an idempotent
            // continuation).
            prep.warm_to_percent(pct);
            finish_parallel_make(prep.fork(), Some(random_fault(kind, params.n_nodes, rng)))
        },
    )
}

/// The from-scratch twin of [`sweep_fault_experiments`]: the same runs
/// (same seeds, same faults), each booting and filling its own machine.
/// The reference the fork-determinism checks compare against, and the
/// "before" arm the `sweep_fork` bench times.
pub fn scratch_fault_sweep(
    cfg: &SweepConfig,
    kinds: &[FaultKind],
    make_cfg: impl Fn(u64) -> ExperimentConfig + Sync,
) -> Vec<SweepRun<ExperimentOutcome>> {
    sweep(cfg, kinds, &[0], &make_cfg, |ecfg, _, kind, rng| {
        let fault = random_fault(kind, ecfg.params.n_nodes, rng);
        flash_core::run_fault_experiment(ecfg, fault)
    })
}

/// The from-scratch twin of [`sweep_parallel_make`]: each run boots its
/// own machine, warms it to the run's injection rung and finishes — same
/// seeds, same faults, same outcomes.
pub fn scratch_parallel_make_sweep(
    cfg: &SweepConfig,
    kinds: &[FaultKind],
    stages: &[u32],
    params: MachineParams,
    hive: &HiveConfig,
    recovery: RecoveryConfig,
) -> Vec<SweepRun<EndToEndOutcome>> {
    let stages = if stages.is_empty() { &[30] } else { stages };
    sweep(
        cfg,
        kinds,
        stages,
        |g| g,
        |&mut g, pct, kind, rng| {
            let fault = random_fault(kind, params.n_nodes, rng);
            let mut prep = prepare_parallel_make(params, hive, recovery, g);
            prep.warm_to_percent(pct);
            finish_parallel_make(prep, Some(fault))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(seed: u64) -> ExperimentConfig {
        let mut params = MachineParams::table_5_1();
        params.n_nodes = 8;
        let mut cfg = ExperimentConfig::new(params, seed);
        cfg.fill_ops = 60;
        cfg.total_ops = 160;
        cfg
    }

    #[test]
    fn group_math() {
        let mut c = SweepConfig::new(20);
        c.forks_per_checkpoint = 8;
        assert_eq!(c.n_groups(), 3);
        c.forks_per_checkpoint = 5;
        assert_eq!(c.n_groups(), 4);
        c.runs_per_kind = 1;
        assert_eq!(c.n_groups(), 1);
    }

    #[test]
    fn checkpoint_groups_are_deterministically_indexed() {
        for workers in [1, 4] {
            let out = run_checkpoint_groups(workers, 5, |g| g * 10, |g, c| vec![(g, c)]);
            assert_eq!(out.len(), 5);
            for (g, v) in out.iter().enumerate() {
                assert_eq!(v, &vec![(g, g * 10)]);
            }
        }
    }

    /// The sweep yields exactly `runs_per_kind` runs per kind, ordered by
    /// `(kind, run)`, and the aggregation is worker-count independent.
    #[test]
    fn sweep_shape_and_worker_independence() {
        let kinds = [FaultKind::Node, FaultKind::FalseAlarm];
        let mut cfg = SweepConfig::new(3);
        cfg.forks_per_checkpoint = 2;
        cfg.workers = 1;
        let a = sweep_fault_experiments(&cfg, &kinds, tiny_cfg);
        cfg.workers = 4;
        let b = sweep_fault_experiments(&cfg, &kinds, tiny_cfg);
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.kind as u64, y.kind as u64);
            assert_eq!(x.run, y.run);
            assert_eq!(x.fill_seed, y.fill_seed);
            assert_eq!(x.outcome.trace_hash, y.outcome.trace_hash, "{:?}", x.kind);
        }
        // Per-kind run indices are exactly 0..runs_per_kind.
        for &kind in &kinds {
            let runs: Vec<usize> = a
                .iter()
                .filter(|r| r.kind as u64 == kind as u64)
                .map(|r| r.run)
                .collect();
            assert_eq!(runs, vec![0, 1, 2]);
        }
    }

    /// Forked runs hash identically to from-scratch runs with the same
    /// seeds — the engine-level fork-determinism check (the per-fault-type
    /// integration test lives in `tests/checkpoint_fork.rs`).
    #[test]
    fn forked_matches_scratch_at_equal_seeds() {
        let kinds = [FaultKind::Node];
        let mut cfg = SweepConfig::new(2);
        cfg.forks_per_checkpoint = 2;
        cfg.workers = 1;
        let forked = sweep_fault_experiments(&cfg, &kinds, tiny_cfg);
        let scratch = scratch_fault_sweep(&cfg, &kinds, tiny_cfg);
        assert_eq!(forked.len(), 2);
        assert_eq!(forked.len(), scratch.len());
        for (f, s) in forked.iter().zip(&scratch) {
            assert_eq!(f.outcome.trace_hash, s.outcome.trace_hash);
            assert_eq!(f.outcome.end_time, s.outcome.end_time);
            assert_eq!(f.outcome.bus_errors, s.outcome.bus_errors);
        }
    }

    /// Staged end-to-end forks hash identically to from-scratch runs that
    /// boot their own machine and warm straight to the same rung — the
    /// checkpoint-ladder determinism check.
    #[test]
    fn staged_make_forks_match_scratch() {
        let mut params = MachineParams::table_5_1();
        params.n_nodes = 4;
        let hive = flash_hive::HiveConfig {
            n_cells: 4,
            files_per_task: 2,
            blocks_per_file: 8,
            out_blocks: 4,
            compute_ns: 10_000,
            ..flash_hive::HiveConfig::default()
        };
        let kinds = [FaultKind::Node, FaultKind::Link];
        let mut cfg = SweepConfig::new(4);
        cfg.forks_per_checkpoint = 2;
        cfg.workers = 1;
        let stages = [30, 70];
        let recovery = RecoveryConfig::default();
        let forked = sweep_parallel_make(&cfg, &kinds, &stages, params, &hive, recovery);
        let scratch = scratch_parallel_make_sweep(&cfg, &kinds, &stages, params, &hive, recovery);
        assert_eq!(forked.len(), kinds.len() * 4);
        assert_eq!(forked.len(), scratch.len());
        // Both ladder rungs appear, and every forked run is bit-identical
        // to its from-scratch twin.
        assert!(forked.iter().any(|r| r.stage_pct == 30));
        assert!(forked.iter().any(|r| r.stage_pct == 70));
        for (f, s) in forked.iter().zip(&scratch) {
            assert_eq!(f.run, s.run);
            assert_eq!(f.stage_pct, s.stage_pct);
            assert_eq!(
                f.outcome.trace_hash, s.outcome.trace_hash,
                "{:?} run {} stage {}%",
                f.kind, f.run, f.stage_pct
            );
        }
        // Worker-count independence for the staged sweep.
        cfg.workers = 4;
        let b = sweep_parallel_make(&cfg, &kinds, &stages, params, &hive, recovery);
        for (x, y) in forked.iter().zip(&b) {
            assert_eq!(x.outcome.trace_hash, y.outcome.trace_hash);
        }
    }
}
