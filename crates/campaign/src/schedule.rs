//! Fault-schedule representation and the seeded randomized generator.
//!
//! A [`Schedule`] is a self-contained, replayable description of one chaos
//! run: machine size, workload seed, the firewall switch (the deliberate
//! sabotage knob of the paper's Section 6.2 ablation) and a list of
//! [`FaultEvent`]s, each pairing a [`FaultSpec`] with an injection point
//! ([`InjectAt`]). Running the same schedule twice produces bit-identical
//! simulations, which is what makes seed replay and shrinking possible.

use flash_core::{random_fault, FaultKind};
use flash_machine::FaultSpec;
use flash_net::NodeId;
use flash_sim::DetRng;

/// When, relative to the run, a fault fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectAt {
    /// During steady-state operation: `offset_ns` after the cache-fill
    /// prelude completes (machine mode) or after the compiles pass their
    /// injection threshold (hive mode).
    Steady {
        /// Nanoseconds after the steady-state point.
        offset_ns: u64,
    },
    /// Mid-recovery: `delay_ns` after the first node of the current
    /// incarnation enters recovery phase `phase` (1–4). Fires at most once,
    /// the first time the phase entry is observed.
    PhaseEntry {
        /// Recovery phase, `1..=4`.
        phase: u8,
        /// Nanoseconds after the observed phase entry.
        delay_ns: u64,
    },
    /// During the Hive OS recovery pass, after hardware recovery completed
    /// but before the page service re-initializes incoherent lines (hive
    /// mode only; treated as a late steady fault in machine mode).
    DuringOsRecovery,
}

/// One fault injection of a schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// When to inject.
    pub at: InjectAt,
    /// What to inject.
    pub fault: FaultSpec,
}

/// Which harness the schedule drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The Section 5.2 validation harness: random cache-fill workload,
    /// oracle validation.
    Machine,
    /// The Table 5.4 end-to-end harness: Hive cells running a parallel
    /// make with a file-server cell.
    Hive,
    /// The KV serving harness: Hive cells running replicated KV shards
    /// under open-loop client traffic with user-visible SLOs.
    HiveKv,
}

/// A complete, replayable chaos-run description.
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// Seed for the machine/workload RNGs (and the generator that built
    /// this schedule).
    pub seed: u64,
    /// Node count.
    pub n_nodes: usize,
    /// Harness choice.
    pub mode: Mode,
    /// Operations per processor before the first steady fault (machine
    /// mode).
    pub fill_ops: u64,
    /// Total operations per processor (machine mode).
    pub total_ops: u64,
    /// The MAGIC firewall switch. `false` is the deliberately seeded bug of
    /// the Section 6.2 ablation: the dying master's stray write lands in
    /// another node's memory and the invariant stack must catch it.
    pub firewall_enabled: bool,
    /// The fault injections, in generation order.
    pub events: Vec<FaultEvent>,
}

// The generator's fixed draw probabilities.

/// Probability that a follow-up event is armed on a recovery-phase entry
/// instead of a steady-state offset.
const PHASE_FAULT_CHANCE: f64 = 0.5;
/// Probability that an event is a multi-fault ([`FaultSpec::Multi`]).
const MULTI_CHANCE: f64 = 0.25;

/// Tunables of the randomized schedule generator.
#[derive(Clone, Copy, Debug)]
pub struct GeneratorConfig {
    /// Minimum machine size.
    pub min_nodes: usize,
    /// Maximum machine size.
    pub max_nodes: usize,
    /// Maximum fault events per schedule (at least 1).
    pub max_events: usize,
    /// Probability that a schedule targets the Hive end-to-end harness.
    pub hive_chance: f64,
    /// Probability that a schedule (when not already a Hive one) targets
    /// the KV serving harness. The default of `0.0` consumes no RNG draws,
    /// so schedules generated by older configs are bit-identical.
    pub kv_chance: f64,
    /// Probability that an event is a *gray* fault (fail-slow, degraded
    /// memory, lossy link or memory-pool failure) instead of a fail-stop
    /// one. The default of `0.0` consumes no RNG draws, so schedules
    /// generated by older configs are bit-identical.
    pub gray_chance: f64,
    /// Firewall switch copied into every schedule (see
    /// [`Schedule::firewall_enabled`]).
    pub firewall_enabled: bool,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            min_nodes: 8,
            max_nodes: 16,
            max_events: 4,
            hive_chance: 0.0,
            kv_chance: 0.0,
            gray_chance: 0.0,
            firewall_enabled: true,
        }
    }
}

/// Draws one single-fault spec, including the firmware-assertion type the
/// Table 5.2 harness does not generate. Avoids node 0 so the machine always
/// keeps a survivor.
fn single_fault(n_nodes: usize, rng: &mut DetRng) -> FaultSpec {
    if rng.chance(0.12) {
        return FaultSpec::FirmwareAssertion(NodeId(1 + rng.below(n_nodes as u64 - 1) as u16));
    }
    let kind = *rng.choose(&FaultKind::ALL).expect("ALL is non-empty");
    random_fault(kind, n_nodes, rng)
}

/// Draws one gray-failure spec. Node 0 is never a victim (uniform with
/// [`single_fault`]), and `PoolFailure` pools stay inside `1..n_nodes` so
/// the survivor guarantee holds.
fn gray_fault(n_nodes: usize, rng: &mut DetRng) -> FaultSpec {
    let victim = |rng: &mut DetRng| NodeId(1 + rng.below(n_nodes as u64 - 1) as u16);
    match rng.below(4) {
        0 => FaultSpec::FailSlow(victim(rng), 2 + rng.below(7) as u32),
        1 => FaultSpec::DegradedMemory(
            victim(rng),
            (10 + rng.below(41)) as u8,
            200 + rng.below(1_801),
        ),
        2 => {
            // Reuse the mesh-aware link picker so the pair is adjacent.
            let FaultSpec::Link(a, b) = random_fault(FaultKind::Link, n_nodes, rng) else {
                unreachable!("FaultKind::Link draws a link fault")
            };
            FaultSpec::LossyLink(a, b, (1_000 + rng.below(99_001)) as u32)
        }
        _ => {
            let size = (2 + rng.below(2)) as usize;
            let start = 1 + rng.index(n_nodes - size);
            FaultSpec::PoolFailure {
                pool: (start..start + size).map(|i| NodeId(i as u16)).collect(),
            }
        }
    }
}

/// Generates the deterministic fault schedule for `seed`.
///
/// Guarantees:
/// * the first event is a steady-state *real* fault (so that recovery runs
///   and phase-armed events have a phase to hit);
/// * node 0 is never doomed (a survivor always exists);
/// * the cumulative doomed-node count stays below half the machine, so the
///   shutdown heuristic never halts a fault-free-by-construction run.
pub fn generate(seed: u64, cfg: &GeneratorConfig) -> Schedule {
    let mut rng = DetRng::new(seed ^ 0x00C4_A05C_00C4_A05C);
    let hive = rng.chance(cfg.hive_chance);
    // The `> 0.0` guard keeps the draw sequence of kv-free configs
    // bit-identical ([`DetRng::chance`] consumes a draw even at p = 0).
    let kv = !hive && cfg.kv_chance > 0.0 && rng.chance(cfg.kv_chance);
    let n_nodes = if hive || kv {
        // Celled runs use 4 cells; keep the node count a multiple of 4.
        let lo = cfg.min_nodes.div_ceil(4).max(1);
        let hi = (cfg.max_nodes / 4).max(lo);
        4 * rng.range_inclusive(lo as u64, hi as u64) as usize
    } else {
        rng.range_inclusive(cfg.min_nodes as u64, cfg.max_nodes as u64) as usize
    };
    let max_doomed = (n_nodes / 2).saturating_sub(1).max(1);
    let mut doomed: Vec<NodeId> = Vec::new();
    let mut events = Vec::new();

    let n_events = 1 + rng.index(cfg.max_events.max(1));
    // Phase-armed and OS-recovery-armed events only fire if some earlier
    // fault actually triggers recovery; gray faults may never be detected,
    // so a gray opener by itself does not license them.
    let mut recovery_expected = false;
    for i in 0..n_events {
        // The `> 0.0` guard keeps the draw sequence of gray-free configs
        // bit-identical ([`DetRng::chance`] consumes a draw even at p = 0).
        let gray = cfg.gray_chance > 0.0 && rng.chance(cfg.gray_chance);
        let fault = if gray {
            gray_fault(n_nodes, &mut rng)
        } else if i > 0 && rng.chance(MULTI_CHANCE) {
            let members = (0..2 + rng.index(2))
                .map(|_| single_fault(n_nodes, &mut rng))
                .collect();
            FaultSpec::Multi(members)
        } else if i == 0 {
            // The opener must actually trigger recovery.
            loop {
                let f = single_fault(n_nodes, &mut rng);
                if !f.is_false_alarm() {
                    break f;
                }
            }
        } else {
            single_fault(n_nodes, &mut rng)
        };

        // Survivor budget: skip events that would doom too much of the
        // machine.
        let mut projected = doomed.clone();
        projected.extend(fault.doomed_nodes());
        projected.sort_unstable_by_key(|n| n.0);
        projected.dedup();
        if projected.len() > max_doomed {
            continue;
        }
        doomed = projected;

        let at = if i == 0 {
            InjectAt::Steady {
                offset_ns: rng.below(100_000),
            }
        } else if recovery_expected && (hive || kv) && rng.chance(0.2) {
            InjectAt::DuringOsRecovery
        } else if recovery_expected && rng.chance(PHASE_FAULT_CHANCE) {
            InjectAt::PhaseEntry {
                phase: 1 + rng.index(4) as u8,
                delay_ns: rng.below(50_000),
            }
        } else {
            InjectAt::Steady {
                offset_ns: rng.below(400_000),
            }
        };
        // Updated only after `at` is chosen: an event cannot license its
        // own phase/OS-recovery arming — that would ride a recovery this
        // very event is supposed to cause.
        recovery_expected |= (i == 0 && !gray) || !fault.doomed_nodes().is_empty();
        events.push(FaultEvent { at, fault });
    }

    Schedule {
        seed,
        n_nodes,
        mode: if hive {
            Mode::Hive
        } else if kv {
            Mode::HiveKv
        } else {
            Mode::Machine
        },
        fill_ops: 120,
        total_ops: 350,
        firewall_enabled: cfg.firewall_enabled,
        events,
    }
}

// ----------------------------------------------------------------------
// JSON (hand-rolled: the workspace carries no serde)
// ----------------------------------------------------------------------

fn inject_to_json(at: &InjectAt) -> String {
    match at {
        InjectAt::Steady { offset_ns } => {
            format!("{{\"when\":\"steady\",\"offset_ns\":{offset_ns}}}")
        }
        InjectAt::PhaseEntry { phase, delay_ns } => {
            format!("{{\"when\":\"phase_entry\",\"phase\":{phase},\"delay_ns\":{delay_ns}}}")
        }
        InjectAt::DuringOsRecovery => "{\"when\":\"during_os_recovery\"}".to_string(),
    }
}

impl Schedule {
    /// Renders the schedule as a JSON object (hand-rolled; no serde in the
    /// workspace).
    pub fn to_json(&self) -> String {
        let events: Vec<String> = self
            .events
            .iter()
            .map(|e| {
                format!(
                    "{{\"at\":{},\"fault\":{}}}",
                    inject_to_json(&e.at),
                    e.fault.to_json()
                )
            })
            .collect();
        format!(
            "{{\"seed\":{},\"n_nodes\":{},\"mode\":\"{}\",\"fill_ops\":{},\"total_ops\":{},\
             \"firewall_enabled\":{},\"events\":[{}]}}",
            self.seed,
            self.n_nodes,
            match self.mode {
                Mode::Machine => "machine",
                Mode::Hive => "hive",
                Mode::HiveKv => "hivekv",
            },
            self.fill_ops,
            self.total_ops,
            self.firewall_enabled,
            events.join(",")
        )
    }

    /// Union of the nodes doomed by every event of the schedule.
    pub fn doomed_nodes(&self) -> Vec<NodeId> {
        let mut doomed: Vec<NodeId> = self
            .events
            .iter()
            .flat_map(|e| e.fault.doomed_nodes())
            .collect();
        doomed.sort_unstable_by_key(|n| n.0);
        doomed.dedup();
        doomed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GeneratorConfig::default();
        for seed in 0..32 {
            assert_eq!(generate(seed, &cfg), generate(seed, &cfg));
        }
    }

    #[test]
    fn schedules_always_keep_a_survivor() {
        let cfg = GeneratorConfig::default();
        for seed in 0..200 {
            let s = generate(seed, &cfg);
            let doomed = s.doomed_nodes();
            assert!(!doomed.contains(&NodeId(0)), "seed {seed}: node 0 doomed");
            assert!(
                doomed.len() < s.n_nodes / 2,
                "seed {seed}: {} of {} nodes doomed",
                doomed.len(),
                s.n_nodes
            );
            assert!(!s.events.is_empty());
            assert!(
                matches!(s.events[0].at, InjectAt::Steady { .. }),
                "seed {seed}: opener must be steady"
            );
            assert!(!s.events[0].fault.is_false_alarm(), "seed {seed}");
        }
    }

    #[test]
    fn node_counts_respect_bounds() {
        let cfg = GeneratorConfig::default();
        for seed in 0..100 {
            let s = generate(seed, &cfg);
            assert!((8..=16).contains(&s.n_nodes), "seed {seed}: {}", s.n_nodes);
        }
    }

    #[test]
    fn phase_events_appear_across_a_campaign() {
        let cfg = GeneratorConfig::default();
        let mut seen = [false; 4];
        for seed in 0..300 {
            for e in &generate(seed, &cfg).events {
                if let InjectAt::PhaseEntry { phase, .. } = e.at {
                    seen[phase as usize - 1] = true;
                }
            }
        }
        assert_eq!(seen, [true; 4], "all four phases must be targetable");
    }

    fn is_gray(f: &FaultSpec) -> bool {
        matches!(
            f,
            FaultSpec::FailSlow(..)
                | FaultSpec::DegradedMemory(..)
                | FaultSpec::LossyLink(..)
                | FaultSpec::PoolFailure { .. }
        )
    }

    #[test]
    fn default_config_generates_no_gray_faults() {
        // Backward compatibility: with gray_chance = 0 the generator draws
        // the exact same sequence as before the gray-failure extension.
        let cfg = GeneratorConfig::default();
        for seed in 0..200 {
            for e in &generate(seed, &cfg).events {
                assert!(!is_gray(&e.fault), "seed {seed}: {:?}", e.fault);
                if let FaultSpec::Multi(members) = &e.fault {
                    assert!(members.iter().all(|m| !is_gray(m)), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn gray_faults_of_every_kind_appear_and_keep_a_survivor() {
        let cfg = GeneratorConfig {
            gray_chance: 0.5,
            ..GeneratorConfig::default()
        };
        let mut seen = [false; 4];
        for seed in 0..300 {
            let s = generate(seed, &cfg);
            let doomed = s.doomed_nodes();
            assert!(!doomed.contains(&NodeId(0)), "seed {seed}: node 0 doomed");
            assert!(doomed.len() < s.n_nodes / 2, "seed {seed}");
            for e in &s.events {
                match &e.fault {
                    FaultSpec::FailSlow(n, f) => {
                        assert!(n.0 != 0 && *f >= 2, "seed {seed}");
                        seen[0] = true;
                    }
                    FaultSpec::DegradedMemory(n, pct, extra) => {
                        assert!(n.0 != 0 && (10..=50).contains(pct) && *extra >= 200);
                        seen[1] = true;
                    }
                    FaultSpec::LossyLink(a, b, ppm) => {
                        assert!(a != b && (1_000..=100_000).contains(ppm));
                        seen[2] = true;
                    }
                    FaultSpec::PoolFailure { pool } => {
                        assert!((2..=3).contains(&pool.len()), "seed {seed}");
                        assert!(pool.iter().all(|n| n.0 != 0), "seed {seed}");
                        seen[3] = true;
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(seen, [true; 4], "all four gray kinds must be generated");
    }

    #[test]
    fn default_config_generates_no_kv_schedules() {
        // Backward compatibility: with kv_chance = 0 the generator draws
        // the exact same sequence as before the KV serving extension.
        let cfg = GeneratorConfig::default();
        for seed in 0..200 {
            assert_ne!(generate(seed, &cfg).mode, Mode::HiveKv, "seed {seed}");
        }
    }

    #[test]
    fn kv_schedules_appear_and_keep_cell_aligned_sizes() {
        let cfg = GeneratorConfig {
            kv_chance: 0.5,
            ..GeneratorConfig::default()
        };
        let mut kv_seen = 0;
        for seed in 0..200 {
            let s = generate(seed, &cfg);
            if s.mode == Mode::HiveKv {
                kv_seen += 1;
                assert_eq!(s.n_nodes % 4, 0, "seed {seed}: {}", s.n_nodes);
            }
            let doomed = s.doomed_nodes();
            assert!(!doomed.contains(&NodeId(0)), "seed {seed}");
        }
        assert!(kv_seen > 50, "only {kv_seen}/200 kv schedules");
        let full = GeneratorConfig {
            kv_chance: 1.0,
            ..GeneratorConfig::default()
        };
        for seed in 0..50 {
            assert_eq!(generate(seed, &full).mode, Mode::HiveKv, "seed {seed}");
        }
    }

    #[test]
    fn hive_wins_over_kv_when_both_are_drawn() {
        let cfg = GeneratorConfig {
            hive_chance: 1.0,
            kv_chance: 1.0,
            ..GeneratorConfig::default()
        };
        for seed in 0..50 {
            assert_eq!(generate(seed, &cfg).mode, Mode::Hive, "seed {seed}");
        }
    }

    #[test]
    fn recovery_armed_events_follow_a_recovery_triggering_fault() {
        // Phase-entry (and OS-recovery) arming requires an earlier event
        // that actually triggers recovery: a fail-stop opener or any fault
        // that dooms at least one node. A purely gray prefix must arm its
        // events at steady state only.
        let cfg = GeneratorConfig {
            gray_chance: 1.0,
            hive_chance: 0.5,
            ..GeneratorConfig::default()
        };
        for seed in 0..300 {
            let s = generate(seed, &cfg);
            let mut licensed = false;
            for e in &s.events {
                if !licensed {
                    assert!(
                        matches!(e.at, InjectAt::Steady { .. }),
                        "seed {seed}: {:?} armed before recovery is expected",
                        e.at
                    );
                }
                licensed |= !e.fault.doomed_nodes().is_empty();
            }
        }
    }

    #[test]
    fn json_rendering_covers_every_variant() {
        let cfg = GeneratorConfig {
            hive_chance: 0.5,
            ..GeneratorConfig::default()
        };
        for seed in 0..50 {
            let s = generate(seed, &cfg);
            let j = s.to_json();
            assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
            assert!(j.contains("\"events\":["));
        }
    }
}
