//! # flash-campaign — randomized multi-fault chaos campaigns
//!
//! The paper validates its recovery algorithm with single-fault experiments
//! (Table 5.3) and a handful of end-to-end runs (Table 5.4). This crate
//! turns that methodology into a *chaos campaign engine* that searches the
//! fault space much more aggressively:
//!
//! * **Seeded schedule generation** ([`generate`]): every run's fault
//!   schedule — fault types (including [`FaultSpec::Multi`] combinations),
//!   victims, multiplicity and timing — derives deterministically from one
//!   seed. Faults can be armed *mid-recovery* on entry to each phase P1–P4
//!   (via the recovery extension's machine-wide phase-entry times) and
//!   during the Hive OS recovery pass.
//! * **An invariant stack** ([`check_all`]) run after every schedule:
//!   oracle-bounded incoherence and no silent corruption, survivor routing
//!   connectivity and channel-dependency acyclicity, no dirty ownership
//!   stranded on failed nodes, version monotonicity against the oracle,
//!   Hive's exactly-once RPC accounting, and recovery-report completeness.
//! * **A parallel campaign runner** ([`run_campaign`]): runs fan out across
//!   worker threads through a shared work counter; per-run seeds are pure
//!   functions of the master seed and run index, so the campaign's outcome
//!   is identical whatever the worker count. Each [`RunRecord`] carries
//!   the run's [`flash_core::RunEnd`], decided by the shared lifecycle for
//!   all three modes; the invariant stack reads it through [`RunContext`].
//! * **Failure triage** ([`triage`]): replay any failure from its seed,
//!   shrink the schedule greedily (drop events, advance injection points,
//!   split multi-faults) while the violation persists, and dump a JSON
//!   post-mortem — run end, violations, original and minimal schedules,
//!   and the machine's trace buffer — under `target/campaign/`.
//!
//! The `campaign` example is the one front end: `--mix chaos|gray|kv` or
//! `--sabotage` picks a named schedule mix, and it prints the verdict
//! sheet, the run-end counts and (for `kv`) the SLO sheet, and exits
//! nonzero on a failed gate.
//!
//! # Examples
//!
//! Run a small campaign and triage any failures:
//!
//! ```no_run
//! use flash_campaign::{run_campaign, triage, campaign_dir, CampaignConfig};
//!
//! let report = run_campaign(&CampaignConfig {
//!     runs: 50,
//!     workers: 4,
//!     ..CampaignConfig::default()
//! });
//! assert_eq!(report.total_violations(), 0);
//! for failure in report.failures() {
//!     let t = triage(failure, Some(&campaign_dir()));
//!     println!("shrunk to {} events: {:?}", t.shrunk.events.len(), t.dump_path);
//! }
//! ```
//!
//! [`FaultSpec::Multi`]: flash_machine::FaultSpec::Multi

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod inject;
mod invariants;
mod runner;
mod schedule;
mod triage;

pub use invariants::{check_all, GrayFacts, RunContext, Violation};
pub use runner::{
    per_run_seed, run_campaign, run_schedule, CampaignConfig, CampaignReport, RunRecord, Verdict,
};
pub use schedule::{generate, FaultEvent, GeneratorConfig, InjectAt, Mode, Schedule};
pub use triage::{campaign_dir, post_mortem_json, shrink, triage, TriageReport};

#[cfg(test)]
mod tests {
    use super::*;
    use flash_machine::FaultSpec;
    use flash_net::NodeId;

    fn tiny_schedule(seed: u64, firewall: bool, events: Vec<FaultEvent>) -> Schedule {
        Schedule {
            seed,
            n_nodes: 8,
            mode: Mode::Machine,
            fill_ops: 120,
            total_ops: 350,
            firewall_enabled: firewall,
            events,
        }
    }

    #[test]
    fn clean_single_fault_schedule_passes_the_stack() {
        let s = tiny_schedule(
            7,
            true,
            vec![FaultEvent {
                at: InjectAt::Steady { offset_ns: 100 },
                fault: FaultSpec::Node(NodeId(3)),
            }],
        );
        let r = run_schedule(&s);
        assert!(r.finished, "run must drain");
        assert!(r.passed(), "violations: {:?}", r.violations);
        assert!(r.restarts == 0, "single fault needs no restart");
    }

    #[test]
    fn phase_armed_fault_fires_and_recovers() {
        let s = tiny_schedule(
            11,
            true,
            vec![
                FaultEvent {
                    at: InjectAt::Steady { offset_ns: 0 },
                    fault: FaultSpec::Node(NodeId(2)),
                },
                FaultEvent {
                    at: InjectAt::PhaseEntry {
                        phase: 2,
                        delay_ns: 500,
                    },
                    fault: FaultSpec::Node(NodeId(5)),
                },
            ],
        );
        let r = run_schedule(&s);
        assert_eq!(r.phase_hits, [0, 1, 0, 0], "P2 fault must have fired");
        assert!(r.passed(), "violations: {:?}", r.violations);
        assert!(
            r.restarts >= 1,
            "a mid-recovery fault must restart the algorithm"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let s = tiny_schedule(
            13,
            true,
            vec![FaultEvent {
                at: InjectAt::Steady { offset_ns: 50 },
                fault: FaultSpec::InfiniteLoop(NodeId(4)),
            }],
        );
        let a = run_schedule(&s);
        let b = run_schedule(&s);
        assert_eq!(a.end_time_ns, b.end_time_ns);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.restarts, b.restarts);
    }

    #[test]
    fn disabled_firewall_is_caught_replayed_and_shrunk() {
        // The deliberately seeded bug: with the firewall off, the dying
        // master's wild write lands in node 0's protected memory.
        let s = tiny_schedule(
            17,
            false,
            vec![
                FaultEvent {
                    at: InjectAt::Steady { offset_ns: 200 },
                    fault: FaultSpec::Node(NodeId(1)),
                },
                FaultEvent {
                    at: InjectAt::PhaseEntry {
                        phase: 3,
                        delay_ns: 1_000,
                    },
                    fault: FaultSpec::FalseAlarm(NodeId(6)),
                },
            ],
        );
        let r = run_schedule(&s);
        assert!(!r.passed(), "the wild write must violate an invariant");
        assert!(
            r.violations.iter().any(
                |v| v.invariant == "oracle-corruption" || v.invariant == "version-monotonicity"
            ),
            "got: {:?}",
            r.violations
        );
        assert!(!r.trace.is_empty(), "failures must capture the trace");
        // The post-mortem snapshot sums every layer's counters: the
        // fabric's traffic and the machine's landed wild write.
        for counter in ["\"packets_sent\": ", "\"wild_writes_landed\": 1"] {
            assert!(r.metrics_json.contains(counter), "{}", r.metrics_json);
        }

        let t = triage(&r, None);
        assert!(t.reproduced, "seed replay must reproduce the violation");
        assert!(
            t.shrunk.events.len() <= 2,
            "shrunk to {} events",
            t.shrunk.events.len()
        );
        assert!(!t.shrunk_record.passed());
        let json = post_mortem_json(&t);
        assert!(json.contains("\"reproduced\": true"), "{json}");
        assert_eq!(r.end, flash_core::RunEnd::Settled);
        assert!(json.contains("\"end\": \"settled\""), "{json}");
        assert!(json.contains("shrunk_schedule"), "{json}");
    }

    #[test]
    fn campaign_outcome_is_independent_of_worker_count() {
        let base = CampaignConfig {
            master_seed: 3,
            runs: 6,
            workers: 1,
            generator: GeneratorConfig {
                min_nodes: 8,
                max_nodes: 10,
                max_events: 2,
                ..GeneratorConfig::default()
            },
            ..CampaignConfig::default()
        };
        let seq = run_campaign(&base);
        let par = run_campaign(&CampaignConfig { workers: 3, ..base });
        assert_eq!(seq.records.len(), 6);
        let key = |r: &CampaignReport| -> Vec<(u64, bool, u64)> {
            r.records
                .iter()
                .map(|rec| (rec.schedule.seed, rec.passed(), rec.end_time_ns))
                .collect()
        };
        assert_eq!(key(&seq), key(&par));
        assert_eq!(seq.total_violations(), 0, "failures: {:?}", {
            let v: Vec<_> = seq.failures().map(|f| &f.violations).collect();
            v
        });
    }

    #[test]
    fn invariant_report_hash_is_identical_across_1_and_8_workers() {
        use std::hash::{Hash, Hasher};

        // Hashes everything an invariant report contains — per-run
        // violations (names and rendered details), completion, end times,
        // restarts, phase hits, and traces — so any scheduling-dependent
        // divergence between worker counts shows up as a hash mismatch.
        fn report_hash(r: &CampaignReport) -> u64 {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            for rec in &r.records {
                rec.schedule.seed.hash(&mut h);
                rec.finished.hash(&mut h);
                rec.end_time_ns.hash(&mut h);
                rec.restarts.hash(&mut h);
                rec.phase_hits.hash(&mut h);
                rec.os_recovery_hits.hash(&mut h);
                rec.violations.len().hash(&mut h);
                for v in &rec.violations {
                    v.invariant.hash(&mut h);
                    v.details.hash(&mut h);
                }
                rec.trace.hash(&mut h);
                rec.trace_hash.hash(&mut h);
                rec.trace_dropped.hash(&mut h);
            }
            r.phase_hits.hash(&mut h);
            r.os_recovery_hits.hash(&mut h);
            h.finish()
        }

        let base = CampaignConfig {
            master_seed: 29,
            runs: 8,
            workers: 1,
            generator: GeneratorConfig {
                min_nodes: 8,
                max_nodes: 10,
                max_events: 2,
                ..GeneratorConfig::default()
            },
            ..CampaignConfig::default()
        };
        let seq = run_campaign(&base);
        let par = run_campaign(&CampaignConfig { workers: 8, ..base });
        assert_eq!(
            report_hash(&seq),
            report_hash(&par),
            "campaign must be bit-identical across worker counts"
        );
        // The per-run merged-trace hashes (FNV-1a over the totally ordered
        // event stream) must also agree record by record: the structured
        // trace itself, not just the report, is worker-count independent.
        let traces = |r: &CampaignReport| -> Vec<u64> {
            r.records.iter().map(|rec| rec.trace_hash).collect()
        };
        assert_eq!(
            traces(&seq),
            traces(&par),
            "merged traces must be identical across 1 and 8 workers"
        );
    }

    #[test]
    fn fail_slow_run_survives_degraded_with_full_progress() {
        let s = tiny_schedule(
            19,
            true,
            vec![FaultEvent {
                at: InjectAt::Steady { offset_ns: 100 },
                fault: FaultSpec::FailSlow(NodeId(3), 6),
            }],
        );
        let r = run_schedule(&s);
        assert!(r.finished, "a fail-slow machine must still drain");
        assert!(r.passed(), "violations: {:?}", r.violations);
        assert_eq!(
            r.verdict,
            Verdict::SurvivedDegraded,
            "fail-slow alone is legitimately undetected"
        );
        assert_eq!(r.detect_latency_ns, None);
    }

    #[test]
    fn degraded_memory_and_lossy_link_pass_the_stack() {
        use flash_net::RouterId;
        let s = tiny_schedule(
            23,
            true,
            vec![
                FaultEvent {
                    at: InjectAt::Steady { offset_ns: 50 },
                    fault: FaultSpec::DegradedMemory(NodeId(2), 40, 900),
                },
                FaultEvent {
                    at: InjectAt::Steady { offset_ns: 2_000 },
                    fault: FaultSpec::LossyLink(RouterId(0), RouterId(1), 50_000),
                },
            ],
        );
        let r = run_schedule(&s);
        assert!(r.passed(), "violations: {:?}", r.violations);
        assert!(
            matches!(
                r.verdict,
                Verdict::SurvivedDegraded | Verdict::DetectedRecovered
            ),
            "gray-only run must not be classified as contained: {:?}",
            r.verdict
        );
    }

    #[test]
    fn pool_failure_is_contained_like_a_multi_node_fault() {
        let s = tiny_schedule(
            27,
            true,
            vec![FaultEvent {
                at: InjectAt::Steady { offset_ns: 100 },
                fault: FaultSpec::PoolFailure {
                    pool: vec![NodeId(2), NodeId(3)],
                },
            }],
        );
        let r = run_schedule(&s);
        assert!(r.passed(), "violations: {:?}", r.violations);
        assert_eq!(r.verdict, Verdict::Contained, "a pool failure dooms nodes");
        assert!(
            r.detect_latency_ns.is_some(),
            "contained runs must report a detection latency"
        );
    }

    #[test]
    fn gray_campaign_is_identical_across_1_and_8_workers() {
        // The acceptance gate of the gray-failure extension: with gray
        // faults in the schedule mix, campaign outcomes (including the new
        // verdict and detection-latency fields, and the merged trace
        // hashes) stay bit-identical whatever the worker count.
        let base = CampaignConfig {
            master_seed: 31,
            runs: 8,
            workers: 1,
            generator: GeneratorConfig {
                min_nodes: 8,
                max_nodes: 10,
                max_events: 2,
                gray_chance: 0.6,
                ..GeneratorConfig::default()
            },
            ..CampaignConfig::default()
        };
        let seq = run_campaign(&base);
        let par = run_campaign(&CampaignConfig { workers: 8, ..base });
        let key = |r: &CampaignReport| -> Vec<(u64, &'static str, Option<u64>, u64, bool)> {
            r.records
                .iter()
                .map(|rec| {
                    (
                        rec.schedule.seed,
                        rec.verdict.kind_str(),
                        rec.detect_latency_ns,
                        rec.trace_hash,
                        rec.passed(),
                    )
                })
                .collect()
        };
        assert_eq!(key(&seq), key(&par));
        assert_eq!(seq.total_violations(), 0, "failures: {:?}", {
            let v: Vec<_> = seq.failures().map(|f| &f.violations).collect();
            v
        });
        assert!(
            seq.records
                .iter()
                .any(|r| r.verdict != Verdict::Contained || r.detect_latency_ns.is_some()),
            "the mix must exercise the three-way oracle"
        );
    }

    #[test]
    fn kv_campaign_passes_the_stack_and_reports_serving_stats() {
        // KV serving mode end to end: every schedule hosts the replicated
        // KV workload, faults strike mid-traffic, and both the generic
        // invariant stack and the KV serving invariants must hold.
        let cfg = CampaignConfig {
            master_seed: 41,
            runs: 6,
            workers: 3,
            generator: GeneratorConfig {
                min_nodes: 8,
                max_nodes: 8,
                max_events: 2,
                kv_chance: 1.0,
                gray_chance: 0.4,
                ..GeneratorConfig::default()
            },
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg);
        assert_eq!(report.records.len(), 6);
        assert_eq!(report.total_violations(), 0, "failures: {:?}", {
            let v: Vec<_> = report.failures().map(|f| &f.violations).collect();
            v
        });
        for rec in &report.records {
            let kv = rec.kv.as_ref().expect("kv schedules must carry kv stats");
            assert!(
                kv.arrivals > 0,
                "no requests served for {}",
                rec.schedule.seed
            );
            assert!(
                kv.ok > kv.arrivals / 2,
                "seed {}: only {}/{} requests succeeded",
                rec.schedule.seed,
                kv.ok,
                kv.arrivals
            );
        }
    }

    #[test]
    fn kv_campaign_is_identical_across_1_and_8_workers() {
        let base = CampaignConfig {
            master_seed: 43,
            runs: 6,
            workers: 1,
            generator: GeneratorConfig {
                min_nodes: 8,
                max_nodes: 8,
                max_events: 2,
                kv_chance: 1.0,
                gray_chance: 0.4,
                ..GeneratorConfig::default()
            },
            ..CampaignConfig::default()
        };
        let seq = run_campaign(&base);
        let par = run_campaign(&CampaignConfig { workers: 8, ..base });
        let key = |r: &CampaignReport| -> Vec<(u64, &'static str, u64, String)> {
            r.records
                .iter()
                .map(|rec| {
                    let kv = rec.kv.as_ref().expect("kv stats");
                    (
                        rec.schedule.seed,
                        rec.verdict.kind_str(),
                        rec.trace_hash,
                        format!("{}/{}/{}/{}", kv.arrivals, kv.ok, kv.errors, kv.unserved),
                    )
                })
                .collect()
        };
        assert_eq!(
            key(&seq),
            key(&par),
            "kv campaign must be bit-identical across worker counts"
        );
    }

    #[test]
    fn per_run_seeds_are_stable_and_distinct() {
        let seeds: Vec<u64> = (0..100).map(|i| per_run_seed(42, i)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len(), "per-run seeds must not collide");
        assert_eq!(per_run_seed(42, 7), seeds[7]);
    }
}
