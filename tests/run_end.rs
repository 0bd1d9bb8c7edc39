//! How a campaign run ends: one `RunEnd` decided in `flash_core::lifecycle`
//! for every harness. These pin two generated runs whose ending the rule
//! decides: a Hive run whose recovery wedged, and a machine-mode run whose
//! machine halted.

use flash::campaign::{generate, per_run_seed, run_schedule, GeneratorConfig, Mode, Verdict};
use flash::core::RunEnd;

/// A wedged Hive run: run 59 of master seed 8 in the 120-run mix with a
/// fifth Hive and a quarter KV schedules and no gray faults (16 nodes;
/// `Link(r8, r12)` and `Router(r13)` steady, `Node(n3)` on P4 entry). Its
/// drive drains while the triggered recovery never completed and the
/// machine did not halt. Before the run end was decided in one place, the
/// Hive mode counted any drained run as finished.
#[test]
fn drained_hive_run_with_incomplete_recovery_is_wedged() {
    let generator = GeneratorConfig {
        hive_chance: 0.2,
        kv_chance: 0.25,
        ..GeneratorConfig::default()
    };
    let s = generate(per_run_seed(8, 59), &generator);
    assert_eq!((s.mode, s.n_nodes), (Mode::Hive, 16));
    let r = run_schedule(&s);
    assert_eq!(r.end, RunEnd::Wedged);
    assert!(!r.finished && !r.end.finished());
    assert_eq!(r.verdict, Verdict::Contained);
    assert!(r.passed(), "violations: {:?}", r.violations);
}

/// A halted machine-mode run: run 14 of the chaos mix at master seed 1
/// (`campaign --runs 200 --seed 1`). A single `Link(r1, r2)` fault cuts
/// the 13-node machine, laid out as a 1×13 line, in two, and the
/// whole-machine shutdown heuristic halts it. A halted run still counts
/// as finished, as it did before `RunEnd`; whether it should is open.
#[test]
fn halted_machine_run_still_counts_as_finished() {
    let generator = GeneratorConfig {
        hive_chance: 0.15,
        ..GeneratorConfig::default()
    };
    let s = generate(per_run_seed(1, 14), &generator);
    assert_eq!((s.mode, s.n_nodes, s.events.len()), (Mode::Machine, 13, 1));
    let r = run_schedule(&s);
    assert_eq!(r.end, RunEnd::Halted);
    assert!(r.finished && r.end.finished());
    assert!(r.passed(), "violations: {:?}", r.violations);
}
