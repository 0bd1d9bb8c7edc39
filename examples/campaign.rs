//! The chaos-campaign front end: generate seeded multi-fault schedules of
//! one named mix, run them across worker threads, check the invariant
//! stack, print the result sheet and triage failures down to minimal
//! reproducers (JSON post-mortems under `target/campaign/`).
//!
//! ```sh
//! cargo run --release --example campaign -- [--mix chaos|gray|kv] [--sabotage] \
//!     [--runs N] [--workers N] [--seed N]
//! ```
//!
//! Each mix defaults to the master seed of its EXPERIMENTS.md sheet:
//!
//! * `chaos` (default, seed 1): fail-stop faults, 15% of schedules on the
//!   Hive parallel make;
//! * `gray` (seed 5): 45% of fault events are gray (fail-slow, degraded
//!   memory, lossy links, pool failures);
//! * `kv` (seed 7): every run serves the replicated KV workload on 8
//!   nodes, half its fault events gray; adds the per-class SLO sheet.
//!
//! `--sabotage` runs the chaos mix with the MAGIC firewall disabled, the
//! deliberately seeded bug: the campaign must catch the wild write, and
//! triage must replay and shrink it.
//!
//! Exits nonzero on an invariant violation (except under `--sabotage`),
//! on per-run trace hashes that differ from a one-worker rerun (when
//! `--workers` > 1), on a recovery phase P1–P4 that no fault hit in a
//! campaign of at least 100 runs, for `kv` on no request served or missing
//! fault-class coverage, under `--sabotage` when nothing was caught, and
//! when a triaged failure does not reproduce. The run-end counts are
//! printed but do not gate yet.

use flash::bench::{run_fault_classes, ResultSheet, VerdictSheet, FAULT_CLASSES};
use flash::campaign::{
    campaign_dir, run_campaign, triage, CampaignConfig, CampaignReport, GeneratorConfig, RunRecord,
};
use flash::core::RunEnd;
use flash::obs::Quantiles;
use flash::sim::LatencyHistogram;

/// The generator settings and default master seed of a named mix.
fn mix(name: &str, sabotage: bool) -> Option<(GeneratorConfig, u64)> {
    let mut g = GeneratorConfig {
        firewall_enabled: !sabotage,
        ..GeneratorConfig::default()
    };
    let seed;
    match (name, sabotage) {
        ("chaos", _) => (g.hive_chance, seed) = (0.15, 1),
        ("gray", false) => (g.gray_chance, seed) = (0.45, 5),
        ("kv", false) => {
            (g.min_nodes, g.max_nodes, g.kv_chance, g.gray_chance, seed) = (8, 8, 1.0, 0.5, 7)
        }
        _ => return None,
    }
    Some((g, seed))
}

/// Per-fault-class service-level aggregate of the KV mix.
#[derive(Default)]
struct SloRow {
    runs: u64,
    arrivals: u64,
    ok: u64,
    errors: u64,
    unserved: u64,
    chunks_lost: u64,
    duration_ns: u64,
    lat_ok: LatencyHistogram,
}

impl SloRow {
    fn tally(&mut self, r: &RunRecord) {
        let Some(kv) = &r.kv else { return };
        self.runs += 1;
        self.arrivals += kv.arrivals;
        self.ok += kv.ok;
        self.errors += kv.errors;
        self.unserved += kv.unserved;
        self.chunks_lost += kv.chunks_lost;
        self.duration_ns += kv.duration_ns;
        self.lat_ok.merge(&kv.lat_ok);
    }

    /// Runs; goodput (successes per simulated second over the class's
    /// total simulated time); p50/p95/p99/p999 latency in ms; the fraction
    /// of budgeted requests that surfaced as errors; chunks lost.
    fn values(&self) -> [f64; 8] {
        let q = Quantiles::of(&self.lat_ok);
        let total = self.arrivals + self.unserved;
        [
            self.runs as f64,
            self.ok as f64 * 1e9 / self.duration_ns.max(1) as f64,
            q.p50_ns as f64 / 1e6,
            q.p95_ns as f64 / 1e6,
            q.p99_ns as f64 / 1e6,
            q.p999_ns as f64 / 1e6,
            (self.errors + self.unserved) as f64 / total.max(1) as f64,
            self.chunks_lost as f64,
        ]
    }
}

/// Prints the KV mix's per-class SLO table, writes it as the `kv_slo`
/// result sheet, and adds the serving and coverage gates' failures.
fn slo_sheet(report: &CampaignReport, gates: &mut Vec<String>) {
    let mut rows: Vec<SloRow> = FAULT_CLASSES.iter().map(|_| SloRow::default()).collect();
    let mut overall = SloRow::default();
    for r in &report.records {
        overall.tally(r);
        for (row, present) in rows.iter_mut().zip(run_fault_classes(r)) {
            if present {
                row.tally(r);
            }
        }
    }
    let columns = "runs goodput_rps p50_ms p95_ms p99_ms p999_ms err_frac chunks_lost";
    let mut sheet = ResultSheet::new(
        "kv_slo",
        "hive-kv serving SLOs through faults (beyond the paper)",
        &columns.split(' ').collect::<Vec<_>>(),
    );
    println!(
        "fault class       runs  goodput_rps    p50_ms    p95_ms    p99_ms   p999_ms  err_frac   lost"
    );
    for (name, row) in FAULT_CLASSES
        .iter()
        .chain(["all_runs"].iter())
        .zip(rows.iter().chain([&overall]))
    {
        let v = row.values();
        println!(
            "{name:<16} {:>5} {:>12.0} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.4} {:>6}",
            v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]
        );
        sheet.push(*name, &v);
    }
    sheet.write();
    if overall.ok == 0 {
        gates.push("the kv mix served no request".to_string());
    }
    // The sheet must exercise fail-stop plus at least two gray classes.
    let gray_covered = rows[1..].iter().filter(|r| r.runs > 0).count();
    if rows[0].runs == 0 || gray_covered < 2 {
        gates.push(format!(
            "insufficient fault-class coverage: fail_stop runs {}, gray classes hit {gray_covered}",
            rows[0].runs
        ));
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: campaign [--mix chaos|gray|kv] [--sabotage] [--runs N] [--workers N] [--seed N]"
    );
    eprintln!("(--sabotage is the chaos mix with the firewall off)");
    std::process::exit(2)
}

fn main() {
    let mut sabotage = false;
    let mut opts = std::collections::HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--sabotage" => sabotage = true,
            "--mix" | "--runs" | "--workers" | "--seed" => {
                opts.insert(flag, args.next().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
    }
    let num = |flag: &str| {
        opts.get(flag)
            .map(|v| v.parse::<u64>().unwrap_or_else(|_| usage()))
    };
    let mix_name = opts.get("--mix").map_or("chaos", String::as_str);
    let Some((generator, default_seed)) = mix(mix_name, sabotage) else {
        usage()
    };
    let runs = num("--runs").unwrap_or(200);
    let workers = num("--workers").map_or_else(
        || std::thread::available_parallelism().map_or(1, |n| n.get()),
        |w| w.max(1) as usize,
    );
    let master_seed = num("--seed").unwrap_or(default_seed);
    let cfg = CampaignConfig {
        master_seed,
        runs,
        workers,
        generator,
        ..CampaignConfig::default()
    };

    println!(
        "{mix_name} campaign: {runs} runs, {workers} workers, master seed {master_seed}, firewall {}",
        if sabotage {
            "DISABLED (sabotage)"
        } else {
            "enabled"
        }
    );
    let report = run_campaign(&cfg);
    let failures: Vec<_> = report.failures().collect();
    let mut gates = Vec::new();
    println!(
        "completed in {:.1}s host time ({:.1} runs/s): {} violations across {} failing runs",
        report.host_secs,
        runs as f64 / report.host_secs.max(1e-9),
        report.total_violations(),
        failures.len()
    );
    let ends = [
        RunEnd::Settled,
        RunEnd::Halted,
        RunEnd::Wedged,
        RunEnd::OutOfBudget,
    ]
    .map(|e| {
        let n = report.records.iter().filter(|r| r.end == e).count();
        format!("{} {n}", e.as_str())
    });
    println!("run ends: {}", ends.join(", "));
    if workers > 1 {
        // The same campaign on one worker must give bit-identical per-run
        // merged trace hashes.
        let seq = run_campaign(&CampaignConfig { workers: 1, ..cfg });
        let hashes = |r: &CampaignReport| {
            r.records
                .iter()
                .map(|rec| rec.trace_hash)
                .collect::<Vec<_>>()
        };
        let same = hashes(&report) == hashes(&seq);
        println!(
            "determinism: 1-vs-{workers}-worker trace hashes {}",
            if same { "identical" } else { "DIVERGED" }
        );
        if !same {
            gates.push("per-run trace hashes depend on the worker count".to_string());
        }
    }
    let hits = report.phase_hits;
    println!(
        "mid-recovery faults fired: P1={} P2={} P3={} P4={}; during OS recovery: {}",
        hits[0], hits[1], hits[2], hits[3], report.os_recovery_hits
    );
    if runs >= 100 && hits.contains(&0) {
        gates.push(format!("a recovery phase saw no fault: {hits:?}"));
    }

    let mut verdicts = VerdictSheet::new();
    report.records.iter().for_each(|r| verdicts.tally(r));
    println!();
    print!("{}", verdicts.verdict_table());
    if mix_name == "kv" {
        println!();
        slo_sheet(&report, &mut gates);
    }
    println!();
    print!("{}", verdicts.detection_summary());

    if sabotage {
        println!(
            "\nsabotage (firewall disabled): {} of {runs} runs violated an invariant",
            failures.len()
        );
        if failures.is_empty() {
            gates.push("the disabled firewall was not caught".to_string());
        }
    } else if !failures.is_empty() {
        gates.push(format!(
            "{} invariant violations",
            report.total_violations()
        ));
    }
    for failure in failures.iter().take(3) {
        let t = triage(failure, Some(&campaign_dir()));
        println!(
            "seed {}: reproduced={} shrunk {} -> {} events ({} probe runs), post-mortem: {:?}",
            failure.schedule.seed,
            t.reproduced,
            failure.schedule.events.len(),
            t.shrunk.events.len(),
            t.probe_runs,
            t.dump_path
        );
        for v in &t.shrunk_record.violations {
            println!("  {}: {}", v.invariant, v.details);
        }
        if !t.reproduced {
            gates.push(format!("seed {} did not reproduce", failure.schedule.seed));
        }
    }

    println!();
    for g in &gates {
        println!("FAIL: {g}");
    }
    if !gates.is_empty() {
        std::process::exit(1);
    }
    println!("all gates held.");
}
