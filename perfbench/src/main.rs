//! The simulator's benchmark: one command, three workloads, end-to-end
//! metrics untraced and per-layer metrics traced.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Workloads (see `README.md` for why each was chosen and which layer
//! metric should move which end-to-end metric):
//!
//! * `validation_sweep` — the Table 5.3 checkpoint/fork sweep, 160 runs;
//! * `recovery_128` — one Fig 5.5 recovery cycle on 128 nodes;
//! * `chaos_campaign` — 120 mixed machine / Hive / KV chaos runs.
//!
//! The workload's inputs derive from `--seed` alone. A run repeats the
//! workload's fixed work while another repetition fits in `--seconds`,
//! prints every metric by name with its unit, checks the outputs, and
//! ends with one JSON line: `correct`, `attempted`, `failed`, `metrics`.
//! With `--trace 1` it also writes its spans to `out/` beside this
//! package's manifest.

mod adapter;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use workloads::{Args, Outcome};

/// A named workload with its default seed and a seed held out for checking
/// later claims.
pub(crate) struct Workload {
    pub name: &'static str,
    pub default_seed: u64,
    pub held_out_seed: u64,
    run: fn(&Args) -> Outcome,
}

pub(crate) const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "validation_sweep",
        default_seed: 0,
        held_out_seed: 1009,
        run: workloads::validation_sweep,
    },
    Workload {
        name: "recovery_128",
        default_seed: 7,
        held_out_seed: 1013,
        run: workloads::recovery_128,
    },
    Workload {
        name: "chaos_campaign",
        default_seed: 1,
        held_out_seed: 1019,
        run: workloads::chaos_campaign,
    },
];

const USAGE: &str = "usage: perfbench --workload <validation_sweep|recovery_128|chaos_campaign> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<(&'static Workload, Args), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let w = workload.ok_or("--workload is required")?;
    let seed = seed.unwrap_or(w.default_seed);
    Ok((
        w,
        Args {
            seed,
            seconds,
            trace,
        },
    ))
}

/// The host facts printed with every result.
fn host_facts() -> String {
    let nproc = std::process::Command::new("nproc")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    let par = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: nproc={nproc} available_parallelism={par} rustc=\"{}\" profile={} opt-level={} debug={}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_OPT_LEVEL"),
        env!("PERFBENCH_DEBUG"),
    )
}

fn write_spans(w: &Workload, a: &Args, out: &Outcome) {
    let Some(spans) = &out.spans else { return };
    let mut names: Vec<&str> = spans.all().iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    println!(
        "{:<32} {:>8} {:>12} {:>12}",
        "span", "count", "total_s", "self_s"
    );
    for name in names {
        let count = spans.all().iter().filter(|s| s.name == name).count();
        println!(
            "{name:<32} {count:>8} {:>12.6} {:>12.6}",
            spans.total_s(name),
            spans.self_total_s(name)
        );
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.json", w.name, a.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_json())) {
        Ok(()) => println!("spans: {} written to {}", spans.all().len(), path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (w, a) = match parse_args(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench {} seed={} (default {}, held out {}) seconds={} trace={}",
        w.name,
        a.seed,
        w.default_seed,
        w.held_out_seed,
        a.seconds,
        u8::from(a.trace)
    );
    println!("{}", host_facts());
    let mut out = (w.run)(&a);
    if a.seed == w.default_seed {
        out.check("fail_frac is 0 at the default seed", out.failed_runs == 0);
    }
    for line in &out.lines {
        println!("{line}");
    }
    for (what, ok) in &out.checks {
        println!("check {}: {what}", if *ok { "ok" } else { "FAILED" });
    }
    write_spans(w, &a, &out);
    println!(
        "{}",
        report::result_line(out.correct(), out.attempted, out.failed(), &out.metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_default_the_seed() {
        let (w, a) = parse_args(&args("--workload recovery_128 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (w.name, a.seed, a.seconds, a.trace),
            ("recovery_128", 7, 3.0, true)
        );
        let (_, a) = parse_args(&args("--workload chaos_campaign --seed 42")).unwrap();
        assert_eq!((a.seed, a.trace), (42, false));
        for bad in [
            "",
            "--workload nope",
            "--workload recovery_128 --trace 2",
            "--workload recovery_128 --seconds 0",
            "--workload recovery_128 --seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
