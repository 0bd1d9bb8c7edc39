//! The metric catalogue and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! self-test holds the two in step.

use std::fmt::Write as _;

/// End-to-end metrics (host time unless the unit says `sim_`), printed by
/// every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("runs_per_s", "1/s"),
    ("run_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A metric a workload does
/// not reach reads 0 there (see the layer map in the README).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.queue_near_ns", "ns"),
    ("sim.queue_far_ns", "ns"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("net.hop_ns", "ns"),
    ("net.packets_sent", "count"),
    ("net.links_crossed", "count"),
    ("net.inject_full_ratio", "ratio"),
    ("magic.services", "count"),
    ("magic.busy_ms_sim", "sim_ms"),
    ("coherence.naks_sent", "count"),
    ("machine.bus_errors", "count"),
    ("machine.fill_ns_per_event", "ns"),
    ("machine.checkpoint_ms", "ms"),
    ("machine.fork_ms", "ms"),
    ("machine.validate_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("core.finish_ms", "ms"),
    ("core.host_s.detect", "s"),
    ("core.host_s.p1", "s"),
    ("core.host_s.p2", "s"),
    ("core.host_s.p3", "s"),
    ("core.host_s.p4", "s"),
    ("core.host_s.drain", "s"),
    ("core.sim_ms.p1", "sim_ms"),
    ("core.sim_ms.p2", "sim_ms"),
    ("core.sim_ms.p3", "sim_ms"),
    ("core.sim_ms.p4", "sim_ms"),
    ("core.restarts", "count"),
    ("sim_recovery_ms", "sim_ms"),
    ("sweep.prelude_share", "ratio"),
    ("sweep.fork_share", "ratio"),
    ("sweep.tail_idle_s", "s"),
    ("campaign.generate_us", "us"),
    ("campaign.run_ms.machine.p50", "ms"),
    ("campaign.run_ms.machine.tail", "ms"),
    ("campaign.run_ms.hive.p50", "ms"),
    ("campaign.run_ms.hive.tail", "ms"),
    ("campaign.run_ms.kv.p50", "ms"),
    ("campaign.run_ms.kv.tail", "ms"),
    ("campaign.restarts_per_run", "1/run"),
    ("campaign.violations", "count"),
    ("kv_goodput_rps", "1/sim_s"),
    ("kv_p99_ms", "sim_ms"),
    ("obs.trace_dropped", "count"),
    ("obs.tracing_overhead", "ratio"),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// Metric values for one catalogue, in catalogue order; unset metrics read
/// 0.
#[derive(Clone, Debug)]
pub struct Metrics {
    catalogue: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Metrics {
    pub fn new(catalogue: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            catalogue,
            values: vec![0.0; catalogue.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .catalogue
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in this catalogue"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values[i] = value;
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.catalogue
            .iter()
            .zip(&self.values)
            .map(|(&(n, u), &v)| (n, u, v))
    }
}

/// The last line of every run: one JSON object with the verdict and every
/// metric of the catalogue, values with all their digits.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal JSON value and parser, enough to read the result line and
    /// `BENCHMARK.json` back.
    #[derive(Debug, PartialEq)]
    enum Json {
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            let Json::Obj(kv) = self else {
                panic!("not an object: {self:?}")
            };
            &kv.iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no key {key}"))
                .1
        }
        fn keys(&self) -> Vec<&str> {
            let Json::Obj(kv) = self else {
                panic!("not an object")
            };
            kv.iter().map(|(k, _)| k.as_str()).collect()
        }
        fn str(&self) -> &str {
            let Json::Str(s) = self else {
                panic!("not a string: {self:?}")
            };
            s
        }
    }

    fn parse(text: &str) -> Json {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.b.len(), "trailing input");
        v
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.b[self.i], c, "at byte {}", self.i);
            self.i += 1;
        }
        fn peek(&mut self) -> u8 {
            self.ws();
            self.b[self.i]
        }
        fn value(&mut self) -> Json {
            match self.peek() {
                b'{' => {
                    self.eat(b'{');
                    let mut kv = Vec::new();
                    while self.peek() != b'}' {
                        if !kv.is_empty() {
                            self.eat(b',');
                        }
                        let Json::Str(k) = self.value() else {
                            panic!("object key must be a string")
                        };
                        self.eat(b':');
                        kv.push((k, self.value()));
                    }
                    self.eat(b'}');
                    Json::Obj(kv)
                }
                b'[' => {
                    self.eat(b'[');
                    let mut items = Vec::new();
                    while self.peek() != b']' {
                        if !items.is_empty() {
                            self.eat(b',');
                        }
                        items.push(self.value());
                    }
                    self.eat(b']');
                    Json::Arr(items)
                }
                b'"' => {
                    self.i += 1;
                    let start = self.i;
                    while self.b[self.i] != b'"' {
                        assert_ne!(self.b[self.i], b'\\', "escapes are not used");
                        self.i += 1;
                    }
                    self.i += 1;
                    Json::Str(String::from_utf8(self.b[start..self.i - 1].to_vec()).unwrap())
                }
                b't' | b'f' => {
                    let t = self.b[self.i..].starts_with(b"true");
                    self.i += if t { 4 } else { 5 };
                    Json::Bool(t)
                }
                _ => {
                    let start = self.i;
                    while self.i < self.b.len() && b"+-.eE0123456789".contains(&self.b[self.i]) {
                        self.i += 1;
                    }
                    let s = std::str::from_utf8(&self.b[start..self.i]).unwrap();
                    Json::Num(s.parse().unwrap_or_else(|_| panic!("bad number {s}")))
                }
            }
        }
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
    }

    /// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
    fn declared(bench: &Json, list: &str) -> Vec<(String, String)> {
        let Json::Arr(items) = bench.get(list) else {
            panic!("{list} is not a list")
        };
        items
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_string(),
                    m.get("unit").str().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn result_line_round_trips_every_name_and_unit() {
        let bench = benchmark_json();
        for (list, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let mut m = Metrics::new(catalogue);
            for (i, &(name, _)) in catalogue.iter().enumerate() {
                m.set(name, 0.1 + i as f64 * 1234.5678901);
            }
            let line = result_line(true, 160, 0, &m);
            let v = parse(&line);
            assert_eq!(v.keys(), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(v.get("correct"), &Json::Bool(true));
            assert_eq!(v.get("attempted"), &Json::Num(160.0));
            assert_eq!(v.get("failed"), &Json::Num(0.0));
            let metrics = v.get("metrics");
            let printed: Vec<(String, String)> = metrics
                .keys()
                .iter()
                .map(|&n| (n.to_string(), metrics.get(n).get("unit").str().to_string()))
                .collect();
            assert_eq!(
                printed,
                declared(&bench, list),
                "{list} differs from BENCHMARK.json"
            );
            for (i, &(name, _)) in catalogue.iter().enumerate() {
                let want = 0.1 + i as f64 * 1234.5678901;
                assert_eq!(metrics.get(name).get("value"), &Json::Num(want), "{name}");
                assert_eq!(unit_of(name), metrics.get(name).get("unit").str());
            }
        }
    }

    #[test]
    fn benchmark_json_names_are_unique_and_workloads_known() {
        let bench = benchmark_json();
        let mut names: Vec<String> = declared(&bench, "end_to_end")
            .into_iter()
            .chain(declared(&bench, "per_layer"))
            .map(|(n, _)| n)
            .collect();
        let Json::Arr(workloads) = bench.get("workloads") else {
            panic!("workloads is not a list")
        };
        let wl: Vec<&str> = workloads.iter().map(|w| w.get("name").str()).collect();
        assert_eq!(
            wl,
            crate::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        names.extend(wl.iter().map(|s| s.to_string()));
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
    }

    #[test]
    fn unset_metrics_read_zero() {
        let m = Metrics::new(END_TO_END);
        assert!(m.iter().all(|(_, _, v)| v == 0.0));
        assert!(result_line(false, 1, 1, &m).starts_with("{\"correct\": false"));
    }
}
