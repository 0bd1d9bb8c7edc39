//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a name, a start and end (host ns since a shared epoch), the
//! span that caused it and the run it belongs to. A disabled log records
//! nothing, so the untraced path runs the same code with tracing off.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span log. Worker threads each keep their own (sharing the epoch), and
/// the logs are merged with [`Spans::absorb`].
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant, on: bool) -> Self {
        Spans {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    /// A log sharing this one's epoch and switch, for another thread.
    pub fn sibling(&self) -> Self {
        Spans::new(self.epoch, self.on)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when tracing is off.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, run: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            run,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Spans::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        run: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, run);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another log's spans, re-indexing their parents.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Total duration in seconds of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum::<f64>() / 1e3
    }

    /// A span's self time: its duration minus the part of it that its
    /// children cover (overlapping children count once).
    pub fn self_ns(&self, id: usize) -> u64 {
        let me = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = me.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        me.dur_ns() - covered
    }

    /// Self time in seconds summed over every span named `name`.
    pub fn self_total_s(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns(i) as f64 / 1e9)
            .sum()
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"run\": {}, \"self_ns\": {}}}{sep}",
                sp.name,
                sp.start_ns,
                sp.end_ns,
                sp.run,
                self.self_ns(i)
            );
        }
        s.push_str("]\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Spans {
        let mut l = Spans::new(Instant::now(), true);
        l.spans = spans
            .iter()
            .map(|&(name, start_ns, end_ns, parent)| Span {
                name,
                start_ns,
                end_ns,
                parent,
                run: 0,
            })
            .collect();
        l
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let l = log(&[
            ("root", 0, 100, None),
            ("a", 10, 30, Some(0)),
            ("b", 20, 50, Some(0)),  // overlaps a: 10..50 covered once
            ("c", 90, 120, Some(0)), // clipped to the parent: 90..100
            ("grandchild", 12, 14, Some(1)),
        ]);
        assert_eq!(l.self_ns(0), 100 - 40 - 10);
        assert_eq!(l.self_ns(1), 20 - 2);
        assert_eq!(l.self_ns(2), 30);
        assert_eq!(l.self_ns(4), 2);
        assert!((l.self_total_s("root") - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut l = Spans::new(Instant::now(), false);
        let id = l.open("x", None, 0);
        assert_eq!(id, None);
        assert_eq!(l.time("y", id, 0, || 7), 7);
        l.close(id);
        assert!(l.all().is_empty());
    }

    #[test]
    fn absorb_reindexes_parents_and_keeps_nesting() {
        let epoch = Instant::now();
        let mut a = Spans::new(epoch, true);
        let r = a.open("root", None, 0);
        a.close(r);
        let mut b = a.sibling();
        let p = b.open("parent", None, 1);
        let c = b.open("child", p, 1);
        assert_eq!(b.time("leaf", c, 1, || 5), 5);
        b.close(c);
        b.close(p);
        a.absorb(b);
        let names: Vec<_> = a.all().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("root", None),
                ("parent", None),
                ("child", Some(1)),
                ("leaf", Some(2))
            ]
        );
        assert!(a.to_json().contains("\"name\": \"leaf\""));
    }
}
