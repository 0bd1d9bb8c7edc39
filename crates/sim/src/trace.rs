//! A bounded, timestamped trace of notable simulation events.
//!
//! Fault-injection experiments are deterministic, so a failure can always
//! be replayed — but understanding *what* went wrong is much faster with a
//! trace of the interesting events (faults applied, triggers fired, phase
//! transitions) than by single-stepping a replay. [`TraceBuffer`] is a
//! fixed-capacity ring buffer: cheap enough to leave enabled, and the tail
//! holds the events leading up to the failure.

use crate::time::SimTime;
use std::collections::VecDeque;

/// A bounded ring buffer of `(time, event)` records.
///
/// # Examples
///
/// ```
/// use flash_sim::{TraceBuffer, SimTime};
///
/// let mut trace = TraceBuffer::new(2);
/// trace.record(SimTime::from_nanos(1), "a");
/// trace.record(SimTime::from_nanos(2), "b");
/// trace.record(SimTime::from_nanos(3), "c"); // evicts "a"
/// let tail: Vec<&str> = trace.iter().map(|(_, e)| *e).collect();
/// assert_eq!(tail, vec!["b", "c"]);
/// ```
#[derive(Clone, Debug)]
pub struct TraceBuffer<E> {
    entries: VecDeque<(SimTime, E)>,
    capacity: usize,
    dropped: u64,
}

impl<E> TraceBuffer<E> {
    /// Creates a trace holding at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            entries: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Records an event (dropping the oldest record when full).
    pub fn record(&mut self, at: SimTime, event: E) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back((at, event));
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &(SimTime, E)> {
        self.entries.iter()
    }

    /// Clears all retained records.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl<E: std::fmt::Debug> TraceBuffer<E> {
    /// Renders the retained records, one per line, for failure reports.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        if self.dropped > 0 {
            let _ = writeln!(out, "... {} earlier records dropped ...", self.dropped);
        }
        for (t, e) in &self.entries {
            let _ = writeln!(out, "[{t}] {e:?}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_tail() {
        let mut t = TraceBuffer::new(3);
        for i in 0..10u32 {
            t.record(SimTime::from_nanos(i as u64), i);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 7);
        let tail: Vec<u32> = t.iter().map(|(_, e)| *e).collect();
        assert_eq!(tail, vec![7, 8, 9]);
    }

    #[test]
    fn render_includes_drops_and_times() {
        let mut t = TraceBuffer::new(1);
        t.record(SimTime::from_nanos(5), "x");
        t.record(SimTime::from_nanos(1500), "y");
        let s = t.render();
        assert!(s.contains("1 earlier records dropped"));
        assert!(s.contains("1.500us"));
        assert!(s.contains("\"y\""));
    }

    #[test]
    fn clear_keeps_capacity_and_counters() {
        let mut t = TraceBuffer::new(2);
        t.record(SimTime::ZERO, 1);
        t.clear();
        assert!(t.is_empty());
        t.record(SimTime::ZERO, 2);
        assert_eq!(t.len(), 1);
    }
}
