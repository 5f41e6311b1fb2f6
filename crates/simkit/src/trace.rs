//! Structured event traces.
//!
//! A [`Trace`] is an append-only log of timestamped records. The Lobster
//! monitoring layer stores wrapper segment reports this way; experiment
//! binaries dump traces as JSON lines for offline inspection.

use crate::time::SimTime;
use serde::Serialize;
use std::io::{self, Write};

/// An append-only log of `(time, record)` pairs.
#[derive(Clone, Debug, Default)]
pub struct Trace<T> {
    entries: Vec<(SimTime, T)>,
}

impl<T> Trace<T> {
    /// Empty trace.
    pub fn new() -> Self {
        Trace {
            entries: Vec::new(),
        }
    }

    /// Append a record at `at`.
    pub fn push(&mut self, at: SimTime, record: T) {
        self.entries.push((at, record));
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no records were logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate records in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &(SimTime, T)> {
        self.entries.iter()
    }

    /// Records within the half-open window `[from, to)`.
    pub fn window(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = &(SimTime, T)> {
        self.entries
            .iter()
            .filter(move |(t, _)| *t >= from && *t < to)
    }

    /// Consume, returning the raw entries.
    pub fn into_entries(self) -> Vec<(SimTime, T)> {
        self.entries
    }
}

impl<T: Serialize> Trace<T> {
    /// Write the trace as JSON lines `{"t_us": ..., "record": ...}`.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        #[derive(Serialize)]
        struct Line<'a, T> {
            t_us: u64,
            record: &'a T,
        }
        for (t, r) in &self.entries {
            let line = Line {
                t_us: t.as_micros(),
                record: r,
            };
            serde_json::to_writer(&mut w, &line)?;
            writeln!(w)?;
        }
        Ok(())
    }
}

/// 64-bit FNV-1a hash of `bytes`: the digest of a serialised trace,
/// committed in conformance baselines, so it must never change.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn push_and_iterate() {
        let mut tr = Trace::new();
        tr.push(SimTime::from_secs(1), "a");
        tr.push(SimTime::from_secs(2), "b");
        assert_eq!(tr.len(), 2);
        assert!(!tr.is_empty());
        let v: Vec<&str> = tr.iter().map(|&(_, r)| r).collect();
        assert_eq!(v, vec!["a", "b"]);
    }

    #[test]
    fn window_filters() {
        let mut tr = Trace::new();
        for s in 0..10u64 {
            tr.push(SimTime::from_secs(s), s);
        }
        let w: Vec<u64> = tr
            .window(SimTime::from_secs(3), SimTime::from_secs(6))
            .map(|&(_, r)| r)
            .collect();
        assert_eq!(w, vec![3, 4, 5]);
    }

    #[test]
    fn jsonl_output() {
        let mut tr = Trace::new();
        tr.push(SimTime::ZERO + SimDuration::from_micros(5), 42u32);
        let mut buf = Vec::new();
        tr.write_jsonl(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert_eq!(s, "{\"t_us\":5,\"record\":42}\n");
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn into_entries_preserves_order() {
        let mut tr = Trace::new();
        tr.push(SimTime::from_secs(2), 'x');
        tr.push(SimTime::from_secs(1), 'y'); // out-of-order timestamps are allowed
        let e = tr.into_entries();
        assert_eq!(e[0].1, 'x');
        assert_eq!(e[1].1, 'y');
    }
}
