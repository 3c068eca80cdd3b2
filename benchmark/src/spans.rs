//! The benchmark's own in-memory spans. This change records them only
//! from the benchmark's files, around calls into each crate's public
//! functions; spans inside the program are a later change.
//!
//! A span is `{id, parent, op_index, name, start_ns, end_ns}`. Spans of
//! one operation share `op_index`. A layer's self time is its duration
//! minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op_index: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Kept in memory for the whole run and written out when it ends.
#[derive(Default)]
pub struct Recorder {
    spans: Vec<Span>,
}

impl Recorder {
    pub fn record(
        &mut self,
        parent: Option<u32>,
        op_index: usize,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            op_index: op_index as u32,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Re-parent `child` (probes run before the call they replicate, so
    /// the root's id is known only afterwards).
    pub fn adopt(&mut self, child: u32, parent: u32) {
        self.spans[child as usize].parent = Some(parent);
    }

    /// Name a span after the fact (a check is an accept or a reject only
    /// once it has returned).
    pub fn rename(&mut self, id: u32, name: &'static str) {
        self.spans[id as usize].name = name;
    }

    /// One JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"op_index\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.op_index, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of every span, by id: its duration minus the length of the
/// union of its children's intervals, never below zero.
///
/// Probe spans replicate work the root call does internally and run just
/// before it, so a child need not lie inside its parent's interval; its
/// cover is the length it occupies, capped by the parent's duration. For
/// a properly nested tree this is the usual definition.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let cover = children.get_mut(&s.id).map_or(0, |intervals| {
                intervals.sort_unstable();
                let (mut cover, mut reach) = (0u64, 0u64);
                for &(start, end) in intervals.iter() {
                    let start = start.max(reach);
                    if end > start {
                        cover += end - start;
                        reach = end;
                    }
                }
                cover
            });
            s.duration_ns().saturating_sub(cover)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::default();
        let root = r.record(None, 0, "commit", 0, 1_000);
        let check = r.record(Some(root), 0, "integrity.check", 100, 500);
        // Two grandchildren, overlapping by 50 ns: their union is 250.
        r.record(Some(check), 0, "integrity.compile", 100, 250);
        r.record(Some(check), 0, "integrity.evaluate", 200, 350);
        r.record(Some(root), 0, "datalog.queue_commit", 600, 900);
        let own = self_times(r.spans());
        assert_eq!(own, [1_000 - 400 - 300, 400 - 250, 150, 150, 300]);
    }

    #[test]
    fn a_probe_that_ran_before_its_root_still_counts_and_never_goes_negative() {
        let mut r = Recorder::default();
        let probe = r.record(None, 7, "integrity.check", 0, 300);
        let big = r.record(None, 7, "datalog.queue_commit", 300, 1_200);
        let root = r.record(None, 7, "commit", 1_200, 2_000);
        r.adopt(probe, root);
        r.adopt(big, root);
        assert_eq!(r.spans()[0].parent, Some(root));
        let own = self_times(r.spans());
        assert_eq!(own[root as usize], 0, "800 − (300 + 900) clamps to zero");
        assert_eq!(own[probe as usize], 300);
    }

    #[test]
    fn spans_are_written_one_object_per_line() {
        let mut r = Recorder::default();
        let a = r.record(None, 3, "commit", 5, 9);
        r.record(Some(a), 3, "integrity.check", 6, 7);
        let mut out = Vec::new();
        r.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v = crate::json::parse(lines[1]).unwrap();
        assert_eq!(v.get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(
            v.get("name").and_then(|n| n.as_str()),
            Some("integrity.check")
        );
        assert_eq!(
            crate::json::parse(lines[0]).unwrap().get("parent"),
            Some(&crate::json::Value::Null)
        );
    }
}
