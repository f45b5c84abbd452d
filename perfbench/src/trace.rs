//! In-memory spans around calls into the program's layers.
//!
//! A span records its layer name, an optional item (a workload or
//! experiment id), its parent and its start and end. Spans stay in
//! memory and are reduced when the run ends. A layer's self time is its
//! duration minus the part of that interval its child spans cover.
//!
//! A disabled tracer records nothing and reads no clock, so the same
//! code path runs traced and untraced and the difference between the two
//! is the cost of tracing.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `accelsim.sweep`.
    pub layer: &'static str,
    /// What the span worked on, e.g. a workload abbreviation; may be empty.
    pub item: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
}

/// A span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`, and nothing otherwise.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        layer: &'static str,
        item: &'static str,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            item,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            let now = self.now_ns();
            if let Some(s) = self.spans.get_mut(i) {
                s.end_ns = now;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        item: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.begin(layer, item, parent);
        let out = f();
        self.end(s);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in ns, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Sums self time per metric key within each root span's tree, giving
/// one map per root (one per measured operation). The key of a span is
/// `key(span)`; spans it maps to `None` are left out.
pub fn self_time_per_root(
    spans: &[Span],
    key: impl Fn(&Span) -> Option<String>,
) -> Vec<BTreeMap<String, u64>> {
    let selfs = self_times(spans);
    // `tree[i]` is the index into `out` of span i's root.
    let mut tree = vec![0usize; spans.len()];
    let mut out: Vec<BTreeMap<String, u64>> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        // A parent is always recorded before its children.
        tree[i] = match s.parent {
            Some(p) if p < i => tree[p],
            _ => {
                out.push(BTreeMap::new());
                out.len() - 1
            }
        };
        if let Some(k) = key(s) {
            *out[tree[i]].entry(k).or_insert(0) += selfs[i];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            item: "",
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 25, 50), // overlaps a: union covers 10..50
            span("c", Some(2), 30, 35),
            span("d", Some(0), 90, 120), // runs past its parent: clipped at 100
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 20, 5, 30]);
    }

    #[test]
    fn per_root_sums_group_by_key() {
        let spans = vec![
            span("op", None, 0, 10),
            span("x", Some(0), 0, 4),
            span("x", Some(0), 4, 6),
            span("op", None, 20, 30),
            span("x", Some(3), 20, 21),
        ];
        let per = self_time_per_root(&spans, |s| Some(s.layer.to_string()));
        assert_eq!(per.len(), 2);
        assert_eq!(per[0]["x"], 6);
        assert_eq!(per[0]["op"], 4);
        assert_eq!(per[1]["x"], 1);
        assert_eq!(per[1]["op"], 9);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("op", "", None, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true);
        let root = t.begin("op", "", None);
        t.span("child", "x", root, || ());
        t.end(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
