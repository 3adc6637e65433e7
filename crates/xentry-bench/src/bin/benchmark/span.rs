//! In-memory span recorder for the traced pass.
//!
//! One recorder, owned by the benchmark's driving thread; every wrapper in
//! `layers.rs` opens a span around its call. Spans nest by call order, so
//! the parent of a span is whatever span was open when it started. Disabled
//! (the untraced `run` pass) a span costs one branch and reads no clock.

use crate::stats::{timing, Timing};
use std::collections::BTreeMap;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `NO_PARENT` for a root.
    pub parent: u32,
    /// Request id: injection-point ordinal, record chunk, or repeat.
    pub id: u64,
    /// Work done inside the span, in the callee's natural unit
    /// (instructions retired, records classified); 0 when not counted.
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    id: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            id: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Request id stamped on every span opened from now on.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span. `f` receives the recorder so nested calls can
    /// open children; its second return value is the span's work count.
    pub fn counted<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> (T, u64),
    ) -> T {
        if !self.enabled {
            return f(self).0;
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            id: self.id,
            count: 0,
        });
        self.open.push(idx);
        let (out, count) = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let s = &mut self.spans[idx as usize];
        s.end_ns = end_ns;
        s.count = count;
        out
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.counted(name, |r| (f(r), 0))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median + supportable tail of the spans called `name`, in ns.
    pub fn timing(&self, name: &str) -> Timing {
        let durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect();
        timing(&durations)
    }

    /// `(total ns, total work count)` over the spans called `name`.
    pub fn totals(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(d, c), s| (d + s.dur_ns(), c + s.count))
    }

    /// Self time per span name: a span's duration minus the part of it its
    /// children cover. Children of one parent never overlap (one thread,
    /// one call stack), so the rows sum to the root spans' durations.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut rows: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let row = rows.entry(s.name).or_insert(SelfTime {
                name: s.name,
                calls: 0,
                self_ns: 0,
            });
            row.calls += 1;
            row.self_ns += s.dur_ns().saturating_sub(c);
        }
        let mut rows: Vec<SelfTime> = rows.into_values().collect();
        rows.sort_by_key(|row| std::cmp::Reverse(row.self_ns));
        rows
    }

    /// Total duration of the spans that have no parent.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(Span::dur_ns)
            .sum()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{},\"parent\":{},\"id\":{},\"count\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                i,
                parent,
                s.id,
                s.count
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    pub name: &'static str,
    pub calls: u64,
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
            count: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_and_sums_to_root() {
        // root [0,100) { a [10,40) { b [15,25) }, a [50,90) }
        let mut r = Recorder::new(true);
        r.spans = vec![
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("b", 15, 25, 1),
            span("a", 50, 90, 0),
        ];
        let rows = r.self_times();
        let get = |n: &str| rows.iter().find(|x| x.name == n).unwrap().clone();
        assert_eq!(get("root").self_ns, 100 - 30 - 40);
        assert_eq!((get("a").calls, get("a").self_ns), (2, 20 + 40));
        assert_eq!(get("b").self_ns, 10);
        assert_eq!(rows.iter().map(|x| x.self_ns).sum::<u64>(), r.root_ns());
        assert_eq!(rows[0].name, "a", "sorted by self time, largest first");
    }

    #[test]
    fn recorder_nests_by_call_order_and_carries_ids_and_counts() {
        let mut r = Recorder::new(true);
        r.set_id(7);
        let v = r.span("outer", |r| {
            r.set_id(8);
            r.counted("inner", |_| (41, 5)) + 1
        });
        assert_eq!(v, 42);
        let s = r.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].id), ("outer", NO_PARENT, 7));
        assert_eq!(
            (s[1].name, s[1].parent, s[1].id, s[1].count),
            ("inner", 0, 8, 5)
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(r.totals("inner").1, 5);
        assert!(r.chrome_trace().contains("\"name\":\"inner\""));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        assert_eq!(r.span("x", |r| r.counted("y", |_| (3, 9))), 3);
        assert!(r.spans().is_empty());
    }
}
