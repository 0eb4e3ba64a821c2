//! The bench-side span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer; nothing is added inside the program. A span carries its
//! name (`<layer>.<what>`), start, end, the span that caused it and the
//! workload it belongs to. Spans stay in memory and are written out when
//! the run ends, as a flat Chrome-trace array of `ph:"X"` records.

use crate::json::{obj, Value};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    pub end: f64,
    pub parent: Option<SpanId>,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span store. A disabled tracer (the untraced run) records
/// nothing and hands out a dummy id, so call sites need no branches.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    workload: String,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool, workload: &str) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            workload: workload.to_string(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Record a finished span with explicit times (seconds since epoch).
    pub fn record(&self, name: &str, start: f64, end: f64, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name: name.to_string(),
            start,
            end,
            parent,
        });
        spans.len() - 1
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&self, name: &str, parent: Option<SpanId>) -> SpanId {
        let t = self.now();
        self.record(name, t, t, parent)
    }

    pub fn end(&self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let t = self.now();
        self.spans.lock().expect("span store poisoned")[id].end = t;
    }

    /// Time `f` under a span and return its result with the wall seconds.
    /// The timing is taken whether or not spans are being kept.
    pub fn timed<T>(&self, name: &str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name, parent);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.end(id);
        (out, secs)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// The flat Chrome-trace array (`chrome://tracing`, Perfetto): one
    /// complete event per span, microsecond timestamps, the causing span
    /// and the workload in `args`.
    pub fn chrome_trace(&self) -> String {
        let events: Vec<Value> = self
            .spans()
            .iter()
            .enumerate()
            .map(|(id, s)| {
                obj([
                    ("name", Value::Str(s.name.clone())),
                    ("cat", Value::Str(layer_of(&s.name).to_string())),
                    ("ph", Value::Str("X".into())),
                    ("ts", Value::Num(s.start * 1e6)),
                    ("dur", Value::Num(s.dur() * 1e6)),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(1.0)),
                    (
                        "args",
                        obj([
                            ("id", Value::Num(id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                            ),
                            ("workload", Value::Str(self.workload.clone())),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::Arr(events).to_pretty()
    }
}

/// A span's layer is the part of its name before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover. Children may overlap each other (concurrent
/// service jobs under one phase span), so the covered part is the length
/// of the union of the children's intervals, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start.max(spans[p].start);
            let hi = s.end.min(spans[p].end);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.partial_cmp(b).expect("NaN span time"));
            let mut covered = 0.0;
            let mut edge = f64::NEG_INFINITY;
            for &(lo, hi) in kids.iter() {
                if hi > edge {
                    covered += hi - lo.max(edge);
                    edge = hi;
                }
            }
            (s.dur() - covered).max(0.0)
        })
        .collect()
}

/// Self time summed per layer.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(layer_of(&s.name).to_string()).or_insert(0.0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("core.scf", 0.0, 10.0, None),
            span("core.build", 1.0, 4.0, Some(0)),
            span("core.build", 5.0, 9.0, Some(0)),
            span("eri.stream", 1.5, 2.5, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![3.0, 2.0, 4.0, 1.0]);
        let layers = layer_self_times(&spans);
        assert_eq!(layers["core"], 9.0);
        assert_eq!(layers["eri"], 1.0);
        // Self times partition the root span.
        assert_eq!(layers.values().sum::<f64>(), spans[0].dur());
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("service.phase", 0.0, 10.0, None),
            span("service.job", 1.0, 6.0, Some(0)),
            span("service.job", 4.0, 8.0, Some(0)),
            // Starts before and ends after the parent: clipped to it.
            span("service.job", -1.0, 0.5, Some(0)),
            span("service.job", 9.5, 12.0, Some(0)),
        ];
        let st = self_times(&spans);
        // Union of children inside the parent: [0,0.5] ∪ [1,8] ∪ [9.5,10] = 8.
        assert!((st[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_keeps_nothing_but_still_times() {
        let t = Tracer::new(false, "w");
        let (v, secs) = t.timed("eri.x", None, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_a_flat_array_of_complete_events() {
        let t = Tracer::new(true, "chain_full");
        let root = t.begin("core.scf", None);
        let kid = t.begin("core.build", Some(root));
        t.end(kid);
        t.end(root);
        let parsed = crate::json::parse(&t.chrome_trace()).unwrap();
        let events = parsed.as_arr().unwrap();
        assert_eq!(events.len(), 2);
        for e in events {
            assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
            assert!(e.get("dur").unwrap().as_f64().unwrap() >= 0.0);
        }
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(args.get("workload").unwrap().as_str(), Some("chain_full"));
        assert_eq!(layer_of("core.build"), "core");
    }
}
