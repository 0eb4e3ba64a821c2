//! Named counters and log₂-bucket histograms.
//!
//! The registry is the "always cheap" half of the telemetry story: a
//! [`Counter`] handed out by a disabled recorder is a `None` and costs one
//! branch per `add`; an enabled counter is a shared `AtomicU64` bumped with
//! a relaxed fetch-add. Histograms bucket by `ceil(log2(v + 1))`, which is
//! plenty for steal-latency and message-size distributions.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log₂ buckets: values up to 2^63 land in bucket 63.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A handle to a named monotonic counter. Cloning shares the underlying
/// cell. The disabled form (`Counter::disabled()`, or anything handed out
/// by a disabled [`crate::Recorder`]) makes `add` a single branch.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A counter that ignores all additions.
    pub fn disabled() -> Self {
        Counter(None)
    }

    pub(crate) fn live(cell: Arc<AtomicU64>) -> Self {
        Counter(Some(cell))
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value; 0 when disabled.
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A log₂-bucket histogram handle. Like [`Counter`], disabled is a `None`.
#[derive(Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCells>>);

pub(crate) struct HistogramCells {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCells {
    fn new() -> Self {
        HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a value: 0 holds v == 0, bucket b holds
/// 2^(b-1) <= v < 2^b; the top bucket also absorbs v >= 2^63.
pub fn bucket_of(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

impl Histogram {
    pub fn disabled() -> Self {
        Histogram(None)
    }

    pub(crate) fn live(cells: Arc<HistogramCells>) -> Self {
        Histogram(Some(cells))
    }

    /// Whether samples are actually being collected — lets hot paths skip
    /// the work of producing a sample (e.g. clock reads) when disabled.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(cells) = &self.0 {
            cells.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            cells.count.fetch_add(1, Ordering::Relaxed);
            cells.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Record a duration in nanoseconds (steal latencies).
    #[inline]
    pub fn record_secs(&self, secs: f64) {
        if self.0.is_some() {
            self.record((secs.max(0.0) * 1e9) as u64);
        }
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        match &self.0 {
            None => HistogramSnapshot::default(),
            Some(cells) => {
                let buckets: Vec<u64> = cells
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect();
                HistogramSnapshot {
                    count: cells.count.load(Ordering::Relaxed),
                    sum: cells.sum.load(Ordering::Relaxed),
                    buckets,
                }
            }
        }
    }
}

/// A consistent-enough point-in-time copy of one histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    /// `buckets[b]` counts values with `bucket_of(v) == b`.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The registry behind an enabled recorder: named counters and histograms,
/// created on first use and shared by name.
#[derive(Default)]
pub struct Metrics {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCells>>>,
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Get-or-create a named counter. Intended for setup paths, not hot
    /// loops — hold the returned handle.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("metrics registry poisoned");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter::live(Arc::clone(cell))
    }

    /// Get-or-create a named histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.histograms.lock().expect("metrics registry poisoned");
        let cells = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistogramCells::new()));
        Histogram::live(Arc::clone(cells))
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), Histogram::live(Arc::clone(v)).snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

/// Point-in-time copy of the whole registry, ready for export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_counter_is_inert() {
        let c = Counter::disabled();
        c.add(10);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn registry_shares_by_name() {
        let m = Metrics::new();
        let a = m.counter("quartets");
        let b = m.counter("quartets");
        a.add(5);
        b.add(7);
        assert_eq!(m.snapshot().counter("quartets"), 12);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1); // clamped to top bucket
    }

    #[test]
    fn histogram_counts_and_mean() {
        let m = Metrics::new();
        let h = m.histogram("steal_ns");
        h.record(1);
        h.record(3);
        h.record(8);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 12);
        assert!((s.mean() - 4.0).abs() < 1e-12);
        assert_eq!(s.buckets[1], 1); // v=1
        assert_eq!(s.buckets[2], 1); // v=3
        assert_eq!(s.buckets[4], 1); // v=8
    }

    #[test]
    fn concurrent_adds_sum() {
        let m = std::sync::Arc::new(Metrics::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = std::sync::Arc::clone(&m);
                s.spawn(move || {
                    let c = m.counter("n");
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(m.snapshot().counter("n"), 4000);
    }
}
