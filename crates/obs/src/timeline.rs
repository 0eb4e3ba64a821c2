//! Per-process timeline assembly and derived aggregates.
//!
//! A [`Recording`] is the assembled, time-sorted event stream of every
//! worker in one process, plus a metrics snapshot. [`WorkerTotals`] is the
//! derived per-worker aggregate view — the quantities the paper's tables
//! report (task counts, quartets, steal counts, comm volume, busy time) —
//! computed from the event stream, never maintained separately.

use crate::event::{Event, EventKind};
use crate::metrics::MetricsSnapshot;

/// The assembled telemetry of one process: one time-sorted event vector
/// per worker rank, plus the metrics registry snapshot.
#[derive(Debug, Clone, Default)]
pub struct Recording {
    events: Vec<Vec<Event>>,
    metrics: MetricsSnapshot,
}

impl Recording {
    pub fn new(events: Vec<Vec<Event>>, metrics: MetricsSnapshot) -> Self {
        Recording { events, metrics }
    }

    pub fn nworkers(&self) -> usize {
        self.events.len()
    }

    /// Worker `rank`'s time-sorted event stream.
    pub fn events(&self, rank: usize) -> &[Event] {
        &self.events[rank]
    }

    pub fn all_events(&self) -> &[Vec<Event>] {
        &self.events
    }

    pub fn metrics(&self) -> &MetricsSnapshot {
        &self.metrics
    }

    /// Total event count across all workers.
    pub fn total_events(&self) -> usize {
        self.events.iter().map(Vec::len).sum()
    }

    /// Derived per-worker aggregates.
    pub fn worker_totals(&self) -> Vec<WorkerTotals> {
        self.events
            .iter()
            .enumerate()
            .map(|(rank, ev)| WorkerTotals::from_events(rank, ev))
            .collect()
    }
}

/// Aggregates derived from one worker's event stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerTotals {
    pub rank: usize,
    /// Tasks executed (TaskEnd count).
    pub tasks: u64,
    /// Shell quartets computed (sum of TaskEnd payloads).
    pub quartets: u64,
    /// Steal attempts (successful or not).
    pub steal_attempts: u64,
    /// Successful steals.
    pub steals: u64,
    /// Tasks acquired through stealing.
    pub stolen_tasks: u64,
    /// Centralized-queue accesses (NWChem nxtval).
    pub queue_accesses: u64,
    /// One-sided get volume/calls attributed to this worker.
    pub get_bytes: u64,
    pub get_calls: u64,
    /// One-sided put volume/calls.
    pub put_bytes: u64,
    pub put_calls: u64,
    /// One-sided accumulate volume/calls.
    pub acc_bytes: u64,
    pub acc_calls: u64,
    /// Prefetch/flush volumes (the GTFock bulk transfers).
    pub prefetch_bytes: u64,
    pub flush_bytes: u64,
    /// Injected faults observed by this worker (deaths, straggles, op
    /// drops, requeues — see `event::fault_code`).
    pub faults: u64,
    /// Seconds spent inside tasks (sum of TaskEnd.t - TaskStart.t over
    /// matched pairs).
    pub busy_secs: f64,
    /// Seconds reported blocked at barriers.
    pub barrier_secs: f64,
    /// WorkerEnd.t - WorkerStart.t if both present, else span of the
    /// first-to-last event.
    pub span_secs: f64,
}

impl WorkerTotals {
    /// Fold one worker's (time-sorted) stream into totals.
    pub fn from_events(rank: usize, events: &[Event]) -> Self {
        let mut t = WorkerTotals {
            rank,
            ..WorkerTotals::default()
        };
        let mut open_task: Option<f64> = None;
        let mut worker_start: Option<f64> = None;
        let mut worker_end: Option<f64> = None;
        for e in events {
            match e.kind {
                EventKind::TaskStart { .. } => open_task = Some(e.t),
                EventKind::TaskEnd { quartets, .. } => {
                    t.tasks += 1;
                    t.quartets += quartets as u64;
                    if let Some(t0) = open_task.take() {
                        t.busy_secs += e.t - t0;
                    }
                }
                EventKind::StealAttempt { .. } => t.steal_attempts += 1,
                EventKind::StealSuccess { tasks, .. } => {
                    t.steals += 1;
                    t.stolen_tasks += tasks as u64;
                }
                // Bulk-transfer events summarize spans whose individual
                // gets/accs may also appear as Comm* events — they feed
                // only the prefetch/flush aggregates, never the call
                // counters, so nothing is double-counted.
                EventKind::DPrefetch { bytes, .. } => t.prefetch_bytes += bytes,
                EventKind::FFlush { bytes, .. } => t.flush_bytes += bytes,
                EventKind::BarrierWait { seconds } => t.barrier_secs += seconds,
                EventKind::QueueAccess => t.queue_accesses += 1,
                EventKind::CommGet { bytes } => {
                    t.get_bytes += bytes;
                    t.get_calls += 1;
                }
                EventKind::CommPut { bytes } => {
                    t.put_bytes += bytes;
                    t.put_calls += 1;
                }
                EventKind::CommAcc { bytes } => {
                    t.acc_bytes += bytes;
                    t.acc_calls += 1;
                }
                // Driver/service lifecycle markers: not per-worker work.
                EventKind::IterStart { .. }
                | EventKind::IterEnd { .. }
                | EventKind::JobEnqueued { .. }
                | EventKind::JobStarted { .. }
                | EventKind::JobCompleted { .. } => {}
                EventKind::WorkerStart => worker_start = Some(e.t),
                EventKind::WorkerEnd => worker_end = Some(e.t),
                EventKind::Fault { .. } => t.faults += 1,
            }
        }
        t.span_secs = match (worker_start, worker_end) {
            (Some(a), Some(b)) => (b - a).max(0.0),
            _ => match (events.first(), events.last()) {
                (Some(a), Some(b)) => (b.t - a.t).max(0.0),
                _ => 0.0,
            },
        };
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, kind: EventKind) -> Event {
        Event { t, kind }
    }

    #[test]
    fn totals_from_stream() {
        let events = vec![
            ev(0.0, EventKind::WorkerStart),
            ev(0.1, EventKind::TaskStart { m: 0, n: 0 }),
            ev(
                0.3,
                EventKind::TaskEnd {
                    m: 0,
                    n: 0,
                    quartets: 10,
                },
            ),
            ev(0.3, EventKind::StealAttempt { victim: 1 }),
            ev(
                0.4,
                EventKind::StealSuccess {
                    victim: 1,
                    tasks: 2,
                },
            ),
            ev(0.4, EventKind::CommGet { bytes: 128 }),
            ev(0.5, EventKind::TaskStart { m: 4, n: 4 }),
            ev(
                0.6,
                EventKind::TaskEnd {
                    m: 4,
                    n: 4,
                    quartets: 5,
                },
            ),
            ev(
                0.7,
                EventKind::FFlush {
                    bytes: 256,
                    calls: 2,
                },
            ),
            ev(0.8, EventKind::WorkerEnd),
        ];
        let t = WorkerTotals::from_events(7, &events);
        assert_eq!(t.rank, 7);
        assert_eq!(t.tasks, 2);
        assert_eq!(t.quartets, 15);
        assert_eq!(t.steal_attempts, 1);
        assert_eq!(t.steals, 1);
        assert_eq!(t.stolen_tasks, 2);
        assert_eq!(t.get_bytes, 128);
        assert_eq!(t.get_calls, 1);
        assert_eq!(t.flush_bytes, 256);
        assert_eq!(t.acc_calls, 0); // FFlush does not feed call counters
        assert!((t.busy_secs - 0.3).abs() < 1e-12);
        assert!((t.span_secs - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_stream_is_all_zero() {
        let t = WorkerTotals::from_events(0, &[]);
        assert_eq!(
            t,
            WorkerTotals {
                rank: 0,
                ..WorkerTotals::default()
            }
        );
    }

    #[test]
    fn recording_counts() {
        let r = Recording::new(
            vec![
                vec![ev(0.2, EventKind::QueueAccess)],
                vec![
                    ev(0.9, EventKind::QueueAccess),
                    ev(1.4, EventKind::QueueAccess),
                ],
            ],
            MetricsSnapshot::default(),
        );
        assert_eq!(r.nworkers(), 2);
        assert_eq!(r.total_events(), 3);
        let totals = r.worker_totals();
        assert_eq!(totals[1].queue_accesses, 2);
    }
}
