//! The per-worker event recorder.
//!
//! # Design
//!
//! A [`Recorder`] is a cheap cloneable handle. Disabled (the default) it
//! holds no state and every recording call is a single `None` branch —
//! safe to leave in the hottest quartet loops. Enabled, it owns:
//!
//! * an epoch `Instant` all timestamps are measured from,
//! * a vector of per-worker *lanes*, and
//! * a [`Metrics`] registry.
//!
//! Each worker thread checks out its lane once via
//! [`Recorder::worker`], getting a [`WorkerRec`]. The lane's event vector
//! is an `UnsafeCell<Vec<Event>>` appended to without locking; exclusivity
//! is enforced by an `AtomicBool` checkout flag (acquired with a CAS,
//! released on `WorkerRec`'s `Drop`), so appends are plain vector pushes —
//! no lock, no atomic per event. A second checkout of a live lane panics.
//!
//! Code that wants to attribute an event to a worker *without* holding its
//! `WorkerRec` — e.g. the distributed-array layer, whose one-sided ops run
//! on worker threads that already hold their lane higher up the stack —
//! uses [`Recorder::side_event`], which appends to a per-lane mutex-backed
//! side stream. The two streams are merged and time-sorted when the
//! recording is assembled.
//!
//! Simulated executions stamp events with simulated time via
//! [`WorkerRec::event_at`] / [`Recorder::side_event_at`]; real executions
//! use [`WorkerRec::event`] which reads the monotonic clock.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::{Event, EventKind};
use crate::metrics::{Counter, Histogram, Metrics, MetricsSnapshot};
use crate::timeline::Recording;

struct Lane {
    /// Checkout flag: true while a `WorkerRec` for this lane is alive.
    taken: AtomicBool,
    /// Main event stream, appended only by the lane's `WorkerRec` holder.
    events: UnsafeCell<Vec<Event>>,
    /// Side stream for events recorded on behalf of this worker by code
    /// that doesn't hold the `WorkerRec` (e.g. the GA layer).
    side: Mutex<Vec<Event>>,
}

// SAFETY: `events` is only touched through a `WorkerRec`, and the `taken`
// CAS in `Recorder::worker` guarantees at most one live `WorkerRec` per
// lane; `Recording::assemble` only reads `events` after verifying no lane
// is checked out. `side` is mutex-guarded.
unsafe impl Sync for Lane {}
unsafe impl Send for Lane {}

impl Lane {
    fn new() -> Self {
        Lane {
            taken: AtomicBool::new(false),
            events: UnsafeCell::new(Vec::new()),
            side: Mutex::new(Vec::new()),
        }
    }
}

pub(crate) struct Shared {
    epoch: Instant,
    lanes: Mutex<Vec<Arc<Lane>>>,
    metrics: Metrics,
}

/// Handle to the telemetry subsystem. `Recorder::default()` is disabled.
#[derive(Clone, Default)]
pub struct Recorder {
    shared: Option<Arc<Shared>>,
}

impl Recorder {
    /// The no-op recorder: every call is a single branch.
    pub fn disabled() -> Self {
        Recorder { shared: None }
    }

    /// An enabled recorder with its epoch set to now.
    pub fn enabled() -> Self {
        Recorder {
            shared: Some(Arc::new(Shared {
                epoch: Instant::now(),
                lanes: Mutex::new(Vec::new()),
                metrics: Metrics::new(),
            })),
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Seconds since the epoch; 0.0 when disabled.
    #[inline]
    pub fn now(&self) -> f64 {
        match &self.shared {
            Some(s) => s.epoch.elapsed().as_secs_f64(),
            None => 0.0,
        }
    }

    /// Check out worker `rank`'s lane. Lanes are created on demand, so
    /// ranks can be checked out in any order; panics if `rank` is already
    /// checked out (two live `WorkerRec`s would race on the event vector).
    pub fn worker(&self, rank: usize) -> WorkerRec {
        let Some(shared) = &self.shared else {
            return WorkerRec {
                lane: None,
                shared: None,
                rank,
            };
        };
        let lane = {
            let mut lanes = shared.lanes.lock().expect("recorder lanes poisoned");
            while lanes.len() <= rank {
                lanes.push(Arc::new(Lane::new()));
            }
            Arc::clone(&lanes[rank])
        };
        let was_taken = lane.taken.swap(true, Ordering::Acquire);
        assert!(!was_taken, "worker lane {rank} checked out twice");
        WorkerRec {
            lane: Some(lane),
            shared: Some(Arc::clone(shared)),
            rank,
        }
    }

    /// Append an event to worker `rank`'s side stream, stamped with real
    /// time. For layers (like the distributed array) whose calls execute
    /// on a worker thread but which don't hold that worker's `WorkerRec`.
    #[inline]
    pub fn side_event(&self, rank: usize, kind: EventKind) {
        if self.shared.is_some() {
            let t = self.now();
            self.side_event_at(rank, t, kind);
        }
    }

    /// Like [`side_event`](Self::side_event) but with a caller-supplied
    /// (e.g. simulated) timestamp.
    pub fn side_event_at(&self, rank: usize, t: f64, kind: EventKind) {
        let Some(shared) = &self.shared else { return };
        let lane = {
            let mut lanes = shared.lanes.lock().expect("recorder lanes poisoned");
            while lanes.len() <= rank {
                lanes.push(Arc::new(Lane::new()));
            }
            Arc::clone(&lanes[rank])
        };
        lane.side
            .lock()
            .expect("side stream poisoned")
            .push(Event { t, kind });
    }

    /// Named counter from the registry; disabled counter when disabled.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.shared {
            Some(s) => s.metrics.counter(name),
            None => Counter::disabled(),
        }
    }

    /// Named histogram from the registry; disabled when disabled.
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.shared {
            Some(s) => s.metrics.histogram(name),
            None => Histogram::disabled(),
        }
    }

    /// Snapshot of the metrics registry (empty when disabled).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        match &self.shared {
            Some(s) => s.metrics.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Assemble the per-process timeline recorded so far. Returns `None`
    /// when disabled. Panics if any lane is still checked out — drop all
    /// `WorkerRec`s (i.e. finish the build) first.
    pub fn recording(&self) -> Option<Recording> {
        let shared = self.shared.as_ref()?;
        let lanes = shared.lanes.lock().expect("recorder lanes poisoned");
        let mut per_worker: Vec<Vec<Event>> = Vec::with_capacity(lanes.len());
        for (rank, lane) in lanes.iter().enumerate() {
            assert!(
                !lane.taken.load(Ordering::Acquire),
                "worker lane {rank} still checked out while assembling recording"
            );
            // SAFETY: no WorkerRec is alive for this lane (checked above)
            // and we hold the lanes lock, so `Recorder::worker` cannot hand
            // one out concurrently — the events vector is quiescent.
            let mut events = unsafe { (*lane.events.get()).clone() };
            events.extend(
                lane.side
                    .lock()
                    .expect("side stream poisoned")
                    .iter()
                    .copied(),
            );
            events.sort_by(|a, b| a.t.partial_cmp(&b.t).expect("finite event timestamps"));
            per_worker.push(events);
        }
        Some(Recording::new(per_worker, shared.metrics.snapshot()))
    }
}

/// Exclusive handle to one worker's event lane. Appends are plain vector
/// pushes — no locking. Dropping releases the lane.
pub struct WorkerRec {
    lane: Option<Arc<Lane>>,
    shared: Option<Arc<Shared>>,
    rank: usize,
}

impl WorkerRec {
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.lane.is_some()
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Seconds since the recorder epoch; 0.0 when disabled.
    #[inline]
    pub fn now(&self) -> f64 {
        match &self.shared {
            Some(s) => s.epoch.elapsed().as_secs_f64(),
            None => 0.0,
        }
    }

    /// Record `kind` stamped with real time.
    #[inline]
    pub fn event(&mut self, kind: EventKind) {
        if self.lane.is_some() {
            let t = self.now();
            self.event_at(t, kind);
        }
    }

    /// Record `kind` with a caller-supplied (e.g. simulated) timestamp.
    #[inline]
    pub fn event_at(&mut self, t: f64, kind: EventKind) {
        if let Some(lane) = &self.lane {
            // SAFETY: self is the lane's unique checkout (enforced by the
            // `taken` CAS) and we have `&mut self`, so this is the only
            // access to the vector.
            unsafe { (*lane.events.get()).push(Event { t, kind }) };
        }
    }

    // Convenience wrappers for the common kinds, so builder code stays
    // terse at the call sites.

    #[inline]
    pub fn task_start(&mut self, m: usize, n: usize) {
        if self.lane.is_some() {
            self.event(EventKind::TaskStart {
                m: m as u32,
                n: n as u32,
            });
        }
    }

    #[inline]
    pub fn task_end(&mut self, m: usize, n: usize, quartets: u64) {
        if self.lane.is_some() {
            self.event(EventKind::TaskEnd {
                m: m as u32,
                n: n as u32,
                quartets: quartets as u32,
            });
        }
    }
}

impl Drop for WorkerRec {
    fn drop(&mut self) {
        if let Some(lane) = &self.lane {
            lane.taken.store(false, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        let mut w = rec.worker(0);
        w.event(EventKind::QueueAccess);
        w.task_start(1, 2);
        rec.side_event(0, EventKind::CommGet { bytes: 8 });
        rec.counter("x").add(5);
        assert!(rec.recording().is_none());
    }

    #[test]
    fn events_round_trip_in_order() {
        let rec = Recorder::enabled();
        let mut w = rec.worker(0);
        w.event_at(0.1, EventKind::TaskStart { m: 1, n: 2 });
        w.event_at(
            0.3,
            EventKind::TaskEnd {
                m: 1,
                n: 2,
                quartets: 9,
            },
        );
        drop(w);
        let r = rec.recording().expect("enabled recorder yields recording");
        assert_eq!(r.nworkers(), 1);
        assert_eq!(r.events(0).len(), 2);
        assert_eq!(
            r.events(0)[1].kind,
            EventKind::TaskEnd {
                m: 1,
                n: 2,
                quartets: 9
            }
        );
    }

    #[test]
    fn side_events_merge_sorted() {
        let rec = Recorder::enabled();
        let mut w = rec.worker(0);
        w.event_at(0.1, EventKind::TaskStart { m: 0, n: 0 });
        w.event_at(
            0.5,
            EventKind::TaskEnd {
                m: 0,
                n: 0,
                quartets: 1,
            },
        );
        rec.side_event_at(0, 0.2, EventKind::CommGet { bytes: 64 });
        drop(w);
        let r = rec.recording().expect("recording");
        let kinds: Vec<_> = r.events(0).iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, vec!["task_start", "comm_get", "task_end"]);
    }

    #[test]
    #[should_panic(expected = "checked out twice")]
    fn double_checkout_panics() {
        let rec = Recorder::enabled();
        let _a = rec.worker(3);
        let _b = rec.worker(3);
    }

    #[test]
    fn checkout_released_on_drop() {
        let rec = Recorder::enabled();
        {
            let mut w = rec.worker(0);
            w.event_at(0.0, EventKind::WorkerStart);
        }
        // Re-checkout after drop is fine and appends to the same lane.
        {
            let mut w = rec.worker(0);
            w.event_at(1.0, EventKind::WorkerEnd);
        }
        let r = rec.recording().expect("recording");
        assert_eq!(r.events(0).len(), 2);
    }

    #[test]
    fn lanes_created_on_demand_any_order() {
        let rec = Recorder::enabled();
        rec.side_event_at(2, 0.0, EventKind::QueueAccess);
        let mut w = rec.worker(5);
        w.event_at(0.1, EventKind::WorkerStart);
        drop(w);
        let r = rec.recording().expect("recording");
        assert_eq!(r.nworkers(), 6);
        assert_eq!(r.events(2).len(), 1);
        assert_eq!(r.events(5).len(), 1);
        assert!(r.events(0).is_empty());
    }

    #[test]
    fn concurrent_workers_record_independently() {
        let rec = Recorder::enabled();
        std::thread::scope(|s| {
            for rank in 0..4 {
                let rec = rec.clone();
                s.spawn(move || {
                    let mut w = rec.worker(rank);
                    for i in 0..100 {
                        w.event_at(i as f64, EventKind::QueueAccess);
                    }
                });
            }
        });
        let r = rec.recording().expect("recording");
        assert_eq!(r.nworkers(), 4);
        for rank in 0..4 {
            assert_eq!(r.events(rank).len(), 100);
        }
    }
}
