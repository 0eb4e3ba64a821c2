//! Trace analysis: digest a recorded timeline into a [`TraceProfile`].
//!
//! A [`Recording`] is ground truth — a time-sorted event stream per worker
//! plus the metrics registry. A [`TraceProfile`] is the derived digest the
//! trace-diff tool compares: per-worker busy/idle/steal breakdowns, the
//! task-cost distribution, and communication-volume tallies. Like
//! [`WorkerTotals`], everything here is computed from the events; nothing
//! is maintained separately.

use crate::event::EventKind;
use crate::timeline::{Recording, WorkerTotals};

/// Summary statistics of a sample of durations (seconds).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dist {
    pub count: u64,
    pub total: f64,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
}

impl Dist {
    /// Summarize a sample; an empty sample yields all zeros.
    pub fn from_values(mut values: Vec<f64>) -> Dist {
        if values.is_empty() {
            return Dist::default();
        }
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
        let count = values.len() as u64;
        let total: f64 = values.iter().sum();
        let pct = |q: f64| {
            values[((q * (values.len() - 1) as f64).round() as usize).min(values.len() - 1)]
        };
        Dist {
            count,
            total,
            min: values[0],
            max: *values.last().unwrap(),
            mean: total / count as f64,
            p50: pct(0.5),
            p90: pct(0.9),
        }
    }
}

/// One worker's time breakdown and work tallies over the recording.
#[derive(Debug, Clone, Default)]
pub struct WorkerBreakdown {
    pub rank: usize,
    /// First-to-last event span (or WorkerStart→WorkerEnd when present).
    pub span_secs: f64,
    /// Seconds inside tasks (matched TaskStart→TaskEnd).
    pub busy_secs: f64,
    /// Seconds reported blocked at barriers.
    pub barrier_secs: f64,
    /// Everything else: span − busy − barrier, clamped at zero — steal
    /// scans, queue waits, communication, scheduler overhead.
    pub idle_secs: f64,
    pub tasks: u64,
    pub quartets: u64,
    pub steal_attempts: u64,
    pub steals: u64,
    pub stolen_tasks: u64,
    /// Distinct victim ranks this worker successfully stole from — the
    /// per-process `s` of the §III-G model.
    pub distinct_victims: u64,
    pub queue_accesses: u64,
    /// One-sided + bulk-transfer traffic attributed to this worker.
    pub comm_bytes: u64,
    pub comm_calls: u64,
}

/// The digest of one recorded run.
#[derive(Debug, Clone, Default)]
pub struct TraceProfile {
    pub nworkers: usize,
    /// Last event timestamp seen (the run's wall-clock span).
    pub wall_secs: f64,
    pub workers: Vec<WorkerBreakdown>,
    /// Distribution of per-task durations across all workers.
    pub task_cost: Dist,
    pub busy_total: f64,
    pub barrier_total: f64,
    pub idle_total: f64,
    pub tasks_total: u64,
    pub quartets_total: u64,
    pub steals_total: u64,
    pub steal_attempts_total: u64,
    pub queue_accesses_total: u64,
    pub comm_bytes_total: u64,
    pub comm_calls_total: u64,
}

impl TraceProfile {
    /// Profile a whole recording.
    pub fn from_recording(rec: &Recording) -> TraceProfile {
        let mut p = TraceProfile {
            nworkers: rec.nworkers(),
            ..TraceProfile::default()
        };
        let mut durations: Vec<f64> = Vec::new();
        for rank in 0..rec.nworkers() {
            let events = rec.events(rank);
            let totals = WorkerTotals::from_events(rank, events);
            // Second pass for what WorkerTotals doesn't track: per-task
            // durations and the distinct-victim set.
            let mut open: Option<f64> = None;
            let mut victims: Vec<u32> = Vec::new();
            for e in events {
                match e.kind {
                    EventKind::TaskStart { .. } => open = Some(e.t),
                    EventKind::TaskEnd { .. } => {
                        if let Some(s) = open.take() {
                            durations.push(e.t - s);
                        }
                    }
                    EventKind::StealSuccess { victim, .. } if !victims.contains(&victim) => {
                        victims.push(victim)
                    }
                    _ => {}
                }
                p.wall_secs = p.wall_secs.max(e.t);
            }
            let comm_bytes = totals.get_bytes
                + totals.put_bytes
                + totals.acc_bytes
                + totals.prefetch_bytes
                + totals.flush_bytes;
            let comm_calls = totals.get_calls + totals.put_calls + totals.acc_calls;
            let idle = (totals.span_secs - totals.busy_secs - totals.barrier_secs).max(0.0);
            let w = WorkerBreakdown {
                rank,
                span_secs: totals.span_secs,
                busy_secs: totals.busy_secs,
                barrier_secs: totals.barrier_secs,
                idle_secs: idle,
                tasks: totals.tasks,
                quartets: totals.quartets,
                steal_attempts: totals.steal_attempts,
                steals: totals.steals,
                stolen_tasks: totals.stolen_tasks,
                distinct_victims: victims.len() as u64,
                queue_accesses: totals.queue_accesses,
                comm_bytes,
                comm_calls,
            };
            p.busy_total += w.busy_secs;
            p.barrier_total += w.barrier_secs;
            p.idle_total += w.idle_secs;
            p.tasks_total += w.tasks;
            p.quartets_total += w.quartets;
            p.steals_total += w.steals;
            p.steal_attempts_total += w.steal_attempts;
            p.queue_accesses_total += w.queue_accesses;
            p.comm_bytes_total += w.comm_bytes;
            p.comm_calls_total += w.comm_calls;
            p.workers.push(w);
        }
        p.task_cost = Dist::from_values(durations);
        p
    }

    /// Load imbalance of the busy time: max over workers / average over
    /// workers with any events (1.0 when degenerate). Same shape as the
    /// paper's l = T_max/T_avg but on computed-time rather than wall.
    pub fn imbalance(&self) -> f64 {
        let active: Vec<f64> = self
            .workers
            .iter()
            .filter(|w| w.span_secs > 0.0)
            .map(|w| w.busy_secs)
            .collect();
        if active.is_empty() {
            return 1.0;
        }
        let avg = active.iter().sum::<f64>() / active.len() as f64;
        let max = active.iter().copied().fold(0.0, f64::max);
        if avg > 0.0 {
            max / avg
        } else {
            1.0
        }
    }

    /// One-line digest for logs and the trace-diff tool.
    pub fn summary(&self) -> String {
        format!(
            "{} workers, wall {:.4}s, {} tasks / {} quartets, busy {:.4}s idle {:.4}s barrier {:.4}s, imbalance {:.3}, {} steals, {} queue accesses, {:.1} MB comm",
            self.nworkers,
            self.wall_secs,
            self.tasks_total,
            self.quartets_total,
            self.busy_total,
            self.idle_total,
            self.barrier_total,
            self.imbalance(),
            self.steals_total,
            self.queue_accesses_total,
            self.comm_bytes_total as f64 / 1e6,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::metrics::MetricsSnapshot;

    fn ev(t: f64, kind: EventKind) -> Event {
        Event { t, kind }
    }

    fn two_worker_recording() -> Recording {
        Recording::new(
            vec![
                vec![
                    ev(0.0, EventKind::WorkerStart),
                    ev(0.1, EventKind::TaskStart { m: 0, n: 0 }),
                    ev(
                        0.5,
                        EventKind::TaskEnd {
                            m: 0,
                            n: 0,
                            quartets: 40,
                        },
                    ),
                    ev(0.5, EventKind::CommGet { bytes: 1000 }),
                    ev(0.6, EventKind::BarrierWait { seconds: 0.4 }),
                    ev(1.0, EventKind::WorkerEnd),
                ],
                vec![
                    ev(0.0, EventKind::WorkerStart),
                    ev(0.1, EventKind::TaskStart { m: 1, n: 1 }),
                    ev(
                        0.3,
                        EventKind::TaskEnd {
                            m: 1,
                            n: 1,
                            quartets: 10,
                        },
                    ),
                    ev(0.3, EventKind::StealAttempt { victim: 0 }),
                    ev(
                        0.35,
                        EventKind::StealSuccess {
                            victim: 0,
                            tasks: 1,
                        },
                    ),
                    ev(0.4, EventKind::TaskStart { m: 0, n: 3 }),
                    ev(
                        1.0,
                        EventKind::TaskEnd {
                            m: 0,
                            n: 3,
                            quartets: 30,
                        },
                    ),
                    ev(1.0, EventKind::WorkerEnd),
                ],
            ],
            MetricsSnapshot::default(),
        )
    }

    #[test]
    fn profile_breakdown_adds_up() {
        let p = TraceProfile::from_recording(&two_worker_recording());
        assert_eq!(p.nworkers, 2);
        assert_eq!(p.tasks_total, 3);
        assert_eq!(p.quartets_total, 80);
        assert_eq!(p.steals_total, 1);
        assert_eq!(p.comm_bytes_total, 1000);
        assert!((p.wall_secs - 1.0).abs() < 1e-12);
        // Worker 0: span 1.0, busy 0.4, barrier 0.4 → idle 0.2.
        let w0 = &p.workers[0];
        assert!((w0.busy_secs - 0.4).abs() < 1e-12);
        assert!((w0.idle_secs - 0.2).abs() < 1e-12);
        // Worker 1: busy 0.2 + 0.6 = 0.8, no barrier → idle 0.2.
        let w1 = &p.workers[1];
        assert!((w1.busy_secs - 0.8).abs() < 1e-12);
        assert!((w1.idle_secs - 0.2).abs() < 1e-12);
        assert_eq!(w1.distinct_victims, 1);
        // Per-worker components sum to the totals.
        assert!((p.busy_total - 1.2).abs() < 1e-12);
        assert!((p.idle_total - 0.4).abs() < 1e-12);
        // Task-cost distribution: 0.4, 0.2, 0.6.
        assert_eq!(p.task_cost.count, 3);
        assert!((p.task_cost.total - 1.2).abs() < 1e-12);
        assert!((p.task_cost.min - 0.2).abs() < 1e-12);
        assert!((p.task_cost.max - 0.6).abs() < 1e-12);
        assert!((p.task_cost.p50 - 0.4).abs() < 1e-12);
        // Imbalance: busy 0.4 vs 0.8 → max/avg = 0.8/0.6.
        assert!((p.imbalance() - 0.8 / 0.6).abs() < 1e-12);
        assert!(!p.summary().is_empty());
    }

    #[test]
    fn empty_recording_profiles_to_zero() {
        let p = TraceProfile::from_recording(&Recording::default());
        assert_eq!(p.nworkers, 0);
        assert_eq!(p.tasks_total, 0);
        assert_eq!(p.imbalance(), 1.0);
        assert_eq!(p.task_cost, Dist::default());
    }

    #[test]
    fn dist_percentiles() {
        let d = Dist::from_values(vec![4.0, 1.0, 3.0, 2.0, 10.0]);
        assert_eq!(d.count, 5);
        assert!((d.min - 1.0).abs() < 1e-12);
        assert!((d.max - 10.0).abs() < 1e-12);
        assert!((d.p50 - 3.0).abs() < 1e-12);
        assert!((d.mean - 4.0).abs() < 1e-12);
        assert_eq!(Dist::from_values(vec![]).count, 0);
    }
}
