//! The event vocabulary of a parallel Fock build.
//!
//! Every event carries a monotonic timestamp `t` in seconds. For real
//! (threaded) builds `t` is measured from the recorder's epoch; for
//! discrete-event simulated builds `t` is simulated time — the schema is
//! identical, which is what lets one exporter and one set of derived
//! views serve both.

/// What happened. Ranks, shell indices and victim ranks are `u32` to keep
/// the event payload at 16 bytes next to the timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A worker began executing task (M, N) of the task matrix.
    TaskStart { m: u32, n: u32 },
    /// …and finished it, having computed `quartets` shell quartets.
    TaskEnd { m: u32, n: u32, quartets: u32 },
    /// The worker probed `victim`'s queue (successful or not).
    StealAttempt { victim: u32 },
    /// The worker stole `tasks` tasks from `victim`'s queue.
    StealSuccess { victim: u32, tasks: u32 },
    /// Bulk D-region prefetch (GTFock step 2 / a thief's victim-region copy).
    DPrefetch { bytes: u64, calls: u64 },
    /// Bulk F-region flush (GTFock step 5).
    FFlush { bytes: u64, calls: u64 },
    /// Time spent blocked at a barrier / join point.
    BarrierWait { seconds: f64 },
    /// One access to a centralized task queue (the NWChem `nxtval`).
    QueueAccess,
    /// One-sided GA get issued by this worker.
    CommGet { bytes: u64 },
    /// One-sided GA put issued by this worker.
    CommPut { bytes: u64 },
    /// One-sided GA accumulate issued by this worker.
    CommAcc { bytes: u64 },
    /// An SCF iteration began (recorded by the driver, rank 0 lane).
    IterStart { iter: u32 },
    /// …and ended.
    IterEnd { iter: u32 },
    /// The worker's build loop started (first event of a build).
    WorkerStart,
    /// The worker's build loop finished (after its final flush).
    WorkerEnd,
    /// An injected fault fired, or recovery reacted to one. `code` is a
    /// [`fault_code`] constant; `detail` is code-specific (attempt number
    /// for op drops, task count for requeues, ×1000 slowdown for
    /// stragglers).
    Fault { code: u32, detail: u32 },
    /// An SCF job entered the service queue (multi-tenant service layer).
    JobEnqueued { job: u32 },
    /// …was picked up by a runner and started executing.
    JobStarted { job: u32 },
    /// …and finished, having run `iters` SCF iterations. Enqueue→start→
    /// completion timestamps are the per-job latency accounting the
    /// service's queue-wait and latency histograms are views over.
    JobCompleted { job: u32, iters: u32 },
}

/// `code` values carried by [`EventKind::Fault`].
pub mod fault_code {
    /// A rank died after its scheduled task count (`detail` = tasks done).
    pub const RANK_DEATH: u32 = 0;
    /// A straggler rank started (`detail` = slowdown × 1000).
    pub const STRAGGLER: u32 = 1;
    /// A one-sided op was dropped (`detail` = attempt number).
    pub const OP_DROP: u32 = 2;
    /// Lost tasks were requeued for re-execution (`detail` = task count).
    pub const TASK_REQUEUE: u32 = 4;
}

impl EventKind {
    /// Stable machine-readable name (JSON `kind` field).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::TaskStart { .. } => "task_start",
            EventKind::TaskEnd { .. } => "task_end",
            EventKind::StealAttempt { .. } => "steal_attempt",
            EventKind::StealSuccess { .. } => "steal_success",
            EventKind::DPrefetch { .. } => "d_prefetch",
            EventKind::FFlush { .. } => "f_flush",
            EventKind::BarrierWait { .. } => "barrier_wait",
            EventKind::QueueAccess => "queue_access",
            EventKind::CommGet { .. } => "comm_get",
            EventKind::CommPut { .. } => "comm_put",
            EventKind::CommAcc { .. } => "comm_acc",
            EventKind::IterStart { .. } => "iter_start",
            EventKind::IterEnd { .. } => "iter_end",
            EventKind::WorkerStart => "worker_start",
            EventKind::WorkerEnd => "worker_end",
            EventKind::Fault { .. } => "fault",
            EventKind::JobEnqueued { .. } => "job_enqueued",
            EventKind::JobStarted { .. } => "job_started",
            EventKind::JobCompleted { .. } => "job_completed",
        }
    }

    /// Payload fields as (name, value) pairs, for the generic exporters.
    pub fn fields(&self) -> Vec<(&'static str, f64)> {
        match *self {
            EventKind::TaskStart { m, n } => vec![("m", m as f64), ("n", n as f64)],
            EventKind::TaskEnd { m, n, quartets } => {
                vec![
                    ("m", m as f64),
                    ("n", n as f64),
                    ("quartets", quartets as f64),
                ]
            }
            EventKind::StealAttempt { victim } => vec![("victim", victim as f64)],
            EventKind::StealSuccess { victim, tasks } => {
                vec![("victim", victim as f64), ("tasks", tasks as f64)]
            }
            EventKind::DPrefetch { bytes, calls } | EventKind::FFlush { bytes, calls } => {
                vec![("bytes", bytes as f64), ("calls", calls as f64)]
            }
            EventKind::BarrierWait { seconds } => vec![("seconds", seconds)],
            EventKind::QueueAccess | EventKind::WorkerStart | EventKind::WorkerEnd => vec![],
            EventKind::CommGet { bytes }
            | EventKind::CommPut { bytes }
            | EventKind::CommAcc { bytes } => vec![("bytes", bytes as f64)],
            EventKind::IterStart { iter } | EventKind::IterEnd { iter } => {
                vec![("iter", iter as f64)]
            }
            EventKind::Fault { code, detail } => {
                vec![("code", code as f64), ("detail", detail as f64)]
            }
            EventKind::JobEnqueued { job } | EventKind::JobStarted { job } => {
                vec![("job", job as f64)]
            }
            EventKind::JobCompleted { job, iters } => {
                vec![("job", job as f64), ("iters", iters as f64)]
            }
        }
    }

    /// Inverse of [`name`](Self::name)/[`fields`](Self::fields): rebuild a
    /// kind from its stable name and payload pairs, as read back from an
    /// exported trace. Missing payload fields default to zero (forward
    /// compatibility with traces trimmed by other tools); an unknown name
    /// returns `None`.
    pub fn from_name_fields(name: &str, fields: &[(String, f64)]) -> Option<EventKind> {
        let get = |k: &str| fields.iter().find(|(n, _)| n == k).map_or(0.0, |&(_, v)| v);
        let u = |k: &str| get(k) as u32;
        let b = |k: &str| get(k) as u64;
        Some(match name {
            "task_start" => EventKind::TaskStart {
                m: u("m"),
                n: u("n"),
            },
            "task_end" => EventKind::TaskEnd {
                m: u("m"),
                n: u("n"),
                quartets: u("quartets"),
            },
            "steal_attempt" => EventKind::StealAttempt {
                victim: u("victim"),
            },
            "steal_success" => EventKind::StealSuccess {
                victim: u("victim"),
                tasks: u("tasks"),
            },
            "d_prefetch" => EventKind::DPrefetch {
                bytes: b("bytes"),
                calls: b("calls"),
            },
            "f_flush" => EventKind::FFlush {
                bytes: b("bytes"),
                calls: b("calls"),
            },
            "barrier_wait" => EventKind::BarrierWait {
                seconds: get("seconds"),
            },
            "queue_access" => EventKind::QueueAccess,
            "comm_get" => EventKind::CommGet { bytes: b("bytes") },
            "comm_put" => EventKind::CommPut { bytes: b("bytes") },
            "comm_acc" => EventKind::CommAcc { bytes: b("bytes") },
            "iter_start" => EventKind::IterStart { iter: u("iter") },
            "iter_end" => EventKind::IterEnd { iter: u("iter") },
            "worker_start" => EventKind::WorkerStart,
            "worker_end" => EventKind::WorkerEnd,
            "fault" => EventKind::Fault {
                code: u("code"),
                detail: u("detail"),
            },
            "job_enqueued" => EventKind::JobEnqueued { job: u("job") },
            "job_started" => EventKind::JobStarted { job: u("job") },
            "job_completed" => EventKind::JobCompleted {
                job: u("job"),
                iters: u("iters"),
            },
            _ => return None,
        })
    }
}

/// One timestamped event in a worker's stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Seconds since the recorder epoch (or simulated seconds).
    pub t: f64,
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_distinct() {
        let kinds = [
            EventKind::TaskStart { m: 0, n: 0 },
            EventKind::TaskEnd {
                m: 0,
                n: 0,
                quartets: 0,
            },
            EventKind::StealAttempt { victim: 0 },
            EventKind::StealSuccess {
                victim: 0,
                tasks: 0,
            },
            EventKind::DPrefetch { bytes: 0, calls: 0 },
            EventKind::FFlush { bytes: 0, calls: 0 },
            EventKind::BarrierWait { seconds: 0.0 },
            EventKind::QueueAccess,
            EventKind::CommGet { bytes: 0 },
            EventKind::CommPut { bytes: 0 },
            EventKind::CommAcc { bytes: 0 },
            EventKind::IterStart { iter: 0 },
            EventKind::IterEnd { iter: 0 },
            EventKind::WorkerStart,
            EventKind::WorkerEnd,
            EventKind::Fault { code: 0, detail: 0 },
            EventKind::JobEnqueued { job: 0 },
            EventKind::JobStarted { job: 0 },
            EventKind::JobCompleted { job: 0, iters: 0 },
        ];
        let names: Vec<_> = kinds.iter().map(|k| k.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate event names");
    }

    #[test]
    fn fields_roundtrip_payload() {
        let k = EventKind::StealSuccess {
            victim: 3,
            tasks: 17,
        };
        let f = k.fields();
        assert_eq!(f, vec![("victim", 3.0), ("tasks", 17.0)]);
    }

    #[test]
    fn name_fields_roundtrip_every_kind() {
        let kinds = [
            EventKind::TaskStart { m: 1, n: 2 },
            EventKind::TaskEnd {
                m: 1,
                n: 2,
                quartets: 3,
            },
            EventKind::StealAttempt { victim: 4 },
            EventKind::StealSuccess {
                victim: 4,
                tasks: 5,
            },
            EventKind::DPrefetch { bytes: 6, calls: 7 },
            EventKind::FFlush { bytes: 8, calls: 9 },
            EventKind::BarrierWait { seconds: 0.25 },
            EventKind::QueueAccess,
            EventKind::CommGet { bytes: 10 },
            EventKind::CommPut { bytes: 11 },
            EventKind::CommAcc { bytes: 12 },
            EventKind::IterStart { iter: 13 },
            EventKind::IterEnd { iter: 14 },
            EventKind::WorkerStart,
            EventKind::WorkerEnd,
            EventKind::Fault {
                code: 2,
                detail: 15,
            },
            EventKind::JobEnqueued { job: 16 },
            EventKind::JobStarted { job: 17 },
            EventKind::JobCompleted { job: 18, iters: 19 },
        ];
        for k in kinds {
            let fields: Vec<(String, f64)> = k
                .fields()
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect();
            assert_eq!(
                EventKind::from_name_fields(k.name(), &fields),
                Some(k),
                "roundtrip failed for {}",
                k.name()
            );
        }
        assert_eq!(EventKind::from_name_fields("not_a_kind", &[]), None);
    }
}
