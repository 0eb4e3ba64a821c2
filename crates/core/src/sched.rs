//! The paper's task scheduler (Section III-C/F, Algorithm 4), written once
//! for both executors.
//!
//! Each rank's queue starts as its block of the [`StaticPartition`]. A
//! rank pops its own queue from the front; once that is empty it picks a
//! victim with the [`VictimPolicy`], moves ⌈fraction·remaining⌉ tasks off
//! the victim's tail and runs the first of them at once. A rank the fault
//! plan will kill is never chosen as a victim (fencing), so the tasks lost
//! with it are exactly what it held when it died. Lost tasks are dealt out
//! after the join by [`recovery_assignment`].
//!
//! [`Scheduler::next`] has one caller, the per-rank executor of the
//! crate-private `lane` module, which reacts to each answer. The threaded
//! builder ([`crate::gtfock`]) runs one lane per worker thread; the
//! discrete-event simulator ([`crate::sim_exec`]) steps each rank's lane
//! at its event pop over a virtual clock. The queues are
//! `Mutex<VecDeque>`s: a steal moves its batch under the victim's lock,
//! so a task is handed out exactly once however the threads interleave.

use crate::partition::StaticPartition;
use distrt::{FaultPlan, ProcessGrid};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Victim-selection policy of the work-stealing scheduler. The paper uses
/// the row-wise scan and names "smart distributed dynamic scheduling
/// algorithms" as future work — the other policies quantify the headroom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VictimPolicy {
    /// The paper's policy: scan ranks row-wise starting after the thief.
    RowScan,
    /// Uniformly random victim (classic Blumofe–Leiserson stealing).
    Random { seed: u64 },
    /// Steal from the process with the most remaining tasks (an
    /// omniscient upper bound on victim selection quality).
    MaxQueue,
}

/// Work-stealing configuration, honoured alike by the threaded builder
/// and the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StealConfig {
    pub enabled: bool,
    pub policy: VictimPolicy,
    /// Fraction of the victim's remaining tasks to take (0 < f ≤ 1);
    /// the paper's deques take half.
    pub fraction: f64,
}

impl StealConfig {
    /// The paper's scheduler: row-scan, steal half.
    pub fn paper() -> Self {
        StealConfig {
            enabled: true,
            policy: VictimPolicy::RowScan,
            fraction: 0.5,
        }
    }

    /// Static partitioning only (the ablation baseline).
    pub fn disabled() -> Self {
        StealConfig {
            enabled: false,
            ..StealConfig::paper()
        }
    }
}

/// `true` is the paper's scheduler, `false` static partitioning only.
impl From<bool> for StealConfig {
    fn from(steal: bool) -> Self {
        if steal {
            StealConfig::paper()
        } else {
            StealConfig::disabled()
        }
    }
}

/// The paper steals "a block of tasks": on its first pass the row scan
/// skips victims holding fewer than this many, since a thief pays a full
/// D-region copy per new victim. The fallback pass takes anything.
const MIN_BLOCK: usize = 8;

/// What a rank does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Task id `m·nshells + n`, popped from the rank's own queue.
    Task(u32),
    /// The own queue was empty: `moved` tasks came off the tail of
    /// `victim`'s queue. `task`, the first of them, is consumed with the
    /// steal (otherwise a lone task could ping-pong between idle thieves);
    /// the rest now sit in the thief's queue.
    Stolen {
        victim: usize,
        task: u32,
        moved: usize,
    },
    /// The fault plan kills the rank now, before its next task. It must
    /// not flush; its queue stays fenced until recovery.
    Died,
    /// No queue this rank may take from holds work.
    Idle,
}

/// Per-rank task queues plus the executed and steal counters.
pub struct Scheduler<'a> {
    grid: ProcessGrid,
    steal: StealConfig,
    fault: Option<&'a FaultPlan>,
    queues: Vec<Mutex<VecDeque<u32>>>,
    executed: Vec<AtomicU64>,
    steals: Vec<AtomicU64>,
}

impl<'a> Scheduler<'a> {
    /// Queues filled from the static partition, row-major within each
    /// rank's block.
    pub fn new(part: &StaticPartition, steal: StealConfig, fault: Option<&'a FaultPlan>) -> Self {
        let n = part.nshells;
        let queues = (0..part.grid.nprocs())
            .map(|r| {
                part.tasks_of(r)
                    .map(|(m, nn)| (m * n + nn) as u32)
                    .collect()
            })
            .collect();
        Self::with_queues(part.grid, steal, fault, queues)
    }

    /// Queues given explicitly, one per rank of `grid`.
    fn with_queues(
        grid: ProcessGrid,
        steal: StealConfig,
        fault: Option<&'a FaultPlan>,
        queues: Vec<VecDeque<u32>>,
    ) -> Self {
        assert!(
            steal.fraction > 0.0 && steal.fraction <= 1.0,
            "steal fraction in (0, 1]"
        );
        assert_eq!(queues.len(), grid.nprocs());
        let counters = || (0..queues.len()).map(|_| AtomicU64::new(0)).collect();
        Scheduler {
            grid,
            steal,
            fault,
            executed: counters(),
            steals: counters(),
            queues: queues.into_iter().map(Mutex::new).collect(),
        }
    }

    /// The one step function: death, own queue, then a steal.
    pub fn next(&self, rank: usize) -> Next {
        let executed = self.executed[rank].load(Ordering::Relaxed);
        if self.fault.and_then(|p| p.death_after(rank)) == Some(executed) {
            return Next::Died;
        }
        let own = self.queue(rank).pop_front();
        let next = match own {
            Some(t) => Next::Task(t),
            None if self.steal.enabled => match self.steal_for(rank) {
                Some((victim, mut batch)) => {
                    let moved = batch.len();
                    let task = batch.pop_front().expect("a steal moves at least one task");
                    // Only the owner fills its queue, so nothing can have
                    // arrived here since the pop above came back empty.
                    self.queue(rank).extend(batch);
                    self.steals[rank].fetch_add(1, Ordering::Relaxed);
                    Next::Stolen {
                        victim,
                        task,
                        moved,
                    }
                }
                None => Next::Idle,
            },
            None => Next::Idle,
        };
        if next != Next::Idle {
            self.executed[rank].fetch_add(1, Ordering::Relaxed);
        }
        next
    }

    /// Tasks `rank` has been handed so far (own pops plus consumed steals).
    pub fn executed(&self, rank: usize) -> u64 {
        self.executed[rank].load(Ordering::Relaxed)
    }

    /// Successful steals by `rank`.
    pub fn steals(&self, rank: usize) -> u64 {
        self.steals[rank].load(Ordering::Relaxed)
    }

    /// Tasks still queued on `rank`.
    fn remaining(&self, rank: usize) -> usize {
        self.queue(rank).len()
    }

    fn queue(&self, rank: usize) -> std::sync::MutexGuard<'_, VecDeque<u32>> {
        self.queues[rank].lock().expect("task queue poisoned")
    }

    /// Choose a victim by the policy, falling back to a row scan that
    /// takes from any open non-empty queue. Returns the victim and the
    /// batch moved off its tail.
    fn steal_for(&self, rank: usize) -> Option<(usize, VecDeque<u32>)> {
        let nprocs = self.grid.nprocs();
        // Fencing: the thief itself and doomed ranks are never victims.
        let open = |v: usize| v != rank && !self.fault.is_some_and(|p| p.is_doomed(v));
        let try_from = |v: usize, min: usize| {
            let batch = if open(v) { self.take(v, min) } else { None };
            batch.map(|b| (v, b))
        };
        let preferred = match self.steal.policy {
            VictimPolicy::RowScan => self
                .grid
                .steal_order(rank)
                .find_map(|v| try_from(v, MIN_BLOCK)),
            VictimPolicy::Random { seed } => {
                // Deterministic per-(rank, steal count) pseudo-random
                // probes.
                let mut state = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(rank as u64)
                    .wrapping_add(self.steals(rank));
                (0..nprocs).find_map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    try_from((state >> 33) as usize % nprocs, 1)
                })
            }
            VictimPolicy::MaxQueue => (0..nprocs)
                .filter(|&v| open(v))
                .map(|v| (v, self.remaining(v)))
                .filter(|&(_, len)| len > 0)
                .max_by_key(|&(_, len)| len)
                .and_then(|(v, _)| try_from(v, 1)),
        };
        preferred.or_else(|| self.grid.steal_order(rank).find_map(|v| try_from(v, 1)))
    }

    /// Move ⌈fraction·remaining⌉ tasks off `victim`'s tail, if it holds
    /// at least `min` (≥ 1).
    fn take(&self, victim: usize, min: usize) -> Option<VecDeque<u32>> {
        let mut q = self.queue(victim);
        let remaining = q.len();
        if remaining < min {
            return None;
        }
        let take = ((remaining as f64 * self.steal.fraction).ceil() as usize).clamp(1, remaining);
        Some(q.split_off(remaining - take))
    }
}

/// Deal the tasks no surviving rank flushed over the `live` ranks:
/// sorted ids, round-robin in `live` order. Both executors run it after
/// their join, so a fault plan gives the same per-rank requeue counts on
/// threads and in the simulator. Ranks dealt nothing are left out; with
/// no live rank nothing is dealt.
pub fn recovery_assignment(missing: &[usize], live: &[usize]) -> Vec<(usize, Vec<usize>)> {
    let mut ids = missing.to_vec();
    ids.sort_unstable();
    let mut out: Vec<(usize, Vec<usize>)> = live.iter().map(|&r| (r, Vec::new())).collect();
    if !out.is_empty() {
        let nlive = out.len();
        for (i, t) in ids.into_iter().enumerate() {
            out[i % nlive].1.push(t);
        }
    }
    out.retain(|(_, tasks)| !tasks.is_empty());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded(nprocs: usize, ntasks: u32, steal: StealConfig) -> Scheduler<'static> {
        let mut queues = vec![VecDeque::new(); nprocs];
        queues[0] = (0..ntasks).collect();
        Scheduler::with_queues(ProcessGrid::squarest(nprocs), steal, None, queues)
    }

    #[test]
    fn steal_moves_ceil_fraction_from_the_tail_and_runs_the_first() {
        let steal = StealConfig {
            fraction: 0.3,
            ..StealConfig::paper()
        };
        let s = loaded(2, 10, steal);
        // ⌈0.3·10⌉ = 3 tasks (7, 8, 9) leave the tail; 7 runs now.
        assert_eq!(
            s.next(1),
            Next::Stolen {
                victim: 0,
                task: 7,
                moved: 3
            }
        );
        assert_eq!((s.remaining(0), s.remaining(1)), (7, 2));
        assert_eq!(s.next(1), Next::Task(8));
        assert_eq!(s.next(0), Next::Task(0));
        assert_eq!((s.executed(1), s.steals(1)), (2, 1));
    }

    #[test]
    fn doomed_ranks_die_on_schedule_and_are_fenced() {
        let plan = FaultPlan::new(1).kill(0, 2);
        let mut queues = vec![VecDeque::new(); 2];
        queues[0] = (0..20).collect();
        let s = Scheduler::with_queues(
            ProcessGrid::new(1, 2),
            StealConfig::paper(),
            Some(&plan),
            queues,
        );
        assert_eq!(
            s.next(1),
            Next::Idle,
            "thieves never take from a doomed rank"
        );
        assert_eq!(s.next(0), Next::Task(0));
        assert_eq!(s.next(0), Next::Task(1));
        assert_eq!(s.next(0), Next::Died);
        assert_eq!(s.remaining(0), 18);
    }

    #[test]
    fn no_task_lost_under_concurrent_stealing() {
        // Four threads drain one loaded rank: every task is handed out
        // exactly once however the steals interleave.
        const N: u32 = 20_000;
        let s = loaded(4, N, StealConfig::paper());
        let runs: Vec<Vec<u32>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|rank| {
                    let s = &s;
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        loop {
                            match s.next(rank) {
                                Next::Task(t) | Next::Stolen { task: t, .. } => got.push(t),
                                Next::Idle => break got,
                                Next::Died => unreachable!("no fault plan"),
                            }
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut seen = vec![0u32; N as usize];
        for t in runs.iter().flatten() {
            seen[*t as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1), "a task ran twice or never");
        let executed: u64 = (0..4).map(|r| s.executed(r)).sum();
        assert_eq!(executed, N as u64);
    }

    #[test]
    fn recovery_deals_sorted_ids_round_robin() {
        let a = recovery_assignment(&[9, 2, 5, 7, 1], &[0, 3]);
        assert_eq!(a, vec![(0, vec![1, 5, 9]), (3, vec![2, 7])]);
        assert_eq!(recovery_assignment(&[4], &[1, 2]), vec![(1, vec![4])]);
        assert!(recovery_assignment(&[4], &[]).is_empty());
    }
}
