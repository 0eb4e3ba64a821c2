//! Deterministic, seed-driven fault injection for the simulated runtime.
//!
//! A [`FaultPlan`] describes every fault a run should experience: ranks
//! that die after executing a fixed number of their own tasks, straggler
//! ranks whose compute is slowed by a factor, and a per-operation drop
//! probability for one-sided GA calls. All randomness is derived from a
//! splitmix64 hash of `(seed, caller rank, per-caller op index)`, so two
//! runs with the same plan inject byte-identical fault sequences — the
//! property the determinism tests in `tests/fault_injection.rs` assert.
//!
//! Rank death is keyed on a *task count*, not wall-clock time: "rank r dies
//! after finishing `after_tasks` of its own tasks" is reproducible on real
//! threads, where wall-clock death points would race with the scheduler.
//! Schedulers additionally *fence* doomed ranks from thieves (no one steals
//! from a rank the plan will kill), so the lost-task set — and hence the
//! requeue count — is exactly the dead rank's static partition whenever
//! `after_tasks` is smaller than that partition.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Salt of the drop roll of one op.
const SALT_DROP: u64 = 0x1;

/// Rank `rank` dies after executing `after_tasks` of its own tasks;
/// everything it computed but never flushed is lost and must be requeued.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankDeath {
    pub rank: usize,
    pub after_tasks: u64,
}

/// Rank `rank`'s compute runs `slowdown`× slower (1.0 = no effect).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Straggler {
    pub rank: usize,
    pub slowdown: f64,
}

/// A deterministic schedule of faults to inject into one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all probabilistic decisions (op drops).
    pub seed: u64,
    pub deaths: Vec<RankDeath>,
    pub stragglers: Vec<Straggler>,
    /// Per one-sided-op probability that the op is dropped before it
    /// touches memory (the caller retries with backoff).
    pub drop_prob: f64,
    /// Attempts beyond the first before a dropped op becomes a [`GaError`].
    pub max_retries: u32,
    /// Base backoff between retries (doubled per attempt by callers that
    /// sleep; the DES charges `op_timeout` per retry).
    pub backoff: Duration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            deaths: Vec::new(),
            stragglers: Vec::new(),
            drop_prob: 0.0,
            max_retries: 16,
            backoff: Duration::from_micros(20),
        }
    }
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Schedule `rank` to die after `after_tasks` of its own tasks.
    pub fn kill(mut self, rank: usize, after_tasks: u64) -> Self {
        self.deaths.push(RankDeath { rank, after_tasks });
        self
    }

    /// Slow `rank`'s compute down by `slowdown`×.
    pub fn straggle(mut self, rank: usize, slowdown: f64) -> Self {
        assert!(slowdown >= 1.0, "slowdown factor must be >= 1");
        self.stragglers.push(Straggler { rank, slowdown });
        self
    }

    /// Drop each one-sided op with probability `p` (retried with backoff).
    pub fn drop_ops(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability must be in [0,1)");
        self.drop_prob = p;
        self
    }

    /// Override the retry budget and base backoff for dropped ops.
    pub fn retries(mut self, max_retries: u32, backoff: Duration) -> Self {
        self.max_retries = max_retries;
        self.backoff = backoff;
        self
    }

    /// Task count after which `rank` dies, if the plan kills it.
    pub fn death_after(&self, rank: usize) -> Option<u64> {
        self.deaths
            .iter()
            .find(|d| d.rank == rank)
            .map(|d| d.after_tasks)
    }

    /// True if the plan kills `rank` at any point. Schedulers use this to
    /// fence doomed ranks from thieves, keeping the lost-task set
    /// deterministic.
    pub fn is_doomed(&self, rank: usize) -> bool {
        self.deaths.iter().any(|d| d.rank == rank)
    }

    /// Compute slowdown factor for `rank` (1.0 when not a straggler).
    pub fn slowdown(&self, rank: usize) -> f64 {
        self.stragglers
            .iter()
            .find(|s| s.rank == rank)
            .map_or(1.0, |s| s.slowdown)
    }

    /// True if any fault source is active.
    pub fn is_active(&self) -> bool {
        !self.deaths.is_empty() || !self.stragglers.is_empty() || self.drop_prob > 0.0
    }

    /// Deterministic uniform draw in [0, 1) for attempt `op` of `caller`.
    fn roll(&self, caller: usize, op: u64, salt: u64) -> f64 {
        let h = mix(mix(mix(self.seed ^ (caller as u64)) ^ op) ^ salt);
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Should attempt `op` by `caller` be dropped?
    pub fn drops_op(&self, caller: usize, op: u64) -> bool {
        self.drop_prob > 0.0 && self.roll(caller, op, SALT_DROP) < self.drop_prob
    }

    /// Number of dropped attempts before op `op` of `caller` succeeds,
    /// capped at `max_retries` (the DES uses this to charge retry latency
    /// without looping).
    pub fn retries_for(&self, caller: usize, op: u64) -> u32 {
        if self.drop_prob <= 0.0 {
            return 0;
        }
        let mut n = 0;
        // Consecutive attempts of the same logical op draw from successive
        // op indices, mirroring the real-thread retry loop.
        while n < self.max_retries && self.drops_op(caller, op.wrapping_add(n as u64)) {
            n += 1;
        }
        n
    }
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-array runtime state for fault injection: the plan plus one op
/// counter per caller rank, so every attempt draws a fresh deterministic
/// random number.
pub struct FaultState {
    plan: Arc<FaultPlan>,
    ops: Vec<AtomicU64>,
}

impl FaultState {
    pub fn new(plan: Arc<FaultPlan>, nprocs: usize) -> Self {
        let ops = (0..nprocs).map(|_| AtomicU64::new(0)).collect();
        FaultState { plan, ops }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Next op index for `caller` (each retry attempt consumes one).
    pub fn next_op(&self, caller: usize) -> u64 {
        self.ops[caller].fetch_add(1, Ordering::Relaxed)
    }
}

/// A one-sided operation that failed permanently: every retry was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaError {
    /// Operation kind: "get", "put" or "acc".
    pub op: &'static str,
    /// Rank that issued the op.
    pub caller: usize,
    /// Attempts made (initial try + retries).
    pub attempts: u32,
}

impl std::fmt::Display for GaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "one-sided {} by rank {} dropped after {} attempts",
            self.op, self.caller, self.attempts
        )
    }
}

impl std::error::Error for GaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_deterministic_and_uniformish() {
        let p = FaultPlan::new(42).drop_ops(0.25);
        let a: Vec<bool> = (0..1000).map(|op| p.drops_op(3, op)).collect();
        let b: Vec<bool> = (0..1000).map(|op| p.drops_op(3, op)).collect();
        assert_eq!(a, b);
        let hits = a.iter().filter(|&&x| x).count();
        // 25% ± generous slack.
        assert!((150..350).contains(&hits), "got {hits} drops of 1000");
    }

    #[test]
    fn different_callers_draw_independent_streams() {
        let p = FaultPlan::new(7).drop_ops(0.5);
        let a: Vec<bool> = (0..256).map(|op| p.drops_op(0, op)).collect();
        let b: Vec<bool> = (0..256).map(|op| p.drops_op(1, op)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn plan_queries() {
        let p = FaultPlan::new(1).kill(2, 5).straggle(3, 1.5);
        assert_eq!(p.death_after(2), Some(5));
        assert_eq!(p.death_after(0), None);
        assert!(p.is_doomed(2));
        assert!(!p.is_doomed(3));
        assert_eq!(p.slowdown(3), 1.5);
        assert_eq!(p.slowdown(2), 1.0);
        assert!(p.is_active());
        assert!(!FaultPlan::new(9).is_active());
    }

    #[test]
    fn retries_for_bounded_by_budget() {
        let p = FaultPlan::new(3).drop_ops(0.99).retries(4, Duration::ZERO);
        for op in 0..64 {
            assert!(p.retries_for(0, op) <= 4);
        }
    }

    #[test]
    fn fault_state_counters_are_per_caller() {
        let fs = FaultState::new(Arc::new(FaultPlan::new(0)), 2);
        assert_eq!(fs.next_op(0), 0);
        assert_eq!(fs.next_op(0), 1);
        assert_eq!(fs.next_op(1), 0);
    }

    #[test]
    fn ga_error_displays() {
        let e = GaError {
            op: "acc",
            caller: 3,
            attempts: 17,
        };
        assert!(e.to_string().contains("acc"));
        assert!(e.to_string().contains("rank 3"));
    }
}
