//! A Global-Arrays-like distributed 2-D array.
//!
//! The array is partitioned in a 2-D blocked layout over a process grid
//! (the paper's layout for F and D, Section III-E). Processes access
//! arbitrary rectangular patches through one-sided `get`, `put` and `acc`
//! operations; each patch access is decomposed into one call per touched
//! owner block, mirroring how Global Arrays issues transfers, and is
//! recorded in the caller's [`CommStats`].
//!
//! Storage is shared memory guarded by per-block locks — which is exactly
//! how real GA behaves inside a node; "remote" vs "local" is an accounting
//! distinction, the one the paper's Tables VI/VII measure.

use crate::fault::{FaultPlan, FaultState, GaError};
use crate::grid::{block_owner, ProcessGrid};
use crate::stats::CommStats;
use obs::{fault_code, EventKind, Recorder};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// Distributed dense `nrows × ncols` matrix of f64.
pub struct GlobalArray {
    pub grid: ProcessGrid,
    pub nrows: usize,
    pub ncols: usize,
    /// One block per rank, row-major within the block. Block and stats
    /// locks ignore poison (`PoisonError::into_inner`): a test that
    /// panics while holding one, e.g. under fault injection, must not
    /// take the array down for every other rank.
    blocks: Vec<RwLock<Vec<f64>>>,
    stats: Vec<Mutex<CommStats>>,
    /// Telemetry sink: every one-sided call is also emitted as a
    /// per-caller comm event (disabled recorder = one branch per call).
    rec: Recorder,
    /// Fault injection, off by default. When set, every one-sided op
    /// consults the plan before touching memory.
    fault: Option<FaultState>,
}

/// Lock a stats slot, ignoring poison. Every stats update is a set of
/// plain counter additions, so a panicking holder leaves valid counts.
fn lock_stats(m: &Mutex<CommStats>) -> MutexGuard<'_, CommStats> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl GlobalArray {
    /// Zero-initialized distributed array.
    pub fn zeros(grid: ProcessGrid, nrows: usize, ncols: usize) -> Self {
        let blocks = (0..grid.nprocs())
            .map(|rank| {
                let (r, c) = grid.coords(rank);
                let nr = grid.row_block(nrows, r).len();
                let nc = grid.col_block(ncols, c).len();
                RwLock::new(vec![0.0; nr * nc])
            })
            .collect();
        let stats = (0..grid.nprocs())
            .map(|_| Mutex::new(CommStats::default()))
            .collect();
        GlobalArray {
            grid,
            nrows,
            ncols,
            blocks,
            stats,
            rec: Recorder::disabled(),
            fault: None,
        }
    }

    /// Attach a telemetry recorder: subsequent one-sided ops emit
    /// `CommGet`/`CommPut`/`CommAcc` events attributed to the caller rank
    /// (via the recorder's side streams — callers usually hold their
    /// worker lane higher up the stack).
    pub fn attach_recorder(&mut self, rec: &Recorder) {
        self.rec = rec.clone();
    }

    /// Arm fault injection: subsequent one-sided ops roll the plan's
    /// drop probability (deterministically, per caller) before
    /// touching memory. Use the `try_*` variants to observe failures;
    /// the infallible `get`/`put`/`acc` panic if retries are exhausted.
    pub fn inject_faults(&mut self, plan: Arc<FaultPlan>) {
        self.fault = Some(FaultState::new(plan, self.grid.nprocs()));
    }

    /// Build from a dense row-major matrix (no communication recorded).
    pub fn from_dense(grid: ProcessGrid, nrows: usize, ncols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), nrows * ncols);
        let ga = GlobalArray::zeros(grid, nrows, ncols);
        for rank in 0..grid.nprocs() {
            let (r, c) = grid.coords(rank);
            let rr = grid.row_block(nrows, r);
            let cc = grid.col_block(ncols, c);
            let mut blk = ga.blocks[rank]
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            for (bi, i) in rr.clone().enumerate() {
                for (bj, j) in cc.clone().enumerate() {
                    blk[bi * cc.len() + bj] = data[i * ncols + j];
                }
            }
        }
        ga
    }

    /// Gather the whole array to a dense row-major matrix (no communication
    /// recorded; verification/diagnostics only).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.nrows * self.ncols];
        for rank in 0..self.grid.nprocs() {
            let (r, c) = self.grid.coords(rank);
            let rr = self.grid.row_block(self.nrows, r);
            let cc = self.grid.col_block(self.ncols, c);
            let blk = self.blocks[rank]
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            for (bi, i) in rr.clone().enumerate() {
                for (bj, j) in cc.clone().enumerate() {
                    out[i * self.ncols + j] = blk[bi * cc.len() + bj];
                }
            }
        }
        out
    }

    /// One-sided get of patch (`rows`, `cols`) into `out` (row-major
    /// rows.len() × cols.len()), issued by process `caller`. Panics if
    /// fault injection exhausts the retry budget — use [`Self::try_get`]
    /// in fault-aware code.
    pub fn get(&self, caller: usize, rows: Range<usize>, cols: Range<usize>, out: &mut [f64]) {
        self.try_get(caller, rows, cols, out)
            .expect("one-sided get failed");
    }

    /// Fallible variant of [`Self::get`]: under fault injection a dropped
    /// op is retried with backoff; `Err` means the retry budget ran out
    /// (no data was transferred).
    pub fn try_get(
        &self,
        caller: usize,
        rows: Range<usize>,
        cols: Range<usize>,
        out: &mut [f64],
    ) -> Result<(), GaError> {
        let w = cols.len();
        assert!(out.len() >= rows.len() * w, "output buffer too small");
        self.op_gate("get", caller)?;
        self.for_each_block(
            caller,
            rows.clone(),
            cols.clone(),
            OpKind::Get,
            |blk, ri, ci, bw, bro, bco| {
                let b = blk.read().unwrap_or_else(PoisonError::into_inner);
                for i in ri.clone() {
                    let src = (i - bro) * bw + (ci.start - bco);
                    let dst = (i - rows.start) * w + (ci.start - cols.start);
                    out[dst..dst + ci.len()].copy_from_slice(&b[src..src + ci.len()]);
                }
            },
        );
        Ok(())
    }

    /// One-sided put of `data` (row-major rows.len() × cols.len()).
    /// Panics if fault injection exhausts the retry budget.
    pub fn put(&self, caller: usize, rows: Range<usize>, cols: Range<usize>, data: &[f64]) {
        self.try_put(caller, rows, cols, data)
            .expect("one-sided put failed");
    }

    /// Fallible variant of [`Self::put`]; `Err` means nothing was written.
    pub fn try_put(
        &self,
        caller: usize,
        rows: Range<usize>,
        cols: Range<usize>,
        data: &[f64],
    ) -> Result<(), GaError> {
        let w = cols.len();
        assert!(data.len() >= rows.len() * w, "input buffer too small");
        self.op_gate("put", caller)?;
        self.for_each_block(
            caller,
            rows.clone(),
            cols.clone(),
            OpKind::Put,
            |blk, ri, ci, bw, bro, bco| {
                let mut b = blk.write().unwrap_or_else(PoisonError::into_inner);
                for i in ri.clone() {
                    let dst = (i - bro) * bw + (ci.start - bco);
                    let src = (i - rows.start) * w + (ci.start - cols.start);
                    b[dst..dst + ci.len()].copy_from_slice(&data[src..src + ci.len()]);
                }
            },
        );
        Ok(())
    }

    /// One-sided atomic accumulate: patch += scale * data. Panics if
    /// fault injection exhausts the retry budget.
    pub fn acc(
        &self,
        caller: usize,
        rows: Range<usize>,
        cols: Range<usize>,
        data: &[f64],
        scale: f64,
    ) {
        self.try_acc(caller, rows, cols, data, scale)
            .expect("one-sided acc failed");
    }

    /// Fallible variant of [`Self::acc`]. The drop decision is made
    /// *before* any memory is touched, so a failed attempt accumulates
    /// nothing and retrying can never double-count — the invariant the
    /// exactly-once Fock recovery relies on.
    pub fn try_acc(
        &self,
        caller: usize,
        rows: Range<usize>,
        cols: Range<usize>,
        data: &[f64],
        scale: f64,
    ) -> Result<(), GaError> {
        let w = cols.len();
        assert!(data.len() >= rows.len() * w, "input buffer too small");
        self.op_gate("acc", caller)?;
        self.for_each_block(
            caller,
            rows.clone(),
            cols.clone(),
            OpKind::Acc,
            |blk, ri, ci, bw, bro, bco| {
                let mut b = blk.write().unwrap_or_else(PoisonError::into_inner);
                for i in ri.clone() {
                    let dst = (i - bro) * bw + (ci.start - bco);
                    let src = (i - rows.start) * w + (ci.start - cols.start);
                    for k in 0..ci.len() {
                        b[dst + k] += scale * data[src + k];
                    }
                }
            },
        );
        Ok(())
    }

    /// Fault gate run once per public one-sided op, before any memory is
    /// touched. Injected drops retry with growing (capped) backoff — each
    /// attempt draws a fresh deterministic random number — until the budget
    /// runs out, at which point the whole op fails having transferred
    /// nothing.
    fn op_gate(&self, op: &'static str, caller: usize) -> Result<(), GaError> {
        let Some(fs) = &self.fault else {
            return Ok(());
        };
        let plan = fs.plan();
        if plan.drop_prob <= 0.0 {
            return Ok(());
        }
        let mut attempts: u32 = 0;
        loop {
            attempts += 1;
            let idx = fs.next_op(caller);
            if !plan.drops_op(caller, idx) {
                return Ok(());
            }
            lock_stats(&self.stats[caller]).retry_calls += 1;
            self.rec.counter(obs::names::FAULT_INJECTED).add(1);
            self.rec.counter(obs::names::GA_RETRIES).add(1);
            self.rec.side_event(
                caller,
                EventKind::Fault {
                    code: fault_code::OP_DROP,
                    detail: attempts,
                },
            );
            if attempts > plan.max_retries {
                return Err(GaError {
                    op,
                    caller,
                    attempts,
                });
            }
            std::thread::sleep(plan.backoff * attempts.min(8));
        }
    }

    /// Communication stats recorded for `rank` since the last reset.
    pub fn stats(&self, rank: usize) -> CommStats {
        *lock_stats(&self.stats[rank])
    }

    /// Sum of all processes' stats, as one consistent snapshot: all
    /// per-rank locks are held simultaneously (acquired in rank order)
    /// while summing. Since each one-sided op publishes its whole patch
    /// delta under a single lock acquisition, the total observes every op
    /// entirely or not at all — previously the locks were taken one at a
    /// time, so a concurrent `reset_stats` (or a multi-rank op sequence)
    /// could be half-counted.
    pub fn stats_total(&self) -> CommStats {
        let guards: Vec<_> = self.stats.iter().map(lock_stats).collect();
        let mut t = CommStats::default();
        for g in &guards {
            t.merge(g);
        }
        t
    }

    /// Zero all per-rank stats atomically with respect to in-flight ops
    /// and `stats_total`: same all-locks-in-rank-order protocol, so a
    /// concurrent total never sees a partially reset fleet. Deadlock-free
    /// because ops only ever hold one stats lock at a time.
    pub fn reset_stats(&self) {
        let mut guards: Vec<_> = self.stats.iter().map(lock_stats).collect();
        for g in guards.iter_mut() {
            **g = CommStats::default();
        }
    }

    /// Owner rank of element (i, j).
    pub fn owner(&self, i: usize, j: usize) -> usize {
        self.grid.owner(self.nrows, self.ncols, i, j)
    }

    /// Decompose a patch into per-owner-block pieces, record accounting,
    /// and run `f` on each piece. `f` receives the block lock, the global
    /// row range and col range of the piece, the block's row width, and the
    /// block's global row/col origin.
    fn for_each_block<F>(
        &self,
        caller: usize,
        rows: Range<usize>,
        cols: Range<usize>,
        kind: OpKind,
        mut f: F,
    ) where
        F: FnMut(&RwLock<Vec<f64>>, &Range<usize>, &Range<usize>, usize, usize, usize),
    {
        assert!(
            rows.end <= self.nrows && cols.end <= self.ncols,
            "patch out of bounds"
        );
        if rows.is_empty() || cols.is_empty() {
            return;
        }
        let g = self.grid;
        let r0 = block_owner(self.nrows, g.prow, rows.start);
        let r1 = block_owner(self.nrows, g.prow, rows.end - 1);
        let c0 = block_owner(self.ncols, g.pcol, cols.start);
        let c1 = block_owner(self.ncols, g.pcol, cols.end - 1);
        // Accumulate accounting locally and publish it under the caller's
        // stats lock once at the end — holding the lock across the block
        // copies (and the user callback) would serialize every concurrent
        // reader of this rank's stats against the whole patch transfer.
        let mut delta = CommStats::default();
        for br in r0..=r1 {
            let rb = g.row_block(self.nrows, br);
            let ri = rows.start.max(rb.start)..rows.end.min(rb.end);
            if ri.is_empty() {
                continue;
            }
            for bc in c0..=c1 {
                let cb = g.col_block(self.ncols, bc);
                let ci = cols.start.max(cb.start)..cols.end.min(cb.end);
                if ci.is_empty() {
                    continue;
                }
                let rank = g.rank(br, bc);
                let bytes = (ri.len() * ci.len() * std::mem::size_of::<f64>()) as u64;
                match kind {
                    OpKind::Get => {
                        delta.get_calls += 1;
                        delta.get_bytes += bytes;
                        self.rec.side_event(caller, EventKind::CommGet { bytes });
                    }
                    OpKind::Put => {
                        delta.put_calls += 1;
                        delta.put_bytes += bytes;
                        self.rec.side_event(caller, EventKind::CommPut { bytes });
                    }
                    OpKind::Acc => {
                        delta.acc_calls += 1;
                        delta.acc_bytes += bytes;
                        self.rec.side_event(caller, EventKind::CommAcc { bytes });
                    }
                }
                if rank == caller {
                    delta.local_calls += 1;
                    delta.local_bytes += bytes;
                }
                f(&self.blocks[rank], &ri, &ci, cb.len(), rb.start, cb.start);
            }
        }
        lock_stats(&self.stats[caller]).merge(&delta);
    }
}

#[derive(Clone, Copy)]
enum OpKind {
    Get,
    Put,
    Acc,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(n: usize, m: usize) -> Vec<f64> {
        (0..n * m).map(|k| k as f64).collect()
    }

    #[test]
    fn dense_roundtrip() {
        let g = ProcessGrid::new(2, 3);
        let d = dense(7, 11);
        let ga = GlobalArray::from_dense(g, 7, 11, &d);
        assert_eq!(ga.to_dense(), d);
    }

    #[test]
    fn get_patch_matches_dense() {
        let g = ProcessGrid::new(3, 2);
        let d = dense(9, 8);
        let ga = GlobalArray::from_dense(g, 9, 8, &d);
        let (rows, cols) = (2..7usize, 1..6usize);
        let mut out = vec![0.0; rows.len() * cols.len()];
        ga.get(0, rows.clone(), cols.clone(), &mut out);
        for (ii, i) in rows.clone().enumerate() {
            for (jj, j) in cols.clone().enumerate() {
                assert_eq!(out[ii * cols.len() + jj], d[i * 8 + j]);
            }
        }
    }

    #[test]
    fn put_then_get_roundtrip() {
        let g = ProcessGrid::new(2, 2);
        let ga = GlobalArray::zeros(g, 6, 6);
        let patch: Vec<f64> = (0..12).map(|k| k as f64 + 0.5).collect();
        ga.put(1, 1..4, 2..6, &patch);
        let mut out = vec![0.0; 12];
        ga.get(2, 1..4, 2..6, &mut out);
        assert_eq!(out, patch);
    }

    #[test]
    fn acc_accumulates_with_scale() {
        let g = ProcessGrid::new(2, 2);
        let ga = GlobalArray::zeros(g, 4, 4);
        let ones = vec![1.0; 4];
        ga.acc(0, 0..2, 0..2, &ones, 2.0);
        ga.acc(3, 0..2, 0..2, &ones, 0.5);
        let mut out = vec![0.0; 4];
        ga.get(0, 0..2, 0..2, &mut out);
        assert!(out.iter().all(|&v| (v - 2.5).abs() < 1e-15));
    }

    #[test]
    fn call_accounting_one_per_touched_block() {
        let g = ProcessGrid::new(2, 2);
        let ga = GlobalArray::zeros(g, 8, 8);
        // Patch spanning all 4 blocks → 4 get calls.
        let mut out = vec![0.0; 36];
        ga.get(0, 2..8, 2..8, &mut out);
        let s = ga.stats(0);
        assert_eq!(s.get_calls, 4);
        assert_eq!(s.get_bytes, 36 * 8);
        // One of the four blocks is caller-owned.
        assert_eq!(s.local_calls, 1);
    }

    #[test]
    fn local_accounting() {
        let g = ProcessGrid::new(2, 2);
        let ga = GlobalArray::zeros(g, 8, 8);
        // Rank 0 owns rows 0..4, cols 0..4; an access inside is fully local.
        let mut out = vec![0.0; 4];
        ga.get(0, 0..2, 0..2, &mut out);
        let s = ga.stats(0);
        assert_eq!(s.get_calls, 1);
        assert_eq!(s.local_calls, 1);
        assert_eq!(s.remote_calls(), 0);
    }

    #[test]
    fn stats_reset_and_total() {
        let g = ProcessGrid::new(1, 2);
        let ga = GlobalArray::zeros(g, 4, 4);
        let mut out = vec![0.0; 16];
        ga.get(0, 0..4, 0..4, &mut out);
        ga.get(1, 0..4, 0..4, &mut out);
        let t = ga.stats_total();
        assert_eq!(t.get_calls, 4); // each full get touches 2 blocks
        ga.reset_stats();
        assert_eq!(ga.stats_total().total_calls(), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_patch_panics() {
        let g = ProcessGrid::new(1, 1);
        let ga = GlobalArray::zeros(g, 4, 4);
        let mut out = vec![0.0; 16];
        ga.get(0, 0..5, 0..4, &mut out);
    }

    #[test]
    fn concurrent_accumulates_are_atomic() {
        // Many threads accumulating into overlapping patches must produce
        // the exact sum — the property Fock flushes rely on.
        let g = ProcessGrid::new(2, 2);
        let ga = std::sync::Arc::new(GlobalArray::zeros(g, 12, 12));
        let nthreads = 8;
        let reps = 50;
        std::thread::scope(|s| {
            for t in 0..nthreads {
                let ga = ga.clone();
                s.spawn(move || {
                    let ones = vec![1.0; 36];
                    for _ in 0..reps {
                        ga.acc(t % 4, 3..9, 3..9, &ones, 1.0);
                    }
                });
            }
        });
        let d = ga.to_dense();
        let want = (nthreads * reps) as f64;
        for i in 3..9 {
            for j in 3..9 {
                assert_eq!(d[i * 12 + j], want, "({i},{j})");
            }
        }
        // Outside the patch untouched.
        assert_eq!(d[0], 0.0);
        // Accounting: each acc spanning 4 blocks → 4 calls each.
        let total = ga.stats_total();
        assert_eq!(total.acc_calls, (nthreads * reps * 4) as u64);
    }

    #[test]
    fn recorder_sees_every_one_sided_call() {
        let rec = Recorder::enabled();
        let g = ProcessGrid::new(2, 2);
        let mut ga = GlobalArray::zeros(g, 8, 8);
        ga.attach_recorder(&rec);
        let mut out = vec![0.0; 36];
        ga.get(1, 2..8, 2..8, &mut out); // spans all 4 blocks
        ga.acc(1, 0..2, 0..2, &[1.0; 4], 1.0); // 1 block
        let s = ga.stats(1);
        let r = rec.recording().expect("recording");
        let totals = &r.worker_totals()[1];
        assert_eq!(totals.get_calls, s.get_calls);
        assert_eq!(totals.get_bytes, s.get_bytes);
        assert_eq!(totals.acc_calls, s.acc_calls);
        assert_eq!(totals.acc_bytes, s.acc_bytes);
    }

    #[test]
    fn more_procs_than_rows() {
        // Degenerate but legal: 5×5 matrix on a 8-process grid row.
        let g = ProcessGrid::new(4, 2);
        let d = dense(5, 5);
        let ga = GlobalArray::from_dense(g, 5, 5, &d);
        assert_eq!(ga.to_dense(), d);
    }

    #[test]
    fn dropped_accs_retry_to_exact_sum() {
        // Aggressive drop rate, generous retry budget: every acc must
        // still land exactly once (drop-before-apply + retry).
        use crate::fault::FaultPlan;
        let g = ProcessGrid::new(2, 2);
        let mut ga = GlobalArray::zeros(g, 6, 6);
        let plan = FaultPlan::new(99)
            .drop_ops(0.5)
            .retries(40, std::time::Duration::ZERO);
        ga.inject_faults(Arc::new(plan));
        let ones = vec![1.0; 36];
        let reps = 40;
        for r in 0..reps {
            ga.try_acc(r % 4, 0..6, 0..6, &ones, 1.0).expect("acc");
        }
        let d = ga.to_dense();
        assert!(d.iter().all(|&v| v == reps as f64));
        assert!(ga.stats_total().retry_calls > 0, "no drops were rolled");
    }

    #[test]
    fn exhausted_retries_fail_without_side_effects() {
        use crate::fault::FaultPlan;
        let g = ProcessGrid::new(1, 1);
        let mut ga = GlobalArray::zeros(g, 4, 4);
        // Certain-ish drop with zero retries: the op must fail and the
        // array must be untouched.
        let plan = FaultPlan::new(7)
            .drop_ops(0.999_999)
            .retries(0, std::time::Duration::ZERO);
        ga.inject_faults(Arc::new(plan));
        let ones = vec![1.0; 16];
        let err = ga.try_acc(0, 0..4, 0..4, &ones, 1.0).unwrap_err();
        assert_eq!(err.op, "acc");
        assert!(ga.to_dense().iter().all(|&v| v == 0.0));
        // Accounting: the failed op shows up only as retries.
        let t = ga.stats_total();
        assert_eq!(t.acc_calls, 0);
        assert_eq!(t.retry_calls, 1);
    }

    #[test]
    fn fault_free_plan_changes_nothing() {
        use crate::fault::FaultPlan;
        let g = ProcessGrid::new(2, 2);
        let mut ga = GlobalArray::zeros(g, 4, 4);
        ga.inject_faults(Arc::new(FaultPlan::new(1)));
        let ones = vec![1.0; 16];
        ga.try_acc(0, 0..4, 0..4, &ones, 2.0).expect("acc");
        assert!(ga.to_dense().iter().all(|&v| v == 2.0));
        assert_eq!(ga.stats_total().retry_calls, 0);
    }

    #[test]
    fn stats_snapshot_consistent_with_concurrent_reset() {
        // Hammer ops, totals and resets concurrently: every snapshot must
        // be internally consistent (bytes = 32 × calls for these 4-element
        // single-block accs), no deadlock, and a final quiescent total of
        // zero after a last reset.
        use std::sync::atomic::{AtomicBool, Ordering};
        let g = ProcessGrid::new(1, 2);
        let ga = std::sync::Arc::new(GlobalArray::zeros(g, 4, 4));
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..2 {
                let ga = ga.clone();
                let stop = &stop;
                s.spawn(move || {
                    let ones = vec![1.0; 4];
                    while !stop.load(Ordering::Relaxed) {
                        ga.acc(t, 0..2, 0..2, &ones, 1.0);
                    }
                });
            }
            for i in 0..500 {
                let snap = ga.stats_total();
                assert_eq!(
                    snap.acc_bytes,
                    snap.acc_calls * 32,
                    "torn snapshot at iteration {i}"
                );
                if i % 50 == 0 {
                    ga.reset_stats();
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
        ga.reset_stats();
        assert_eq!(ga.stats_total().total_calls(), 0);
    }
}
