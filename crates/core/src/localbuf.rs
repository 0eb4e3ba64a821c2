//! Prefetched process-local D and F buffers (Section III-E).
//!
//! Before executing its task block, a process fetches every D shell-block
//! its tasks can read — the index sets (M, Φ(M)) for its block rows,
//! (N, Φ(N)) for its block columns, and (Φ(rows), Φ(cols)) — into a local
//! buffer, and accumulates all F updates into a local buffer of the same
//! shape. Communication then happens in a few bulk steps instead of once
//! per quartet, which is the heart of the paper's communication-cost
//! reduction.
//!
//! D and F share one layout: each stored shell block sits row-major at
//! the same offset in both. The buffers are a [`FockSink`]: a shell pair
//! stored only in the opposite orientation is served as the stored
//! block's transposed view (D is symmetric).
//! When flushing, every stored block is accumulated into the global F once,
//! in the orientation it is stored; the builder symmetrizes the assembled
//! F after the join ([`crate::sink::symmetrize`], see the `sink` module
//! docs), so each D block fetched is matched by one F block flushed.

use crate::partition::StaticPartition;
use crate::sink::{BlockView, FockSink};
use crate::tasks::FockProblem;
use chem::Shell;
use distrt::{GaError, GlobalArray};

/// Process-local prefetched D and accumulation F for one task block.
pub struct LocalBuffers {
    nshells: usize,
    /// Shell-pair (a*nshells+b) → offset into `dbuf`/`fbuf`, or -1.
    block_off: Vec<i64>,
    dbuf: Vec<f64>,
    fbuf: Vec<f64>,
    /// (a, b, offset) per stored ordered shell pair (for fetch/flush
    /// traversal).
    blocks: Vec<(u32, u32, usize)>,
}

impl LocalBuffers {
    /// Build the (empty) buffers covering the region of `rank`'s task
    /// block under `part`.
    pub fn for_process(prob: &FockProblem, part: &StaticPartition, rank: usize) -> Self {
        let nshells = prob.nshells();
        let (rows, cols) = part.task_block(rank);

        let mut block_off = vec![-1i64; nshells * nshells];
        let mut blocks = Vec::new();
        let mut size = 0usize;
        let mut add = |a: usize, b: usize| {
            let k = a * nshells + b;
            if block_off[k] < 0 {
                block_off[k] = size as i64;
                blocks.push((a as u32, b as u32, size));
                size += prob.basis.shells[a].nfuncs() * prob.basis.shells[b].nfuncs();
            }
        };

        // (M, Φ(M)) for block rows, then (N, Φ(N)) for block cols.
        for m in rows.clone().chain(cols.clone()) {
            for &p in prob.phi(m) {
                add(m, p as usize);
            }
        }
        // (Φ(rows), Φ(cols)), each union in first-seen order.
        let union = |shells: std::ops::Range<usize>| {
            let mut seen = vec![false; nshells];
            let mut out = Vec::new();
            for &p in shells.flat_map(|m| prob.phi(m)) {
                if !std::mem::replace(&mut seen[p as usize], true) {
                    out.push(p as usize);
                }
            }
            out
        };
        let phi_cols = union(cols);
        for a in union(rows) {
            for &b in &phi_cols {
                add(a, b);
            }
        }

        LocalBuffers {
            nshells,
            block_off,
            dbuf: vec![0.0; size],
            fbuf: vec![0.0; size],
            blocks,
        }
    }

    /// Prefetch all covered D blocks from the distributed array (one
    /// one-sided get per shell block, accounted to `rank`). Under fault
    /// injection a permanently dropped get aborts the prefetch (the buffer
    /// is left unusable).
    pub fn try_fetch_d(
        &mut self,
        prob: &FockProblem,
        d: &GlobalArray,
        rank: usize,
    ) -> Result<(), GaError> {
        let sh = &prob.basis.shells;
        for &(a, b, off) in &self.blocks {
            let (ra, rb) = (sh[a as usize].bf_range(), sh[b as usize].bf_range());
            let end = off + ra.len() * rb.len();
            d.try_get(rank, ra, rb, &mut self.dbuf[off..end])?;
        }
        Ok(())
    }

    /// Accumulate each stored F block once into the distributed F, in its
    /// stored orientation (one-sided accs, accounted). On `Err` the flush
    /// stopped mid-way: an unknown prefix of the buffer's blocks already
    /// landed in F, so the caller must treat the whole distributed F as
    /// compromised (the builders surface this as a failed build; the SCF
    /// driver rebuilds).
    pub fn try_flush_f(
        &self,
        prob: &FockProblem,
        f: &GlobalArray,
        rank: usize,
    ) -> Result<(), GaError> {
        let sh = &prob.basis.shells;
        for &(a, b, off) in &self.blocks {
            let (ra, rb) = (sh[a as usize].bf_range(), sh[b as usize].bf_range());
            let end = off + ra.len() * rb.len();
            f.try_acc(rank, ra, rb, &self.fbuf[off..end], 1.0)?;
        }
        Ok(())
    }
}

impl FockSink for LocalBuffers {
    /// The stored block of (a, b), or the stored (b, a) read transposed.
    #[inline]
    fn block(&self, shells: &[Shell], a: usize, b: usize) -> BlockView {
        let off = self.block_off[a * self.nshells + b];
        if off >= 0 {
            return BlockView::row_major(off as usize, shells[b].nfuncs());
        }
        let off = self.block_off[b * self.nshells + a];
        debug_assert!(off >= 0, "pair ({a},{b}) not covered by local region");
        BlockView::row_major(off as usize, shells[a].nfuncs()).transposed()
    }

    #[inline]
    fn slices(&mut self) -> (&[f64], &mut [f64]) {
        (&self.dbuf, &mut self.fbuf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chem::generators;
    use chem::reorder::ShellOrdering;
    use chem::BasisSetKind;
    use distrt::ProcessGrid;

    fn problem() -> FockProblem {
        FockProblem::new(
            generators::water(),
            BasisSetKind::Sto3g,
            1e-12,
            ShellOrdering::Natural,
        )
        .unwrap()
    }

    #[test]
    fn region_covers_needed_pairs() {
        let prob = problem();
        let part = StaticPartition::new(ProcessGrid::new(2, 2), prob.nshells());
        for rank in 0..4 {
            let buf = LocalBuffers::for_process(&prob, &part, rank);
            // Every quartet of every owned task must address only covered
            // pairs (directly or transposed).
            let covered = |a: usize, b: usize| {
                buf.block_off[a * prob.nshells() + b] >= 0
                    || buf.block_off[b * prob.nshells() + a] >= 0
            };
            for (m, n) in part.tasks_of(rank) {
                for &p in prob.phi(m) {
                    for &q in prob.phi(n) {
                        let (p, q) = (p as usize, q as usize);
                        if !prob.quartet_selected(m, p, n, q) {
                            continue;
                        }
                        for &(a, b) in &[(m, p), (n, q), (m, n), (m, q), (p, n), (p, q)] {
                            assert!(covered(a, b), "rank {rank}: pair ({a},{b}) uncovered");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fetch_roundtrips_d_values() {
        let prob = problem();
        let nbf = prob.nbf();
        let dense = crate::testutil::random_density(nbf, 1, 0.5);
        let grid = ProcessGrid::new(2, 2);
        let ga = GlobalArray::from_dense(grid, nbf, nbf, &dense);
        let part = StaticPartition::new(grid, prob.nshells());
        let sh = &prob.basis.shells;
        for rank in 0..4 {
            let mut buf = LocalBuffers::for_process(&prob, &part, rank);
            buf.try_fetch_d(&prob, &ga, rank).unwrap();
            // Every covered pair reads back correctly in both
            // orientations, the transposed one through swapped strides.
            for a in 0..prob.nshells() {
                for b in 0..prob.nshells() {
                    let k = a * prob.nshells() + b;
                    let kt = b * prob.nshells() + a;
                    if buf.block_off[k] < 0 && buf.block_off[kt] < 0 {
                        continue;
                    }
                    let view = buf.block(sh, a, b);
                    let (dbuf, _) = buf.slices();
                    for (r, i) in sh[a].bf_range().enumerate() {
                        for (c, j) in sh[b].bf_range().enumerate() {
                            assert_eq!(dbuf[view.at(r, c)], dense[i * nbf + j], "({i},{j})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn flush_produces_symmetric_sum() {
        let prob = problem();
        let nbf = prob.nbf();
        let grid = ProcessGrid::new(1, 1);
        let part = StaticPartition::new(grid, prob.nshells());
        let mut buf = LocalBuffers::for_process(&prob, &part, 0);
        // Element (r, c) of shell pair (a, b) through its block view.
        // Water/STO-3G: shells O 1s, O 2s, O 2p (functions 2..5), H, H.
        let mut f_add = |a: usize, b: usize, r: usize, c: usize, v: f64| {
            let view = buf.block(&prob.basis.shells, a, b);
            buf.slices().1[view.at(r, c)] += v;
        };
        f_add(0, 2, 0, 1, 2.0); // F[0][3]
        f_add(2, 0, 1, 0, 2.0); // F[3][0]
        f_add(1, 1, 0, 0, 5.0); // F[1][1]
        let f = GlobalArray::zeros(grid, nbf, nbf);
        buf.try_flush_f(&prob, &f, 0).unwrap();
        let d = f.to_dense();
        assert!((d[3] - 2.0).abs() < 1e-15, "F[0,3] = {}", d[3]);
        assert!((d[3 * nbf] - 2.0).abs() < 1e-15);
        assert!((d[nbf + 1] - 5.0).abs() < 1e-15);
    }

    #[test]
    fn fetch_records_communication() {
        let prob = problem();
        let nbf = prob.nbf();
        let grid = ProcessGrid::new(2, 1);
        let ga = GlobalArray::zeros(grid, nbf, nbf);
        let part = StaticPartition::new(grid, prob.nshells());
        let mut buf = LocalBuffers::for_process(&prob, &part, 1);
        buf.try_fetch_d(&prob, &ga, 1).unwrap();
        let s = ga.stats(1);
        assert!(s.get_calls as usize >= buf.blocks.len());
        assert!(s.get_bytes >= (buf.dbuf.len() * 8) as u64);
    }
}
