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
//! Updates and reads arrive for *ordered* shell pairs; a pair stored only
//! in the opposite orientation is served transposed (D is symmetric).
//! When flushing, every stored block is accumulated into the global F once,
//! in the orientation it is stored; the builder symmetrizes the assembled
//! F after the join ([`crate::sink::symmetrize`], see the `sink` module
//! docs), so each D block fetched is matched by one F block flushed.

use crate::partition::StaticPartition;
use crate::sink::FockSink;
use crate::tasks::FockProblem;
use distrt::{GaError, GlobalArray};

/// Process-local prefetched D and accumulation F for one task block.
pub struct LocalBuffers {
    nshells: usize,
    /// Shell-pair (a*nshells+b) → offset into `dbuf`/`fbuf`, or -1.
    block_off: Vec<i64>,
    dbuf: Vec<f64>,
    fbuf: Vec<f64>,
    /// Ordered shell pairs actually stored (for fetch/flush traversal).
    blocks: Vec<(u32, u32)>,
    /// bf index → owning shell.
    shell_of_bf: Vec<u32>,
}

impl LocalBuffers {
    /// Build the (empty) buffers covering the region of `rank`'s task
    /// block under `part`.
    pub fn for_process(prob: &FockProblem, part: &StaticPartition, rank: usize) -> Self {
        let nshells = prob.nshells();
        let (rows, cols) = part.task_block(rank);

        let mut block_off = vec![-1i64; nshells * nshells];
        let mut blocks: Vec<(u32, u32)> = Vec::new();
        let mut size = 0usize;
        let add = |a: usize,
                   b: usize,
                   blocks: &mut Vec<(u32, u32)>,
                   off: &mut Vec<i64>,
                   size: &mut usize| {
            let k = a * nshells + b;
            if off[k] < 0 {
                off[k] = *size as i64;
                *size += prob.basis.shells[a].nfuncs() * prob.basis.shells[b].nfuncs();
                blocks.push((a as u32, b as u32));
            }
        };

        // (M, Φ(M)) for block rows; (N, Φ(N)) for block cols.
        for m in rows.clone() {
            for &p in prob.phi(m) {
                add(m, p as usize, &mut blocks, &mut block_off, &mut size);
            }
        }
        for n in cols.clone() {
            for &q in prob.phi(n) {
                add(n, q as usize, &mut blocks, &mut block_off, &mut size);
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
                add(a, b, &mut blocks, &mut block_off, &mut size);
            }
        }

        let shell_of_bf: Vec<u32> = prob.basis.shell_of_bf().iter().map(|&s| s as u32).collect();
        LocalBuffers {
            nshells,
            block_off,
            dbuf: vec![0.0; size],
            fbuf: vec![0.0; size],
            blocks,
            shell_of_bf,
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
        for &(a, b) in &self.blocks {
            let (sa, sb) = (
                &prob.basis.shells[a as usize],
                &prob.basis.shells[b as usize],
            );
            let off = self.block_off[a as usize * self.nshells + b as usize] as usize;
            let n = sa.nfuncs() * sb.nfuncs();
            d.try_get(
                rank,
                sa.bf_range(),
                sb.bf_range(),
                &mut self.dbuf[off..off + n],
            )?;
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
        for &(a, b) in &self.blocks {
            let (sa, sb) = (
                &prob.basis.shells[a as usize],
                &prob.basis.shells[b as usize],
            );
            let off = self.block_off[a as usize * self.nshells + b as usize] as usize;
            let blk = &self.fbuf[off..off + sa.nfuncs() * sb.nfuncs()];
            f.try_acc(rank, sa.bf_range(), sb.bf_range(), blk, 1.0)?;
        }
        Ok(())
    }

    /// Locate the element (i, j) (global function indices): byte offset and
    /// whether it was found transposed.
    #[inline]
    fn locate(&self, i: usize, j: usize) -> (usize, bool) {
        let (si, sj) = (self.shell_of_bf[i] as usize, self.shell_of_bf[j] as usize);
        let k = si * self.nshells + sj;
        let off = self.block_off[k];
        if off >= 0 {
            // Row-major within the block; recover in-shell indices from
            // the block origin (the first bf of each shell).
            (off as usize, false)
        } else {
            let kt = sj * self.nshells + si;
            let offt = self.block_off[kt];
            debug_assert!(offt >= 0, "pair ({si},{sj}) not covered by local region");
            (offt as usize, true)
        }
    }

    #[inline]
    fn elem_index(&self, prob_shells: &ShellDims, i: usize, j: usize, transposed: bool) -> usize {
        let (si, sj) = (self.shell_of_bf[i] as usize, self.shell_of_bf[j] as usize);
        let (ii, jj) = (i - prob_shells.bf0[si], j - prob_shells.bf0[sj]);
        if !transposed {
            ii * prob_shells.nf[sj] + jj
        } else {
            jj * prob_shells.nf[si] + ii
        }
    }
}

/// Cached shell dimensions for fast element addressing.
pub struct ShellDims {
    pub nf: Vec<usize>,
    pub bf0: Vec<usize>,
}

impl ShellDims {
    pub fn new(prob: &FockProblem) -> Self {
        ShellDims {
            nf: prob.basis.shells.iter().map(|s| s.nfuncs()).collect(),
            bf0: prob.basis.shells.iter().map(|s| s.bf_offset).collect(),
        }
    }
}

/// A [`FockSink`] view over `LocalBuffers` + shell dimensions.
pub struct LocalSink<'a> {
    pub buf: &'a mut LocalBuffers,
    pub dims: &'a ShellDims,
}

impl FockSink for LocalSink<'_> {
    #[inline]
    fn d(&self, i: usize, j: usize) -> f64 {
        let (off, t) = self.buf.locate(i, j);
        let e = self.buf.elem_index(self.dims, i, j, t);
        self.buf.dbuf[off + e]
    }

    #[inline]
    fn f_add(&mut self, i: usize, j: usize, v: f64) {
        let (off, t) = self.buf.locate(i, j);
        let e = self.buf.elem_index(self.dims, i, j, t);
        self.buf.fbuf[off + e] += v;
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
        let dense: Vec<f64> = {
            // Symmetric test matrix.
            let mut d = vec![0.0; nbf * nbf];
            for i in 0..nbf {
                for j in 0..nbf {
                    d[i * nbf + j] = ((i * 31 + j * 17) % 13) as f64 * 0.1;
                }
            }
            for i in 0..nbf {
                for j in 0..i {
                    d[i * nbf + j] = d[j * nbf + i];
                }
            }
            d
        };
        let grid = ProcessGrid::new(2, 2);
        let ga = GlobalArray::from_dense(grid, nbf, nbf, &dense);
        let part = StaticPartition::new(grid, prob.nshells());
        let dims = ShellDims::new(&prob);
        for rank in 0..4 {
            let mut buf = LocalBuffers::for_process(&prob, &part, rank);
            buf.try_fetch_d(&prob, &ga, rank).unwrap();
            let sink = LocalSink {
                buf: &mut buf,
                dims: &dims,
            };
            // Spot-check: every covered element reads back correctly,
            // including transposed lookups.
            for i in 0..nbf {
                for j in 0..nbf {
                    let si = prob.basis.shell_of_bf()[i];
                    let sj = prob.basis.shell_of_bf()[j];
                    let k = si * prob.nshells() + sj;
                    let kt = sj * prob.nshells() + si;
                    if sink.buf.block_off[k] >= 0 || sink.buf.block_off[kt] >= 0 {
                        assert_eq!(sink.d(i, j), dense[i * nbf + j], "({i},{j})");
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
        let dims = ShellDims::new(&prob);
        let mut buf = LocalBuffers::for_process(&prob, &part, 0);
        {
            let mut sink = LocalSink {
                buf: &mut buf,
                dims: &dims,
            };
            sink.f_add(0, 3, 2.0);
            sink.f_add(3, 0, 2.0);
            sink.f_add(1, 1, 5.0);
        }
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
