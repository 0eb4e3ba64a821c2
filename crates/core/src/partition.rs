//! Initial static task partitioning (Section III-C).
//!
//! The n_shells × n_shells task grid is cut into p_row × p_col contiguous
//! blocks; process p_ij initially owns the block of tasks
//! `(i·n_br : (i+1)·n_br − 1, : | j·n_bc : (j+1)·n_bc − 1, :)`. Because the
//! spatial reordering makes |Φ(M)·Φ(N)| nearly uniform across tasks, equal
//! task counts give approximately equal work — the property the
//! work-stealing scheduler then refines.

use distrt::ProcessGrid;
use std::ops::Range;

/// The static map from tasks (M, N) to owning processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticPartition {
    pub grid: ProcessGrid,
    pub nshells: usize,
}

impl StaticPartition {
    pub fn new(grid: ProcessGrid, nshells: usize) -> Self {
        StaticPartition { grid, nshells }
    }

    /// The (row-shells, col-shells) task block owned by `rank`.
    pub fn task_block(&self, rank: usize) -> (Range<usize>, Range<usize>) {
        let (r, c) = self.grid.coords(rank);
        (
            self.grid.row_block(self.nshells, r),
            self.grid.col_block(self.nshells, c),
        )
    }

    /// All tasks of `rank`, row-major within its block.
    pub fn tasks_of(&self, rank: usize) -> impl Iterator<Item = (usize, usize)> {
        let (rows, cols) = self.task_block(rank);
        rows.flat_map(move |m| cols.clone().map(move |n| (m, n)))
    }

    /// Which process initially owns task (m, n).
    pub fn owner_of_task(&self, m: usize, n: usize) -> usize {
        self.grid.owner(self.nshells, self.nshells, m, n)
    }

    /// Total number of tasks (n_shells²).
    pub fn ntasks(&self) -> usize {
        self.nshells * self.nshells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_tile_the_task_grid() {
        let p = StaticPartition::new(ProcessGrid::new(3, 4), 25);
        let mut owned = vec![false; 25 * 25];
        for rank in 0..p.grid.nprocs() {
            for (m, n) in p.tasks_of(rank) {
                assert!(!owned[m * 25 + n], "task ({m},{n}) owned twice");
                owned[m * 25 + n] = true;
                assert_eq!(p.owner_of_task(m, n), rank);
            }
        }
        assert!(owned.iter().all(|&o| o), "every task must be owned");
    }

    #[test]
    fn task_counts_balanced() {
        let p = StaticPartition::new(ProcessGrid::new(4, 4), 18);
        let counts: Vec<usize> = (0..16).map(|r| p.tasks_of(r).count()).collect();
        let (mn, mx) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        // 18 = 4*4+2, so block dims are 4 or 5 → counts in 16..=25.
        assert!(*mn >= 16 && *mx <= 25);
        assert_eq!(counts.iter().sum::<usize>(), 18 * 18);
    }

    #[test]
    fn single_process_owns_everything() {
        let p = StaticPartition::new(ProcessGrid::new(1, 1), 7);
        assert_eq!(p.tasks_of(0).count(), 49);
    }
}
