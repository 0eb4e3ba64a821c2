//! The Fock scatter must not allocate: after warm-up, `do_task` (screen,
//! batched kernel, six-block update) reuses its scratch only, into a
//! dense sink and into fetched process-local buffers alike. A counting
//! global allocator turns a per-quartet `Vec` into a test failure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn scatter_does_not_allocate_after_warmup() {
    use chem::reorder::ShellOrdering;
    use chem::{generators, BasisSetKind};
    use distrt::{GlobalArray, ProcessGrid};
    use eri::{ClassBatcher, DensityNorms, EriEngine};
    use fock_core::localbuf::LocalBuffers;
    use fock_core::{do_task, DenseSink, FockProblem, StaticPartition};

    // cc-pVDZ methane has s, p and d shells.
    let prob = FockProblem::new(
        generators::methane(),
        BasisSetKind::CcPvdz,
        1e-11,
        ShellOrdering::cells_default(),
    )
    .unwrap();
    let (nbf, n) = (prob.nbf(), prob.nshells());
    let d: Vec<f64> = (0..nbf * nbf)
        .map(|k| 0.3 / (1.0 + (k / nbf).abs_diff(k % nbf) as f64))
        .collect();
    let dn = DensityNorms::compute(&prob.basis, &d);
    let mut f = vec![0.0; nbf * nbf];

    // A 2×2 grid: some regions hold a shell pair only as (b, a), so the
    // transposed views are exercised too.
    let grid = ProcessGrid::new(2, 2);
    let part = StaticPartition::new(grid, n);
    let ga_d = GlobalArray::from_dense(grid, nbf, nbf, &d);
    let mut bufs: Vec<(LocalBuffers, Vec<(usize, usize)>)> = (0..grid.nprocs())
        .map(|rank| {
            let mut b = LocalBuffers::for_process(&prob, &part, rank);
            b.try_fetch_d(&prob, &ga_d, rank).unwrap();
            (b, part.tasks_of(rank).collect())
        })
        .collect();

    let mut eng = EriEngine::new();
    let mut batcher = ClassBatcher::new();
    let mut sweep = || {
        let mut quartets = 0;
        let mut sink = DenseSink {
            nbf,
            d: &d,
            f: &mut f,
        };
        for m in 0..n {
            for nn in 0..n {
                quartets += do_task(&mut sink, &prob, &mut eng, &mut batcher, &dn, m, nn).computed;
            }
        }
        for (buf, tasks) in &mut bufs {
            for &(m, nn) in &*tasks {
                quartets += do_task(buf, &prob, &mut eng, &mut batcher, &dn, m, nn).computed;
            }
        }
        quartets
    };

    // Warm-up: builds the lazy pair data and grows every scratch buffer.
    let warm = sweep();
    let before = alloc_count();
    let hot = sweep();
    let allocs = alloc_count() - before;
    assert_eq!(
        allocs, 0,
        "the scatter allocated {allocs} times after warm-up"
    );
    assert!(
        warm > 0 && warm == hot,
        "sweeps computed {warm}, then {hot} quartets"
    );
}
