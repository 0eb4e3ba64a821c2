//! The ERI hot path must not allocate: after warm-up, the batched path
//! every builder runs (`ClassBatcher::push`/`flush`, `BatchKernel::eval`)
//! and the one-item routes into the same kernel (`EriEngine::quartet`,
//! `quartet_views`, `schwarz_pair_value`, the DF dummy-shell views) reuse
//! their scratch only. A counting global allocator makes any regression
//! (a fresh `Vec` in an inner loop, a buffer grown per call) an immediate
//! test failure rather than a silent throughput loss.

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
fn hot_paths_do_not_allocate_after_warmup() {
    use chem::shells::BasisInstance;
    use chem::{generators, BasisSetKind};
    use eri::{
        AuxBasis, AuxSpec, BatchKernel, ClassBatcher, EriEngine, QuartetClass, Screening,
        ShellPair, ShellPairData,
    };

    // cc-pVDZ methane exercises every angular class up to d and several
    // contraction depths.
    let basis = BasisInstance::new(generators::methane(), BasisSetKind::CcPvdz).unwrap();
    let screening = Screening::compute(&basis, 1e-12);
    let pairs = ShellPairData::build(&basis, &screening);
    let sh = &basis.shells;
    let n = sh.len();

    // The first and last shell of each angular momentum: every class,
    // deep and shallow contractions.
    // The DF route: (P δ| bra pairs of aux shells with the zero-exponent
    // dummy s shell, as `eri::df::three_center` builds them.
    let aux = AuxBasis::generate(&basis, &AuxSpec::default());
    let aux_pairs: Vec<ShellPair> = (0..3u8)
        .map(|l| {
            let p = aux.shells.iter().find(|s| s.l == l).unwrap();
            let mut dummy = p.clone();
            (dummy.l, dummy.exps, dummy.coefs) = (0, Box::new([0.0]), Box::new([1.0]));
            ShellPair::new(p, &dummy)
        })
        .collect();

    let mut reps: Vec<usize> = (0..3u8)
        .flat_map(|l| {
            let of_l = |i: &usize| sh[*i].l == l;
            [(0..n).find(of_l).unwrap(), (0..n).rev().find(of_l).unwrap()]
        })
        .collect();
    reps.dedup();

    let mut eng = EriEngine::new();
    let mut batcher = ClassBatcher::new();
    let mut kernel = BatchKernel::new();
    let mut out = Vec::new();

    let mut sweep = || {
        let mut sink = 0.0;
        for m in 0..n {
            for p in 0..n {
                if let (Some(bra), Some(ket)) = (pairs.view(m, p), pairs.view(p, m)) {
                    eng.quartet_views(&bra, &ket, &mut out);
                    sink += out[0];
                    for aux_bra in &aux_pairs {
                        eng.quartet_views(&aux_bra.view(false), &ket, &mut out);
                        sink += out[0];
                    }
                    let class = QuartetClass::of(sh[m].l, sh[p].l, sh[p].l, sh[m].l);
                    kernel.eval(class, &[(bra, ket), (bra, ket)], &mut out);
                    sink += out[0];
                }
                eng.quartet(&sh[m], &sh[p], &sh[p], &sh[m], &mut out);
                sink += out[0];
                sink += eng.schwarz_pair_value(&sh[m], &sh[p]);
            }
            // The planner as the builders drive it, one flush per (M,:|N,:)
            // task; over the sweep all 81 classes are flushed.
            for &q in &reps {
                for &p in &reps {
                    for &r in &reps {
                        if pairs.view(m, p).is_some() && pairs.view(q, r).is_some() {
                            let class = QuartetClass::try_of(sh[m].l, sh[p].l, sh[q].l, sh[r].l);
                            batcher.push(class, [m as u32, p as u32, q as u32, r as u32]);
                        }
                    }
                }
                batcher.flush(&mut eng, &pairs, |_, block| sink += block[0]);
            }
        }
        sink
    };

    // Warm-up: grows every scratch buffer to its high-water mark.
    let warm = sweep();

    let before = alloc_count();
    let hot = sweep();
    let after = alloc_count();

    assert_eq!(
        after - before,
        0,
        "hot ERI paths allocated {} times after warm-up",
        after - before
    );
    assert_eq!(warm, hot, "warm and hot sweeps must agree exactly");
    assert_eq!(batcher.stats().entries().len(), eri::NCLASSES);
}
