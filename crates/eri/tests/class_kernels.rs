//! Property tests for the class-specialized batched ERI kernels: over
//! randomized shell geometries, exponents, contraction depths and
//! coefficients, every class kernel must reproduce `quartet_ref` (the
//! pre-pair-data reference evaluator) element-wise, and batches must be
//! position-independent — each quartet's block identical to evaluating it
//! alone.

use chem::shells::Shell;
use chem::Vec3;
use eri::{BatchKernel, EriEngine, QuartetClass, ShellPair};
use proptest::prelude::*;

/// A randomized shell: 1–3 primitives, exponents spanning diffuse to
/// tight, coefficients of either sign bounded away from zero (so no shell
/// is numerically empty; primitive-pair screening is relative, so a pair
/// always keeps its dominant lane regardless).
fn rand_shell(rng: &mut TestRng, l: u8) -> Shell {
    let nprim = 1 + (rng.next_u64() % 3) as usize;
    let mut exps = Vec::with_capacity(nprim);
    let mut coefs = Vec::with_capacity(nprim);
    for _ in 0..nprim {
        exps.push(0.08 + rng.next_f64() * 12.0);
        let c = -1.5 + rng.next_f64() * 3.0;
        coefs.push(if c.abs() < 0.05 { 0.37 } else { c });
    }
    let coord = |rng: &mut TestRng| -1.5 + rng.next_f64() * 3.0;
    Shell {
        atom: 0,
        l,
        center: Vec3::new(coord(rng), coord(rng), coord(rng)),
        exps: exps.into(),
        coefs: coefs.into(),
        bf_offset: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Batched class kernel ≡ `quartet_ref` on arbitrary primitives.
    #[test]
    fn class_kernel_matches_reference(
        seed in 0u64..u64::MAX,
        la in 0u8..3, lb in 0u8..3, lc in 0u8..3, ld in 0u8..3,
    ) {
        let mut rng = TestRng::deterministic(&format!("shells-{seed}"));
        let a = rand_shell(&mut rng, la);
        let b = rand_shell(&mut rng, lb);
        let c = rand_shell(&mut rng, lc);
        let d = rand_shell(&mut rng, ld);
        let class = QuartetClass::of(la, lb, lc, ld);
        let bra = ShellPair::new(&a, &b);
        let ket = ShellPair::new(&c, &d);
        let mut kernel = BatchKernel::new();
        let mut eng = EriEngine::new();
        let mut got = Vec::new();
        let mut want = Vec::new();
        let nper = kernel.eval(class, &[(bra.view(false), ket.view(false))], &mut got);
        eng.quartet_ref(&a, &b, &c, &d, &mut want);
        prop_assert_eq!(nper, want.len());
        for (i, (&g, &w)) in got.iter().zip(want.iter()).enumerate() {
            // quartet_ref rebuilds E tables per primitive quartet while the
            // batched path reads pair tables; agreement is to rounding in a
            // handful of flops, far inside 1e-12 relative.
            prop_assert!(
                (g - w).abs() <= 1e-12 * (1.0 + w.abs()),
                "{} [{}]: batched {} vs reference {}",
                class.name(), i, g, w
            );
        }
    }

    /// A quartet's block depends on nothing else in its chunk: permuting
    /// the items (quartets of different contraction depths, so every lane
    /// offset moves) permutes the output blocks bit for bit, and a quartet
    /// evaluated alone gives the same bits again.
    #[test]
    fn permuting_a_chunk_permutes_its_blocks(
        seed in 0u64..u64::MAX,
        la in 0u8..3, lb in 0u8..3, lc in 0u8..3, ld in 0u8..3,
        nitems in 2usize..6,
    ) {
        let mut rng = TestRng::deterministic(&format!("batch-{seed}"));
        let class = QuartetClass::of(la, lb, lc, ld);
        let mut kernel = BatchKernel::new();
        let pairs: Vec<(ShellPair, ShellPair)> = (0..nitems)
            .map(|_| {
                let [a, b, c, d] = [la, lb, lc, ld].map(|l| rand_shell(&mut rng, l));
                (ShellPair::new(&a, &b), ShellPair::new(&c, &d))
            })
            .collect();
        let mut order: Vec<usize> = (0..nitems).collect();
        for i in (1..nitems).rev() {
            order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let item = |i: usize| (pairs[i].0.view(false), pairs[i].1.view(false));
        let straight: Vec<_> = (0..nitems).map(item).collect();
        let permuted: Vec<_> = order.iter().map(|&i| item(i)).collect();
        let (mut got, mut shuffled, mut alone) = (Vec::new(), Vec::new(), Vec::new());
        let nper = kernel.eval(class, &straight, &mut got);
        kernel.eval(class, &permuted, &mut shuffled);
        for (pos, &i) in order.iter().enumerate() {
            prop_assert_eq!(
                &shuffled[pos * nper..(pos + 1) * nper],
                &got[i * nper..(i + 1) * nper],
                "{}: item {} moved to {}", class.name(), i, pos
            );
        }
        kernel.eval(class, &straight[nitems - 1..], &mut alone);
        prop_assert_eq!(&alone[..], &got[(nitems - 1) * nper..]);
    }
}
