//! Spatial shell reordering (Section III-D of the paper).
//!
//! The paper encloses the molecule in a cube, splits it into small cubical
//! cells indexed in a natural (x-fastest) order, and numbers shells so that
//! shells in consecutively numbered cells get consecutive indices. Shells
//! whose centres are spatially close then have close indices, which makes
//! the `(M, Φ(M))`-shaped regions of D and F near-contiguous and maximizes
//! the overlap between the regions needed by neighbouring tasks.

use crate::shells::BasisInstance;

/// How to order shells before partitioning tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShellOrdering {
    /// Keep the molecule's atom order (what a naive code does).
    Natural,
    /// The paper's cell-based spatial ordering with the given cell edge
    /// length in bohr. The paper does not publish the cell size; ~5 bohr
    /// (≈2.6 Å, about one bond length and a half) works well for both
    /// molecule families.
    Cells { cell: f64 },
    /// Morton (Z-order) curve over the cells: consecutive indices follow
    /// a space-filling curve instead of x-fastest scanlines, so index
    /// locality holds in all three directions at once. The paper names
    /// "identification of improved reordering schemes" as future work;
    /// this is the standard first candidate.
    Morton { cell: f64 },
    /// Hilbert curve over the cells — like Morton but without the long
    /// jumps at quadrant boundaries; the strongest locality of the three.
    Hilbert { cell: f64 },
}

impl ShellOrdering {
    /// The paper's scheme with a default cell size.
    pub fn cells_default() -> Self {
        ShellOrdering::Cells { cell: 5.0 }
    }

    /// Morton ordering with the default cell size.
    pub fn morton_default() -> Self {
        ShellOrdering::Morton { cell: 5.0 }
    }

    /// Hilbert ordering with the default cell size.
    pub fn hilbert_default() -> Self {
        ShellOrdering::Hilbert { cell: 5.0 }
    }
}

/// Compute the shell permutation for the given ordering. The result `perm`
/// is to be used with [`BasisInstance::permuted`]: new shell `i` is old
/// shell `perm[i]`.
pub fn shell_permutation(basis: &BasisInstance, ordering: ShellOrdering) -> Vec<usize> {
    match ordering {
        ShellOrdering::Natural => (0..basis.nshells()).collect(),
        ShellOrdering::Cells { cell } => curve_permutation(basis, cell, CellCurve::Scanline),
        ShellOrdering::Morton { cell } => curve_permutation(basis, cell, CellCurve::Morton),
        ShellOrdering::Hilbert { cell } => curve_permutation(basis, cell, CellCurve::Hilbert),
    }
}

/// How cell indices are linearized into a 1-D ordering key.
#[derive(Clone, Copy)]
enum CellCurve {
    /// Natural x-fastest scanlines (the paper's scheme).
    Scanline,
    /// Z-order: bit-interleaved (x, y, z).
    Morton,
    /// 3-D Hilbert curve.
    Hilbert,
}

/// Convenience: apply the ordering and return the reordered instance.
pub fn reorder(basis: &BasisInstance, ordering: ShellOrdering) -> BasisInstance {
    basis.permuted(&shell_permutation(basis, ordering))
}

fn curve_permutation(basis: &BasisInstance, cell: f64, curve: CellCurve) -> Vec<usize> {
    assert!(cell > 0.0, "cell size must be positive");
    let (lo, hi) = basis.molecule.bounding_box();
    let ext = hi - lo;
    let nx = (ext.x / cell).floor() as u64 + 1;
    let ny = (ext.y / cell).floor() as u64 + 1;
    // Stable sort keeps same-cell shells (in particular all shells of one
    // atom) in their original relative order.
    let mut order: Vec<usize> = (0..basis.nshells()).collect();
    let key = |i: usize| -> u64 {
        let p = basis.shells[i].center - lo;
        let ix = (p.x / cell).floor() as u64;
        let iy = (p.y / cell).floor() as u64;
        let iz = (p.z / cell).floor() as u64;
        match curve {
            CellCurve::Scanline => (iz * ny + iy) * nx + ix,
            CellCurve::Morton => morton3(ix, iy, iz),
            CellCurve::Hilbert => hilbert3(ix, iy, iz, 16),
        }
    };
    order.sort_by_key(|&i| key(i));
    order
}

/// Interleave the low 21 bits of x, y, z into a Morton (Z-order) key.
pub fn morton3(x: u64, y: u64, z: u64) -> u64 {
    fn spread(mut v: u64) -> u64 {
        v &= 0x1f_ffff; // 21 bits
        v = (v | v << 32) & 0x1f00000000ffff;
        v = (v | v << 16) & 0x1f0000ff0000ff;
        v = (v | v << 8) & 0x100f00f00f00f00f;
        v = (v | v << 4) & 0x10c30c30c30c30c3;
        v = (v | v << 2) & 0x1249249249249249;
        v
    }
    spread(x) | spread(y) << 1 | spread(z) << 2
}

/// Distance along a 3-D Hilbert curve of order `bits` (Butz/Lawder
/// transpose algorithm: Gray-code the axes top bit down, then interleave).
pub fn hilbert3(x: u64, y: u64, z: u64, bits: u32) -> u64 {
    let mut axes = [x, y, z];
    // Inverse undo excess work.
    let m = 1u64 << (bits - 1);
    // Transpose → Hilbert: standard Skilling transform (inverse direction).
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..3 {
            if axes[i] & q != 0 {
                axes[0] ^= p; // invert
            } else {
                let t = (axes[0] ^ axes[i]) & p;
                axes[0] ^= t;
                axes[i] ^= t;
            }
        }
        q >>= 1;
    }
    // Gray decode.
    for i in 1..3 {
        axes[i] ^= axes[i - 1];
    }
    let mut t = 0u64;
    q = m;
    while q > 1 {
        if axes[2] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for a in &mut axes {
        *a ^= t;
    }
    // Interleave the transposed coordinates into the distance.
    let mut d = 0u64;
    for b in (0..bits).rev() {
        for a in axes.iter() {
            d = (d << 1) | ((a >> b) & 1);
        }
    }
    d
}

/// A quality metric for an ordering: the mean index spread
/// `max(Φ(M)) − min(Φ(M))` would need screening data, so this cheaper proxy
/// measures the mean |i−j| over all shell pairs within `radius` bohr.
/// Smaller is better; the cell ordering should beat a random shuffle.
/// The ordering tests assert on it.
#[cfg(test)]
fn locality_cost(basis: &BasisInstance, radius: f64) -> f64 {
    let n = basis.nshells();
    let r2 = radius * radius;
    let mut total = 0.0f64;
    let mut count = 0u64;
    for i in 0..n {
        for j in (i + 1)..n {
            if basis.shells[i].center.dist2(basis.shells[j].center) < r2 {
                total += (j - i) as f64;
                count += 1;
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::BasisSetKind;
    use crate::generators;

    fn flake_basis() -> BasisInstance {
        BasisInstance::new(generators::graphene_flake(3), BasisSetKind::Sto3g).unwrap()
    }

    #[test]
    fn natural_is_identity() {
        let b = flake_basis();
        let p = shell_permutation(&b, ShellOrdering::Natural);
        assert!(p.iter().enumerate().all(|(i, &x)| i == x));
    }

    #[test]
    fn cell_permutation_is_a_permutation() {
        let b = flake_basis();
        let mut p = shell_permutation(&b, ShellOrdering::cells_default());
        p.sort_unstable();
        assert!(p.iter().enumerate().all(|(i, &x)| i == x));
    }

    #[test]
    fn cell_ordering_improves_locality_on_flakes() {
        // A graphene flake is generated ring-by-ring, which is already
        // fairly local, so compare against a deliberately bad ordering.
        let b = flake_basis();
        let ordered = reorder(&b, ShellOrdering::cells_default());
        // Interleave first and second half: spatially adjacent shells get
        // distant indices.
        let n = b.nshells();
        let mut bad: Vec<usize> = Vec::with_capacity(n);
        for i in 0..n / 2 {
            bad.push(i);
            bad.push(n / 2 + i);
        }
        if n % 2 == 1 {
            bad.push(n - 1);
        }
        let shuffled = b.permuted(&bad);
        let r = 8.0;
        assert!(locality_cost(&ordered, r) < locality_cost(&shuffled, r));
    }

    #[test]
    fn reordering_keeps_all_shells() {
        let b = flake_basis();
        let r = reorder(&b, ShellOrdering::cells_default());
        assert_eq!(r.nshells(), b.nshells());
        assert_eq!(r.nbf, b.nbf);
        // Same multiset of (atom, l) pairs.
        let mut a: Vec<(usize, u8)> = b.shells.iter().map(|s| (s.atom, s.l)).collect();
        let mut c: Vec<(usize, u8)> = r.shells.iter().map(|s| (s.atom, s.l)).collect();
        a.sort_unstable();
        c.sort_unstable();
        assert_eq!(a, c);
    }

    #[test]
    fn morton_key_properties() {
        // Interleaving is injective on small coordinates and monotone along
        // each axis when the others are zero.
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for x in 0..8u64 {
            for y in 0..8u64 {
                for z in 0..8u64 {
                    assert!(seen.insert(morton3(x, y, z)), "collision at {x},{y},{z}");
                }
            }
        }
        assert!(morton3(1, 0, 0) < morton3(2, 0, 0));
        assert_eq!(morton3(0, 0, 0), 0);
        // Bit interleave: x -> bit 0, y -> bit 1, z -> bit 2.
        assert_eq!(morton3(1, 0, 0), 1);
        assert_eq!(morton3(0, 1, 0), 2);
        assert_eq!(morton3(0, 0, 1), 4);
    }

    #[test]
    fn hilbert_key_is_injective_and_adjacent() {
        use std::collections::HashMap;
        let bits = 4;
        let mut by_d: HashMap<u64, (u64, u64, u64)> = HashMap::new();
        for x in 0..16u64 {
            for y in 0..16u64 {
                for z in 0..16u64 {
                    let d = hilbert3(x, y, z, bits);
                    assert!(
                        by_d.insert(d, (x, y, z)).is_none(),
                        "collision at {x},{y},{z}"
                    );
                }
            }
        }
        // The defining property: consecutive curve positions are unit
        // neighbours in space.
        for d in 0..(16u64 * 16 * 16 - 1) {
            let a = by_d[&d];
            let b = by_d[&(d + 1)];
            let dist = a.0.abs_diff(b.0) + a.1.abs_diff(b.1) + a.2.abs_diff(b.2);
            assert_eq!(dist, 1, "curve jump between {a:?} and {b:?} at d={d}");
        }
    }

    #[test]
    fn all_curve_orderings_are_permutations() {
        let b = flake_basis();
        for ord in [
            ShellOrdering::cells_default(),
            ShellOrdering::morton_default(),
            ShellOrdering::hilbert_default(),
        ] {
            let mut p = shell_permutation(&b, ord);
            p.sort_unstable();
            assert!(p.iter().enumerate().all(|(i, &x)| i == x), "{ord:?}");
        }
    }

    #[test]
    fn hilbert_at_least_as_local_as_scanline_on_flake() {
        let b = flake_basis();
        let scan = reorder(&b, ShellOrdering::Cells { cell: 3.0 });
        let hilb = reorder(&b, ShellOrdering::Hilbert { cell: 3.0 });
        let r = 8.0;
        // Hilbert shouldn't be dramatically worse; typically it's better.
        assert!(locality_cost(&hilb, r) <= locality_cost(&scan, r) * 1.25);
    }

    #[test]
    fn alkane_cells_follow_the_chain() {
        // For a 1-D chain along x, cell ordering must sort shells by x.
        // Use a cell large enough to cover the chain's y/z cross-section so
        // the natural cell order reduces to sorting along x.
        let b = BasisInstance::new(generators::linear_alkane(12), BasisSetKind::Sto3g).unwrap();
        let cell = 10.0;
        let r = reorder(&b, ShellOrdering::Cells { cell });
        let xs: Vec<f64> = r.shells.iter().map(|s| s.center.x).collect();
        // x coordinates should be non-decreasing up to one cell width.
        for w in xs.windows(2) {
            assert!(
                w[1] > w[0] - cell,
                "chain ordering violated: {} then {}",
                w[0],
                w[1]
            );
        }
    }
}
