//! Inputs and comparisons shared by the unit tests of the Fock builders.

/// A symmetric pseudo-random density-like matrix, entries in (−amp, amp).
pub(crate) fn random_density(nbf: usize, seed: u64, amp: f64) -> Vec<f64> {
    let mut state = seed;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let mut d = vec![0.0; nbf * nbf];
    for i in 0..nbf {
        for j in i..nbf {
            let v = next() * amp;
            d[i * nbf + j] = v;
            d[j * nbf + i] = v;
        }
    }
    d
}

/// The banded density `scale / (1 + |i − j|)`.
pub(crate) fn banded_density(nbf: usize, scale: f64) -> Vec<f64> {
    (0..nbf * nbf)
        .map(|k| scale / (1.0 + (k / nbf).abs_diff(k % nbf) as f64))
        .collect()
}

pub(crate) fn max_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}
