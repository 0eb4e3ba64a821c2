//! The paper's performance model (Section III-G, equations 6–12).
//!
//! Symbols: `t_int` — average seconds per ERI; `A` — average basis
//! functions per shell; `B` — average |Φ(M)|; `q` — average
//! |Φ(M) ∩ Φ(M+1)|; `s` — average number of steal victims per process;
//! `beta` — interconnect bandwidth (bytes/s); `nshells` — problem size.
//!
//! [`ModelParams::from_problem`] measures A, B, q from screening data;
//! `t_int`, `beta` and `s` are supplied analytically.

/// Parameters of the model, measurable from a [`crate::tasks::FockProblem`]
/// and a calibrated cost model.
#[derive(Debug, Clone, Copy)]
pub struct ModelParams {
    pub t_int: f64,
    pub a_funcs: f64,
    pub b_phi: f64,
    pub q_overlap: f64,
    pub s_steals: f64,
    pub beta: f64,
    pub nshells: f64,
}

impl ModelParams {
    /// Extract A, B, q from screening data; t_int/beta/s supplied.
    pub fn from_problem(
        prob: &crate::tasks::FockProblem,
        t_int: f64,
        beta: f64,
        s_steals: f64,
    ) -> ModelParams {
        let nshells = prob.nshells() as f64;
        let a_funcs = prob.nbf() as f64 / nshells;
        ModelParams {
            t_int,
            a_funcs,
            b_phi: prob.screening.avg_phi(),
            q_overlap: prob.screening.avg_phi_overlap(),
            s_steals,
            beta,
            nshells,
        }
    }

    /// Equation (6): T_comp(p) = t_int B² A² n² / (8p).
    pub fn t_comp(&self, p: f64) -> f64 {
        self.t_int * self.b_phi.powi(2) * self.a_funcs.powi(2) * self.nshells.powi(2) / (8.0 * p)
    }

    /// Equation (7): v1(p) = 4 A² B n² / p  (elements).
    pub fn v1(&self, p: f64) -> f64 {
        4.0 * self.a_funcs.powi(2) * self.b_phi * self.nshells.powi(2) / p
    }

    /// Equation (8): v2(p) = 2 ((n/√p)(B−q) + q)² A²  (elements).
    pub fn v2(&self, p: f64) -> f64 {
        let inner = self.nshells / p.sqrt() * (self.b_phi - self.q_overlap) + self.q_overlap;
        2.0 * inner * inner * self.a_funcs.powi(2)
    }

    /// Equation (9): V(p) = (1+s)(v1 + v2)  (elements).
    pub fn volume(&self, p: f64) -> f64 {
        (1.0 + self.s_steals) * (self.v1(p) + self.v2(p))
    }

    /// Equation (10): T_comm(p) = V(p)·8 bytes / β. (The paper leaves the
    /// element size implicit; we count 8-byte doubles.)
    pub fn t_comm(&self, p: f64) -> f64 {
        self.volume(p) * 8.0 / self.beta
    }

    /// Equation (11): L(p) = T_comm / T_comp.
    pub fn l_ratio(&self, p: f64) -> f64 {
        self.t_comm(p) / self.t_comp(p)
    }

    /// Equation (12): L at maximum parallelism p = n².
    /// L(n²) = 16(1+s)/(t_int β) · (((B−q)/B + q/B² + 2/B)·8 bytes).
    pub fn l_max_parallelism(&self) -> f64 {
        self.l_ratio(self.nshells * self.nshells)
    }

    /// The isoefficiency relation: the shell count needed to keep L(p)
    /// constant as p grows — n = c·√p (Section III-G). Returns n for a
    /// target ratio equal to L(p0) at reference (p0, n0=self.nshells).
    pub fn isoefficiency_shells(&self, p0: f64, p: f64) -> f64 {
        self.nshells * (p / p0).sqrt()
    }

    /// How much faster integral computation must get before communication
    /// dominates at maximum parallelism: the factor by which t_int must
    /// shrink so that L(n²) = 1 (the paper derives ≈50× for C96H24).
    pub fn tint_headroom(&self) -> f64 {
        // L scales as 1/t_int, so the factor is simply L(n²)⁻¹... i.e.
        // t_int may shrink by L(n²)^{-1} before L reaches 1.
        1.0 / self.l_max_parallelism()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ModelParams {
        // Ballpark C96H24/cc-pVDZ numbers: 648 shells, A≈2.3, B≈430.
        ModelParams {
            t_int: 4.76e-6,
            a_funcs: 2.3,
            b_phi: 430.0,
            q_overlap: 420.0,
            s_steals: 3.8,
            beta: 5.0e9,
            nshells: 648.0,
        }
    }

    #[test]
    fn tcomp_scales_inversely_with_p() {
        let m = params();
        let t1 = m.t_comp(1.0);
        let t4 = m.t_comp(4.0);
        assert!((t1 / t4 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn volume_decreases_with_p() {
        let m = params();
        assert!(m.volume(4.0) > m.volume(16.0));
        assert!(m.volume(16.0) > m.volume(256.0));
    }

    #[test]
    fn l_increases_with_p() {
        let m = params();
        assert!(m.l_ratio(4.0) < m.l_ratio(64.0));
        assert!(m.l_ratio(64.0) < m.l_ratio(1024.0));
    }

    #[test]
    fn isoefficiency_keeps_l_constant() {
        // If n grows like sqrt(p), L stays constant (q ≈ 0 regime makes the
        // v2 term scale exactly; check approximate constancy).
        let mut m = params();
        m.q_overlap = 0.0;
        let p0 = 64.0;
        let l0 = m.l_ratio(p0);
        for &p in &[256.0, 1024.0, 4096.0] {
            let mut m2 = m;
            m2.nshells = m.isoefficiency_shells(p0, p);
            let l = m2.l_ratio(p);
            assert!(
                (l - l0).abs() / l0 < 0.05,
                "L drifted: {l} vs {l0} at p={p}"
            );
        }
    }

    /// Round numbers chosen so each equation evaluates exactly by hand:
    /// t_int 2e-6, A 2, B 100, q 50, s 1, β 1e9 B/s, n 100.
    fn hand_params() -> ModelParams {
        ModelParams {
            t_int: 2.0e-6,
            a_funcs: 2.0,
            b_phi: 100.0,
            q_overlap: 50.0,
            s_steals: 1.0,
            beta: 1.0e9,
            nshells: 100.0,
        }
    }

    #[test]
    fn equations_6_to_12_match_hand_computation() {
        let m = hand_params();
        // (6) t_comp(4) = 2e-6 · 100² · 2² · 100² / (8·4) = 800/32 = 25 s.
        assert!((m.t_comp(4.0) - 25.0).abs() < 1e-9);
        // (7) v1(4) = 4 · 2² · 100 · 100² / 4 = 4,000,000 elements.
        assert!((m.v1(4.0) - 4.0e6).abs() < 1e-3);
        // (8) v2(4) = 2 · ((100/√4)(100−50) + 50)² · 2²
        //           = 2 · 2550² · 4 = 52,020,000 elements.
        assert!((m.v2(4.0) - 5.202e7).abs() < 1e-2);
        // (9) V(4) = (1+1)(v1+v2) = 112,040,000 elements.
        assert!((m.volume(4.0) - 1.1204e8).abs() < 1e-2);
        // (10) T_comm(4) = V·8 / 1e9 = 0.89632 s.
        assert!((m.t_comm(4.0) - 0.89632).abs() < 1e-9);
        // (11) L(4) = 0.89632 / 25.
        assert!((m.l_ratio(4.0) - 0.89632 / 25.0).abs() < 1e-12);
        // (12) is (11) at p = n² = 10⁴ by definition.
        assert!((m.l_max_parallelism() - m.l_ratio(1.0e4)).abs() < 1e-15);
        // Headroom is the reciprocal of (12).
        assert!((m.tint_headroom() * m.l_max_parallelism() - 1.0).abs() < 1e-12);
        // Isoefficiency: n scales like √p.
        assert!((m.isoefficiency_shells(4.0, 16.0) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn from_problem_invariants() {
        use chem::generators;
        use chem::reorder::ShellOrdering;
        use chem::BasisSetKind;
        let prob = crate::tasks::FockProblem::new(
            generators::water(),
            BasisSetKind::Sto3g,
            1e-12,
            ShellOrdering::Natural,
        )
        .unwrap();
        let m = ModelParams::from_problem(&prob, 1.0e-6, 5.0e9, 2.0);
        // Structural sanity: the Φ-overlap of neighbouring rows can never
        // exceed the average row size itself.
        assert!(m.q_overlap <= m.b_phi, "q {} > B {}", m.q_overlap, m.b_phi);
        assert!(m.a_funcs >= 1.0);
        assert!(m.b_phi > 0.0 && m.b_phi <= m.nshells);
        assert_eq!(m.nshells, prob.nshells() as f64);
        // t_comp is monotone decreasing (exactly 1/p) in p.
        for &p in &[1.0, 2.0, 7.0, 64.0] {
            assert!((m.t_comp(2.0 * p) - m.t_comp(p) / 2.0).abs() < 1e-15);
            assert!(m.t_comp(2.0 * p) < m.t_comp(p));
        }
        // Volume is positive and decreasing; L increases with p.
        assert!(m.volume(4.0) > m.volume(16.0));
        assert!(m.l_ratio(4.0) < m.l_ratio(16.0));
    }

    #[test]
    fn computation_dominates_on_lonestar_scale() {
        // The paper's headline analysis: at 3888 cores the C96H24 case is
        // still heavily computation-dominated (L << 1), and integral
        // computation would have to be tens of times faster before
        // communication could dominate even at maximum parallelism.
        let m = params();
        let p_nodes = 324.0;
        assert!(m.l_ratio(p_nodes) < 0.1, "L = {}", m.l_ratio(p_nodes));
        let headroom = m.tint_headroom();
        assert!(
            (10.0..1000.0).contains(&headroom),
            "headroom {headroom} out of plausible range"
        );
    }
}
