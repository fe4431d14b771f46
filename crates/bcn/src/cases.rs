//! The paper's Case 1–5 taxonomy of BCN phase portraits.
//!
//! Each control region is a second-order linear(ised) system with
//! characteristic equation `lambda^2 + k n lambda + n = 0` (paper Eq. 35),
//! `n = a` in the increase region and `n = b C` in the decrease region.
//! The discriminant `(k n)^2 - 4 n` decides the local trajectory shape:
//!
//! * negative — complex eigenvalues, **logarithmic spiral** (stable focus);
//! * positive — two distinct negative real eigenvalues, **node** whose
//!   trajectories look like parabolas;
//! * zero — the **critical** (degenerate node) boundary.
//!
//! In parameter terms the spiral condition is `a < 4 pm^2 C^2 / w^2` for
//! the increase region and `b < 4 pm^2 C / w^2` for the decrease region
//! (paper Section IV-C), which produces the paper's four open cases plus
//! the critical boundary Case 5.

use std::fmt;

use crate::model::Region;
use crate::params::BcnParams;

/// Local trajectory shape of one control region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionShape {
    /// Complex eigenvalues: logarithmic-spiral trajectories
    /// (`(kn)^2 < 4n`).
    Spiral,
    /// Distinct negative real eigenvalues: parabola-like node trajectories
    /// (`(kn)^2 > 4n`).
    Node,
    /// Repeated eigenvalue `lambda = -2/k` (`(kn)^2 = 4n`, i.e.
    /// `n = 4/k^2`): the critical spiral/node boundary. (The paper prints
    /// `lambda = -1/k` here; see the [`CaseId::Case5`] erratum note.)
    Critical,
}

impl RegionShape {
    /// Shape of a region with characteristic constant `n` and switching
    /// slope constant `k` (discriminant of `lambda^2 + kn lambda + n`).
    ///
    /// The critical boundary is detected with a relative tolerance of
    /// `1e-9` on the discriminant so that parameter sets constructed *to
    /// sit on* the boundary classify as [`RegionShape::Critical`] despite
    /// floating-point rounding.
    #[must_use]
    pub fn from_kn(k: f64, n: f64) -> Self {
        let kn2 = (k * n) * (k * n);
        let disc = kn2 - 4.0 * n;
        if disc.abs() <= 1e-9 * kn2.max(4.0 * n) {
            RegionShape::Critical
        } else if disc < 0.0 {
            RegionShape::Spiral
        } else {
            RegionShape::Node
        }
    }
}

impl fmt::Display for RegionShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RegionShape::Spiral => "spiral",
            RegionShape::Node => "node",
            RegionShape::Critical => "critical",
        })
    }
}

/// The paper's case taxonomy (Section IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaseId {
    /// Spiral in both regions (`a` and `b` below their thresholds):
    /// oscillatory rounds; strong stability needs Proposition 2's bounds;
    /// the only case that can host the limit cycle of Fig. 7.
    Case1,
    /// Node in the increase region, spiral in the decrease region
    /// (`a` above, `b` below): one overshoot then spiral home;
    /// Proposition 3 bounds the single maximum.
    Case2,
    /// Spiral in the increase region, node in the decrease region
    /// (`a` below, `b` above): the queue never overshoots `q0`;
    /// strongly stable unconditionally.
    Case3,
    /// Node in both regions: monotone-like approach; strongly stable
    /// unconditionally.
    Case4,
    /// Either region exactly critical (`a = 4 pm^2 C^2 / w^2` or
    /// `b = 4 pm^2 C / w^2`).
    ///
    /// **Erratum note.** The paper claims the switching line is itself a
    /// phase trajectory here "due to `lambda_{1,2} = -1/k`" and declares
    /// the case unconditionally strongly stable. The repeated eigenvalue
    /// at the critical boundary is actually `lambda = -2/k` (solve
    /// `(kn)^2 = 4n` for `n = 4/k^2`, then `lambda = -kn/2 = -2/k`), so
    /// the eigenline is *steeper* than the switching line and the flow
    /// still crosses it. Consequently the `a`-critical branch behaves as
    /// the continuous limit of Case 2 — a single potentially large
    /// overshoot that must fit under the buffer — while the `b`-critical
    /// branch is the limit of Case 3 and is indeed unconditional. The
    /// [`crate::stability::criterion`] implements this amended rule; the
    /// reproduction's EXPERIMENTS.md records the discrepancy.
    Case5,
}

impl fmt::Display for CaseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CaseId::Case1 => "case 1 (spiral/spiral)",
            CaseId::Case2 => "case 2 (node increase, spiral decrease)",
            CaseId::Case3 => "case 3 (spiral increase, node decrease)",
            CaseId::Case4 => "case 4 (node/node)",
            CaseId::Case5 => "case 5 (critical boundary)",
        })
    }
}

/// Full case analysis of a parameter set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseAnalysis {
    /// Which of the paper's cases applies.
    pub case: CaseId,
    /// Shape of the rate-increase region.
    pub increase: RegionShape,
    /// Shape of the rate-decrease region.
    pub decrease: RegionShape,
    /// The increase-region threshold `4 pm^2 C^2 / w^2` that `a` is
    /// compared against.
    pub a_threshold: f64,
    /// The decrease-region threshold `4 pm^2 C / w^2` that `b` is
    /// compared against.
    pub b_threshold: f64,
}

/// The spiral/node threshold for the increase region:
/// `a` spirals iff `a < 4 pm^2 C^2 / w^2`.
#[must_use]
pub fn a_threshold(params: &BcnParams) -> f64 {
    let pc = params.pm * params.capacity;
    4.0 * pc * pc / (params.w * params.w)
}

/// The spiral/node threshold for the decrease region:
/// `b` spirals iff `b < 4 pm^2 C / w^2`.
#[must_use]
pub fn b_threshold(params: &BcnParams) -> f64 {
    4.0 * params.pm * params.pm * params.capacity / (params.w * params.w)
}

/// Shape of one region for the given parameters.
///
/// The characteristic constant is read straight off the parameters
/// (`n = a` or `n = b C`, paper Eq. 35) — no model construction needed,
/// which keeps this hot classification path allocation-free.
#[must_use]
pub fn region_shape(params: &BcnParams, region: Region) -> RegionShape {
    let n = match region {
        Region::Increase => params.a(),
        Region::Decrease => params.b() * params.capacity,
    };
    RegionShape::from_kn(params.k(), n)
}

/// Classifies a parameter set into the paper's Case 1–5 taxonomy.
#[must_use]
pub fn classify_params(params: &BcnParams) -> CaseAnalysis {
    let increase = region_shape(params, Region::Increase);
    let decrease = region_shape(params, Region::Decrease);
    let case = match (increase, decrease) {
        (RegionShape::Critical, _) | (_, RegionShape::Critical) => CaseId::Case5,
        (RegionShape::Spiral, RegionShape::Spiral) => CaseId::Case1,
        (RegionShape::Node, RegionShape::Spiral) => CaseId::Case2,
        (RegionShape::Spiral, RegionShape::Node) => CaseId::Case3,
        (RegionShape::Node, RegionShape::Node) => CaseId::Case4,
    };
    CaseAnalysis {
        case,
        increase,
        decrease,
        a_threshold: a_threshold(params),
        b_threshold: b_threshold(params),
    }
}

/// Convenience: parameter sets exhibiting each case, derived from a base
/// set by scaling the gains across the thresholds. Used by the figure
/// generators and tests.
#[must_use]
pub fn exemplar(base: &BcnParams, case: CaseId) -> BcnParams {
    let a_thr = a_threshold(base);
    let b_thr = b_threshold(base);
    let n = f64::from(base.n_flows);
    // a = ru * gi * n  =>  choose gi to place a relative to its threshold.
    let gi_for = |target_a: f64| target_a / (base.ru * n);
    let gd_for = |target_b: f64| target_b;
    match case {
        CaseId::Case1 => base.clone().with_gi(gi_for(0.25 * a_thr)).with_gd(gd_for(0.25 * b_thr)),
        CaseId::Case2 => base.clone().with_gi(gi_for(4.0 * a_thr)).with_gd(gd_for(0.25 * b_thr)),
        CaseId::Case3 => base.clone().with_gi(gi_for(0.25 * a_thr)).with_gd(gd_for(4.0 * b_thr)),
        CaseId::Case4 => base.clone().with_gi(gi_for(4.0 * a_thr)).with_gd(gd_for(4.0 * b_thr)),
        CaseId::Case5 => base.clone().with_gi(gi_for(a_thr)).with_gd(base.gd),
    }
}

/// A Case-5 exemplar on the *decrease*-critical branch
/// (`b = 4 pm^2 C / w^2`), the branch for which the paper's unconditional
/// strong-stability claim actually holds (see the [`CaseId::Case5`]
/// erratum note).
#[must_use]
pub fn exemplar_case5_decrease(base: &BcnParams) -> BcnParams {
    let a_thr = a_threshold(base);
    let n = f64::from(base.n_flows);
    // Keep the increase region spiral, put the decrease region exactly on
    // its boundary.
    base.clone().with_gi(0.25 * a_thr / (base.ru * n)).with_gd(b_threshold(base))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagate::Propagator;
    use phaseplane::classify;

    #[test]
    fn paper_defaults_are_case1() {
        let p = BcnParams::paper_defaults();
        let c = classify_params(&p);
        assert_eq!(c.case, CaseId::Case1);
        assert_eq!(c.increase, RegionShape::Spiral);
        assert_eq!(c.decrease, RegionShape::Spiral);
        // Thresholds from the worked numbers: 4 pm^2 C^2 / w^2 = 1e16.
        assert!((c.a_threshold - 1e16).abs() < 1.0);
        assert!((c.b_threshold - 1e6).abs() < 1e-6);
    }

    #[test]
    fn shape_from_discriminant() {
        // k = 1: n < 4 spiral, n > 4 node, n = 4 critical.
        assert_eq!(RegionShape::from_kn(1.0, 1.0), RegionShape::Spiral);
        assert_eq!(RegionShape::from_kn(1.0, 9.0), RegionShape::Node);
        assert_eq!(RegionShape::from_kn(1.0, 4.0), RegionShape::Critical);
    }

    #[test]
    fn exemplars_land_in_their_case() {
        let base = BcnParams::test_defaults();
        for case in [CaseId::Case1, CaseId::Case2, CaseId::Case3, CaseId::Case4, CaseId::Case5] {
            let p = exemplar(&base, case);
            p.validate().unwrap();
            assert_eq!(classify_params(&p).case, case, "case {case}");
        }
    }

    #[test]
    fn regions_are_always_stable_proposition_1() {
        // Proposition 1: viewed in isolation, both subsystems are stable
        // for any positive parameters.
        for p in [
            BcnParams::paper_defaults(),
            BcnParams::test_defaults(),
            exemplar(&BcnParams::test_defaults(), CaseId::Case2),
            exemplar(&BcnParams::test_defaults(), CaseId::Case4),
        ] {
            for r in [Region::Increase, Region::Decrease] {
                let kind = classify(&Propagator::for_params(&p).flow(r).jacobian());
                assert!(kind.is_attracting(), "{r:?} of {p:?} gave {kind}");
            }
        }
    }

    #[test]
    fn thresholds_scale_as_documented() {
        // a_threshold ~ C^2, b_threshold ~ C.
        let p1 = BcnParams::test_defaults();
        let p2 = p1.clone().with_capacity(2.0 * p1.capacity);
        assert!((a_threshold(&p2) / a_threshold(&p1) - 4.0).abs() < 1e-12);
        assert!((b_threshold(&p2) / b_threshold(&p1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn display_strings() {
        assert!(CaseId::Case1.to_string().contains("spiral/spiral"));
        assert_eq!(RegionShape::Node.to_string(), "node");
    }
}
