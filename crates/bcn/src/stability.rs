//! Strong stability of the BCN system (paper Definition 1,
//! Propositions 2–4, Theorem 1).
//!
//! *Strong stability* demands more than convergence: after some time the
//! queue must stay strictly inside `(0, B)` — never emptying (wasted link)
//! and never overflowing (dropped packets). The paper derives sufficient
//! conditions case by case:
//!
//! * **Proposition 2** (Case 1): the first-round extrema
//!   `max_1{x}` / `min_1{x}` must respect the buffer walls.
//! * **Proposition 3** (Case 2): the single overshoot `max_2{x}` must.
//! * **Proposition 4** (Cases 3–5): strong stability is unconditional.
//! * **Theorem 1**: the case-free sufficient condition
//!   `(1 + sqrt(Ru Gi N / (Gd C))) q0 < B`.
//!
//! Alongside the criteria this module provides [`exact_verdict`], the
//! ground-truth check obtained by tracing the actual switched trajectory,
//! and [`fluid_drop_verdicts`], the drop check of the buffer-saturating
//! fluid model; the criterion-tightness experiments use both.

use crate::cases::RegionShape;
use crate::cases::{classify_params, region_shape, CaseId};
use crate::closed_form::Spectrum;
use crate::model::Region;
use crate::params::BcnParams;
use crate::propagate::Propagator;
use crate::rounds::{first_round, trace_legs, trace_legs_into, FirstRound, Leg};
use crate::simulate::{drop_verdicts_lockstep, SaturatingFluid};

/// Why the criterion declares a system strongly stable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Justification {
    /// Case 1: both first-round extrema fit inside the buffer
    /// (Proposition 2).
    Proposition2 {
        /// First-round maximum of `x = q - q0`.
        max1: f64,
        /// First-round minimum of `x`.
        min1: f64,
    },
    /// Case 2: the single overshoot fits below the buffer
    /// (Proposition 3).
    Proposition3 {
        /// The overshoot maximum of `x`.
        max2: f64,
    },
    /// Cases 3, 4, and the decrease-critical branch of Case 5:
    /// unconditional (Proposition 4).
    Proposition4 {
        /// Which unconditional case applied.
        case: CaseId,
    },
    /// The increase-critical branch of Case 5 — conditional, contrary to
    /// the paper's printed Proposition 4 (see the [`CaseId::Case5`]
    /// erratum note): the single overshoot must fit under the buffer,
    /// exactly as in the Case 2 limit it is.
    Case5Amended {
        /// The overshoot maximum of `x`.
        max2: f64,
    },
}

/// Outcome of the paper's case-by-case sufficient criterion.
#[derive(Debug, Clone, PartialEq)]
pub enum StabilityVerdict {
    /// The criterion guarantees strong stability.
    StronglyStable(Justification),
    /// The sufficient condition fails — the system *may* still be
    /// strongly stable (the criterion is one-sided); the string explains
    /// which bound failed.
    NotGuaranteed(String),
}

impl StabilityVerdict {
    /// Whether the verdict is a strong-stability guarantee.
    #[must_use]
    pub fn is_guaranteed(&self) -> bool {
        matches!(self, StabilityVerdict::StronglyStable(_))
    }
}

/// The buffer Theorem 1 requires:
/// `B_required = (1 + sqrt(Ru Gi N / (Gd C))) q0`.
#[must_use]
pub fn theorem1_required_buffer(params: &BcnParams) -> f64 {
    let a = params.a();
    let bc = params.b() * params.capacity;
    (1.0 + (a / bc).sqrt()) * params.q0
}

/// Whether Theorem 1's sufficient condition holds for the configured
/// buffer.
#[must_use]
pub fn theorem1_holds(params: &BcnParams) -> bool {
    theorem1_required_buffer(params) < params.buffer
}

/// The intermediate bound in the Theorem 1 proof:
/// `max q(t) - q0 < sqrt(a / (b C)) q0` (and symmetrically
/// `min > -q0`), i.e. the overshoot estimate the explicit criterion is
/// built from.
#[must_use]
pub fn overshoot_bound(params: &BcnParams) -> f64 {
    (params.a() / (params.b() * params.capacity)).sqrt() * params.q0
}

/// Case-1 first-round extrema per Proposition 2, computed exactly from
/// the region flows. Returns `None` outside Case 1.
#[must_use]
pub fn proposition2_bounds(params: &BcnParams) -> Option<FirstRound> {
    first_round(params)
}

/// The paper's explicit transcription of Eqs. 36–37 (`max_1{x}`,
/// `min_1{x}`) through the printed coefficient chain
/// `A_i^1, phi_i^1, T_i^1, x_d^1(0), A_d^1, phi_d^1, x_i^2(0)`.
///
/// Returns `None` outside Case 1. Kept alongside the robust
/// [`proposition2_bounds`] for paper fidelity; the test suite checks both
/// agree.
#[must_use]
pub fn proposition2_bounds_paper(params: &BcnParams) -> Option<(f64, f64)> {
    if classify_params(params).case != CaseId::Case1 {
        return None;
    }
    let a = params.a();
    let k = params.k();
    let bc = params.b() * params.capacity;
    let q0 = params.q0;

    let root_i = (4.0 * a - a * a * k * k).sqrt(); // 2 beta_i
    let root_d = (4.0 * bc - (k * bc) * (k * bc)).sqrt(); // 2 beta_d
    let alpha_i_over_beta_i = -a * k / root_i;
    let alpha_d_over_beta_d = -bc * k / root_d;

    // First increase leg.
    let a_i1 = 2.0 * q0 * a.sqrt() / root_i;
    let phi_i1 = -(a * k / root_i).atan();
    let t_i1 = 2.0 / root_i * (((2.0 - a * k * k) / (k * root_i)).atan() - phi_i1);
    let x_d1 = -k * a_i1 * root_i / 2.0 * (-a * k / 2.0 * t_i1).exp();

    // Decrease leg: Eq. 36.
    let phi_d1 = ((2.0 - params.b() * k * k * params.capacity) / (k * root_d)).atan();
    let max1 = x_d1.abs() / (k * bc.sqrt())
        * (alpha_d_over_beta_d * (std::f64::consts::PI + alpha_d_over_beta_d.atan() - phi_d1))
            .exp();

    // Second increase leg: Eq. 37.
    let a_d1 = 2.0 * (x_d1.abs() / k) / root_d;
    let t_d1 = std::f64::consts::TAU / root_d;
    let x_i2 = -a_d1 * k * root_d / 2.0 * (-bc * k / 2.0 * t_d1).exp();
    let phi_i2 = ((2.0 - a * k * k) / (k * root_i)).atan();
    let min1 = -(x_i2.abs() / (k * a.sqrt()))
        * (alpha_i_over_beta_i * (std::f64::consts::PI + alpha_i_over_beta_i.atan() - phi_i2))
            .exp();
    Some((max1, min1))
}

/// Case-2 overshoot maximum per Proposition 3 (Eq. 38), computed exactly
/// from the region flows. Returns `None` outside Case 2.
#[must_use]
pub fn proposition3_max(params: &BcnParams) -> Option<f64> {
    if classify_params(params).case != CaseId::Case2 {
        return None;
    }
    let legs = trace_legs(params, params.initial_point(), 2);
    legs.get(1)?.extremum.map(|e| e.x)
}

/// The paper's explicit transcription of Eq. 38 for Case 2.
///
/// Returns `None` outside Case 2.
#[must_use]
pub fn proposition3_max_paper(params: &BcnParams) -> Option<f64> {
    if classify_params(params).case != CaseId::Case2 {
        return None;
    }
    let k = params.k();
    let bc = params.b() * params.capacity;
    let q0 = params.q0;
    // Increase-region node eigenvalues, from the memo-cached spectral
    // decomposition shared with the trajectory hot path.
    let prop = Propagator::for_params(params);
    let Spectrum::Node { l1, l2 } = prop.flow(Region::Increase).spectrum() else { return None };
    // y_d^1(0) = q0 [ (k + 1/l1)^{l1} / (k + 1/l2)^{l2} ]^{1/(l2 - l1)};
    // both bases are positive because l1 < l2 < -1/k.
    let base1 = k + 1.0 / l1;
    let base2 = k + 1.0 / l2;
    debug_assert!(base1 > 0.0 && base2 > 0.0);
    let y_d1 = q0 * ((l1 * base1.ln() - l2 * base2.ln()) / (l2 - l1)).exp();
    // Decrease-region spiral quantities.
    let root_d = (4.0 * bc - (k * bc) * (k * bc)).sqrt();
    let alpha_d_over_beta_d = -bc * k / root_d;
    let phi_d1 = ((2.0 - params.b() * k * k * params.capacity) / (k * root_d)).atan();
    let max2 = y_d1 / bc.sqrt()
        * (alpha_d_over_beta_d * (std::f64::consts::PI + alpha_d_over_beta_d.atan() - phi_d1))
            .exp();
    Some(max2)
}

/// Applies the paper's case-by-case sufficient criterion
/// (Propositions 2–4).
#[must_use]
pub fn criterion(params: &BcnParams) -> StabilityVerdict {
    let analysis = classify_params(params);
    let wall_hi = params.buffer - params.q0;
    let wall_lo = -params.q0;
    match analysis.case {
        CaseId::Case1 => match proposition2_bounds(params) {
            Some(fr) => {
                if fr.max1_x < wall_hi && fr.min1_x > wall_lo {
                    StabilityVerdict::StronglyStable(Justification::Proposition2 {
                        max1: fr.max1_x,
                        min1: fr.min1_x,
                    })
                } else if fr.max1_x >= wall_hi {
                    StabilityVerdict::NotGuaranteed(format!(
                        "first-round maximum {:.3e} reaches the buffer wall {:.3e}",
                        fr.max1_x, wall_hi
                    ))
                } else {
                    StabilityVerdict::NotGuaranteed(format!(
                        "first-round minimum {:.3e} empties the queue (wall {:.3e})",
                        fr.min1_x, wall_lo
                    ))
                }
            }
            None => StabilityVerdict::NotGuaranteed("first-round analysis did not complete".into()),
        },
        CaseId::Case2 => match proposition3_max(params) {
            Some(max2) if max2 < wall_hi => {
                StabilityVerdict::StronglyStable(Justification::Proposition3 { max2 })
            }
            Some(max2) => StabilityVerdict::NotGuaranteed(format!(
                "overshoot {max2:.3e} reaches the buffer wall {wall_hi:.3e}"
            )),
            None => {
                // No interior extremum at all: the trajectory cannot
                // overshoot, which is even safer than the bound.
                StabilityVerdict::StronglyStable(Justification::Proposition3 { max2: 0.0 })
            }
        },
        case @ (CaseId::Case3 | CaseId::Case4) => {
            StabilityVerdict::StronglyStable(Justification::Proposition4 { case })
        }
        CaseId::Case5 => {
            // Amended rule (paper erratum): only the decrease-critical
            // branch (increase region still spiral) inherits Case 3's
            // unconditional stability; an increase region at or past its
            // threshold behaves like Case 2 and needs the overshoot
            // check.
            if region_shape(params, crate::model::Region::Increase) == RegionShape::Spiral {
                StabilityVerdict::StronglyStable(Justification::Proposition4 {
                    case: CaseId::Case5,
                })
            } else {
                let legs = trace_legs(params, params.initial_point(), 3);
                let max2 = legs
                    .iter()
                    .filter_map(|l| l.extremum)
                    .map(|e| e.x)
                    .fold(f64::NEG_INFINITY, f64::max);
                if !max2.is_finite() || max2 < wall_hi {
                    StabilityVerdict::StronglyStable(Justification::Case5Amended {
                        max2: if max2.is_finite() { max2 } else { 0.0 },
                    })
                } else {
                    StabilityVerdict::NotGuaranteed(format!(
                        "case-5 overshoot {max2:.3e} reaches the buffer wall {wall_hi:.3e}"
                    ))
                }
            }
        }
    }
}

/// Ground truth by trajectory tracing: the supremum/infimum of
/// `x = q - q0` over the switched trajectory from the canonical start
/// `(-q0, 0)`, excluding the start instant itself (Definition 1 allows an
/// initial transient at the boundary).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactVerdict {
    /// Whether `0 < q < B` holds for all `t > 0` along the trace.
    pub strongly_stable: bool,
    /// Largest `x` observed.
    pub max_x: f64,
    /// Smallest `x` observed (after the start).
    pub min_x: f64,
    /// Number of legs traced.
    pub legs: usize,
}

/// Traces the switched linearised trajectory for up to `max_legs` legs
/// and reports the exact strong-stability verdict.
#[must_use]
pub fn exact_verdict(params: &BcnParams, max_legs: usize) -> ExactVerdict {
    let prop = Propagator::for_params(params);
    let mut legs = Vec::new();
    exact_verdict_scratch(params, &prop, max_legs, &mut legs)
}

/// The allocation-free core of [`exact_verdict`]: the caller supplies
/// the resolved propagator and a reusable leg buffer, so a worker
/// answering many queries allocates nothing once the buffer has grown
/// to the workload's deepest trace.
///
/// `prop` must be the propagator of `params`; cached and fresh builds
/// are bit-identical, so either source yields the same verdict bits.
#[must_use]
pub fn exact_verdict_scratch(
    params: &BcnParams,
    prop: &Propagator,
    max_legs: usize,
    legs: &mut Vec<Leg>,
) -> ExactVerdict {
    trace_legs_into(params, prop, params.initial_point(), max_legs, legs, None);
    let mut max_x = f64::NEG_INFINITY;
    let mut min_x = f64::INFINITY;
    for (i, leg) in legs.iter().enumerate() {
        if i > 0 {
            max_x = max_x.max(leg.start[0]);
            min_x = min_x.min(leg.start[0]);
        }
        if let Some(e) = leg.extremum {
            max_x = max_x.max(e.x);
            min_x = min_x.min(e.x);
        }
        if let Some(end) = leg.end {
            max_x = max_x.max(end[0]);
            min_x = min_x.min(end[0]);
        }
    }
    if !max_x.is_finite() || !min_x.is_finite() {
        // Trajectory never produced a comparison point beyond the start:
        // it slid directly to the equilibrium.
        max_x = 0.0;
        min_x = 0.0;
    }
    let strongly_stable = max_x < params.buffer - params.q0 && min_x > -params.q0;
    ExactVerdict { strongly_stable, max_x, min_x, legs: legs.len() }
}

/// [`exact_verdict`] over a whole frontier scan at once, fanned out
/// across the configured `parkit` worker count.
///
/// Tracing a switched trajectory is the expensive cell of every atlas
/// and buffer-frontier sweep; the scans are embarrassingly parallel, so
/// batching them here lets every caller (criterion atlases, CLI sweeps)
/// share one well-tested fan-out. Each worker reuses one leg buffer
/// across its cells, so the steady state allocates nothing. Verdict `i`
/// corresponds to `params_list[i]`; each verdict is a pure function of
/// its parameters, so the output is identical to the serial loop at any
/// thread count.
#[must_use]
pub fn exact_verdicts(params_list: &[BcnParams], max_legs: usize) -> Vec<ExactVerdict> {
    parkit::par_map_init(params_list.len(), Vec::new, |legs: &mut Vec<Leg>, i| {
        let p = &params_list[i];
        exact_verdict_scratch(p, &Propagator::for_params(p), max_legs, legs)
    })
}

/// Cells one worker hands to the lockstep drop kernel at a time: enough
/// to keep its lanes refilled past a long cell, few enough that the
/// `parkit` deal still balances the workers.
const DROP_CHUNK: usize = 32;

/// Whether each cell's saturating fluid run drops bits: verdict `i` is
/// `cells[i].0.run_canonical(cells[i].1).has_drops()`, bit for bit.
///
/// This is the buffer-overflow ground truth the criterion atlases audit
/// Theorem 1 against. Only the drop bit is needed, so no trajectory is
/// built: each cell stops at its first dropped bit, and within a chunk
/// the cells are stepped four at a time in lockstep. Chunks fan out
/// across the configured `parkit` worker count; every verdict is a pure
/// function of its cell, so the output is identical at any width.
///
/// # Panics
///
/// Panics if a horizon is non-positive or not finite.
#[must_use]
pub fn fluid_drop_verdicts(cells: &[(SaturatingFluid, f64)]) -> Vec<bool> {
    let chunks: Vec<_> = cells.chunks(DROP_CHUNK).collect();
    parkit::par_map(&chunks, |chunk| drop_verdicts_lockstep(chunk)).concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::exemplar;
    use crate::units::MBIT;

    #[test]
    fn theorem1_reproduces_the_worked_example() {
        // Paper Section IV-C: N = 50, C = 10 Gbit/s, q0 = 2.5 Mbit,
        // Gi = 4, Gd = 1/128, Ru = 8 Mbit/s => required buffer
        // (1 + sqrt(20.48)) * 2.5 Mbit ~ 13.8 Mbit (paper rounds 13.75),
        // vs the 5 Mbit bandwidth-delay product.
        let p = BcnParams::paper_defaults();
        let req = theorem1_required_buffer(&p);
        assert!((req - 13.814e6).abs() < 0.05e6, "required {req}");
        assert!(!theorem1_holds(&p), "BDP buffer must be insufficient");
        assert!(theorem1_holds(&p.clone().with_buffer(14.0 * MBIT)));
    }

    #[test]
    fn theorem1_scales_with_sqrt_n_over_c() {
        // The paper remark: max overshoot grows with sqrt(N/C) and with q0.
        let p = BcnParams::paper_defaults();
        let b0 = overshoot_bound(&p);
        let b_4n = overshoot_bound(&p.clone().with_n_flows(p.n_flows * 4));
        assert!((b_4n / b0 - 2.0).abs() < 1e-9);
        let b_4c = overshoot_bound(&p.clone().with_capacity(4.0 * p.capacity));
        assert!((b_4c / b0 - 0.5).abs() < 1e-9);
        let b_2q = overshoot_bound(&p.clone().with_q0(2.0 * p.q0));
        assert!((b_2q / b0 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn theorem1_bounds_the_exact_first_round() {
        // Theorem 1's overshoot bound must dominate the exact extrema.
        for p in [BcnParams::test_defaults(), BcnParams::paper_defaults()] {
            let fr = proposition2_bounds(&p).expect("case 1");
            let bound = overshoot_bound(&p);
            assert!(fr.max1_x < bound, "max1 {} vs bound {bound}", fr.max1_x);
            assert!(fr.min1_x > -p.q0, "min1 {}", fr.min1_x);
        }
    }

    #[test]
    fn proposition2_paper_chain_matches_exact() {
        for p in [BcnParams::test_defaults(), BcnParams::paper_defaults()] {
            let fr = proposition2_bounds(&p).unwrap();
            let (max1_paper, min1_paper) = proposition2_bounds_paper(&p).unwrap();
            assert!(
                (fr.max1_x - max1_paper).abs() < 1e-6 * fr.max1_x.abs(),
                "max1 exact {} vs paper {max1_paper}",
                fr.max1_x
            );
            assert!(
                (fr.min1_x - min1_paper).abs() < 1e-6 * fr.min1_x.abs(),
                "min1 exact {} vs paper {min1_paper}",
                fr.min1_x
            );
        }
    }

    #[test]
    fn proposition3_paper_matches_exact() {
        let p = exemplar(&BcnParams::test_defaults(), CaseId::Case2);
        let exact = proposition3_max(&p).expect("case-2 overshoot");
        let paper = proposition3_max_paper(&p).expect("case-2 paper bound");
        // Eq. 38 describes the same decrease-leg maximum.
        assert!((exact - paper).abs() < 1e-6 * exact.abs(), "exact {exact} vs paper {paper}");
    }

    #[test]
    fn criterion_dispatches_per_case() {
        let base = BcnParams::test_defaults();
        // Case 1 with a roomy buffer: Proposition 2.
        let p1 = exemplar(&base, CaseId::Case1).with_buffer(1.0e6);
        match criterion(&p1) {
            StabilityVerdict::StronglyStable(Justification::Proposition2 { .. }) => {}
            v => panic!("case 1 verdict {v:?}"),
        }
        // Case 2: Proposition 3.
        let p2 = exemplar(&base, CaseId::Case2).with_buffer(1.0e6);
        match criterion(&p2) {
            StabilityVerdict::StronglyStable(Justification::Proposition3 { .. }) => {}
            v => panic!("case 2 verdict {v:?}"),
        }
        // Cases 3-4: Proposition 4 unconditionally.
        for c in [CaseId::Case3, CaseId::Case4] {
            let p = exemplar(&base, c);
            match criterion(&p) {
                StabilityVerdict::StronglyStable(Justification::Proposition4 { case }) => {
                    assert_eq!(case, c);
                }
                v => panic!("{c} verdict {v:?}"),
            }
        }
        // Case 5, increase-critical branch (paper erratum): conditional —
        // approved only when the overshoot fits, via the amended rule.
        let p5 = exemplar(&base, CaseId::Case5).with_buffer(1.0e7);
        match criterion(&p5) {
            StabilityVerdict::StronglyStable(Justification::Case5Amended { max2 }) => {
                assert!(max2 > 0.0 && max2 < p5.buffer - p5.q0);
            }
            v => panic!("case 5 roomy verdict {v:?}"),
        }
        assert!(!criterion(&exemplar(&base, CaseId::Case5)).is_guaranteed());
        // Case 5, decrease-critical branch: unconditional like Case 3.
        let p5d = crate::cases::exemplar_case5_decrease(&base);
        match criterion(&p5d) {
            StabilityVerdict::StronglyStable(Justification::Proposition4 { case }) => {
                assert_eq!(case, CaseId::Case5);
            }
            v => panic!("case 5 decrease verdict {v:?}"),
        }
    }

    #[test]
    fn tight_buffer_fails_the_criterion() {
        // Shrink the buffer to just above q0: Case 1 must refuse.
        let p = BcnParams::test_defaults();
        let fr = proposition2_bounds(&p).unwrap();
        let tight = p.clone().with_buffer(p.q0 + 0.5 * fr.max1_x);
        let v = criterion(&tight);
        assert!(!v.is_guaranteed(), "verdict {v:?}");
    }

    #[test]
    fn exact_verdict_agrees_with_criterion_when_granted() {
        // Whenever the sufficient criterion grants stability, the exact
        // trace must confirm it (soundness of the criterion).
        let base = BcnParams::test_defaults();
        for case in [CaseId::Case1, CaseId::Case2, CaseId::Case3, CaseId::Case4] {
            let p = exemplar(&base, case).with_buffer(2.0e6);
            if criterion(&p).is_guaranteed() {
                let ev = exact_verdict(&p, 30);
                assert!(ev.strongly_stable, "{case}: exact says {ev:?}");
            }
        }
    }

    #[test]
    fn batched_verdicts_match_the_serial_loop() {
        let base = BcnParams::test_defaults();
        let scan: Vec<BcnParams> = (1..=6)
            .map(|i| {
                let mut p = base.clone();
                p.gi = base.gi * 0.5 * f64::from(i);
                p
            })
            .collect();
        let batched = exact_verdicts(&scan, 30);
        assert_eq!(batched.len(), scan.len());
        for (p, got) in scan.iter().zip(&batched) {
            assert_eq!(*got, exact_verdict(p, 30));
        }
    }

    #[test]
    fn exact_verdict_detects_overflow() {
        // A buffer barely above q0 cannot absorb the Case-1 overshoot.
        let p = BcnParams::test_defaults();
        let fr = proposition2_bounds(&p).unwrap();
        let tight = p.clone().with_buffer(p.q0 + 0.5 * fr.max1_x);
        let ev = exact_verdict(&tight, 30);
        assert!(!ev.strongly_stable);
        assert!(ev.max_x >= tight.buffer - tight.q0);
    }

    #[test]
    fn criterion_bounds_match_exact_extrema() {
        // For Case 1 the criterion's numbers ARE the exact first-round
        // extrema, hence must match the traced extrema.
        let p = BcnParams::test_defaults();
        let fr = proposition2_bounds(&p).unwrap();
        let ev = exact_verdict(&p, 40);
        assert!((ev.max_x - fr.max1_x).abs() < 1e-6 * fr.max1_x.abs());
        assert!((ev.min_x - fr.min1_x).abs() < 1e-6 * fr.min1_x.abs());
    }

    #[test]
    fn theorem1_is_conservative_relative_to_exact() {
        // Theorem 1 requiring more buffer than the exact trace needs.
        let p = BcnParams::test_defaults();
        let ev = exact_verdict(&p, 40);
        let exact_needed = p.q0 + ev.max_x;
        let thm1_needed = theorem1_required_buffer(&p);
        assert!(thm1_needed >= exact_needed, "theorem1 {thm1_needed} vs exact {exact_needed}");
    }
}
