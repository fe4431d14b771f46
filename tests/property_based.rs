//! Property tests over randomly drawn, valid BCN parameterisations: the
//! paper's structural invariants must hold on all of them, not just the
//! hand-picked examples.
//!
//! Every case is drawn from a splitmix64 seed (`common`), and every
//! assertion prints that seed together with the drawn inputs.

use bcn::cases::{classify_params, region_shape};
use bcn::closed_form::RegionFlow;
use bcn::extrema::region_extremum;
use bcn::model::Region;
use bcn::query::{QueryBatch, StabilityQuery};
use bcn::rounds::{round_ratio, round_ratio_analytic, trace_legs};
use bcn::stability::{criterion, exact_verdict, theorem1_holds, theorem1_required_buffer};
use bcn::{BcnFluid, BcnParams, CaseId};
use common::{case_seed, random_params, uniform};
use dcesim::faults::splitmix64;
use phaseplane::{classify, FixedPointKind, Mat2};

mod common;

/// Random parameter sets each paper-invariant property checks.
const CASES: u64 = 96;

/// `(seed, params)` for every case of the property salted `salt`.
fn param_cases(salt: u64) -> impl Iterator<Item = (u64, BcnParams)> {
    (0..CASES).map(move |case| {
        let seed = case_seed(salt, case);
        (seed, random_params(seed))
    })
}

/// Every drawn parameter set validates, classifies into exactly one
/// case, and that case matches the per-region shapes.
#[test]
fn classification_is_consistent() {
    use bcn::RegionShape::*;
    for (seed, p) in param_cases(1) {
        p.validate().unwrap_or_else(|e| panic!("seed {seed:#x}: {e} on {p:?}"));
        let analysis = classify_params(&p);
        let inc = region_shape(&p, Region::Increase);
        let dec = region_shape(&p, Region::Decrease);
        assert_eq!(analysis.increase, inc, "seed {seed:#x}: {p:?}");
        assert_eq!(analysis.decrease, dec, "seed {seed:#x}: {p:?}");
        let expect = match (inc, dec) {
            (Critical, _) | (_, Critical) => CaseId::Case5,
            (Spiral, Spiral) => CaseId::Case1,
            (Node, Spiral) => CaseId::Case2,
            (Spiral, Node) => CaseId::Case3,
            (Node, Node) => CaseId::Case4,
        };
        assert_eq!(analysis.case, expect, "seed {seed:#x}: {p:?}");
    }
}

/// Proposition 1 holds everywhere: both region Jacobians are
/// attracting.
#[test]
fn regions_are_always_attracting() {
    for (seed, p) in param_cases(2) {
        let sys = BcnFluid::linearized(p.clone());
        for r in [Region::Increase, Region::Decrease] {
            let kind = classify(&sys.jacobian(r));
            assert!(kind.is_attracting(), "seed {seed:#x}: {r:?} gave {kind} on {p:?}");
            assert!(kind != FixedPointKind::Saddle, "seed {seed:#x}: {r:?} on {p:?}");
        }
    }
}

/// The matrix exponential obeys the semigroup property and the flow
/// solves the ODE (finite-difference check) for every region.
#[test]
fn region_flow_is_a_flow() {
    for (seed, p) in param_cases(3) {
        let sys = BcnFluid::linearized(p.clone());
        for r in [Region::Increase, Region::Decrease] {
            let flow = RegionFlow::from_kn(p.k(), sys.region_n(r));
            let z0 = [0.3 * p.q0, -0.05 * p.capacity];
            // Time scale proportional to the region's frequency.
            let t1 = 0.2 / sys.region_n(r).sqrt();
            let t2 = 0.35 / sys.region_n(r).sqrt();
            let direct = flow.at(t1 + t2, z0);
            let hops = flow.at(t2, flow.at(t1, z0));
            for i in 0..2 {
                let scale = direct[i].abs().max(p.q0);
                assert!(
                    (direct[i] - hops[i]).abs() < 1e-8 * scale,
                    "seed {seed:#x}: {r:?}: {direct:?} vs {hops:?} on {p:?}"
                );
            }
        }
    }
}

/// Any extremum reported by the analytic machinery is a genuine
/// stationary point of x(t) along the region flow.
#[test]
fn extrema_have_zero_velocity() {
    for (seed, p) in param_cases(4) {
        let sys = BcnFluid::linearized(p.clone());
        for r in [Region::Increase, Region::Decrease] {
            let flow = RegionFlow::from_kn(p.k(), sys.region_n(r));
            let z0 = [-0.7 * p.q0, 0.1 * p.capacity];
            if let Some(e) = region_extremum(&flow, z0) {
                let z = flow.at(e.t, z0);
                let y_scale = p.capacity.max(z0[1].abs());
                assert!(
                    z[1].abs() < 1e-6 * y_scale,
                    "seed {seed:#x}: {r:?}: y({}) = {} on {p:?}",
                    e.t,
                    z[1]
                );
                assert!(
                    (z[0] - e.x).abs() < 1e-6 * e.x.abs().max(p.q0),
                    "seed {seed:#x}: {r:?}: x({}) = {} vs {} on {p:?}",
                    e.t,
                    z[0],
                    e.x
                );
            }
        }
    }
}

/// Case-1 round ratios: numeric == closed form, and contained in
/// (0, 1) (strict contraction for w > 0).
#[test]
fn round_ratio_contracts() {
    for (seed, p) in param_cases(5) {
        if classify_params(&p).case != CaseId::Case1 {
            continue;
        }
        if let (Some(num), Some(ana)) = (round_ratio(&p), round_ratio_analytic(&p)) {
            assert!(num > 0.0 && num < 1.0, "seed {seed:#x}: rho = {num} on {p:?}");
            assert!(
                (num - ana).abs() < 1e-4 * ana,
                "seed {seed:#x}: numeric {num} vs analytic {ana} on {p:?}"
            );
        }
    }
}

/// Criterion soundness: a granted verdict is confirmed by the exact
/// trace, and Theorem 1 never out-permits the case criterion.
#[test]
fn criterion_soundness() {
    for (seed, p) in param_cases(6) {
        let granted = criterion(&p).is_guaranteed();
        if theorem1_holds(&p) {
            assert!(granted, "seed {seed:#x}: Theorem 1 passed but criterion refused: {p:?}");
        }
        if granted {
            let exact = exact_verdict(&p, 60);
            assert!(exact.strongly_stable, "seed {seed:#x}: criterion unsound on {p:?}: {exact:?}");
        }
    }
}

/// Theorem 1's requirement dominates the exact trajectory's need.
#[test]
fn theorem1_dominates_exact_need() {
    for (seed, p) in param_cases(7) {
        let exact = exact_verdict(&p, 60);
        let exact_need = p.q0 + exact.max_x;
        let thm_need = theorem1_required_buffer(&p);
        assert!(
            thm_need >= exact_need * (1.0 - 1e-9),
            "seed {seed:#x}: theorem1 {thm_need} below exact need {exact_need} on {p:?}"
        );
    }
}

/// Leg tracing never leaves the switching line inconsistently: every
/// closed leg ends on the line and legs alternate regions.
#[test]
fn legs_alternate_and_end_on_line() {
    for (seed, p) in param_cases(8) {
        let legs = trace_legs(&p, p.initial_point(), 10);
        let k = p.k();
        for pair in legs.windows(2) {
            assert!(pair[0].region != pair[1].region, "seed {seed:#x}: {p:?}");
        }
        for leg in &legs {
            if let Some(end) = leg.end {
                let scale = end[1].abs().max(p.q0);
                assert!(
                    (end[0] + k * end[1]).abs() < 1e-6 * scale.max(1.0),
                    "seed {seed:#x}: end off line: {end:?} on {p:?}"
                );
            }
        }
    }
}

/// The batched query engine is a pure re-batching of the serial path:
/// over random parameter mixes (with deliberate duplicates so dedup and
/// propagator-group sharing both engage), every answer is bitwise-equal
/// to the per-call `exact_verdict` + `theorem1_required_buffer` loop, at
/// worker widths 1 and 4, with the answer memo both cold (first
/// evaluation of fresh random keys) and warm (later evaluations of the
/// same batch are answered from it).
#[test]
fn batched_queries_match_serial_bitwise() {
    for case in 0..CASES {
        let seed = case_seed(9, case);
        // 1..8 random configurations, then one of them repeated so the
        // batch has duplicates to fold.
        let len = 1 + splitmix64(seed) % 7;
        let mut queries: Vec<StabilityQuery> = (0..len)
            .map(|i| StabilityQuery { params: random_params(splitmix64(seed ^ i)), max_legs: 32 })
            .collect();
        let dup = (splitmix64(seed ^ 8) % 8) as usize;
        queries.push(queries[dup % queries.len()].clone());

        let expected: Vec<(bool, u64, u64, u64, usize)> = queries
            .iter()
            .map(|q| {
                let v = exact_verdict(&q.params, q.max_legs);
                (
                    v.strongly_stable,
                    theorem1_required_buffer(&q.params).to_bits(),
                    v.max_x.to_bits(),
                    v.min_x.to_bits(),
                    v.legs,
                )
            })
            .collect();
        let batch = QueryBatch::new(&queries);
        // Cold pass (fresh random keys), then warm pass, at both widths.
        for (pass, width) in [1, 4, 1, 4].into_iter().enumerate() {
            let answers = batch.evaluate_in(width);
            let got: Vec<(bool, u64, u64, u64, usize)> = answers
                .iter()
                .map(|a| {
                    (
                        a.strongly_stable,
                        a.required_buffer.to_bits(),
                        a.max_x.to_bits(),
                        a.min_x.to_bits(),
                        a.legs,
                    )
                })
                .collect();
            assert_eq!(
                got, expected,
                "seed {seed:#x}: pass {pass} at width {width} (dup {dup}) on {queries:?}"
            );
        }
    }
}

/// Generic phase-plane classifier: trace/det signs decide the kind.
#[test]
fn trace_det_classification() {
    for case in 0..CASES {
        let seed = case_seed(10, case);
        let (m, n) = (uniform(seed, 0, -5.0, 5.0), uniform(seed, 1, -5.0, 5.0));
        let kind = classify(&Mat2::companion(m, n));
        let at = format!("seed {seed:#x}: m = {m}, n = {n} gave {kind}");
        if n < 0.0 {
            assert_eq!(kind, FixedPointKind::Saddle, "{at}");
        } else if n > 0.0 && m > 0.0 {
            assert!(kind.is_attracting(), "{at}");
        } else if n > 0.0 && m < 0.0 {
            assert!(!kind.is_attracting(), "{at}");
            assert!(kind != FixedPointKind::Saddle, "{at}");
        }
    }
}
