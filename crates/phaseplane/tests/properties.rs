//! Property tests of the phase-plane toolkit: classification
//! consistency with eigenvalues, return-map behaviour of random linear
//! flows, and switching-line geometry.
//!
//! Every case is drawn from a splitmix64 seed, and every assertion
//! prints that seed with the drawn inputs, which reproduce the case.

use phaseplane::poincare::ReturnMap;
use phaseplane::{classify, Eigen2, FixedPointKind, Mat2, SwitchingLine};

/// Random cases each property checks.
const CASES: u64 = 96;

/// The splitmix64 finalizer (the `dcesim::faults` stream, which this
/// crate cannot depend on).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeds of the property salted `salt`, one per case.
fn seeds(salt: u64) -> impl Iterator<Item = u64> {
    (0..CASES).map(move |case| splitmix64(salt ^ splitmix64(case)))
}

/// The `k`-th uniform draw from `lo..hi` of the case seeded `seed`.
fn draw(seed: u64, k: u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * ((splitmix64(seed ^ splitmix64(k)) >> 11) as f64 / (1u64 << 53) as f64)
}

/// Classification agrees with the eigenstructure for random matrices.
#[test]
fn classification_matches_eigenvalues() {
    for seed in seeds(1) {
        let [a, b, c, d] = [0, 1, 2, 3].map(|k| draw(seed, k, -3.0, 3.0));
        let m = Mat2::new(a, b, c, d);
        let kind = classify(&m);
        let at = format!("seed {seed:#x} ({a}, {b}, {c}, {d}) gave {kind}");
        match m.eigen() {
            Eigen2::Complex { re, .. } => {
                assert!(kind.is_rotational(), "{at}: complex pair");
                if re < 0.0 {
                    assert_eq!(kind, FixedPointKind::StableFocus, "{at}");
                } else if re > 0.0 {
                    assert_eq!(kind, FixedPointKind::UnstableFocus, "{at}");
                }
            }
            Eigen2::RealDistinct { l1, l2, v1, v2 } => {
                if l1 * l2 < 0.0 {
                    assert_eq!(kind, FixedPointKind::Saddle, "{at}");
                } else if l2 < 0.0 {
                    assert_eq!(kind, FixedPointKind::StableNode, "{at}");
                } else if l1 > 0.0 {
                    assert_eq!(kind, FixedPointKind::UnstableNode, "{at}");
                }
                // Eigenvector residuals vanish.
                for (l, v) in [(l1, v1), (l2, v2)] {
                    let av = m.mul_vec(v);
                    let res = ((av[0] - l * v[0]).powi(2) + (av[1] - l * v[1]).powi(2)).sqrt();
                    assert!(res < 1e-7 * (1.0 + l.abs()), "{at}: residual {res}");
                }
            }
            Eigen2::RealRepeated { l, v } => {
                let av = m.mul_vec(v);
                let res = ((av[0] - l * v[0]).powi(2) + (av[1] - l * v[1]).powi(2)).sqrt();
                assert!(res < 1e-6 * (1.0 + l.abs()), "{at}: residual {res}");
            }
        }
    }
}

/// Eigenvalues satisfy the characteristic polynomial.
#[test]
fn eigenvalues_satisfy_characteristic() {
    for seed in seeds(2) {
        let (m, n) = (draw(seed, 0, 0.01, 10.0), draw(seed, 1, 0.01, 10.0));
        let at = format!("seed {seed:#x} (m {m}, n {n})");
        match Mat2::companion(m, n).eigen() {
            Eigen2::RealDistinct { l1, l2, .. } => {
                for l in [l1, l2] {
                    let p = l * l + m * l + n;
                    assert!(p.abs() < 1e-8 * (n + l * l), "{at}: residual {p}");
                }
                // Vieta.
                assert!((l1 + l2 + m).abs() < 1e-9 * m.max(1.0), "{at}: sum {l1} + {l2}");
                assert!((l1 * l2 - n).abs() < 1e-9 * n.max(1.0), "{at}: product {l1} * {l2}");
            }
            Eigen2::Complex { re, im } => {
                assert!((2.0 * re + m).abs() < 1e-9 * m.max(1.0), "{at}: re {re}");
                assert!((re * re + im * im - n).abs() < 1e-9 * n.max(1.0), "{at}: {re} ± {im}i");
            }
            Eigen2::RealRepeated { l, .. } => {
                assert!((2.0 * l + m).abs() < 1e-9 * m.max(1.0), "{at}: repeated {l}");
            }
        }
    }
}

/// Switching-line coordinates round-trip and sides are consistent.
#[test]
fn switching_line_geometry() {
    for seed in seeds(3) {
        let (k, s) = (draw(seed, 0, 0.001, 100.0), draw(seed, 1, -50.0, 50.0));
        let at = format!("seed {seed:#x} (k {k}, s {s})");
        let line = SwitchingLine::bcn(k);
        let p = line.point_at(s);
        assert!((line.coordinate_of(p) - s).abs() < 1e-9 * s.abs().max(1.0), "{at}");
        assert!(line.signed_value(p).abs() < 1e-9 * s.abs().max(1.0), "{at}");
        // Normal direction really is orthogonal to the line direction.
        let nrm = line.normal();
        let dir = line.direction();
        assert!((nrm[0] * dir[0] + nrm[1] * dir[1]).abs() < 1e-12 * (1.0 + k), "{at}");
    }
}

/// For a random linear stable focus, the Poincaré return ratio is in
/// (0, 1) and independent of the starting coordinate (homogeneity).
#[test]
fn linear_focus_return_ratio() {
    for seed in seeds(4) {
        let m = draw(seed, 0, 0.05, 1.5);
        let n_extra = draw(seed, 1, 0.5, 8.0);
        let s0 = draw(seed, 2, 0.2, 3.0);
        let at = format!("seed {seed:#x} (m {m}, n_extra {n_extra}, s0 {s0})");
        // Ensure complex eigenvalues: n > m^2/4.
        let n = m * m / 4.0 + n_extra;
        let sys = move |p: [f64; 2]| [p[1], -n * p[0] - m * p[1]];
        let map =
            ReturnMap::new(&sys, SwitchingLine::new(0.0, 1.0)).with_tol(1e-11).with_horizon(1e4);
        let ratio = |s: f64| map.contraction_ratio(s).unwrap_or_else(|e| panic!("{at}: {e}"));
        let (rho1, rho2) = (ratio(s0), ratio(2.0 * s0));
        assert!(rho1 > 0.0 && rho1 < 1.0, "{at}: rho {rho1}");
        assert!((rho1 - rho2).abs() < 1e-5 * rho1, "{at}: {rho1} vs {rho2}");
        // A full revolution takes 2 pi / beta, over which the amplitude
        // contracts by exp(-m/2 * T).
        let beta = (n - m * m / 4.0).sqrt();
        let expect = (-m / 2.0 * std::f64::consts::TAU / beta).exp();
        assert!(
            (rho1 - expect).abs() < 1e-4 * expect,
            "{at}: measured {rho1} vs analytic {expect}"
        );
    }
}
