//! Small fixed-size vector arithmetic on `[f64; N]`.
//!
//! The solver works on stack-allocated arrays. These free functions keep
//! the DOPRI5 stepper readable without pulling in a linear-algebra
//! dependency.

/// Accumulates `acc += s * b` in place.
#[inline]
pub(crate) fn axpy_mut<const N: usize>(acc: &mut [f64; N], s: f64, b: &[f64; N]) {
    for i in 0..N {
        acc[i] += s * b[i];
    }
}

/// Weighted RMS error norm used by adaptive step control:
/// `sqrt(mean((err_i / (atol + rtol * max(|y0_i|, |y1_i|)))^2))`.
#[inline]
#[must_use]
pub(crate) fn error_norm<const N: usize>(
    err: &[f64; N],
    y0: &[f64; N],
    y1: &[f64; N],
    atol: f64,
    rtol: f64,
) -> f64 {
    let mut acc = 0.0;
    for i in 0..N {
        let sc = atol + rtol * y0[i].abs().max(y1[i].abs());
        let e = err[i] / sc;
        acc += e * e;
    }
    (acc / N as f64).sqrt()
}

/// Returns `true` when every component of `a` is finite.
#[inline]
#[must_use]
pub(crate) fn all_finite<const N: usize>(a: &[f64; N]) -> bool {
    a.iter().all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_matches_manual() {
        let a = [1.0, 2.0];
        let b = [10.0, -10.0];
        let mut acc = a;
        axpy_mut(&mut acc, 0.5, &b);
        assert_eq!(acc, [6.0, -3.0]);
    }

    #[test]
    fn error_norm_scales_with_tolerance() {
        let err = [1e-6, 1e-6];
        let y = [1.0, 1.0];
        let tight = error_norm(&err, &y, &y, 1e-9, 1e-9);
        let loose = error_norm(&err, &y, &y, 1e-3, 1e-3);
        assert!(tight > 1.0, "error should exceed tight tolerance");
        assert!(loose < 1.0, "error should be within loose tolerance");
    }

    #[test]
    fn finiteness_check() {
        assert!(all_finite(&[1.0, 2.0]));
        assert!(!all_finite(&[1.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY, 0.0]));
    }
}
