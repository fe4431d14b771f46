//! Queue extrema along region-local trajectories (paper Eqs. 18–20, 28, 34).
//!
//! Since `dx/dt = y`, the queue deviation `x(t)` has a local extremum
//! exactly where `y(t) = 0`. Each routine here comes in two flavours:
//!
//! * a **robust** version derived from the matrix-exponential flow (zero
//!   of `y(t)` located analytically or by safeguarded bisection), used by
//!   the stability criteria; and
//! * a **paper** version transcribing the printed formula, kept for
//!   fidelity and cross-checked against the robust version in tests.
//!
//! Transcription notes (verified by the cross-check tests):
//!
//! * Eq. 18/phi of Eq. 12 use the principal arctangent; for initial
//!   points with `x(0) <= 0` (including the canonical `(-q0, 0)`) the
//!   printed form needs the `atan2` branch correction applied here.
//! * Eq. 34's exponent reads `-(lambda A3 + A4)/(lambda A4)` in print;
//!   the derivation (substitute `t* = -(A3 lambda + A4)/(A4 lambda)` into
//!   `e^{lambda t}`) gives `-(lambda A3 + A4)/A4`. We implement the
//!   corrected form; see `critical_extremum`.
//!
//! # Sign skipping in the spiral bisection
//!
//! [`spiral_extremum`] bisects `h(θ) = y0 cos θ + c sin θ` on `[0, π]`
//! down to adjacent doubles, ~53 steps. Writing `R = √(y0² + c²)` and
//! `θ*` for the zero of `h` in `(0, π)`, `|h(θ)| = R |sin(θ − θ*)|`.
//! With `θ*` at least `m` from 0 and π, every `θ` in `[0, π]` at distance
//! `d` from `θ*` has `|h(θ)| ≥ (2/π) R min(d, m)`. Evaluated in floating
//! point (two products, one sum, `sin`/`cos` within an ulp), `h` is off by
//! at most ~`4ε(|y0| + |c|) ≤ 6e-16 R`, plus `2^-1074` where a product
//! underflows. So the computed sign of `h` is the true one whenever `d`
//! exceeds ~1e-15 rad and `R` is a normal number; the ambiguous band is
//! `~2ε(|y0| + |c|)/R ≲ 3e-16` rad wide on each side.
//!
//! The closed-form zero `θ̂ = atan2(|y0|, −c sgn y0)` lies within a few
//! ulps (~1e-15 rad) of `θ*`. A midpoint more than `SIGN_GUARD = 1e-12`
//! from `θ̂` is therefore more than 1000× the ambiguous band from `θ*`,
//! and its side is known without evaluating `h`: `lo` moves up below
//! `θ̂`, `hi` moves down above it. Inside the band `h` is evaluated
//! exactly as before, so every step, the `h == 0` exit and the returned
//! `t` and `x` are bit-identical to evaluating `h` at every midpoint. The
//! guard also makes the result independent of `atan2`'s last ulp. When
//! `θ̂` is within `ENDPOINT_MARGIN = 1e-6` of 0 or π, or `max(|y0|, |c|)`
//! is subnormal or not finite, the bound above does not hold with this
//! margin and every step evaluates `h`. For a zero of order one radian
//! a call evaluates `h` ~14 times instead of ~53.
//!
//! # Enclosure
//!
//! [`RegionConsts::extremum_enclosed`](crate::propagate::RegionConsts::extremum_enclosed)
//! brackets [`spiral_extremum`]'s `x` without the bisection, so a caller
//! that only needs to know whether an extremum can move a running
//! maximum or minimum, or leave a band, can skip it. Its
//! callers are the exact verdict (`stability`), which asks whether a
//! leg's extremum can move `max_x`/`min_x`, and the hybrid engine's
//! epoch guard (`dcesim::hybrid`), which asks whether the queue extremum
//! inside a record-grid step can leave the guard margins. Take
//! `α ± iβ` as the spectrum of the focus flow `spiral_extremum` evaluates
//! (rebuilt from the region's; a rebuild that is not a focus gets no
//! enclosure). In the coordinates `u = x0`, `v = (y0 − α x0)/β` the flow
//! is `x(θ) = e^{αθ/β} (u cos θ + v sin θ)` with `θ = β t`, so for
//! `t ≥ 0`, `|x| ≤ A = √(u² + v²)`: `[−A, A]` holds every value the leg
//! takes (`α = −m/2 ≤ 0`, since a [`RegionFlow`] has `m ≥ 0`). Also
//! `y0 = α u + β v` and `c = α v − β u`, so
//! `|y| = e^{αt} |h(βt)| ≤ R = √(y0² + c²) = √(α² + β²) A ≤ (β + |α|) A`.
//!
//! The enclosure evaluates `x̂ = x(θ̂)` at the closed-form zero `θ̂` of
//! the sign-skipping section on that flow, and the bisection returns `x`
//! at some `θ_b`. Both angles lie within ~1e-15 rad of the zero of `h`
//! (the ambiguous band and `atan2`'s few ulps), so in exact arithmetic
//! `|x(θ̂) − x(θ_b)| ≤ R |θ̂ − θ_b| / β ≤ 2e-15 (1 + |α|/β) A`.
//! Evaluating `e^{Jt} z0` rounds each of its terms, which are at most
//! `(1 + |α|/β) A` in size: ~8ε relative error on each side, ~2ε more
//! from `e^{αt}`'s argument (`|αt| e^{αt} ≤ 1/e`), plus `2^-1074` per
//! product that underflows. So `|x̂ − x| ≤ ~7e-15 (1 + |α|/β) A` plus a
//! few subnormal ulps. The enclosure is `[x̂ − m, x̂ + m]` with
//! `m = 1e-9 (1 + |α|/β) A + f64::MIN_POSITIVE`, more than 10⁵× the
//! bound. A tier-1 test checks containment on 1M seeded legs with
//! `|α|/β` up to 1e8, where `|x̂ − x|` stays below ~4.4e-16
//! `(1 + |α|/β) A`. Where `θ̂` is not trusted (`sign_change_estimate`
//! returns `None`) or `y0 = 0` (the extremum is half a rotation on), the
//! enclosure is `[−A − m, A + m]`. A non-finite `A` or `x̂` gives an
//! infinite or NaN bound, which no strict comparison passes, so callers
//! fall back to the exact value.
//!
//! `A` is the cheaper bound (one `hypot` against an `atan2`, an `exp`
//! and a `sin_cos`), and on a contracting spiral it already lies inside
//! the running extrema for about half of all legs, so callers test
//! `[−A − m, A + m]` first and compute `x̂` only where it does not.
//!
//! ## The contraction bound
//!
//! Every leg of a trace after the first starts exactly on the switching
//! line at `z0 = (fl(−k y0), y0)`, and such a start departs into the
//! decrease region for `y0 > 0`, the increase region for `y0 < 0`
//! ([`departing_region`](crate::rounds::departing_region)). So a region's
//! on-line starts are its unit start `u = (−kσ, σ)` scaled by `s = |y0|`,
//! with one rounding in `x0`. The flow is linear, so the leg from `s u`
//! has extremum `s x*(u)`. That extremum is the largest (or smallest) of
//! the `x(t)`, each linear in the start with
//! `|∂x(t)/∂x0| = e^{αt} |cos βt − (α/β) sin βt| ≤ 1 + |α|/β`, so rounding
//! `x0` (normal, by at most `εA/2`) moves it by at most
//! `(1 + |α|/β) εA/2`. The bisection lands within the per-leg bound of
//! its own start's extremum wherever `θ̂` lies (the computed sign of `h`
//! is wrong only within ~1e-15 rad of its zero), and `x̂₁`, `A₁` of `u`
//! carry the per-leg errors. So the extremum from an on-line start of
//! scale `s` lies in the unit enclosure scaled, `[s x̂₁ − m(s), s x̂₁ + m(s)]`
//! with `m(s) = s · 1e-9 (1 + |α|/β) A₁ + f64::MIN_POSITIVE`, the misses
//! a few ulps of `(1 + |α|/β) s A₁`. That needs `y0` and `x0` normal and
//! the leg's evaluation finite: `s` within the region's `[floor,
//! max_scale]` ([`RegionConsts`](crate::propagate::RegionConsts)). A
//! tier-1 test checks it on ~270k scaled legs with `|α|/β` up to 1e8 and
//! `s` from 1e-300 to 1e300. Rounding is monotone, so for every `s` in
//! `[floor, S]` it lies in `[min(S x̂₁, 0) − m(S), max(S x̂₁, 0) + m(S)]`.
//!
//! The exact verdict (`stability`) tests that interval for a cap `S_r` on
//! each region's scale. Once both lie strictly inside its running
//! `(min_x, max_x)`, no leg of scale in `[floor, S_r]` can move either
//! bit, and its extremum is not computed. The caps come from the half
//! turn: a leg entered on the line lasts exactly `π/β` (for `s ≥ floor`,
//! [`crossing_time`](crate::propagate::crossing_time) returns those bits,
//! `c` being nonzero), and `e^{Jπ/β} = λ_g I` with `λ_g = −e^{απ/β}`, so
//! `y` maps to `λ_g y`, changes sign and the regions alternate. In
//! floating point the stored matrix `M` gives `|y'| ≤ γ |y|` with
//! `γ = |M₂₁| k + |M₂₂|` up to ~6ε (and `2^-1074`, ≤ `2^-54 s` above the
//! floor), and a round scales by `ρ = γ_i γ_d`, the paper's `λ_a λ_d`.
//! From a leg of scale `s` in region `r` the caps are `S_r = s` and
//! `S_q = γ_r s (1 + δ)`, `δ = 1e-13`. When `ρ + δ < 1`, every later scale
//! stays below its region's cap; in practice the caps hold from the
//! first leg after each region's first on-line leg, and each later leg
//! costs one half-turn product. The verdict still compares each leg's
//! scale with its region's range, so a skipped extremum rests on the
//! enclosure and that comparison; the contraction only says why it keeps
//! passing. Where a premise fails (`ρ` within `δ` of 1, as where
//! `m = k n` rounds to 0; a node or critical region; an untrusted unit
//! `θ̂`), the verdict tests each leg on its own enclosure.

use crate::closed_form::{RegionFlow, Spectrum};

/// A located extremum of `x(t)` along a region trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Extremum {
    /// Time of the extremum (relative to the region entry).
    pub t: f64,
    /// The extremal value of `x`.
    pub x: f64,
}

/// Half-width, in radians, of the band around the estimated zero of
/// `h` inside which [`spiral_extremum`]'s bisection still evaluates `h`.
/// The floating-point sign of `h` is ambiguous only within ~3e-16 rad of
/// its zero (see the module header), so this leaves a margin of >1000×.
const SIGN_GUARD: f64 = 1e-12;

/// Zero estimates closer than this to 0 or π make [`spiral_extremum`]
/// evaluate `h` at every bisection step (the module header's `m`).
const ENDPOINT_MARGIN: f64 = 1e-6;

/// First extremum of `x(t)` for a spiral region (`alpha ± i beta`,
/// `beta > 0`) from `z0`, robust version.
///
/// Returns `None` only for the equilibrium itself. If `y(0) = 0` the
/// initial point is an extremum; the *next* one (half a rotation later) is
/// returned, matching the paper's `t* > 0` convention for round analysis.
///
/// The extremum angle is found by bisecting `h(θ) = y0 cos θ + c sin θ`
/// on `[0, π]` down to adjacent doubles. A bisection step whose midpoint
/// lies more than `SIGN_GUARD` from the closed-form zero `θ̂` (one
/// `atan2`) takes the side that zero dictates without evaluating `h`;
/// only steps inside the band evaluate it. The steps taken are the ones
/// evaluating `h` at every midpoint would take, so the result is the same
/// to the bit. When `θ̂` is within `ENDPOINT_MARGIN` of 0 or π, or `y0`
/// and `c` are not finite normal-range numbers, every step evaluates `h`.
///
/// Each call rebuilds the focus flow from `(alpha, beta)`; a
/// [`RegionConsts`](crate::propagate::RegionConsts) keeps it built.
#[must_use]
pub fn spiral_extremum(alpha: f64, beta: f64, z0: [f64; 2]) -> Option<Extremum> {
    Focus::new(alpha, beta).extremum(z0)
}

/// The focus flow [`spiral_extremum`] evaluates for the spectrum
/// `alpha ± i beta`, rebuilt once from it, with the constants of the
/// module header's enclosure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Focus {
    alpha: f64,
    beta: f64,
    flow: RegionFlow,
    /// The rebuilt flow's own `(alpha, beta)` and the margin per unit of
    /// `A`, `1e-9 (1 + |alpha|/beta)`; `None` (no enclosure) if not a focus.
    bound: Option<(f64, f64, f64)>,
}

impl Focus {
    pub(crate) fn new(alpha: f64, beta: f64) -> Self {
        // lambda^2 + m lambda + n with m = -2 alpha, n = alpha^2 + beta^2.
        let flow = RegionFlow::from_mn(-2.0 * alpha, alpha * alpha + beta * beta);
        let bound = match flow.spectrum() {
            Spectrum::Focus { alpha: a, beta: b } => Some((a, b, 1e-9 * (1.0 + a.abs() / b))),
            _ => None,
        };
        Self { alpha, beta, flow, bound }
    }

    /// `c = (y'(0) - alpha y0)/beta` of `h` from `z0`, `y'(0)` from the ODE.
    fn c(&self, z0: [f64; 2]) -> f64 {
        (self.flow.jacobian().mul_vec(z0)[1] - self.alpha * z0[1]) / self.beta
    }

    /// [`spiral_extremum`] from `z0`.
    pub(crate) fn extremum(&self, z0: [f64; 2]) -> Option<Extremum> {
        let [x0, y0] = z0;
        if x0 == 0.0 && y0 == 0.0 {
            return None;
        }
        let c = self.c(z0);
        let t_star = if y0 == 0.0 {
            if c == 0.0 {
                return None; // y identically zero can only happen at the origin
            }
            std::f64::consts::PI / self.beta
        } else {
            // h(theta) = y0 cos(theta) + c sin(theta) has exactly one zero in
            // (0, pi]: h(0) = y0 and h(pi) = -y0 straddle it.
            let h = |theta: f64| y0 * theta.cos() + c * theta.sin();
            let zero = sign_change_estimate(y0, c);
            let mut lo = 0.0_f64;
            let mut hi = std::f64::consts::PI;
            for _ in 0..80 {
                let mid = 0.5 * (lo + hi);
                if mid <= lo || mid >= hi {
                    break;
                }
                let before_zero = match zero {
                    Some(z) if mid < z - SIGN_GUARD => true,
                    Some(z) if mid > z + SIGN_GUARD => false,
                    _ => {
                        let hm = h(mid);
                        if hm == 0.0 {
                            lo = mid;
                            hi = mid;
                            break;
                        }
                        hm.signum() == y0.signum()
                    }
                };
                if before_zero {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi) / self.beta
        };
        let x = self.flow.at(t_star, z0)[0];
        Some(Extremum { t: t_star, x })
    }

    /// The amplitude `A` of the start `z0` and its margin
    /// `m = 1e-9 (1 + |alpha|/beta) A`, without the `MIN_POSITIVE` floor.
    fn amplitude(&self, z0: [f64; 2]) -> Option<(f64, f64)> {
        // `A` bounds the rebuilt flow that `extremum` evaluates.
        let (a, b, width) = self.bound?;
        let amp = z0[0].hypot((z0[1] - a * z0[0]) / b);
        Some((amp, width * amp))
    }

    /// `x̂ = x(θ̂)` from `z0` at the closed-form zero `θ̂` of `h`, where
    /// [`spiral_extremum`] trusts it.
    fn x_hat(&self, z0: [f64; 2]) -> Option<f64> {
        sign_change_estimate(z0[1], self.c(z0)).map(|theta| self.flow.at(theta / self.beta, z0)[0])
    }

    /// Whether `inside` accepts an interval that contains
    /// [`Focus::extremum`]'s `x` from `z0` whenever that is `Some`,
    /// asking about the amplitude bound `[−A − m, A + m]` (one `hypot`)
    /// first and the tight `[x̂ − m, x̂ + m]` (an `atan2` and a flow
    /// evaluation more) only if `inside` refuses it. See the module
    /// header's Enclosure section. `false` where the rebuild is not a
    /// focus. A bound may be infinite or NaN for states whose `A` or `x̂`
    /// does not fit a double; such an interval passes no strict
    /// comparison.
    pub(crate) fn enclosed(
        &self,
        z0: [f64; 2],
        mut inside: impl FnMut((f64, f64)) -> bool,
    ) -> bool {
        let Some((amp, m)) = self.amplitude(z0) else { return false };
        let m = m + f64::MIN_POSITIVE;
        // `y0 = 0` puts the atan2 at 0 or π, which `sign_change_estimate`
        // rejects: that extremum is half a rotation on, not at `θ̂`.
        inside((-amp - m, amp + m)) || self.x_hat(z0).is_some_and(|x| inside((x - m, x + m)))
    }

    /// The unit enclosure of the module header's contraction bound:
    /// `(x̂₁, m₁)` for the unit start `(−k σ, σ)`, so that the extremum
    /// from an on-line start `(fl(−k y0), y0)` with `y0 = σ s` lies in
    /// `[s x̂₁ − s m₁ − MIN_POSITIVE, s x̂₁ + s m₁ + MIN_POSITIVE]`. `None`
    /// where the rebuild is not a focus or the unit `θ̂` is not trusted.
    pub(crate) fn unit_enclosure(&self, k: f64, sigma: f64) -> Option<(f64, f64)> {
        let unit = [-k * sigma, sigma];
        Some((self.x_hat(unit)?, self.amplitude(unit)?.1))
    }
}

/// Closed-form zero of `h(θ) = y0 cos θ + c sin θ` in `(0, π)` for
/// `y0 != 0`, or `None` where [`spiral_extremum`] must not trust it to
/// skip evaluations of `h`.
fn sign_change_estimate(y0: f64, c: f64) -> Option<f64> {
    if !(y0.is_finite() && c.is_finite()) || y0.abs().max(c.abs()) < f64::MIN_POSITIVE {
        return None;
    }
    // At the zero (cos θ, sin θ) is parallel to (-c sgn y0, |y0|), whose
    // second component is positive, so one atan2 lands in (0, π) with no
    // reduction.
    let theta = y0.abs().atan2(-c * y0.signum());
    (ENDPOINT_MARGIN..=std::f64::consts::PI - ENDPOINT_MARGIN).contains(&theta).then_some(theta)
}

/// First extremum of `x(t)` for a spiral region, paper transcription
/// (Eqs. 18–20) with `atan2` branch correction for `x(0) <= 0`.
///
/// Defined (like the paper) for initial points off the vertical axis with
/// `y(0) != 0`; returns `None` otherwise.
#[must_use]
pub fn spiral_extremum_paper(alpha: f64, beta: f64, z0: [f64; 2]) -> Option<Extremum> {
    let [x0, y0] = z0;
    if x0 == 0.0 || y0 == 0.0 {
        return None;
    }
    // Eq. 18 with principal arctangents.
    let base = ((alpha / beta).atan() + ((y0 - alpha * x0) / (beta * x0)).atan()) / beta;
    let mut t_star = if x0 * y0 >= 0.0 { base } else { base + std::f64::consts::PI / beta };
    // The printed two-branch rule still lands one half-period early for
    // some quadrant combinations (it was derived for the round-analysis
    // entry points); normalise to the first non-negative root.
    let half = std::f64::consts::PI / beta;
    while t_star < 0.0 {
        t_star += half;
    }
    // Eq. 12's amplitude A (paper definition) and Eqs. 19/20.
    let a_coef =
        ((alpha * alpha + beta * beta) * x0 * x0 - 2.0 * alpha * x0 * y0 + y0 * y0).sqrt() / beta;
    let magnitude = a_coef * beta / (alpha * alpha + beta * beta).sqrt() * (alpha * t_star).exp();
    let x = if y0 > 0.0 { magnitude } else { -magnitude };
    Some(Extremum { t: t_star, x })
}

/// Global extremum of `x(t)` for a node region (`l1 < l2 < 0`), robust
/// version: the unique interior zero of `y(t)` if one exists.
///
/// Returns `None` when `x(t)` is monotone from `z0` (e.g. starting on an
/// eigenline, or with the slow mode already dominant) — the paper's
/// Case 3 situation where the queue never overshoots.
#[must_use]
pub fn node_extremum(l1: f64, l2: f64, z0: [f64; 2]) -> Option<Extremum> {
    assert!(l1 < l2, "node requires l1 < l2");
    let [x0, y0] = z0;
    let a1 = (l2 * x0 - y0) / (l2 - l1);
    let a2 = (l1 * x0 - y0) / (l1 - l2);
    if a1 == 0.0 || a2 == 0.0 {
        return None; // straight-line trajectory: x is monotone
    }
    // y(t) = A1 l1 e^{l1 t} + A2 l2 e^{l2 t} = 0
    //   =>  e^{(l1 - l2) t*} = -A2 l2 / (A1 l1) =: r
    let r = -(a2 * l2) / (a1 * l1);
    if r <= 0.0 {
        return None;
    }
    let t_star = r.ln() / (l1 - l2);
    if t_star <= 0.0 {
        return None;
    }
    let x = a1 * (l1 * t_star).exp() + a2 * (l2 * t_star).exp();
    Some(Extremum { t: t_star, x })
}

/// Global extremum for a node region, paper transcription (Eq. 28),
/// evaluated through logarithms of absolute values with the sign taken
/// from `y(0)` as the paper prescribes (maximum for `y(0) > 0`, minimum
/// for `y(0) < 0`).
///
/// Returns `None` in the same monotone situations as [`node_extremum`].
#[must_use]
pub fn node_extremum_paper(l1: f64, l2: f64, z0: [f64; 2]) -> Option<Extremum> {
    // Reuse the robust root for existence and the time; Eq. 28 only
    // restates the value.
    let robust = node_extremum(l1, l2, z0)?;
    let [x0, y0] = z0;
    let u2 = y0 - l2 * x0;
    let u1 = y0 - l1 * x0;
    if u1 == 0.0 || u2 == 0.0 {
        return None;
    }
    // |mump| = [ (-l1)^{l1} |u2|^{l2} / ( (-l2)^{l2} |u1|^{l1} ) ]^{1/(l2-l1)}
    let log_mag =
        (l1 * (-l1).ln() + l2 * u2.abs().ln() - l2 * (-l2).ln() - l1 * u1.abs().ln()) / (l2 - l1);
    let x = y0.signum() * log_mag.exp();
    Some(Extremum { t: robust.t, x })
}

/// Unique extremum for a critical region (repeated eigenvalue `l < 0`),
/// robust version.
///
/// Returns `None` when `x(t)` is monotone from `z0`.
#[must_use]
pub fn critical_extremum(l: f64, z0: [f64; 2]) -> Option<Extremum> {
    let [x0, y0] = z0;
    let a3 = x0;
    let a4 = y0 - l * x0;
    if a4 == 0.0 {
        return None; // on the eigenline: monotone
    }
    // y(t) = (A3 l + A4 + A4 l t) e^{l t} = 0  =>  t* = -(A3 l + A4)/(A4 l)
    let t_star = -(a3 * l + a4) / (a4 * l);
    if t_star <= 0.0 {
        return None;
    }
    // x(t*) = (A3 + A4 t*) e^{l t*} = -(A4 / l) e^{l t*}; note the paper's
    // Eq. 34 prints the exponent as -(l A3 + A4)/(l A4); substituting t*
    // into e^{l t} gives -(l A3 + A4)/A4, which is what we use (the
    // cross-check test against the numeric flow confirms it).
    let x = -(a4 / l) * ((-(l * a3 + a4) / a4).exp());
    Some(Extremum { t: t_star, x })
}

/// Dispatching robust extremum for any region flow.
#[must_use]
pub fn region_extremum(flow: &RegionFlow, z0: [f64; 2]) -> Option<Extremum> {
    match flow.spectrum() {
        Spectrum::Focus { alpha, beta } => spiral_extremum(alpha, beta, z0),
        Spectrum::Node { l1, l2 } => node_extremum(l1, l2, z0),
        Spectrum::Critical { l } => critical_extremum(l, z0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagate::RegionConsts;

    fn flow_for_focus(alpha: f64, beta: f64) -> RegionFlow {
        RegionFlow::from_mn(-2.0 * alpha, alpha * alpha + beta * beta)
    }

    /// The spiral bisection evaluating `h` at every midpoint: the oracle
    /// that `spiral_extremum` must match bitwise.
    fn spiral_extremum_bisect_every_step(alpha: f64, beta: f64, z0: [f64; 2]) -> Option<Extremum> {
        let flow = flow_for_focus(alpha, beta);
        let [x0, y0] = z0;
        if x0 == 0.0 && y0 == 0.0 {
            return None;
        }
        let ydot0 = flow.jacobian().mul_vec(z0)[1];
        let c = (ydot0 - alpha * y0) / beta;
        let t_star = if y0 == 0.0 {
            if c == 0.0 {
                return None;
            }
            std::f64::consts::PI / beta
        } else {
            let h = |theta: f64| y0 * theta.cos() + c * theta.sin();
            let mut lo = 0.0_f64;
            let mut hi = std::f64::consts::PI;
            for _ in 0..80 {
                let mid = 0.5 * (lo + hi);
                if mid <= lo || mid >= hi {
                    break;
                }
                let hm = h(mid);
                if hm == 0.0 {
                    lo = mid;
                    hi = mid;
                    break;
                }
                if hm.signum() == y0.signum() {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi) / beta
        };
        let x = flow.at(t_star, z0)[0];
        Some(Extremum { t: t_star, x })
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    fn unit(state: &mut u64) -> f64 {
        (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `±10^e` with `e` uniform in `[lo, hi)` and a random sign.
    fn signed_decades(state: &mut u64, lo: f64, hi: f64) -> f64 {
        let sign = if splitmix64(state) & 1 == 0 { 1.0 } else { -1.0 };
        sign * 10f64.powf(lo + (hi - lo) * unit(state))
    }

    /// The initial point whose `h` has coefficients `(y0, c)` in the
    /// focus `alpha ± i beta`: inverts `c = (alpha y0 - n x0)/beta`.
    fn start_with_c(alpha: f64, beta: f64, y0: f64, c: f64) -> [f64; 2] {
        [(alpha * y0 - beta * c) / (alpha * alpha + beta * beta), y0]
    }

    fn bits(e: Option<Extremum>) -> Option<(u64, u64)> {
        e.map(|e| (e.t.to_bits(), e.x.to_bits()))
    }

    #[test]
    fn spiral_sign_skipping_matches_full_bisection_bitwise() {
        use std::f64::consts::PI;
        let mut cases: Vec<(f64, f64, [f64; 2])> = Vec::new();
        let mut rng = 0x5eed_f00d_u64;
        for i in 0..120_000 {
            // beta over 9 decades, |alpha|/beta over 12, alpha = 0 at times.
            let beta = 10f64.powf(-3.0 + 9.0 * unit(&mut rng));
            let alpha =
                if i % 16 == 0 { 0.0 } else { -beta * 10f64.powf(-6.0 + 12.0 * unit(&mut rng)) };
            let x0 = signed_decades(&mut rng, -12.0, 12.0);
            let z0 = match i % 8 {
                0 => [0.0, signed_decades(&mut rng, -12.0, 12.0)],
                1 => [x0, -x0 * 10f64.powf(-6.0 + 12.0 * unit(&mut rng))],
                _ => [x0, signed_decades(&mut rng, -12.0, 12.0)],
            };
            cases.push((alpha, beta, z0));
        }
        // Zeros of h within 1e-9 of 0 and of pi, down to a few ulps.
        for k in 0..2_000 {
            let beta = 10f64.powf(-2.0 + 6.0 * unit(&mut rng));
            let alpha = -beta * 10f64.powf(-4.0 + 6.0 * unit(&mut rng));
            let offset = 10f64.powf(-16.0 + 7.0 * unit(&mut rng));
            let theta = if k % 2 == 0 { offset } else { PI - offset };
            let y0 = signed_decades(&mut rng, -3.0, 6.0);
            let c = -y0 * theta.cos() / theta.sin();
            cases.push((alpha, beta, start_with_c(alpha, beta, y0, c)));
        }
        // c = 0 exactly (alpha = 0, x0 = 0), c = 0 approximately, y0 = 0.
        for _ in 0..200 {
            let beta = 10f64.powf(-3.0 + 9.0 * unit(&mut rng));
            let alpha = -beta * unit(&mut rng);
            let y0 = signed_decades(&mut rng, -6.0, 6.0);
            cases.push((0.0, beta, [0.0, y0]));
            cases.push((alpha, beta, start_with_c(alpha, beta, y0, 0.0)));
            cases.push((alpha, beta, [signed_decades(&mut rng, -6.0, 6.0), 0.0]));
        }
        // Subnormal, tiny and huge starts, and extreme alpha/beta.
        let magnitudes =
            [f64::from_bits(1), 1e-320, f64::MIN_POSITIVE, 1e-300, 1.0, 1e300, f64::MAX];
        for &(alpha, beta) in &[(-1.0, 3.0), (-1e-12, 1.0), (-1e12, 1.0), (0.0, 1e6), (-2.0, 316.2)]
        {
            for &mx in &magnitudes {
                for &my in &magnitudes {
                    for &(sx, sy) in &[(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)] {
                        cases.push((alpha, beta, [sx * mx, sy * my]));
                    }
                }
            }
        }
        assert!(cases.len() >= 100_000);
        for &(alpha, beta, z0) in &cases {
            assert_eq!(
                bits(spiral_extremum(alpha, beta, z0)),
                bits(spiral_extremum_bisect_every_step(alpha, beta, z0)),
                "alpha {alpha:e}, beta {beta:e}, z0 {z0:?}"
            );
        }
    }

    #[test]
    fn enclosure_contains_the_spiral_extremum() {
        use std::f64::consts::PI;
        let magnitudes =
            [f64::from_bits(1), 1e-320, f64::MIN_POSITIVE, 1e-300, 1e-160, 1.0, 1e160, 1e300];
        let mut rng = 0xe9c1_0517_u64;
        let (mut checked, mut finite, mut worst) = (0u64, 0u64, 0.0_f64);
        let mut check = |flow: &RegionFlow, z0: [f64; 2], case: u64| {
            let Spectrum::Focus { alpha, beta } = flow.spectrum() else { return };
            let Some(e) = region_extremum(flow, z0) else { return };
            // Refusing every interval makes both stages offer theirs.
            let mut offered = Vec::new();
            assert!(!Focus::new(alpha, beta).enclosed(z0, |b| {
                offered.push(b);
                false
            }));
            assert!(!offered.is_empty(), "focus legs are enclosed");
            // A NaN or infinite bound fails every strict comparison, so
            // only a value strictly outside a bound could be skipped
            // wrongly.
            for &(lo, hi) in &offered {
                let outside = e.x < lo || e.x > hi;
                assert!(
                    !outside,
                    "case {case}: alpha {alpha:e}, beta {beta:e}, z0 {z0:?}: x {:e} outside [{lo:e}, {hi:e}]",
                    e.x
                );
            }
            let (lo, hi) = offered[offered.len() - 1];
            checked += 1;
            if lo.is_finite() && hi.is_finite() && e.x.is_finite() {
                finite += 1;
                let amp = z0[0].hypot((z0[1] - alpha * z0[0]) / beta);
                let estimated = sign_change_estimate(z0[1], Focus::new(alpha, beta).c(z0));
                if amp.is_normal() && estimated.is_some() {
                    let mid = 0.5 * (lo + hi);
                    worst = worst.max((e.x - mid).abs() / ((1.0 + alpha.abs() / beta) * amp));
                }
            }
        };
        for case in 0..1_000_000_u64 {
            // beta over 9 decades, |alpha|/beta over 14, alpha = 0 at times.
            let beta = 10f64.powf(-3.0 + 9.0 * unit(&mut rng));
            let ratio = if case % 16 == 0 { 0.0 } else { 10f64.powf(-6.0 + 14.0 * unit(&mut rng)) };
            let alpha = -beta * ratio;
            let flow = RegionFlow::from_mn(-2.0 * alpha, alpha * alpha + beta * beta);
            let z0 = match case % 8 {
                // On a switching line x + k y = 0.
                0 | 1 => {
                    let y0 = signed_decades(&mut rng, -12.0, 12.0);
                    [-10f64.powf(-6.0 + 12.0 * unit(&mut rng)) * y0, y0]
                }
                // At rest: the extremum is half a rotation on.
                2 => [signed_decades(&mut rng, -12.0, 12.0), 0.0],
                // Zero of h within 1e-16..1e-5 of 0 or pi, both sides of
                // ENDPOINT_MARGIN.
                3 => {
                    let offset = 10f64.powf(-16.0 + 11.0 * unit(&mut rng));
                    let theta = if case % 16 == 3 { offset } else { PI - offset };
                    let y0 = signed_decades(&mut rng, -6.0, 6.0);
                    start_with_c(alpha, beta, y0, -y0 * theta.cos() / theta.sin())
                }
                // Subnormal, tiny and huge states.
                4 => {
                    let pick = |r: &mut u64| {
                        let m = magnitudes[(splitmix64(r) % magnitudes.len() as u64) as usize];
                        if splitmix64(r) & 1 == 0 {
                            m
                        } else {
                            -m
                        }
                    };
                    [pick(&mut rng), pick(&mut rng)]
                }
                _ => [signed_decades(&mut rng, -12.0, 12.0), signed_decades(&mut rng, -12.0, 12.0)],
            };
            check(&flow, z0, case);
        }
        assert!(checked >= 900_000, "only {checked} focus legs checked");
        assert!(finite >= checked / 2, "only {finite} of {checked} enclosures finite");
        // The derived bound is ~4.4e-15; the margin is 1e-9.
        println!("{checked} focus legs, {finite} finite enclosures, worst miss {worst:e} A");
        assert!(worst < 1e-13, "worst relative miss {worst:e}");
    }

    #[test]
    fn scaled_line_enclosure_contains_the_spiral_extremum() {
        use std::f64::consts::PI;
        let mut rng = 0x11e_e4c1_05ed_u64;
        let (mut flows, mut scaled, mut checked, mut worst) = (0u64, 0u64, 0u64, 0.0_f64);
        let mut widest_ratio = 0.0_f64;
        for case in 0..100_000_u64 {
            // beta over 9 decades, |alpha|/beta over 14 up to 1e8, alpha
            // = 0 at times. The line slope k is the flow's own m/n (a BCN
            // region's), free over 12 decades, or the one that puts the
            // unit start's zero of h at a uniform angle in (0, pi), or
            // 1e-16..1e-5 from 0 or pi.
            let beta = 10f64.powf(-3.0 + 9.0 * unit(&mut rng));
            let ratio = if case % 16 == 0 { 0.0 } else { 10f64.powf(-6.0 + 14.0 * unit(&mut rng)) };
            let alpha = -beta * ratio;
            let (m, n) = (-2.0 * alpha, alpha * alpha + beta * beta);
            let flow = RegionFlow::from_mn(m, n);
            let free = 10f64.powf(-6.0 + 12.0 * unit(&mut rng));
            // The unit start's c is sigma (n k + alpha) / beta.
            let offset = 10f64.powf(-16.0 + 11.0 * unit(&mut rng));
            let theta = match case % 12 {
                1 => offset,
                4 => PI - offset,
                _ => PI * unit(&mut rng),
            };
            let aimed = (-beta / theta.tan() - alpha) / n;
            let k = match case % 3 {
                0 if alpha != 0.0 => m / n,
                1 if aimed > 0.0 => aimed,
                _ => free,
            };
            let sigma = if splitmix64(&mut rng) & 1 == 0 { 1.0 } else { -1.0 };
            let on_line = |y0: f64| [-k * y0, y0];
            // One unit enclosure serves every start on the same side of
            // the line, as in a trace.
            let consts = RegionConsts::new(flow, k);
            let (Some(line), Some(focus)) = (consts.line, consts.focus) else { continue };
            let Some((x_hat, margin)) = focus.unit_enclosure(k, sigma) else { continue };
            flows += 1;
            for _ in 0..4 {
                let s = 10f64.powf(-300.0 + 600.0 * unit(&mut rng));
                let z0 = on_line(sigma * s);
                let Some(e) = region_extremum(&flow, z0) else { continue };
                if !(line.floor..=line.max_scale).contains(&s) {
                    continue;
                }
                scaled += 1;
                widest_ratio = widest_ratio.max(ratio);
                // The scaled enclosure, and the hull the verdict tests for
                // every scale up to a cap at or above `s`.
                let (sx, m) = (s * x_hat, s * margin + f64::MIN_POSITIVE);
                let cap = s * (1.0 + 4.0 * unit(&mut rng));
                let (cx, cm) = (cap * x_hat, cap * margin + f64::MIN_POSITIVE);
                for (lo, hi) in [(sx - m, sx + m), (cx.min(0.0) - cm, cx.max(0.0) + cm)] {
                    assert!(
                        !(e.x < lo || e.x > hi),
                        "case {case}: alpha {alpha:e}, beta {beta:e}, k {k:e}, z0 {z0:?}: \
                         x {:e} outside [{lo:e}, {hi:e}]",
                        e.x
                    );
                }
                let amp = z0[0].hypot((z0[1] - alpha * z0[0]) / beta);
                if sx.is_finite() && m.is_finite() && amp.is_normal() {
                    checked += 1;
                    worst = worst.max((e.x - sx).abs() / ((1.0 + ratio) * amp));
                }
            }
        }
        println!(
            "{flows} flows, {scaled} scaled legs up to |alpha|/beta {widest_ratio:e}, \
             {checked} finite, worst miss {worst:e} A"
        );
        assert!(flows >= 60_000, "only {flows} flows got a unit enclosure");
        assert!(scaled >= 240_000, "only {scaled} legs scaled");
        assert!(widest_ratio > 5e7, "scaled legs reach |alpha|/beta {widest_ratio:e} only");
        assert!(checked >= scaled / 2, "only {checked} of {scaled} enclosures finite");
        assert!(worst < 1e-13, "worst relative miss {worst:e}");
    }

    #[test]
    fn line_enclosure_refuses_starts_it_cannot_scale() {
        let k = 0.2;
        let consts = RegionConsts::new(RegionFlow::from_kn(k, 10.0), k);
        let line = consts.line.expect("a focus");
        let on_line = |z0| consts.half_turn_end(k, z0).is_some();
        assert!(on_line([-k * 5.0, 5.0]) && on_line([k * 5.0, -5.0]));
        // Off the line by an ulp, and zero, subnormal, sub-floor and
        // non-finite `y0`: these legs take the crossing solve and their
        // own enclosure.
        assert!(!on_line([(-k * 5.0f64).next_up(), 5.0]));
        for y0 in [0.0, f64::from_bits(1), 1e-310, 0.5 * line.floor, f64::INFINITY, f64::NAN] {
            assert!(!on_line([-k * y0, y0]), "y0 {y0:e}");
        }
        assert!(on_line([-k * line.floor, line.floor]));
        assert!(line.max_scale > 1e300 && line.max_scale < f64::MAX);
        // No half turn, focus or unit enclosure for node and critical
        // flows.
        for (k, n) in [(1.5, 2.0), (1.0, 4.0)] {
            let c = RegionConsts::new(RegionFlow::from_kn(k, n), k);
            assert!(c.line.is_none() && c.focus.is_none() && c.half_turn().is_none());
        }
    }

    const ALPHA: f64 = -1.0;
    const BETA: f64 = 3.0;

    #[test]
    fn spiral_extremum_has_zero_velocity() {
        for z0 in [[-1.0, 2.0], [0.5, -1.5], [-2.0, -0.1], [1.0, 0.3]] {
            let e = spiral_extremum(ALPHA, BETA, z0).unwrap();
            let flow = flow_for_focus(ALPHA, BETA);
            let z = flow.at(e.t, z0);
            assert!(z[1].abs() < 1e-9, "y at extremum for {z0:?}: {z:?}");
            assert!((z[0] - e.x).abs() < 1e-9);
            assert!(e.t > 0.0 && e.t <= std::f64::consts::PI / BETA + 1e-12);
        }
    }

    #[test]
    fn spiral_extremum_is_actually_extremal() {
        let z0 = [-1.0, 2.0];
        let e = spiral_extremum(ALPHA, BETA, z0).unwrap();
        let flow = flow_for_focus(ALPHA, BETA);
        // x just before and just after is below the max (y0 > 0 => max).
        let dt = 1e-3;
        let before = flow.at(e.t - dt, z0)[0];
        let after = flow.at(e.t + dt, z0)[0];
        assert!(e.x >= before && e.x >= after, "{e:?} vs {before} {after}");
    }

    #[test]
    fn spiral_paper_formula_agrees_with_robust() {
        for z0 in [[1.0, 0.5], [-1.0, 2.0], [0.5, -1.5], [-2.0, -0.1]] {
            let robust = spiral_extremum(ALPHA, BETA, z0).unwrap();
            let paper = spiral_extremum_paper(ALPHA, BETA, z0).unwrap();
            assert!(
                (robust.t - paper.t).abs() < 1e-9,
                "t mismatch for {z0:?}: robust {} paper {}",
                robust.t,
                paper.t
            );
            assert!(
                (robust.x - paper.x).abs() < 1e-9 * robust.x.abs().max(1.0),
                "x mismatch for {z0:?}: robust {} paper {}",
                robust.x,
                paper.x
            );
        }
    }

    #[test]
    fn spiral_from_rest_returns_half_rotation() {
        // y0 = 0: next extremum after exactly half a period.
        let e = spiral_extremum(ALPHA, BETA, [-1.0, 0.0]).unwrap();
        assert!((e.t - std::f64::consts::PI / BETA).abs() < 1e-12);
        // Half a rotation from a minimum gives a maximum (sign flip,
        // decayed).
        assert!(e.x > 0.0 && e.x < 1.0);
    }

    const L1: f64 = -2.0;
    const L2: f64 = -1.0;

    #[test]
    fn node_extremum_has_zero_velocity() {
        // Start moving up across the node: y0 > 0 produces a maximum.
        let z0 = [-1.0, 3.0];
        let e = node_extremum(L1, L2, z0).unwrap();
        let flow = RegionFlow::from_mn(-(L1 + L2), L1 * L2);
        let z = flow.at(e.t, z0);
        assert!(z[1].abs() < 1e-9, "{z:?}");
        assert!((z[0] - e.x).abs() < 1e-9);
        assert!(e.x > 0.0);
    }

    #[test]
    fn node_monotone_cases_return_none() {
        // On an eigenline.
        assert!(node_extremum(L1, L2, [1.0, L2]).is_none());
        // Decaying towards origin without crossing y = 0: start with
        // x > 0, y < 0 between the eigenlines (y/x in (l1, l2)).
        assert!(node_extremum(L1, L2, [1.0, -1.5]).is_none());
    }

    #[test]
    fn node_paper_formula_agrees_with_robust() {
        for z0 in [[-1.0, 3.0], [-0.5, 1.2], [1.0, -4.0]] {
            let robust = node_extremum(L1, L2, z0).unwrap();
            let paper = node_extremum_paper(L1, L2, z0).unwrap();
            assert!(
                (robust.x - paper.x).abs() < 1e-9 * robust.x.abs().max(1.0),
                "x mismatch for {z0:?}: robust {} paper {}",
                robust.x,
                paper.x
            );
        }
    }

    #[test]
    fn critical_extremum_has_zero_velocity() {
        let l = -2.0;
        let z0 = [-1.0, 3.0];
        let e = critical_extremum(l, z0).unwrap();
        let flow = RegionFlow::from_mn(4.0, 4.0);
        let z = flow.at(e.t, z0);
        assert!(z[1].abs() < 1e-9, "{z:?}");
        assert!((z[0] - e.x).abs() < 1e-9 * e.x.abs().max(1.0));
    }

    #[test]
    fn critical_monotone_cases_return_none() {
        let l = -2.0;
        assert!(critical_extremum(l, [1.0, l]).is_none()); // eigenline
        assert!(critical_extremum(l, [1.0, -1.0]).is_none()); // t* < 0
    }

    #[test]
    fn region_extremum_dispatches_by_spectrum() {
        let spiral = RegionFlow::from_mn(2.0, 10.0);
        let node = RegionFlow::from_mn(3.0, 2.0);
        let critical = RegionFlow::from_mn(4.0, 4.0);
        let z0 = [-1.0, 3.0];
        for flow in [&spiral, &node, &critical] {
            let e = region_extremum(flow, z0).expect("extremum exists");
            let z = flow.at(e.t, z0);
            assert!(z[1].abs() < 1e-8, "dispatch failed: {z:?}");
        }
    }

    #[test]
    fn extremum_scales_linearly_with_amplitude() {
        // The flows are linear: doubling the initial point doubles the
        // extremum but keeps its time.
        let z0 = [-1.0, 2.0];
        let z2 = [-2.0, 4.0];
        let e1 = spiral_extremum(ALPHA, BETA, z0).unwrap();
        let e2 = spiral_extremum(ALPHA, BETA, z2).unwrap();
        assert!((e2.t - e1.t).abs() < 1e-10);
        assert!((e2.x - 2.0 * e1.x).abs() < 1e-9);
    }
}
