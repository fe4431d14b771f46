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
//! [`extremum_enclosed`] brackets [`spiral_extremum`]'s `x` without the
//! bisection, so a caller that only needs to know whether an extremum can
//! move a running maximum or minimum, or leave a band, can skip it. Its
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
//! ## Legs entered on the switching line
//!
//! Every leg of a trace after the first starts exactly on the switching
//! line, at `z0 = (fl(−k y0), y0)`, and within one region `y0` always has
//! the same sign `σ` ([`departing_region`](crate::rounds::departing_region)).
//! Such a start is the unit start `u = (−kσ, σ)` (exact) scaled by
//! `s = |y0|`, with one rounding in `x0`. `LineEnclosure` computes `A₁`,
//! `m₁ = 1e-9 (1 + |α|/β) A₁` and `x̂₁` once for `u` and encloses each such
//! leg in `[−sA₁ − m, sA₁ + m]` and `[s x̂₁ − m, s x̂₁ + m]`, with
//! `m = s m₁ (1 + δ) + f64::MIN_POSITIVE` and `δ = 1e-6`. The flow is
//! linear and the zero of `h` depends only on the start's direction, so
//! in exact arithmetic the leg from `s u` is the unit leg scaled by `s`,
//! with extremum `s x*(u)` and amplitude `s A(u)`. What separates the
//! scaled values from the bisection's `x` from `z0`:
//!
//! * rounding `x0` (a normal number) moves it by at most `ε|x0|/2 ≤ εA/2`.
//!   Since `∂x(t)/∂x0 = e^{αt} (cos βt − (α/β) sin βt)`, that moves the
//!   extremum and `A` by at most `(1 + |α|/β) εA/2`, and the zero of `h`
//!   by at most `ε (1 + |α|/β)` rad;
//! * `x̂₁` and `A₁` carry the per-leg errors derived above, at most
//!   ~`7e-15 (1 + |α|/β) A₁`, and each product with `s` rounds once;
//! * the bisection from `z0` lands within the per-leg bound of its own
//!   extremum, because its own `θ̂` lies within `ε (1 + |α|/β)` of the
//!   unit's and so stays trusted.
//!
//! So the scaled bounds and the direct ones differ by a few ulps relative
//! to `(1 + |α|/β) A`, ~10⁵× below the margin. Where a premise fails, the
//! scaling is refused and the leg takes [`extremum_enclosed`]: a start
//! not exactly on the line, `y0` of the other sign, zero, subnormal or
//! not finite, `x0` zero or subnormal (its
//! rounding is no longer relative), `s` past a per-region bound beyond
//! which an intermediate of the leg's own evaluation could overflow, a
//! node or critical flow, a unit `θ̂` within `4 ENDPOINT_MARGIN` of 0 or
//! π, and `|α|/β` past ~4e9, where the shift of `θ̂` could exceed
//! `ENDPOINT_MARGIN`. A tier-1 test checks containment on ~276k scaled
//! legs over ~69k flows with `|α|/β` up to 1e8 and `|y0|` from 1e-300 to
//! 1e300, where the miss stays below ~4.7e-16 `(1 + |α|/β) A`. A scaled
//! test costs a few products and comparisons, against the per-leg
//! path's focus rebuild, `hypot` and, on about half the legs, `atan2`,
//! `exp` and `sin_cos`. The skipped set changes; no verdict bit does.

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
#[must_use]
pub fn spiral_extremum(alpha: f64, beta: f64, z0: [f64; 2]) -> Option<Extremum> {
    let [x0, y0] = z0;
    if x0 == 0.0 && y0 == 0.0 {
        return None;
    }
    let (flow, c) = focus_and_c(alpha, beta, z0);
    let t_star = if y0 == 0.0 {
        if c == 0.0 {
            return None; // y identically zero can only happen at the origin
        }
        std::f64::consts::PI / beta
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
        0.5 * (lo + hi) / beta
    };
    let x = flow.at(t_star, z0)[0];
    Some(Extremum { t: t_star, x })
}

/// The focus flow [`spiral_extremum`] evaluates and the coefficient `c`
/// of `y(t) = e^{alpha t} [y0 cos(beta t) + c sin(beta t)]` from `z0`:
/// `c = (y'(0) - alpha y0)/beta` with `y'(0)` from the ODE.
fn focus_and_c(alpha: f64, beta: f64, z0: [f64; 2]) -> (RegionFlow, f64) {
    let flow = flow_for_focus(alpha, beta);
    let ydot0 = flow.jacobian().mul_vec(z0)[1];
    (flow, (ydot0 - alpha * z0[1]) / beta)
}

/// Whether `inside` accepts an interval that contains
/// `region_extremum(flow, z0)`'s `x` whenever that is `Some`, asking
/// about the amplitude bound `[−A − m, A + m]` (one `hypot`) first and
/// the tight `[x̂ − m, x̂ + m]` (an `atan2` and a flow evaluation more)
/// only if `inside` refuses it. See the module header's Enclosure
/// section for the bounds; both are far cheaper than the bisection.
///
/// `false` for node and critical flows, whose extrema are closed-form
/// and as cheap as any enclosure, and for a focus whose rebuild is not
/// one. A bound may be infinite or NaN for states whose `A` or `x̂` does
/// not fit a double; such an interval passes no strict comparison.
pub fn extremum_enclosed(
    flow: &RegionFlow,
    z0: [f64; 2],
    mut inside: impl FnMut((f64, f64)) -> bool,
) -> bool {
    let Some(e) = Enclosure::new(flow, z0) else { return false };
    let (amp, m) = (e.amp, e.margin());
    // `y0 = 0` puts the atan2 at 0 or π, which `sign_change_estimate`
    // rejects: that extremum is half a rotation on, not at `θ̂`.
    inside((-amp - m, amp + m))
        || e.zero(z0[1]).is_some_and(|theta| {
            let x = e.x_at(theta, z0);
            inside((x - m, x + m))
        })
}

/// The ingredients of the module header's enclosure of
/// [`spiral_extremum`]'s `x` from one start on a focus flow: the
/// amplitude `A` and what the margin and the closed-form `x̂` need. The
/// per-leg [`extremum_enclosed`] and the per-region [`LineEnclosure`]
/// both build it.
struct Enclosure {
    /// The rebuilt focus flow `spiral_extremum` evaluates.
    focus: RegionFlow,
    beta: f64,
    /// `c` of `h(θ) = y0 cos θ + c sin θ`.
    c: f64,
    amp: f64,
    /// `1e-9 (1 + |α|/β)`: the margin per unit of `A`.
    width: f64,
}

impl Enclosure {
    /// `None` for node and critical flows and for a focus whose rebuild
    /// is not one.
    fn new(flow: &RegionFlow, z0: [f64; 2]) -> Option<Self> {
        let Spectrum::Focus { alpha, beta } = flow.spectrum() else { return None };
        let (focus, c) = focus_and_c(alpha, beta, z0);
        // `A` bounds the rebuilt flow that `spiral_extremum` evaluates.
        let Spectrum::Focus { alpha: a, beta: b } = focus.spectrum() else { return None };
        let [x0, y0] = z0;
        let amp = x0.hypot((y0 - a * x0) / b);
        Some(Self { focus, beta, c, amp, width: 1e-9 * (1.0 + a.abs() / b) })
    }

    /// The margin `m = 1e-9 (1 + |α|/β) A + f64::MIN_POSITIVE`.
    fn margin(&self) -> f64 {
        self.width * self.amp + f64::MIN_POSITIVE
    }

    /// The closed-form zero `θ̂` of `h` for the start's `y0`, where
    /// [`spiral_extremum`] trusts it.
    fn zero(&self, y0: f64) -> Option<f64> {
        sign_change_estimate(y0, self.c)
    }

    /// `x̂ = x(θ̂)` from `z0`.
    fn x_at(&self, theta: f64, z0: [f64; 2]) -> f64 {
        self.focus.at(theta / self.beta, z0)[0]
    }
}

/// How far the unit start's `θ̂` must lie from 0 and π for
/// [`LineEnclosure`] to scale it: a few `ENDPOINT_MARGIN`, so that every
/// on-line start's own `θ̂`, a few ulps of direction away, stays inside
/// the range where [`spiral_extremum`]'s accuracy argument holds.
const LINE_MARGIN: f64 = 4.0 * ENDPOINT_MARGIN;

/// Relative slack on the scaled margin, which covers the few-ulp
/// difference between the scaled `A` and the one computed from the start
/// itself.
const LINE_SLACK: f64 = 1e-6;

/// The extremum enclosure of every leg of one focus flow that starts
/// exactly on the switching line `x + k y = 0` with `y` of one sign `σ`,
/// from constants computed once for the unit start `(−k σ, σ)`.
///
/// A start on the line is `(fl(−k y0), y0)`, the unit start scaled by
/// `s = |y0|` with one rounding in `x`. The flow is linear, so the leg
/// is the unit leg scaled by `s`, and its enclosure is the unit's scaled:
/// `[−sA₁ − m, sA₁ + m]` and `[s x̂₁ − m, s x̂₁ + m]` with
/// `m = s m₁ (1 + δ) + f64::MIN_POSITIVE`. See the module header's
/// Enclosure section for why these hold the bisection's `x`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LineEnclosure {
    /// `−k`, as the landing `x = −k y` uses it.
    neg_k: f64,
    sigma: f64,
    amp: f64,
    /// `m₁ (1 + δ)` without the `MIN_POSITIVE` floor.
    margin: f64,
    x_hat: f64,
    /// The largest `s` whose leg evaluation cannot overflow.
    max_scale: f64,
}

impl LineEnclosure {
    /// The constants for on-line legs of `flow` with `y` of the sign of
    /// `z0[1]`. `None` where no leg gets a scaled enclosure: a node or
    /// critical flow, a focus whose rebuild is not one, `y0 = 0`, a unit
    /// `θ̂` within `LINE_MARGIN` of 0 or π, or a spiral so contracting
    /// (`|α|/β` past ~4e9) that rounding `x0` can move `θ̂` by more than
    /// `ENDPOINT_MARGIN`.
    pub(crate) fn new(flow: &RegionFlow, k: f64, z0: [f64; 2]) -> Option<Self> {
        let Spectrum::Focus { alpha, beta } = flow.spectrum() else { return None };
        let sigma = if z0[1] > 0.0 {
            1.0
        } else if z0[1] < 0.0 {
            -1.0
        } else {
            return None;
        };
        let neg_k = -k;
        let unit = [neg_k * sigma, sigma];
        let e = Enclosure::new(flow, unit)?;
        if (1.0 + alpha.abs() / beta) * f64::EPSILON >= ENDPOINT_MARGIN {
            return None;
        }
        let theta = e
            .zero(sigma)
            .filter(|t| (LINE_MARGIN..=std::f64::consts::PI - LINE_MARGIN).contains(t))?;
        // Every product and sum evaluating a leg from `z0` (`c`, `h` and
        // the matrix exponential's terms) is at most `g max(|x0|, |y0|)`.
        let n = alpha * alpha + beta * beta;
        let g = (1.0 + n + 3.0 * alpha.abs()) * (1.0 + 1.0 / beta);
        Some(Self {
            neg_k,
            sigma,
            amp: e.amp,
            margin: e.width * e.amp * (1.0 + LINE_SLACK),
            x_hat: e.x_at(theta, unit),
            max_scale: f64::MAX / (8.0 * g * k.max(1.0)),
        })
    }

    /// [`extremum_enclosed`] for the on-line leg from `z0`, from the
    /// scaled constants, or `None` where the scaling does not apply: `z0`
    /// not exactly `(fl(−k y0), y0)`, `y0` of the other sign, zero,
    /// subnormal, not finite or past the overflow bound, or `x0`
    /// subnormal or zero. The caller then asks [`extremum_enclosed`].
    pub(crate) fn enclosed(
        &self,
        z0: [f64; 2],
        mut inside: impl FnMut((f64, f64)) -> bool,
    ) -> Option<bool> {
        let [x0, y0] = z0;
        let s = self.sigma * y0;
        let scalable = (f64::MIN_POSITIVE..=self.max_scale).contains(&s)
            && x0 == self.neg_k * y0
            && x0.abs() >= f64::MIN_POSITIVE;
        if !scalable {
            return None;
        }
        let (amp, x) = (s * self.amp, s * self.x_hat);
        let m = s * self.margin + f64::MIN_POSITIVE;
        Some(inside((-amp - m, amp + m)) || inside((x - m, x + m)))
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

fn flow_for_focus(alpha: f64, beta: f64) -> RegionFlow {
    // lambda^2 + m lambda + n with m = -2 alpha, n = alpha^2 + beta^2.
    RegionFlow::from_mn(-2.0 * alpha, alpha * alpha + beta * beta)
}

#[cfg(test)]
mod tests {
    use super::*;

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
            assert!(!extremum_enclosed(flow, z0, |b| {
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
                let estimated = sign_change_estimate(z0[1], focus_and_c(alpha, beta, z0).1);
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
            // within 2 LINE_MARGIN of 0 or pi.
            let beta = 10f64.powf(-3.0 + 9.0 * unit(&mut rng));
            let ratio = if case % 16 == 0 { 0.0 } else { 10f64.powf(-6.0 + 14.0 * unit(&mut rng)) };
            let alpha = -beta * ratio;
            let (m, n) = (-2.0 * alpha, alpha * alpha + beta * beta);
            let flow = RegionFlow::from_mn(m, n);
            let free = 10f64.powf(-6.0 + 12.0 * unit(&mut rng));
            // The unit start's c is sigma (n k + alpha) / beta.
            let theta = match case % 12 {
                1 => 2.0 * LINE_MARGIN * unit(&mut rng),
                4 => PI - 2.0 * LINE_MARGIN * unit(&mut rng),
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
            // The constants come from one start and serve every other
            // start on the same side of the line, as in a trace.
            let first = sigma * 10f64.powf(-300.0 + 600.0 * unit(&mut rng));
            let Some(line) = LineEnclosure::new(&flow, k, on_line(first)) else { continue };
            flows += 1;
            for _ in 0..4 {
                let z0 = on_line(sigma * 10f64.powf(-300.0 + 600.0 * unit(&mut rng)));
                let Some(e) = region_extremum(&flow, z0) else { continue };
                // Refusing every interval makes both bounds offered.
                let mut offered = Vec::new();
                let Some(enclosed) = line.enclosed(z0, |b| {
                    offered.push(b);
                    false
                }) else {
                    continue;
                };
                assert!(!enclosed);
                scaled += 1;
                widest_ratio = widest_ratio.max(ratio);
                for &(lo, hi) in &offered {
                    assert!(
                        !(e.x < lo || e.x > hi),
                        "case {case}: alpha {alpha:e}, beta {beta:e}, k {k:e}, z0 {z0:?}: \
                         x {:e} outside [{lo:e}, {hi:e}]",
                        e.x
                    );
                }
                let (lo, hi) = offered[1];
                let amp = z0[0].hypot((z0[1] - alpha * z0[0]) / beta);
                if lo.is_finite() && hi.is_finite() && amp.is_normal() {
                    checked += 1;
                    let miss = (e.x - 0.5 * (lo + hi)).abs() / ((1.0 + ratio) * amp);
                    worst = worst.max(miss);
                }
            }
        }
        println!(
            "{flows} flows, {scaled} scaled legs up to |alpha|/beta {widest_ratio:e}, \
             {checked} finite, worst miss {worst:e} A"
        );
        assert!(flows >= 60_000, "only {flows} flows got line constants");
        assert!(scaled >= 240_000, "only {scaled} legs scaled");
        assert!(widest_ratio > 5e7, "scaled legs reach |alpha|/beta {widest_ratio:e} only");
        assert!(checked >= scaled / 2, "only {checked} of {scaled} enclosures finite");
        assert!(worst < 1e-13, "worst relative miss {worst:e}");
    }

    #[test]
    fn line_enclosure_refuses_starts_it_cannot_scale() {
        let flow = RegionFlow::from_kn(0.2, 10.0);
        let k = 0.2;
        let line = LineEnclosure::new(&flow, k, [-k * 3.0, 3.0]).expect("a focus");
        let enclosed = |z0| line.enclosed(z0, |_| true);
        assert_eq!(enclosed([-k * 5.0, 5.0]), Some(true));
        // Off the line by an ulp, the other side, zero, subnormal and
        // non-finite `y0`, and past the overflow bound.
        assert_eq!(enclosed([(-k * 5.0f64).next_up(), 5.0]), None);
        assert_eq!(enclosed([k * 5.0, -5.0]), None);
        for y0 in [0.0, f64::from_bits(1), 1e-310, f64::INFINITY, f64::NAN, 1e308] {
            assert_eq!(enclosed([-k * y0, y0]), None, "y0 {y0:e}");
        }
        // No constants for node and critical flows, or for `y0 = 0`.
        assert!(LineEnclosure::new(&RegionFlow::from_kn(1.5, 2.0), 1.5, [-1.5, 1.0]).is_none());
        assert!(LineEnclosure::new(&RegionFlow::from_kn(1.0, 4.0), 1.0, [-1.0, 1.0]).is_none());
        assert!(LineEnclosure::new(&flow, k, [0.0, 0.0]).is_none());
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
