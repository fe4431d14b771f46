//! Semi-analytic propagation of the switched BCN system.
//!
//! The paper's central observation is that each control region of the
//! linearised model is a *solved* system: trajectories are logarithmic
//! spirals, node parabolas, or critically damped arcs with explicit
//! formulas (Eqs. 12–34). This module turns that structure into the fast
//! path used by every sweep:
//!
//! * [`Propagator`] — both regions' [`RegionConsts`] (flow, rebuilt
//!   focus, half turn) for one parameter set, from `(k, a, bC)`. A build
//!   costs ~270 ns on a 2-vCPU Xeon VM, little against a ~3 µs trace, so
//!   every caller builds its own; the process-wide memo sits one level
//!   up, on whole stability answers ([`crate::query`], counters
//!   re-exported here as [`cache_stats`]).
//! * [`crossing_time`] — the switching-line crossing time of a leg from
//!   the *closed form* of the scalar `s(t) = x(t) + k y(t)`: an explicit
//!   zero formula per spectrum polished by safeguarded Newton iteration
//!   inside a bisection bracket, replacing the linear `scan_step` sweep
//!   of [`RegionFlow::first_zero`] on the hot path.
//! * [`analytic_trajectory`] — a drop-in replacement for the DOPRI5
//!   hybrid integrator on the linearised model: walks trajectory legs
//!   analytically and emits the same [`HybridSolution`] shape (mode
//!   intervals, switch-budget semantics, dense samples on request), with
//!   each leg's queue extremum inserted as an exact sample.
//!
//! The numeric integrator remains the cross-check: `bench --bin
//! fluid_engine` and the test suite compare both engines cell by cell.

use std::f64::consts::{FRAC_PI_2, PI};

use odesolve::hybrid::{HybridSolution, ModeInterval};
use odesolve::Solution;
use phaseplane::Mat2;

use crate::closed_form::{RegionFlow, Spectrum};
use crate::extrema::{region_extremum, Extremum, Focus};
use crate::model::{BcnFluid, Region};
use crate::params::BcnParams;
use crate::rounds::departing_region;
use crate::simulate::FluidOptions;

/// The process-wide memo's counters, kept at this path for code written
/// against it. The memo holds stability answers ([`crate::query`]);
/// propagators are built fresh, a build being small against a trace.
pub use crate::query::{cache_stats, CacheStats};

/// Both regions' constant sets for one parameter set, plus the switching
/// slope `k`, ready for closed-form leg propagation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Propagator {
    k: f64,
    increase: RegionConsts,
    decrease: RegionConsts,
}

/// One control region's constants, built once with the [`Propagator`]:
/// the exact flow, the focus flow that
/// [`spiral_extremum`](crate::extrema::spiral_extremum) evaluates, and
/// for a focus the half turn of the legs entered on the switching line
/// (the `extrema` module header's contraction bound).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionConsts {
    flow: RegionFlow,
    pub(crate) focus: Option<Focus>,
    pub(crate) line: Option<HalfTurn>,
}

/// The half turn of a focus leg entered on the switching line: its
/// duration `π/β` (the bits [`crossing_time`] returns) and matrix
/// `M = e^{Jπ/β}`, the factor `λ_g` it scales `y` by, the bound
/// `γ = |M₂₁| k + |M₂₂|` on `|y'| / |y|`, and the range of `|y|` it
/// serves: from `floor` up, `y` and `x = −k y` are normal and the
/// crossing's `c` cannot underflow; up to `max_scale`, the leg's
/// evaluation cannot overflow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HalfTurn {
    pub(crate) duration: f64,
    pub(crate) matrix: Mat2,
    pub(crate) lambda: f64,
    pub(crate) gamma: f64,
    pub(crate) floor: f64,
    pub(crate) max_scale: f64,
}

impl RegionConsts {
    /// The constants of `flow` with the switching slope `k`.
    #[must_use]
    pub fn new(flow: RegionFlow, k: f64) -> Self {
        let Spectrum::Focus { alpha, beta } = flow.spectrum() else {
            return Self { flow, focus: None, line: None };
        };
        let duration = PI / beta;
        let matrix = flow.exp(duration);
        // Every product and sum evaluating a leg from `z0` (`c`, `h` and
        // the matrix exponential's terms) is at most `g max(|x0|, |y0|)`.
        let n = alpha * alpha + beta * beta;
        let g = (1.0 + n + 3.0 * alpha.abs()) * (1.0 + 1.0 / beta);
        let line = HalfTurn {
            duration,
            matrix,
            lambda: matrix.d - k * matrix.c,
            gamma: matrix.c.abs() * k + matrix.d.abs(),
            floor: f64::MIN_POSITIVE * (4.0 + k + beta + 4.0 / k),
            max_scale: f64::MAX / (8.0 * g * k.max(1.0)),
        };
        Self { flow, focus: Some(Focus::new(alpha, beta)), line: Some(line) }
    }

    /// The region's exact flow.
    #[must_use]
    pub fn flow(&self) -> &RegionFlow {
        &self.flow
    }

    /// [`region_extremum`] from `z0`, on the focus flow built once.
    #[must_use]
    pub fn extremum(&self, z0: [f64; 2]) -> Option<Extremum> {
        match &self.focus {
            Some(focus) => focus.extremum(z0),
            None => region_extremum(&self.flow, z0),
        }
    }

    /// Whether `inside` accepts an interval holding [`Self::extremum`]'s
    /// `x` from `z0` (the `extrema` module header's Enclosure section):
    /// the amplitude bound first, then the tight one. `false` for node and
    /// critical flows, whose extrema are closed-form.
    pub fn extremum_enclosed(&self, z0: [f64; 2], inside: impl FnMut((f64, f64)) -> bool) -> bool {
        self.focus.is_some_and(|focus| focus.enclosed(z0, inside))
    }

    /// `π/β`, the duration of a focus leg entered on the switching line.
    #[must_use]
    pub fn half_turn(&self) -> Option<f64> {
        self.line.map(|l| l.duration)
    }

    /// `λ_g`, the factor (`−e^{απ/β}` up to rounding) by which a focus
    /// leg entered on the line scales `y`; `λ_i λ_d` is the round ratio.
    #[must_use]
    pub fn line_factor(&self) -> Option<f64> {
        self.line.map(|l| l.lambda)
    }

    /// The end, before landing, of the leg from `z0` when it starts
    /// exactly on the switching line with `|y| >= floor`: the bits
    /// `flow.at(t, z0)` gives at the `π/β` [`crossing_time`] returns.
    pub(crate) fn half_turn_end(&self, k: f64, z0: [f64; 2]) -> Option<[f64; 2]> {
        let line = self.line.as_ref()?;
        (z0[0] + k * z0[1] == 0.0 && z0[1].abs() >= line.floor).then(|| line.matrix.mul_vec(z0))
    }
}

impl Propagator {
    /// Builds the propagator from the derived constants directly:
    /// `n = a` in the increase region, `n = bC` in the decrease region
    /// (paper Eq. 35).
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b_c` is non-positive or `k` negative (validated
    /// `BcnParams` always satisfy this).
    #[must_use]
    pub fn new(k: f64, a: f64, b_c: f64) -> Self {
        let region = |n| RegionConsts::new(RegionFlow::from_kn(k, n), k);
        Self { k, increase: region(a), decrease: region(b_c) }
    }

    /// The propagator for a parameter set, built from its derived
    /// constants `(k, a, bC)`. A build costs ~270 ns, little against the
    /// microseconds of a trace, so callers build one where they need it;
    /// the process-wide memo caches the stability answers
    /// ([`crate::query`]).
    #[must_use]
    pub fn for_params(params: &BcnParams) -> Self {
        Self::new(params.k(), params.a(), params.b() * params.capacity)
    }

    /// The switching-line slope constant `k`.
    #[must_use]
    pub fn k(&self) -> f64 {
        self.k
    }

    /// The exact flow of one control region.
    #[must_use]
    pub fn flow(&self, region: Region) -> &RegionFlow {
        &self.region(region).flow
    }

    /// The constant set of one control region.
    #[must_use]
    pub fn region(&self, region: Region) -> &RegionConsts {
        match region {
            Region::Increase => &self.increase,
            Region::Decrease => &self.decrease,
        }
    }

    /// Signed switching-line coordinate `s = x + k y` of a state: zero
    /// on the line, positive on the decrease side, negative on the
    /// increase side. `|s|` is the hybrid engine's distance-to-line
    /// oracle (in bits, since `k y` is a queue-scaled rate surplus).
    #[must_use]
    pub fn line_coordinate(&self, z: [f64; 2]) -> f64 {
        z[0] + self.k * z[1]
    }

    /// The region a trajectory at `z` departs into, using the same
    /// tie-break as `rounds::departing_region`: sign of `s` off the
    /// line, sign of `y` on it. Only the slope `k` is needed, so the
    /// propagator can answer without the full parameter set.
    #[must_use]
    pub fn departing_region(&self, z: [f64; 2]) -> Region {
        let s = self.line_coordinate(z);
        if s > 0.0 || (s == 0.0 && z[1] > 0.0) {
            Region::Decrease
        } else {
            Region::Increase
        }
    }

    /// Advances the switched system analytically by exactly `dt`,
    /// starting from `z0` departing in `region`, walking as many
    /// closed-form legs as fit (at most `max_switches` region
    /// transitions). Each landing is normalised onto the switching line
    /// (`x = -k y`, the `rounds::trace_legs` convention) before the
    /// next leg departs, so a multi-leg advance matches
    /// [`analytic_trajectory`] leg for leg.
    ///
    /// Returns the state reached, the region it departs into, the number
    /// of switches taken, and the time actually covered: `t == dt`
    /// unless the switch budget ran out or a leg collapsed below time
    /// resolution, in which case the caller sees `t < dt` and can fall
    /// back to stepping.
    #[must_use]
    pub fn advance(
        &self,
        mut region: Region,
        mut z: [f64; 2],
        dt: f64,
        max_switches: usize,
    ) -> EpochStep {
        let mut t = 0.0;
        let mut switches = 0usize;
        loop {
            let remaining = dt - t;
            if remaining <= 0.0 {
                return EpochStep { z, region, switches, t };
            }
            match crossing_time(self.flow(region), self.k, z, remaining) {
                Some(tc) => {
                    let mut z_end = self.flow(region).at(tc, z);
                    z_end[0] = -self.k * z_end[1];
                    let t_hit = t + tc;
                    if t_hit <= t || switches == max_switches {
                        // Sub-ulp leg or budget exhausted: report the
                        // partial advance honestly.
                        return EpochStep { z: z_end, region, switches, t: t_hit.min(dt) };
                    }
                    switches += 1;
                    t = t_hit;
                    z = z_end;
                    region = self.departing_region(z);
                }
                None => {
                    return EpochStep {
                        z: self.flow(region).at(remaining, z),
                        region,
                        switches,
                        t: dt,
                    };
                }
            }
        }
    }
}

/// Outcome of [`Propagator::advance`]: where an analytic multi-leg
/// epoch advance landed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStep {
    /// State reached after time `t`.
    pub z: [f64; 2],
    /// Region the trajectory departs into from `z`.
    pub region: Region,
    /// Region transitions taken.
    pub switches: usize,
    /// Time actually covered; `t < dt` means the switch budget ran out
    /// (or a leg collapsed below time resolution) and the caller should
    /// fall back to stepping from `z`.
    pub t: f64,
}

/// First strictly positive time at which `s(t) = x(t) + k y(t)` crosses
/// zero under `flow`, or `None` if no crossing occurs in `(0, t_max]`.
///
/// `s` is a linear functional of the state, so it obeys the same scalar
/// second-order ODE as each component and its zeros have explicit
/// formulas per spectrum:
///
/// * **Focus** `alpha ± i beta`:
///   `s(t) = e^{alpha t} (s0 cos beta t + c sin beta t)` with
///   `c = (s'0 - alpha s0)/beta` — zeros of `cos(beta t - phi)` spaced
///   exactly `pi/beta` apart. A leg entered *on* the line (`s0 = 0`)
///   therefore lasts exactly `pi/beta`, the paper's steady-leg duration.
/// * **Node** `l1 < l2`: `s(t) = c1 e^{l1 t} + c2 e^{l2 t}` has at most
///   one sign change, at `t = -ln(-c2/c1)/(l2 - l1)` when the ratio is
///   admissible. A leg entered on the line has `c1 = -c2` and never
///   returns (the asymptotic approach of the paper's Case 3).
/// * **Critical** `l` repeated: `s(t) = (s0 + (s'0 - l s0) t) e^{l t}`
///   crosses zero at most once, at `t = -s0 / (s'0 - l s0)`.
///
/// The closed-form candidate is then polished by safeguarded
/// Newton/bisection inside a bracket known to contain exactly that zero,
/// so the returned time is accurate to machine precision rather than to
/// the old `scan_step` resolution.
#[must_use]
pub fn crossing_time(flow: &RegionFlow, k: f64, z0: [f64; 2], t_max: f64) -> Option<f64> {
    if t_max.is_nan() || t_max <= 0.0 {
        return None;
    }
    let j = flow.jacobian();
    let s_and_sdot = |z: [f64; 2]| {
        let s = z[0] + k * z[1];
        let sd = z[1] + k * (j.c * z[0] + j.d * z[1]);
        (s, sd)
    };
    let (s0, sd0) = s_and_sdot(z0);
    let guess = match flow.spectrum() {
        Spectrum::Focus { alpha, beta } => {
            let c = (sd0 - alpha * s0) / beta;
            if s0 == 0.0 {
                if c == 0.0 {
                    return None; // s vanishes identically
                }
                // Entered on the line: next zero of sin(beta t), exact.
                let t = PI / beta;
                return (t <= t_max).then_some(t);
            }
            // s ∝ cos(beta t - phi) with phi = atan2(c, s0): zeros sit at
            // beta t = phi + pi/2 (mod pi); reduce into (0, pi] for the
            // first strictly positive one.
            let phi = c.atan2(s0);
            let mut theta = phi + FRAC_PI_2; // in (-pi/2, 3 pi/2]
            if theta > PI {
                theta -= PI;
            }
            if theta <= 0.0 {
                theta += PI;
            }
            theta / beta
        }
        Spectrum::Node { l1, l2 } => {
            let d = l2 - l1;
            let c1 = (l2 * s0 - sd0) / d;
            let c2 = (sd0 - l1 * s0) / d;
            if c1 == 0.0 {
                return None; // pure slow mode: no sign change
            }
            let r = -c2 / c1;
            if r <= 0.0 {
                return None;
            }
            let t = -r.ln() / d;
            if t <= 0.0 {
                return None; // entered on the line (r = 1): never returns
            }
            t
        }
        Spectrum::Critical { l } => {
            let b = sd0 - l * s0;
            if b == 0.0 {
                return None; // s ∝ e^{l t}: no sign change
            }
            let t = -s0 / b;
            if t <= 0.0 {
                return None;
            }
            t
        }
    };
    if !guess.is_finite() || guess > t_max {
        return None;
    }
    // Bracket exactly this zero: focus zeros are pi/beta apart, so a
    // quarter-spacing pad cannot capture a neighbour; node and critical
    // observables cross at most once.
    let pad = match flow.spectrum() {
        Spectrum::Focus { beta, .. } => 0.25 * PI / beta,
        _ => 0.5 * guess,
    };
    let lo = (guess - pad).max(0.5 * guess);
    let hi = guess + pad;
    Some(refine_crossing(|t| s_and_sdot(flow.at(t, z0)), guess, lo, hi))
}

/// Safeguarded Newton polish of a bracketed root: Newton steps on
/// `(s, ds/dt)` that leave `[lo, hi]` fall back to bisection, so the
/// iteration converges to the bracketed zero unconditionally.
fn refine_crossing(f: impl Fn(f64) -> (f64, f64), guess: f64, mut lo: f64, mut hi: f64) -> f64 {
    let (s_lo, _) = f(lo);
    let (s_hi, _) = f(hi);
    if s_lo == 0.0 {
        return lo;
    }
    if s_hi == 0.0 {
        return hi;
    }
    if s_lo.signum() == s_hi.signum() {
        // The bracket failed to see the sign change (sub-ulp geometry);
        // the closed-form candidate is already as good as it gets.
        return guess;
    }
    let mut t = guess.clamp(lo, hi);
    for _ in 0..64 {
        if hi - lo <= 4.0 * f64::EPSILON * hi.abs() {
            break;
        }
        let (s, sd) = f(t);
        if s == 0.0 {
            return t;
        }
        if s.signum() == s_lo.signum() {
            lo = t;
        } else {
            hi = t;
        }
        let newton = t - s / sd;
        t = if newton.is_finite() && newton > lo && newton < hi { newton } else { 0.5 * (lo + hi) };
    }
    0.5 * (lo + hi)
}

/// Integrates the *linearised* switched system analytically: legs are
/// propagated by the exact matrix exponential and switch times come from
/// [`crossing_time`], no ODE stepping involved.
///
/// The output mirrors the DOPRI5 hybrid driver: one [`ModeInterval`] per
/// leg, `switch_budget_exhausted` set when a leg still wants to switch
/// after `opts.max_switches` transitions, dense samples every
/// `opts.record_dt` within each leg. In addition, each leg's interior
/// queue extremum (if any) is inserted as an exact sample, so
/// `max_component`/`min_component` report true extrema regardless of the
/// record grid — something the numeric path can only approach as
/// `record_dt` shrinks.
///
/// Callers are expected to have checked `sys.linearity()`; the flows used
/// here are the linearised ones whatever the system's own setting (the
/// [`crate::simulate::Engine`] selector in `fluid_trajectory` performs
/// that gating).
#[must_use]
pub fn analytic_trajectory(sys: &BcnFluid, p0: [f64; 2], opts: &FluidOptions) -> HybridSolution<2> {
    let params = sys.params();
    let prop = Propagator::for_params(params);
    let t_end = opts.t_end;
    let mut sol = Solution::new(0.0, p0);
    let mut intervals: Vec<ModeInterval> = Vec::new();
    let mut exhausted = false;
    let mut t = 0.0;
    let mut z = p0;
    let mut switches = 0usize;
    loop {
        let region = departing_region(params, z);
        let remaining = t_end - t;
        if remaining <= 0.0 {
            // Degenerate horizon: a single empty interval, mirroring the
            // numeric driver's trivial zero-length integration.
            intervals.push(ModeInterval { mode: region.mode_index(), t_start: t, t_end: t });
            break;
        }
        let flow = prop.flow(region);
        let cross = crossing_time(flow, prop.k(), z, remaining);
        let leg_dur = cross.unwrap_or(remaining);

        // Interior samples: the record grid plus the leg's queue extremum,
        // in time order.
        let mut interior: Vec<f64> = Vec::new();
        if let Some(dt) = opts.record_dt {
            if dt > 0.0 {
                let mut tr = dt;
                while tr < leg_dur - 1e-12 * dt {
                    interior.push(tr);
                    tr += dt;
                }
            }
        }
        if let Some(e) = prop.region(region).extremum(z) {
            if e.t > 0.0 && e.t < leg_dur {
                interior.push(e.t);
            }
        }
        interior.sort_by(f64::total_cmp);
        interior.dedup();
        sol.push_samples(t, &interior, |tr| flow.at(tr, z));

        match cross {
            Some(tc) => {
                let mut z_end = flow.at(tc, z);
                // Land exactly on the switching line, the same
                // normalisation `rounds::trace_legs` applies.
                z_end[0] = -prop.k() * z_end[1];
                let t_hit = t + tc;
                sol.push(t_hit, z_end);
                intervals.push(ModeInterval {
                    mode: region.mode_index(),
                    t_start: t,
                    t_end: t_hit,
                });
                if t_hit >= t_end {
                    break; // crossed exactly at the horizon
                }
                if switches == opts.max_switches {
                    exhausted = true;
                    break;
                }
                if t_hit <= t {
                    break; // sub-ulp leg: time cannot advance
                }
                switches += 1;
                t = t_hit;
                z = z_end;
            }
            None => {
                sol.push(t_end, flow.at(remaining, z));
                intervals.push(ModeInterval { mode: region.mode_index(), t_start: t, t_end });
                break;
            }
        }
    }
    HybridSolution { solution: sol, intervals, switch_budget_exhausted: exhausted }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::{exemplar, exemplar_case5_decrease, CaseId};
    use crate::rounds::steady_leg_duration;

    fn check_crossing_matches_scan(flow: &RegionFlow, k: f64, z0: [f64; 2], t_max: f64) {
        let scan = flow.time_to_switching_line(z0, k, t_max);
        let exact = crossing_time(flow, k, z0, t_max);
        match (scan, exact) {
            (None, None) => {}
            (Some(ts), Some(te)) => {
                assert!(
                    (ts - te).abs() <= 1e-6 * ts.max(1e-12),
                    "scan {ts} vs closed form {te} from {z0:?}"
                );
                let z = flow.at(te, z0);
                assert!(
                    (z[0] + k * z[1]).abs() <= 1e-9 * (z[0].abs() + k * z[1].abs()).max(1e-12),
                    "closed-form crossing not on the line: {z:?}"
                );
            }
            other => panic!("scan/closed-form disagree from {z0:?}: {other:?}"),
        }
    }

    #[test]
    fn focus_crossing_matches_scan_solver() {
        let flow = RegionFlow::from_kn(0.2, 10.0); // focus
        for z0 in [[-1.0, 0.0], [0.5, -3.0], [-0.2, 4.0], [1.0, 1.0]] {
            check_crossing_matches_scan(&flow, 0.2, z0, 50.0);
        }
    }

    #[test]
    fn node_crossing_matches_scan_solver() {
        let flow = RegionFlow::from_kn(1.5, 2.0); // (kn)^2 = 9 > 8: node
        for z0 in [[-1.0, 0.0], [-0.3, 2.0], [2.0, 1.0]] {
            check_crossing_matches_scan(&flow, 1.5, z0, 80.0);
        }
    }

    #[test]
    fn critical_crossing_matches_scan_solver() {
        let flow = RegionFlow::from_kn(1.0, 4.0); // (kn)^2 = 16 = 4n
        assert!(matches!(flow.spectrum(), Spectrum::Critical { .. }));
        for z0 in [[-1.0, 0.0], [-0.5, 3.0]] {
            check_crossing_matches_scan(&flow, 1.0, z0, 80.0);
        }
    }

    #[test]
    fn leg_entered_on_the_line_lasts_exactly_half_a_rotation() {
        let params = BcnParams::test_defaults();
        let prop = Propagator::for_params(&params);
        let Spectrum::Focus { beta, .. } = prop.flow(Region::Increase).spectrum() else {
            panic!("test defaults must have a spiral increase region");
        };
        let y0 = -0.01 * params.capacity;
        let z0 = [-prop.k() * y0, y0]; // exactly on the line, y < 0
        let t = crossing_time(prop.flow(Region::Increase), prop.k(), z0, 10.0)
            .expect("returns to line");
        assert_eq!(t, PI / beta, "on-line focus leg must be exactly pi/beta");
        assert!((t - steady_leg_duration(&params, Region::Increase).unwrap()).abs() < 1e-15);
    }

    #[test]
    fn node_leg_entered_on_the_line_never_returns() {
        // Case 3's decrease region is a node; a leg entered on the line
        // slides to the origin without re-crossing (c1 = -c2).
        let params = exemplar(&BcnParams::test_defaults(), CaseId::Case3);
        let prop = Propagator::for_params(&params);
        assert!(matches!(prop.flow(Region::Decrease).spectrum(), Spectrum::Node { .. }));
        let y0 = -0.01 * params.capacity;
        let z0 = [-prop.k() * y0, y0];
        assert_eq!(crossing_time(prop.flow(Region::Decrease), prop.k(), z0, 1e6), None);
    }

    #[test]
    fn critical_leg_entered_on_the_line_never_returns() {
        // An exactly critical flow: (kn)^2 = 4n with k = 1, n = 4.
        let flow = RegionFlow::from_kn(1.0, 4.0);
        assert!(matches!(flow.spectrum(), Spectrum::Critical { .. }));
        let z0 = [1.0, -1.0]; // on the line x + y = 0, y < 0
        assert_eq!(crossing_time(&flow, 1.0, z0, 1e6), None);
    }

    #[test]
    fn near_critical_case5_leg_on_the_line_never_returns() {
        // The case-5 exemplar sits on the critical boundary only to the
        // RegionShape classifier's 1e-9 tolerance; in exact floating
        // point its discriminant is a few ulps positive, so the spectrum
        // is a near-degenerate node. The on-line behaviour must be the
        // same: the leg slides to the origin without re-crossing.
        let params = exemplar_case5_decrease(&BcnParams::test_defaults());
        assert_eq!(crate::cases::classify_params(&params).case, CaseId::Case5);
        let prop = Propagator::for_params(&params);
        let y0 = -0.01 * params.capacity;
        let z0 = [-prop.k() * y0, y0];
        assert_eq!(crossing_time(prop.flow(Region::Decrease), prop.k(), z0, 1e6), None);
    }

    #[test]
    fn crossing_respects_horizon() {
        let flow = RegionFlow::from_kn(0.2, 10.0);
        let t = crossing_time(&flow, 0.2, [-1.0, 0.0], 1e9).expect("crossing");
        assert_eq!(crossing_time(&flow, 0.2, [-1.0, 0.0], 0.5 * t), None);
        assert_eq!(crossing_time(&flow, 0.2, [-1.0, 0.0], 0.0), None);
    }

    #[test]
    fn analytic_trajectory_runs_to_horizon_from_equilibrium() {
        let params = BcnParams::test_defaults();
        let sys = BcnFluid::linearized(params.clone());
        let out = analytic_trajectory(&sys, [0.0, 0.0], &FluidOptions::default());
        assert_eq!(out.switch_count(), 0);
        assert!(!out.switch_budget_exhausted);
        assert_eq!(out.solution.last_time(), 1.0);
        assert_eq!(out.solution.last_state(), [0.0, 0.0]);
    }

    #[test]
    fn analytic_trajectory_honours_switch_budget() {
        let params = BcnParams::test_defaults();
        let sys = BcnFluid::linearized(params.clone());
        let opts = FluidOptions { max_switches: 3, t_end: 60.0, ..FluidOptions::default() };
        let out = analytic_trajectory(&sys, params.initial_point(), &opts);
        assert!(out.switch_budget_exhausted);
        // max_switches + 1 legs were walked; the last one stopped at the
        // crossing it was not allowed to take.
        assert_eq!(out.intervals.len(), 4);
        assert_eq!(out.switch_count(), 3);
    }

    #[test]
    fn analytic_trajectory_alternates_modes_on_the_line() {
        let params = BcnParams::test_defaults();
        let sys = BcnFluid::linearized(params.clone());
        let opts = FluidOptions::default().with_t_end(0.2);
        let out = analytic_trajectory(&sys, params.initial_point(), &opts);
        assert!(out.switch_count() >= 2);
        for pair in out.intervals.windows(2) {
            assert_ne!(pair[0].mode, pair[1].mode, "modes must alternate");
            assert_eq!(pair[0].t_end, pair[1].t_start, "intervals must abut");
        }
        let k = params.k();
        for &ts in &out.switch_times() {
            let z = out.solution.sample(ts).expect("switch time sampled");
            assert!(
                (z[0] + k * z[1]).abs() <= 1e-9 * params.q0,
                "switch sample off the line: {z:?}"
            );
        }
    }

    #[test]
    fn advance_matches_propagate_inside_one_region() {
        let params = BcnParams::test_defaults();
        let prop = Propagator::for_params(&params);
        // Deep in the increase region, short horizon: no switch fits.
        let z0 = [-0.3 * params.q0, -0.02 * params.capacity];
        let tc = crossing_time(prop.flow(Region::Increase), prop.k(), z0, 1e9)
            .expect("eventually crosses");
        let dt = 0.5 * tc;
        let step = prop.advance(Region::Increase, z0, dt, 64);
        assert_eq!(step.switches, 0);
        assert_eq!(step.t, dt);
        assert_eq!(step.region, Region::Increase);
        assert_eq!(step.z, prop.flow(Region::Increase).at(dt, z0));
    }

    #[test]
    fn advance_matches_analytic_trajectory_across_switches() {
        let params = BcnParams::test_defaults();
        let sys = BcnFluid::linearized(params.clone());
        let prop = Propagator::for_params(&params);
        let z0 = params.initial_point();
        let dt = 0.2;
        let opts = FluidOptions::default().with_t_end(dt);
        let reference = analytic_trajectory(&sys, z0, &opts);
        let step = prop.advance(departing_region(&params, z0), z0, dt, 1024);
        assert_eq!(step.t, dt);
        assert_eq!(step.switches, reference.switch_count());
        let z_ref = reference.solution.last_state();
        for (i, r) in z_ref.iter().enumerate() {
            assert!(
                (step.z[i] - r).abs() <= 1e-9 * r.abs().max(1.0),
                "component {i}: {} vs {r}",
                step.z[i]
            );
        }
    }

    #[test]
    fn advance_reports_partial_time_when_budget_exhausted() {
        let params = BcnParams::test_defaults();
        let prop = Propagator::for_params(&params);
        let z0 = params.initial_point();
        let region = departing_region(&params, z0);
        let full = prop.advance(region, z0, 0.2, 1024);
        assert!(full.switches >= 2, "scenario must actually switch");
        let capped = prop.advance(region, z0, 0.2, 1);
        assert_eq!(capped.switches, 1);
        assert!(capped.t < 0.2, "partial advance must be reported");
        // The landing is on the switching line.
        assert_eq!(capped.z[0], -prop.k() * capped.z[1]);
    }

    #[test]
    fn departing_region_matches_rounds_oracle() {
        let params = BcnParams::test_defaults();
        let prop = Propagator::for_params(&params);
        let k = prop.k();
        for z in [[-k, 1.0], [k, -1.0], [-1.0, 0.0], [1.0, 0.0], [0.4, 0.1], [-0.4, -0.1]] {
            assert_eq!(prop.departing_region(z), departing_region(&params, z), "{z:?}");
        }
    }

    #[test]
    fn analytic_trajectory_record_grid_is_honoured() {
        let params = BcnParams::test_defaults();
        let sys = BcnFluid::linearized(params.clone());
        let opts = FluidOptions::default().with_t_end(0.05).with_record_dt(1e-4);
        let out = analytic_trajectory(&sys, params.initial_point(), &opts);
        // At least as many samples as the grid demands, and times strictly
        // non-decreasing (Solution::push enforces ordering in debug).
        assert!(out.solution.len() >= 400, "samples: {}", out.solution.len());
        assert_eq!(out.solution.last_time(), 0.05);
    }
}
