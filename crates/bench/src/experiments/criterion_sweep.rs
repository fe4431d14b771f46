//! Criterion atlas over the gain plane `(Gi, Gd)`.
//!
//! For a grid of gain pairs, compares four verdicts:
//!
//! 1. the prior **linear baseline** of Lu et al. \[4\] (always "stable" —
//!    Proposition 1);
//! 2. the paper's **Theorem 1** sufficient condition;
//! 3. the paper's sharper **case criterion** (Propositions 2–4);
//! 4. the **exact** switched-trajectory verdict (ground truth for the
//!    linearised model) cross-checked against the drop count of the
//!    buffer-saturating fluid run.
//!
//! The expected shape: baseline ⊇ exact ⊇ criterion ⊇ Theorem 1 — the
//! baseline over-approves (its verdict is blind to `B`), the paper's
//! criteria are sound (never approve an unstable cell) and increasingly
//! conservative.

use std::path::Path;

use bcn::cases::classify_params;
use bcn::simulate::SaturatingFluid;
use bcn::stability::{criterion, exact_verdict, fluid_drop_verdicts, theorem1_holds};
use bcn::{linear_baseline, BcnParams};
use plotkit::{Csv, Table};

use crate::common::{banner, out_dir};
use crate::ExpResult;

/// One grid cell's verdicts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Additive-increase gain.
    pub gi: f64,
    /// Multiplicative-decrease gain.
    pub gd: f64,
    /// Case id (1–5) as a number.
    pub case_no: u8,
    /// Baseline \[4\] approves.
    pub baseline: bool,
    /// Theorem 1 approves.
    pub theorem1: bool,
    /// Case criterion (Props. 2–4) approves.
    pub case_criterion: bool,
    /// Exact trace is strongly stable.
    pub exact: bool,
    /// The saturating fluid run dropped bits.
    pub fluid_drops: bool,
}

/// The gain axis of the atlas: `n` log-spaced multipliers of `base`
/// from 0.05x to 20x, hoisted out of the cell loop so the `powf` chain
/// runs once per axis point instead of once per cell.
fn gain_axis(base: f64, n: usize) -> Vec<f64> {
    (0..n).map(|i| base * 0.05 * (400.0_f64).powf(i as f64 / (n - 1) as f64)).collect()
}

/// The parameter set of every cell of the `n x n` atlas, in row-major
/// grid order — the work-list shared by [`compute_atlas`] and the
/// `fluid_engine` benchmark, so both measure exactly the same cells.
///
/// # Panics
///
/// Panics if `n < 2`, like [`compute_atlas`].
#[must_use]
pub fn atlas_params(base: &BcnParams, n: usize) -> Vec<BcnParams> {
    assert!(n >= 2, "atlas grid must be at least 2x2 (got n = {n})");
    let gis = gain_axis(base.gi, n);
    let gds: Vec<f64> = gain_axis(base.gd, n).into_iter().map(|g| g.min(1.0)).collect();
    (0..n * n)
        .map(|idx| {
            let (i, j) = (idx / n, idx % n);
            base.clone().with_gi(gis[i]).with_gd(gds[j])
        })
        .collect()
}

/// Computes the atlas on an `n x n` log-spaced gain grid.
///
/// The saturating-fluid drop check runs first, as one batch through
/// [`bcn::stability::fluid_drop_verdicts`], which stops each cell at its
/// first dropped bit and steps cells in lockstep. The remaining verdicts
/// (case, baseline, Theorem 1, case criterion and the exact verdict on
/// the semi-analytic propagator) then fill the cells in parallel across
/// the configured `parkit` worker count. Every cell is a pure function
/// of its grid index, so the atlas is identical (bitwise) at any thread
/// count.
///
/// # Panics
///
/// Panics if `n < 2` — a one-point "grid" has no spacing
/// (`(n - 1)` would divide to NaN gains) and a zero-point grid no
/// cells; callers wanting a single point should evaluate `base`
/// directly.
#[must_use]
pub fn compute_atlas(base: &BcnParams, n: usize) -> Vec<Cell> {
    assert!(
        n >= 2,
        "atlas grid must be at least 2x2 (got n = {n}); evaluate the base point directly instead"
    );
    let fluid: Vec<(SaturatingFluid, f64)> = atlas_params(base, n)
        .into_iter()
        .map(|p| {
            let horizon = fluid_horizon(&p);
            (SaturatingFluid::linearized(p), horizon)
        })
        .collect();
    let drops = fluid_drop_verdicts(&fluid);
    parkit::par_map_indexed(fluid.len(), |idx| {
        let p = fluid[idx].0.params();
        let case_no = match classify_params(p).case {
            bcn::CaseId::Case1 => 1,
            bcn::CaseId::Case2 => 2,
            bcn::CaseId::Case3 => 3,
            bcn::CaseId::Case4 => 4,
            bcn::CaseId::Case5 => 5,
        };
        Cell {
            gi: p.gi,
            gd: p.gd,
            case_no,
            baseline: linear_baseline::analyze(p).overall_stable,
            theorem1: theorem1_holds(p),
            case_criterion: criterion(p).is_guaranteed(),
            exact: exact_verdict(p, 40).strongly_stable,
            fluid_drops: drops[idx],
        }
    })
}

/// Simulation horizon for one cell: a few rounds of the slowest
/// oscillation covers the transient peak. Shared with the `fluid_engine`
/// benchmark so its per-cell timings integrate the same span the atlas
/// does.
#[must_use]
pub fn fluid_horizon(p: &BcnParams) -> f64 {
    let beta_slow = (p.a().min(p.b() * p.capacity)).sqrt();
    (8.0 * std::f64::consts::PI / beta_slow).min(5.0)
}

/// Runs the experiment; artifacts land under `out`.
///
/// # Errors
///
/// Propagates I/O failures while writing artifacts.
pub fn run(out: &Path) -> ExpResult {
    banner("Criterion atlas over (Gi, Gd)");
    let base = BcnParams::test_defaults().with_buffer(1.5e5);
    let cells = compute_atlas(&base, 13);

    let mut csv = Csv::new(&[
        "gi",
        "gd",
        "case",
        "baseline",
        "theorem1",
        "case_criterion",
        "exact",
        "fluid_drops",
    ]);
    for c in &cells {
        csv.row(&[
            c.gi,
            c.gd,
            f64::from(c.case_no),
            f64::from(u8::from(c.baseline)),
            f64::from(u8::from(c.theorem1)),
            f64::from(u8::from(c.case_criterion)),
            f64::from(u8::from(c.exact)),
            f64::from(u8::from(c.fluid_drops)),
        ]);
    }
    csv.save(out.join("exp_criterion_sweep.csv"))?;
    println!("wrote {}", out.join("exp_criterion_sweep.csv").display());

    print!("{}", summary_table(&cells));
    if cells.iter().any(|c| (c.case_criterion || c.theorem1) && !c.exact) {
        return Err("criterion approved an unstable cell — soundness violation".into());
    }
    Ok(())
}

/// The aggregate shape checks [`run`] prints, one row per metric.
fn summary_table(cells: &[Cell]) -> Table {
    let total = cells.len();
    let count = |f: &dyn Fn(&Cell) -> bool| cells.iter().filter(|c| f(c)).count();
    let baseline_ok = count(&|c| c.baseline);
    let thm1_ok = count(&|c| c.theorem1);
    let crit_ok = count(&|c| c.case_criterion);
    let exact_ok = count(&|c| c.exact);
    let unsound_crit = count(&|c| c.case_criterion && !c.exact);
    let unsound_thm1 = count(&|c| c.theorem1 && !c.exact);
    let baseline_false_pos = count(&|c| c.baseline && !c.exact);
    // Agreement: strongly stable exactly when the buffer never overflows.
    let exact_fluid_agree = count(&|c| c.exact != c.fluid_drops);

    let mut table = Table::new(&["metric", "count", "of"]);
    table.row(&["baseline [4] approves".into(), baseline_ok.to_string(), total.to_string()]);
    table.row(&["Theorem 1 approves".into(), thm1_ok.to_string(), total.to_string()]);
    table.row(&["case criterion approves".into(), crit_ok.to_string(), total.to_string()]);
    table.row(&["exactly strongly stable".into(), exact_ok.to_string(), total.to_string()]);
    table.row(&["criterion unsound cells".into(), unsound_crit.to_string(), "0 expected".into()]);
    table.row(&["Theorem 1 unsound cells".into(), unsound_thm1.to_string(), "0 expected".into()]);
    table.row(&[
        "baseline false positives".into(),
        baseline_false_pos.to_string(),
        "the paper's motivating gap".into(),
    ]);
    table.row(&[
        "exact verdict == fluid no-drop".into(),
        exact_fluid_agree.to_string(),
        total.to_string(),
    ]);
    table
}

/// Runs with the default output directory.
///
/// # Errors
///
/// See [`run`].
pub fn main() -> ExpResult {
    run(&out_dir())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atlas_orderings_hold_on_a_small_grid() {
        let base = BcnParams::test_defaults().with_buffer(1.5e5);
        let cells = compute_atlas(&base, 5);
        for c in &cells {
            // Baseline approves everything (Proposition 1).
            assert!(c.baseline, "{c:?}");
            // Soundness: criterion implies exact; Theorem 1 implies exact.
            assert!(!c.case_criterion || c.exact, "criterion unsound: {c:?}");
            assert!(!c.theorem1 || c.exact, "theorem 1 unsound: {c:?}");
            // Theorem 1 is at most as permissive as the case criterion.
            assert!(!c.theorem1 || c.case_criterion, "ordering broke: {c:?}");
        }
        // The gap exists: some exact-stable cells and some unstable ones.
        assert!(cells.iter().any(|c| c.exact));
        assert!(cells.iter().any(|c| !c.exact), "grid too easy");
    }

    #[test]
    fn atlas_params_matches_cell_gains() {
        // The bench work-list and the atlas itself must agree cell by
        // cell, or the benchmark times different systems than it claims.
        let base = BcnParams::test_defaults().with_buffer(1.5e5);
        let cells = compute_atlas(&base, 4);
        let params = atlas_params(&base, 4);
        assert_eq!(cells.len(), params.len());
        for (c, p) in cells.iter().zip(&params) {
            assert_eq!(c.gi, p.gi);
            assert_eq!(c.gd, p.gd);
        }
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn degenerate_one_point_grid_is_rejected() {
        // Regression: n == 1 used to divide by (n - 1) and fill the
        // atlas with NaN gains instead of failing loudly.
        let base = BcnParams::test_defaults().with_buffer(1.5e5);
        let _ = compute_atlas(&base, 1);
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn empty_grid_is_rejected() {
        let base = BcnParams::test_defaults().with_buffer(1.5e5);
        let _ = compute_atlas(&base, 0);
    }

    #[test]
    fn atlas_is_identical_at_any_thread_count() {
        let base = BcnParams::test_defaults().with_buffer(1.5e5);
        // Pin the width through the public override; the assertion is
        // exact equality, so any nondeterminism in placement or float
        // paths fails loudly.
        parkit::set_threads(1);
        let serial = compute_atlas(&base, 4);
        parkit::set_threads(4);
        let parallel = compute_atlas(&base, 4);
        parkit::set_threads(0);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn fluid_drops_track_exact_verdict_mostly() {
        let base = BcnParams::test_defaults().with_buffer(1.5e5);
        let cells = compute_atlas(&base, 4);
        let mismatches = cells.iter().filter(|c| c.exact == c.fluid_drops).count();
        // exact stable <=> no drops; allow a small boundary fringe.
        assert!(
            mismatches * 5 <= cells.len(),
            "fluid/exact disagreement on {mismatches}/{} cells",
            cells.len()
        );
    }

    #[test]
    fn summary_prints_the_exact_fluid_agreement_count() {
        // Regression: the row once printed the disagreement count.
        let stable = Cell {
            gi: 1.0,
            gd: 0.01,
            case_no: 1,
            baseline: true,
            theorem1: true,
            case_criterion: true,
            exact: true,
            fluid_drops: false,
        };
        let cells = [
            stable,
            Cell { exact: false, fluid_drops: true, ..stable },
            Cell { fluid_drops: true, ..stable },
        ];
        let agree = cells.iter().filter(|c| c.exact != c.fluid_drops).count();
        assert_eq!(agree, 2);
        let table = summary_table(&cells).to_string();
        let row = table
            .lines()
            .find(|l| l.contains("exact verdict == fluid no-drop"))
            .expect("agreement row is printed");
        let cols: Vec<&str> = row.split('|').map(str::trim).collect();
        assert_eq!(cols[2], agree.to_string(), "{row}");
        assert_eq!(cols[3], cells.len().to_string(), "{row}");
    }

    /// Drop verdicts of the full saturating trajectories, one per cell.
    fn full_run_drops(cells: &[(SaturatingFluid, f64)]) -> Vec<bool> {
        parkit::par_map(cells, |(m, h)| m.run_canonical(*h).has_drops())
    }

    fn atlas_cells(base: &BcnParams, n: usize) -> Vec<(SaturatingFluid, f64)> {
        atlas_params(base, n)
            .into_iter()
            .map(|p| {
                let h = fluid_horizon(&p);
                (SaturatingFluid::linearized(p), h)
            })
            .collect()
    }

    #[test]
    fn drop_verdicts_equal_full_runs_on_every_atlas_cell() {
        // The committed 13x13 atlas, and the repository benchmark's
        // 16x16 atlas at its seeded buffers 1.5e5 * (1 + 0.05 u).
        let mut atlases = vec![(1.5e5, 13)];
        for seed in 1..=3 {
            let u = (dcesim::faults::splitmix64(seed) >> 11) as f64 / (1u64 << 53) as f64;
            atlases.push((1.5e5 * (1.0 + 0.05 * u), 16));
        }
        for (buffer, n) in atlases {
            let base = BcnParams::test_defaults().with_buffer(buffer);
            let cells = atlas_cells(&base, n);
            let expected = full_run_drops(&cells);
            assert!(expected.contains(&true) && expected.contains(&false));
            assert_eq!(fluid_drop_verdicts(&cells), expected, "buffer {buffer}, {n}x{n}");
            let atlas: Vec<bool> = compute_atlas(&base, n).iter().map(|c| c.fluid_drops).collect();
            assert_eq!(atlas, expected, "buffer {buffer}, {n}x{n}");
        }
    }
}
