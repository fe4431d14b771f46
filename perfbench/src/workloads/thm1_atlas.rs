//! `thm1_atlas`: the paper's criterion atlas over the gain plane. The
//! only workload that runs the ODE solver (the saturating-fluid drop
//! check), next to case classification, the exact verdict, Theorem 1,
//! the case criterion and the linear baseline.

use std::hint::black_box;
use std::time::Instant;

use bcn::cases::classify_params;
use bcn::propagate::{cache_stats, CacheStats};
use bcn::simulate::SaturatingFluid;
use bcn::stability::{criterion, exact_verdict, theorem1_holds};
use bcn::{linear_baseline, BcnParams};
use bench::experiments::criterion_sweep::{atlas_params, compute_atlas, fluid_horizon, Cell};
use dcesim::faults::splitmix64;

use super::{
    add_cache, at_width, efficiency, fill_cache, propagator_build_ns, propagator_key, secs,
    unattributed_split, Unit, Workload,
};
use crate::metrics::Layers;
use crate::trace::Tracer;

/// Grid points per gain axis.
const GRID: usize = 16;
/// Worker threads of the atlas sweep.
const WIDTH: usize = 2;
/// Leg budget of the exact verdict, as `compute_atlas` uses it.
const MAX_LEGS: usize = 40;

pub struct Thm1Atlas {
    base: BcnParams,
    cache: CacheStats,
    legs: u64,
}

/// Cells where Theorem 1 approves a configuration the exact trace
/// rejects: a violation of the paper's soundness claim.
fn unsound(cells: &[Cell]) -> u64 {
    cells.iter().filter(|c| c.theorem1 && !c.exact).count() as u64
}

impl Thm1Atlas {
    pub fn new(seed: u64) -> Self {
        parkit::set_threads(WIDTH);
        // The seed moves the buffer within 5% of the atlas experiment's.
        let u = (splitmix64(seed) >> 11) as f64 / (1u64 << 53) as f64;
        let buffer = 1.5e5 * (1.0 + 0.05 * u);
        Self {
            base: BcnParams::test_defaults().with_buffer(buffer),
            cache: CacheStats::default(),
            legs: 0,
        }
    }
}

impl Workload for Thm1Atlas {
    fn ops_per_unit(&self) -> u64 {
        (GRID * GRID) as u64
    }

    fn width(&self) -> usize {
        WIDTH
    }

    fn setup(&mut self) -> f64 {
        let t0 = Instant::now();
        let params = atlas_params(&self.base, GRID);
        let setup_s = secs(t0);
        black_box(params);
        setup_s
    }

    fn unit(&mut self) -> Unit {
        let t0 = Instant::now();
        black_box(atlas_params(&self.base, GRID));
        let cells = compute_atlas(&self.base, GRID);
        Unit { run_s: secs(t0), failed: unsound(&cells) }
    }

    fn traced_unit(&mut self, tr: &mut Tracer) {
        let root = tr.begin("unit");
        let params = tr.span("atlas.params", || atlas_params(&self.base, GRID));
        let before = cache_stats();
        tr.span("atlas.compute", || black_box(compute_atlas(&self.base, GRID)));
        self.cache = add_cache(self.cache, cache_stats().delta_since(before));
        tr.end(root);

        // Every cell re-executed serially, one layer at a time.
        let split = tr.begin("split");
        tr.span("cases.classify", || {
            for p in &params {
                black_box(classify_params(p));
            }
        });
        self.legs += tr.span("stability.exact", || {
            params.iter().map(|p| exact_verdict(p, MAX_LEGS).legs as u64).sum::<u64>()
        });
        tr.span("simulate.fluid", || {
            for p in &params {
                black_box(
                    SaturatingFluid::linearized(p.clone())
                        .run_canonical(fluid_horizon(p))
                        .has_drops(),
                );
            }
        });
        tr.span("linear_baseline.analyze", || {
            for p in &params {
                black_box(linear_baseline::analyze(p).overall_stable);
            }
        });
        tr.span("stability.criteria", || {
            for p in &params {
                black_box((theorem1_holds(p), criterion(p).is_guaranteed()));
            }
        });
        tr.end(split);
    }

    fn layers(&mut self, tr: &Tracer, units: usize, out: &mut Layers) {
        out.spans(
            tr,
            units,
            &[
                "cases.classify",
                "stability.exact",
                "simulate.fluid",
                "linear_baseline.analyze",
                "stability.criteria",
            ],
        );
        out.set("stability.legs", self.legs as f64 / units.max(1) as f64);
        fill_cache(self.cache, units, out);
        let keys: Vec<[f64; 3]> =
            atlas_params(&self.base, GRID).iter().map(propagator_key).collect();
        out.set("propagate.build_ns", propagator_build_ns(&keys));
        let time_atlas = |threads| {
            at_width(threads, WIDTH, || {
                let t0 = Instant::now();
                black_box(compute_atlas(&self.base, GRID));
                secs(t0)
            })
        };
        out.set("parkit.width", WIDTH as f64);
        out.set("parkit.efficiency", efficiency(time_atlas(1), time_atlas(WIDTH), WIDTH));
        out.set("trace.unattributed_frac", unattributed_split(tr, "atlas.compute", WIDTH));
    }

    fn check(&mut self) -> Vec<String> {
        let serial = at_width(1, WIDTH, || compute_atlas(&self.base, GRID));
        let parallel = compute_atlas(&self.base, GRID);
        let mut failures = Vec::new();
        if serial != parallel {
            failures.push("the atlas differs between widths 1 and 2".into());
        }
        let bad = unsound(&parallel);
        if bad > 0 {
            failures.push(format!("Theorem 1 approves {bad} cell(s) the exact trace rejects"));
        }
        failures
    }
}
