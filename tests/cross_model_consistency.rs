//! Cross-layer consistency: the same BCN system computed four ways —
//! closed forms, event-located ODE integration, the saturating fluid
//! simulator, and the packet-level discrete-event simulator — must agree
//! wherever their assumptions overlap.

use bcn::closed_form::RegionFlow;
use bcn::model::Region;
use bcn::rounds::{first_round, trace_legs};
use bcn::simulate::{fluid_trajectory, Engine, FluidOptions, SaturatingFluid};
use bcn::stability::exact_verdict;
use bcn::{BcnFluid, BcnParams};
use dcesim::sim::{fluid_validation_params, SimConfig, Simulation};
use odesolve::{integrate, Dopri5, Options};
use phaseplane::PlaneSystem;

mod common;

/// Closed-form region flow vs direct ODE integration of that region's
/// vector field.
#[test]
fn closed_form_matches_ode_integration() {
    let params = BcnParams::test_defaults();
    let sys = BcnFluid::linearized(params.clone());
    for region in [Region::Increase, Region::Decrease] {
        let flow = RegionFlow::from_kn(params.k(), sys.region_n(region));
        let ode = |_t: f64, z: &[f64; 2]| sys.deriv_in(region, *z);
        let z0 = [-0.5 * params.q0, 0.02 * params.capacity];
        let t_end = 0.02;
        let sol = integrate(
            &ode,
            0.0,
            z0,
            t_end,
            &mut Dopri5::with_tolerances(1e-12, 1e-12),
            &Options::default(),
        )
        .unwrap();
        let numeric = sol.last_state();
        let exact = flow.at(t_end, z0);
        for i in 0..2 {
            assert!(
                (numeric[i] - exact[i]).abs() < 1e-6 * exact[i].abs().max(1.0),
                "{region:?} component {i}: {numeric:?} vs {exact:?}"
            );
        }
    }
}

/// Leg-based analysis vs hybrid event-located integration: switch times
/// and extrema agree.
#[test]
fn leg_analysis_matches_hybrid_integration() {
    let params = BcnParams::test_defaults();
    let sys = BcnFluid::linearized(params.clone());
    let legs = trace_legs(&params, params.initial_point(), 4);
    let t_total: f64 = legs.iter().filter_map(|l| l.duration).sum();

    // Engine pinned to DOPRI5: this is the numeric cross-check of the
    // closed-form leg analysis.
    let opts = FluidOptions {
        t_end: t_total * 1.01,
        tol: 1e-11,
        max_switches: 20,
        record_dt: None,
        engine: Engine::Dopri5,
    };
    let run = fluid_trajectory(&sys, params.initial_point(), &opts).unwrap();
    let switch_times = run.switch_times();
    assert!(switch_times.len() >= 3, "switches: {switch_times:?}");

    // Cumulative leg durations == hybrid switch times.
    let mut acc = 0.0;
    for (i, leg) in legs.iter().take(3).enumerate() {
        acc += leg.duration.unwrap();
        assert!(
            (switch_times[i] - acc).abs() < 1e-6 * acc,
            "switch {i}: hybrid {} vs legs {acc}",
            switch_times[i]
        );
    }
}

/// The saturating fluid simulator reproduces the unbounded analysis when
/// the buffer never binds.
#[test]
fn saturating_model_matches_exact_when_unsaturated() {
    let params = BcnParams::test_defaults().with_buffer(1.0e6);
    let exact = exact_verdict(&params, 12);
    let run = SaturatingFluid::linearized(params.clone()).run_canonical(2.5);
    let expect = params.q0 + exact.max_x;
    assert!(
        (run.max_queue - expect).abs() < 0.03 * expect,
        "saturating {} vs exact {expect}",
        run.max_queue
    );
}

/// The packet-level simulator tracks the fluid model's key numbers on a
/// calibrated configuration: max queue within ~10%, no drops, high
/// utilisation.
#[test]
fn packet_simulation_tracks_fluid_model() {
    let params = fluid_validation_params();
    let t_end = 0.4;
    let cfg =
        SimConfig::from_fluid(&params, 8_000.0, dcesim::time::Duration::from_secs(2e-6), t_end);
    let report = Simulation::new(cfg).run();
    let fluid = SaturatingFluid::new(params.clone()).run_canonical(t_end);

    assert_eq!(report.metrics.dropped_frames, 0);
    let ratio = report.metrics.queue.max() / fluid.max_queue;
    assert!((0.9..1.1).contains(&ratio), "max-queue ratio {ratio}");
    let util = report.metrics.utilization(params.capacity, t_end);
    assert!(util > 0.9, "utilisation {util}");
}

/// The `PlaneSystem` view (pointwise region choice) and the hybrid view
/// of the same `BcnFluid` agree along a trajectory that crosses the
/// switching line.
#[test]
fn plane_system_and_hybrid_agree() {
    let params = BcnParams::test_defaults();
    let sys = BcnFluid::linearized(params.clone());
    let opts = FluidOptions {
        t_end: 0.05,
        tol: 1e-10,
        max_switches: 10,
        record_dt: Some(5e-4),
        engine: Engine::Dopri5,
    };
    let hybrid = fluid_trajectory(&sys, params.initial_point(), &opts).unwrap();

    // Integrate the discontinuous RHS directly (no event location).
    let ode = |_t: f64, z: &[f64; 2]| PlaneSystem::deriv(&sys, *z);
    let direct = integrate(
        &ode,
        0.0,
        params.initial_point(),
        0.05,
        &mut Dopri5::with_tolerances(1e-10, 1e-10),
        &Options::default().with_record_dt(5e-4),
    )
    .unwrap();
    let h_end = hybrid.solution.last_state();
    let d_end = direct.last_state();
    for i in 0..2 {
        let scale = h_end[i].abs().max(params.q0);
        assert!(
            (h_end[i] - d_end[i]).abs() < 1e-3 * scale,
            "component {i}: hybrid {h_end:?} vs direct {d_end:?}"
        );
    }
}

/// First-round quantities agree between the closed-form chain and a
/// dense numerical trace (independent code paths).
#[test]
fn first_round_matches_dense_numeric_trace() {
    let params = BcnParams::test_defaults();
    let fr = first_round(&params).unwrap();
    let sys = BcnFluid::linearized(params.clone());
    let opts = FluidOptions {
        t_end: 1.2 * (fr.t_i1 + fr.t_d1 + 0.5 * fr.t_d1),
        tol: 1e-11,
        max_switches: 10,
        record_dt: Some(fr.t_d1 / 2000.0),
        engine: Engine::Dopri5,
    };
    let run = fluid_trajectory(&sys, params.initial_point(), &opts).unwrap();
    let max_num = run.solution.max_component(0);
    assert!(
        (max_num - fr.max1_x).abs() < 1e-3 * fr.max1_x,
        "numeric {max_num} vs closed form {}",
        fr.max1_x
    );
}

/// The semi-analytic engine agrees with DOPRI5 across the paper's case
/// taxonomy and on 96 random parameter sets: same region-switch
/// sequence, switch times and endpoints to integrator tolerance, queue
/// extrema to 1e-6 relative, and the same strong-stability verdict.
#[test]
fn analytic_and_numeric_engines_agree_across_cases() {
    use std::f64::consts::PI;

    // (case label, parameters, slow rotations traced).
    let base = BcnParams::test_defaults();
    let mut sets = vec![("test defaults".to_string(), base.clone(), 8.0)];
    for case in [bcn::CaseId::Case1, bcn::CaseId::Case2, bcn::CaseId::Case3, bcn::CaseId::Case4] {
        sets.push((format!("{case:?} exemplar"), bcn::cases::exemplar(&base, case), 8.0));
    }
    sets.push(("25 flows".to_string(), base.clone().with_n_flows(25).with_gd(1.0 / 96.0), 8.0));
    sets.extend((0..96).map(|case| {
        let seed = common::case_seed(11, case);
        (format!("seed {seed:#x}"), common::random_params(seed), 4.0)
    }));

    for (case, params, rotations) in &sets {
        let at = format!("{case}: {params:?}");
        let sys = BcnFluid::linearized(params.clone());
        // Horizon and record grid scaled to the system's own rates: a few
        // slow rotations, capped in fast half-rounds so extreme rate
        // ratios keep the sample count sane, and sampled finely against
        // the fast region so the parabola-refined numeric extrema
        // resolve to well under 1e-6.
        let beta_fast = params.a().max(params.b() * params.capacity).sqrt();
        let beta_slow = params.a().min(params.b() * params.capacity).sqrt();
        let t_end = (rotations * PI / beta_slow).min(200.0 * PI / beta_fast).min(0.4);
        let numeric = FluidOptions {
            t_end,
            tol: 1e-12,
            max_switches: 400,
            record_dt: Some(0.03 / beta_fast),
            engine: Engine::Dopri5,
        };
        let analytic = FluidOptions { engine: Engine::Analytic, ..numeric.clone() };
        let num = fluid_trajectory(&sys, params.initial_point(), &numeric).unwrap();
        let ana = fluid_trajectory(&sys, params.initial_point(), &analytic).unwrap();

        // Same region-switch sequence.
        assert_eq!(
            ana.intervals.iter().map(|i| i.mode).collect::<Vec<_>>(),
            num.intervals.iter().map(|i| i.mode).collect::<Vec<_>>(),
            "mode sequences differ for {at}"
        );
        for (a, n) in ana.intervals.iter().zip(num.intervals.iter()) {
            assert!(
                (a.t_end - n.t_end).abs() <= 1e-6 * t_end,
                "switch time {} vs {} for {at}",
                a.t_end,
                n.t_end
            );
        }
        // Queue extrema to 1e-6 relative: the analytic engine records the
        // exact extremum; the numeric trace is parabola-refined.
        let max = (ana.solution.max_component(0), num.solution.refined_max_component(0));
        let min = (ana.solution.min_component(0), num.solution.refined_min_component(0));
        for (a, n) in [max, min] {
            assert!((a - n).abs() <= 1e-6 * a.abs().max(params.q0), "extremum {a} vs {n} for {at}");
        }
        // Endpoints to tolerance (per-component natural scales).
        let (za, zn) = (ana.solution.last_state(), num.solution.last_state());
        assert!((za[0] - zn[0]).abs() <= 1e-6 * params.q0, "x end {za:?} vs {zn:?} for {at}");
        assert!((za[1] - zn[1]).abs() <= 1e-6 * params.capacity, "y end {za:?} vs {zn:?} for {at}");
        // Same wall verdict (0 < q < B away from the start).
        let stable = |(max_x, min_x): (f64, f64)| {
            max_x < params.buffer - params.q0 && min_x > -params.q0 * (1.0 + 1e-9)
        };
        assert_eq!(
            stable((max.0, min.0)),
            stable((max.1, min.1)),
            "stability verdict flipped across engines for {at}"
        );
    }
}

/// The exact verdict (which now runs on the analytic crossing solver)
/// stays consistent with an independent dense numeric integration of the
/// same trajectory.
#[test]
fn exact_verdict_consistent_with_numeric_extrema() {
    let params = BcnParams::test_defaults();
    let v = exact_verdict(&params, 40);
    let sys = BcnFluid::linearized(params.clone());
    let opts = FluidOptions {
        t_end: 1.5,
        tol: 1e-11,
        max_switches: 1000,
        record_dt: Some(2e-5),
        engine: Engine::Dopri5,
    };
    let run = fluid_trajectory(&sys, params.initial_point(), &opts).unwrap();
    let max_num = run.solution.max_component(0);
    // The verdict's minimum is taken over leg boundaries and interior
    // extrema — i.e. after the first leg departs the start point, where
    // x ≈ -q0 is still being left behind. Restrict the numeric trace the
    // same way: samples after the first region switch.
    let t1 = run.switch_times()[0];
    let min_num = run
        .solution
        .times()
        .iter()
        .zip(run.solution.states())
        .filter(|(&t, _)| t >= t1)
        .map(|(_, z)| z[0])
        .fold(f64::INFINITY, f64::min);
    assert!((max_num - v.max_x).abs() <= 1e-4 * v.max_x.abs(), "{max_num} vs {}", v.max_x);
    assert!((min_num - v.min_x).abs() <= 1e-3 * v.min_x.abs(), "{min_num} vs {}", v.min_x);
    assert!(v.strongly_stable);
}
