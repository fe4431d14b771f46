//! Pins the exact bits of the three fixed-step fluid integrators.
//!
//! Each family hashes every sample and every scalar a run returns, with
//! FNV-1a over the `f64::to_bits` words, and compares the hash with a
//! committed constant:
//! - `SaturatingFluid::run_canonical` under both linearities, at a
//!   buffer that drops and a roomy one, plus one explicit `run` with an
//!   uneven recording stride;
//! - `HeteroBcn::run_canonical` under both feedback models from a skewed
//!   start at a dropping buffer, plus one explicit `run`;
//! - `DelayedBcn::run` at `tau` in {0, 0.002, 0.01, 0.5} loop periods,
//!   linearised and nonlinear (`max_x`, `min_x`, `contracting`).
//!
//! A second test checks the homogeneity reduction bit for bit: a
//! one-flow `HeteroBcn` is the planar `SaturatingFluid` under either
//! feedback model, on every sample, on the drop volume and on the
//! largest queue.
//!
//! To re-pin after an intentional behaviour change, run
//! `cargo test -p bcn --test fluid_pins -- --nocapture` and copy the
//! printed hashes.

use bcn::delay::DelayedBcn;
use bcn::hetero::{FeedbackModel, HeteroBcn, HeteroRun};
use bcn::simulate::{SaturatingFluid, SaturatingRun};
use bcn::BcnParams;

/// FNV-1a over 64-bit words, byte by byte (little-endian).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn saturating(&mut self, run: &SaturatingRun) {
        self.floats(&run.times);
        self.floats(&run.queue);
        self.floats(&run.rate);
        self.word(run.dropped_bits.to_bits());
        self.word(run.max_queue.to_bits());
    }

    fn hetero(&mut self, run: &HeteroRun) {
        self.floats(&run.times);
        self.floats(&run.queue);
        for rates in &run.rates {
            self.floats(rates);
        }
        self.floats(&run.fairness);
        self.word(run.max_queue.to_bits());
        self.word(run.dropped_bits.to_bits());
    }
}

fn check(family: &str, got: u64, want: u64) {
    println!("{family}: {got:#018x}");
    assert_eq!(got, want, "{family} hash moved: {got:#018x}");
}

/// A buffer the default first-round overshoot overflows.
const TIGHT_BUFFER: f64 = 4.0e4;

#[test]
fn saturating_fluid_runs_are_pinned() {
    let base = BcnParams::test_defaults();
    let mut h = Fnv::new();
    let mut dropped = 0;
    for buffer in [TIGHT_BUFFER, 3.0e5] {
        let p = base.clone().with_buffer(buffer);
        for model in [SaturatingFluid::new(p.clone()), SaturatingFluid::linearized(p)] {
            let run = model.run_canonical(0.4);
            dropped += usize::from(run.has_drops());
            h.saturating(&run);
        }
    }
    assert_eq!(dropped, 2, "only the tight buffer should drop");
    let p = base.with_buffer(TIGHT_BUFFER);
    h.saturating(&SaturatingFluid::new(p).run(5.0e3, 1.3e6, 0.1, 7.0e-6, 7));
    check("saturating", h.0, 0x4b98_de15_2f0d_cf85);
}

#[test]
fn hetero_runs_are_pinned() {
    // The skewed start overflows this buffer under either feedback model.
    let p = BcnParams::test_defaults().with_buffer(2.5e4);
    let n = p.n_flows as usize;
    let mut skewed = vec![0.02 * p.fair_share(); n];
    skewed[0] = 0.8 * p.capacity;
    let mut h = Fnv::new();
    for feedback in [FeedbackModel::Uniform, FeedbackModel::RateProportional] {
        let sys = HeteroBcn::new(p.clone(), feedback);
        let run = sys.run_canonical(&skewed, 0.4);
        assert!(run.dropped_bits > 0.0, "{feedback:?} should drop");
        h.hetero(&run);
        h.hetero(&sys.run(5.0e3, &skewed, 0.05, 7.0e-6, 7));
    }
    check("hetero", h.0, 0xb65d_48b3_69e2_8191);
}

#[test]
fn delayed_runs_are_pinned() {
    let p = BcnParams::test_defaults();
    let period = std::f64::consts::TAU / p.a().sqrt();
    let dt_base = 0.002 / p.a().sqrt();
    let mut h = Fnv::new();
    for frac in [0.0, 0.002, 0.01, 0.5] {
        let tau = frac * period;
        let dt = if tau > 0.0 { dt_base.min(tau / 8.0) } else { dt_base };
        for sys in [DelayedBcn::new(p.clone(), tau), DelayedBcn::new(p.clone(), tau).linearized()] {
            let run = sys.run(p.initial_point(), 0.4, dt);
            h.word(run.max_x.to_bits());
            h.word(run.min_x.to_bits());
            h.word(u64::from(run.contracting));
        }
    }
    check("delayed", h.0, 0x595e_c0d0_0336_d4bb);
}

#[test]
fn one_flow_hetero_run_is_the_planar_run_bit_for_bit() {
    let p = BcnParams::test_defaults().with_n_flows(1);
    for (buffer, drops) in [(1.5e4, true), (2.2e4, true), (3.0e5, false)] {
        let p = p.clone().with_buffer(buffer);
        let planar = SaturatingFluid::new(p.clone()).run(0.0, p.capacity, 1.0, 1.0e-5, 5);
        assert_eq!(planar.has_drops(), drops, "buffer {buffer}");
        for feedback in [FeedbackModel::Uniform, FeedbackModel::RateProportional] {
            let run = HeteroBcn::new(p.clone(), feedback).run(0.0, &[p.capacity], 1.0, 1.0e-5, 5);
            let ctx = format!("buffer {buffer}, {feedback:?}");
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let rates: Vec<f64> = run.rates.iter().map(|r| r[0]).collect();
            assert_eq!(bits(&run.times), bits(&planar.times), "{ctx}");
            assert_eq!(bits(&run.queue), bits(&planar.queue), "{ctx}");
            assert_eq!(bits(&rates), bits(&planar.rate), "{ctx}");
            assert_eq!(run.dropped_bits.to_bits(), planar.dropped_bits.to_bits(), "{ctx}");
            assert_eq!(run.max_queue.to_bits(), planar.max_queue.to_bits(), "{ctx}");
        }
    }
}
