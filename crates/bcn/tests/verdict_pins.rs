//! Pins the exact bits of exact verdicts and stability answers on four
//! parameter families.
//!
//! Each family hashes every `ExactVerdict` field (`strongly_stable`,
//! `max_x`, `min_x`, `legs`) from `exact_verdict`, and every
//! `StabilityAnswer` field from a batched evaluation of the same
//! configurations, with FNV-1a over the `f64::to_bits` / integer words,
//! and compares the hash with a committed constant. Any change to the
//! leg trace, the extremum solvers or the verdict fold that moves a
//! single verdict or answer bit fails here, so optimisations that claim
//! bit-identity can prove it.
//!
//! The families:
//! - the query-serving family: capacity `1e6 + i` and `gi = 1 + (i % 7) / 4`
//!   over the test defaults, `i < 2048`, 48 legs;
//! - the 16 x 16 criterion atlas over `(gi, gd)` with a 1.5e5-bit buffer,
//!   40 legs (the grid of `bench::experiments::criterion_sweep::atlas_params`);
//! - 4096 random valid parameter sets (the draws of the root integration
//!   suites' `common::random_params`), 32 legs;
//! - tiny `w`, where the round ratio is ~1 and successive extrema tie or
//!   nearly tie, 48 legs.
//!
//! To re-pin after an intentional behaviour change, run
//! `cargo test -p bcn --test verdict_pins -- --nocapture` and copy the
//! printed hashes.

use bcn::query::{QueryBatch, StabilityAnswer, StabilityQuery};
use bcn::stability::{exact_verdict, ExactVerdict};
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

    fn verdict(&mut self, v: &ExactVerdict) {
        self.word(u64::from(v.strongly_stable));
        self.word(v.max_x.to_bits());
        self.word(v.min_x.to_bits());
        self.word(v.legs as u64);
    }

    fn answer(&mut self, a: &StabilityAnswer) {
        self.word(u64::from(a.strongly_stable));
        self.word(a.required_buffer.to_bits());
        self.word(a.max_x.to_bits());
        self.word(a.min_x.to_bits());
        self.word(a.legs as u64);
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `k`-th uniform draw from `lo..hi` of the case seeded `seed`.
fn uniform(seed: u64, k: u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * ((splitmix64(seed ^ splitmix64(k)) >> 11) as f64 / (1u64 << 53) as f64)
}

/// The same draws as the root suites' `common::random_params`.
fn random_params(seed: u64) -> BcnParams {
    let buffer = uniform(seed, 3, 1e4, 1e7);
    BcnParams {
        n_flows: 1 + (splitmix64(seed) % 59) as u32,
        capacity: uniform(seed, 1, 1e5, 1e8),
        q0: uniform(seed, 2, 0.05, 0.45) * buffer,
        buffer,
        gi: uniform(seed, 4, 0.01, 20.0),
        gd: uniform(seed, 5, 1e-4, 0.9),
        ru: uniform(seed, 6, 1e2, 1e6),
        w: uniform(seed, 7, 1e-3, 50.0),
        pm: uniform(seed, 8, 0.005, 1.0),
        qsc: 0.9 * buffer,
    }
}

fn query_family() -> Vec<BcnParams> {
    (0..2048)
        .map(|i| {
            BcnParams::test_defaults()
                .with_capacity(1.0e6 + i as f64)
                .with_gi(1.0 + (i % 7) as f64 * 0.25)
        })
        .collect()
}

/// The `n x n` atlas grid: both gains log-spaced over `[0.05, 20]` times
/// the base, `gd` capped at 1, row-major over `(gi, gd)`.
fn atlas_family(n: usize) -> Vec<BcnParams> {
    let base = BcnParams::test_defaults().with_buffer(1.5e5);
    let axis = |g: f64| -> Vec<f64> {
        (0..n).map(|i| g * 0.05 * 400f64.powf(i as f64 / (n - 1) as f64)).collect()
    };
    let gis = axis(base.gi);
    let gds = axis(base.gd);
    (0..n * n)
        .map(|idx| base.clone().with_gi(gis[idx / n]).with_gd(gds[idx % n].min(1.0)))
        .collect()
}

fn random_family() -> Vec<BcnParams> {
    (0..4096).map(|s| random_params(splitmix64(0x7e4d_1c75 ^ s))).collect()
}

/// `w` from 1e-30 to 1e-6: the round ratio is 1 to within ~`w`, so the
/// extrema of successive rounds are equal or a few ulps apart.
fn tiny_w_family() -> Vec<BcnParams> {
    (0..256)
        .map(|i| {
            BcnParams::test_defaults()
                .with_w(10f64.powi(-30 + (i % 25)))
                .with_gi(0.5 + (i / 25) as f64 * 0.4)
        })
        .collect()
}

/// `(verdict hash, answer hash)` of one family at `max_legs`.
fn family_hashes(family: &[BcnParams], max_legs: usize) -> (u64, u64) {
    let mut verdicts = Fnv::new();
    for p in family {
        verdicts.verdict(&exact_verdict(p, max_legs));
    }
    let queries: Vec<StabilityQuery> =
        family.iter().map(|p| StabilityQuery { params: p.clone(), max_legs }).collect();
    let mut answers = Fnv::new();
    for a in QueryBatch::new(&queries).evaluate_in(1) {
        answers.answer(&a);
    }
    (verdicts.0, answers.0)
}

fn check(name: &str, family: &[BcnParams], max_legs: usize, pinned: (u64, u64)) {
    let got = family_hashes(family, max_legs);
    println!("{name}: ({:#018x}, {:#018x})", got.0, got.1);
    assert_eq!(
        got, pinned,
        "{name}: verdict/answer hashes moved; a verdict bit changed (see the module doc to re-pin)"
    );
}

#[test]
fn query_family_verdicts_are_pinned() {
    check("query family", &query_family(), 48, (0x93d3_2d6b_6ded_f5f0, 0xf679_0c08_23f9_ca3d));
}

#[test]
fn atlas_verdicts_are_pinned() {
    check("atlas 16x16", &atlas_family(16), 40, (0x495e_d16c_d67d_9df2, 0x7735_85b8_b4b8_5df1));
}

#[test]
fn random_param_verdicts_are_pinned() {
    check("random params", &random_family(), 32, (0xe69b_9ba9_76d3_1352, 0x1283_f111_dc47_3c5d));
}

#[test]
fn tiny_w_verdicts_are_pinned() {
    check("tiny w", &tiny_w_family(), 48, (0x2f82_6242_fa7d_d183, 0x57bf_5f52_3648_6268));
}
