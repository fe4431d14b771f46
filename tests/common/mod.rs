//! Seeded random inputs shared by the integration suites: every case is
//! drawn from one splitmix64 seed, so printing that seed in an assertion
//! message is enough to reproduce the case.

use bcn::BcnParams;
use dcesim::faults::splitmix64;

/// The seed of case `case` of the property salted `salt`.
pub fn case_seed(salt: u64, case: u64) -> u64 {
    splitmix64(salt ^ splitmix64(case))
}

/// The `k`-th uniform draw from `lo..hi` of the case seeded `seed`.
pub fn uniform(seed: u64, k: u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * ((splitmix64(seed ^ splitmix64(k)) >> 11) as f64 / (1u64 << 53) as f64)
}

/// A random valid parameter set around the test scale: 1–59 flows,
/// 1e5–1e8 b/s, a 1e4–1e7-bit buffer with q0 at 5–45% of it, and the
/// BCN gains, `w` and `pm` over wide ranges.
pub fn random_params(seed: u64) -> BcnParams {
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
