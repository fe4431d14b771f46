//! Unit conventions and conversion constants.
//!
//! Throughout the workspace: queue lengths and buffer sizes are in **bits**,
//! rates in **bits per second**, and times in **seconds** (all `f64`).
//! These constants make parameter definitions read like the paper
//! ("C = 10 Gbit/s, q0 = 2.5 Mbit").

/// One megabit in bits.
pub const MBIT: f64 = 1e6;

/// One megabit per second in bit/s.
pub const MBPS: f64 = 1e6;
/// One gigabit per second in bit/s.
pub const GBPS: f64 = 1e9;

/// One microsecond in seconds.
pub const USEC: f64 = 1e-6;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        fn close(a: f64, b: f64) {
            assert!((a - b).abs() <= 1e-12 * a.abs(), "{a} vs {b}");
        }
        close(GBPS, 1000.0 * MBPS);
        // One second (a million microseconds) at 1 Mbit/s moves 1 Mbit.
        close(MBIT, MBPS * 1e6 * USEC);
    }
}
