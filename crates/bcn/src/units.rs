//! Unit conventions and conversion constants.
//!
//! Throughout the workspace: queue lengths and buffer sizes are in **bits**,
//! rates in **bits per second**, and times in **seconds** (all `f64`).
//! These constants make parameter definitions read like the paper
//! ("C = 10 Gbit/s, q0 = 2.5 Mbit").

/// One kilobit in bits.
pub const KBIT: f64 = 1e3;
/// One megabit in bits.
pub const MBIT: f64 = 1e6;
/// One gigabit in bits.
pub const GBIT: f64 = 1e9;

/// One megabit per second in bit/s.
pub const MBPS: f64 = 1e6;
/// One gigabit per second in bit/s.
pub const GBPS: f64 = 1e9;

/// One millisecond in seconds.
pub const MSEC: f64 = 1e-3;
/// One microsecond in seconds.
pub const USEC: f64 = 1e-6;
/// One nanosecond in seconds.
pub const NSEC: f64 = 1e-9;

/// Bits in one standard 1500-byte Ethernet frame payload.
pub const MTU_BITS: f64 = 1500.0 * 8.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        fn close(a: f64, b: f64) {
            assert!((a - b).abs() <= 1e-12 * a.abs(), "{a} vs {b}");
        }
        close(GBIT, 1000.0 * MBIT);
        close(MBIT, 1000.0 * KBIT);
        close(GBPS, 1000.0 * MBPS);
        close(MSEC, 1000.0 * USEC);
        close(USEC, 1000.0 * NSEC);
        assert_eq!(MTU_BITS, 12000.0);
    }
}
