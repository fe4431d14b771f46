//! Quiet-aware diagnostic logging for binaries.
//!
//! The [`log_line!`] macro replaces ad-hoc `eprintln!` calls in CLI and
//! bench binaries: it prints to stderr unless diagnostics are muted via
//! [`set_quiet`] (driven by `--telemetry off`) or the
//! `DCE_BCN_TELEMETRY=off` environment variable.

use std::sync::atomic::{AtomicU8, Ordering};

/// 0 = unset (consult the environment), 1 = loud, 2 = quiet.
static QUIET: AtomicU8 = AtomicU8::new(0);

/// Mutes (`true`) or unmutes (`false`) [`crate::log_line!`] output process-wide.
pub fn set_quiet(quiet: bool) {
    QUIET.store(if quiet { 2 } else { 1 }, Ordering::Relaxed);
}

/// Whether diagnostic logging is currently muted.
///
/// Before the first [`set_quiet`] call this lazily consults the
/// `DCE_BCN_TELEMETRY` environment variable (`off` mutes).
pub fn quiet() -> bool {
    match QUIET.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let from_env = std::env::var("DCE_BCN_TELEMETRY").map(|v| v == "off").unwrap_or(false);
            QUIET.store(if from_env { 2 } else { 1 }, Ordering::Relaxed);
            from_env
        }
    }
}

/// Prints a diagnostic line to stderr unless logging is muted.
///
/// Drop-in replacement for `eprintln!` that respects `--telemetry off`
/// (via [`set_quiet`]) and `DCE_BCN_TELEMETRY=off`.
#[macro_export]
macro_rules! log_line {
    ($($arg:tt)*) => {
        if !$crate::quiet() {
            eprintln!($($arg)*);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_quiet_overrides_environment() {
        set_quiet(true);
        assert!(quiet());
        set_quiet(false);
        assert!(!quiet());
        // The macro compiles against the public API.
        log_line!("diagnostic {}", 42);
    }
}
