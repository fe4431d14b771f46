//! Error type shared by all solvers in this crate.

use std::error::Error;
use std::fmt;

/// Failure modes of an integration run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolveError {
    /// The adaptive stepper shrank the step below the representable
    /// minimum without meeting the error tolerance (usually a sign of a
    /// discontinuity inside the integration interval or an unreasonable
    /// tolerance).
    StepSizeUnderflow {
        /// Time at which the underflow occurred.
        t: f64,
        /// Step size at the time of failure.
        h: f64,
    },
    /// The right-hand side produced a non-finite value.
    NonFiniteState {
        /// Time at which the state became non-finite.
        t: f64,
    },
    /// The step budget was exhausted before reaching the end time.
    MaxStepsExceeded {
        /// Time reached when the budget ran out.
        t: f64,
        /// The configured step budget.
        max_steps: usize,
    },
    /// The problem is stiff: the step has sat at the explicit method's
    /// stability limit, where the remaining step budget cannot reach the
    /// end time.
    Stiff {
        /// Time at which the integration stopped.
        t: f64,
        /// The stability-limited step size there.
        h: f64,
    },
    /// Invalid user-provided configuration (non-positive tolerance, zero
    /// step, end time not after start time, ...).
    BadInput(String),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::StepSizeUnderflow { t, h } => {
                write!(f, "step size underflow at t = {t} (h = {h})")
            }
            SolveError::NonFiniteState { t } => {
                write!(f, "state became non-finite at t = {t}")
            }
            SolveError::MaxStepsExceeded { t, max_steps } => {
                write!(f, "exceeded {max_steps} steps at t = {t}")
            }
            SolveError::Stiff { t, h } => write!(
                f,
                "stiff problem at t = {t}: the step h = {h} is held at the stability limit and \
                 the step budget cannot reach the end time"
            ),
            SolveError::BadInput(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            SolveError::StepSizeUnderflow { t: 1.0, h: 1e-18 },
            SolveError::NonFiniteState { t: 2.0 },
            SolveError::MaxStepsExceeded { t: 0.5, max_steps: 10 },
            SolveError::Stiff { t: 1e-14, h: 2e-20 },
            SolveError::BadInput("rtol must be positive".into()),
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SolveError>();
    }
}
