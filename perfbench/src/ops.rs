//! Operation accounting and the correctness checks behind it.
//!
//! An operation is one evaluation or one search. It fails when it
//! panics, returns an error, or disagrees with its reference; a
//! failure is counted and reported, never fatal, so one bad result
//! cannot hide the rest of a run.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Largest log-likelihood difference allowed between a parallel
/// scheme and the serial search, as a share of the serial |logL|, with
/// [`SCHEME_TOLERANCE_FLOOR`] as the least. The replicated-search
/// tests allow 1e-7 on a likelihood of a few thousand nats; on the
/// 1e5-nat likelihoods of the benchmark's workloads, model
/// optimisation carries the per-worker partial-sum rounding to 1e-7
/// (about 1e-12 of |logL|), while the round and move counts still
/// agree exactly.
pub const SCHEME_TOLERANCE: f64 = 1e-11;

/// The least of the scheme tolerance, in nats: the replicated-search
/// tests' bound.
pub const SCHEME_TOLERANCE_FLOOR: f64 = 1e-7;

/// The log-likelihood difference allowed between a parallel scheme
/// and a serial search that reported `serial`.
pub fn scheme_tolerance(serial: f64) -> f64 {
    (SCHEME_TOLERANCE * serial.abs()).max(SCHEME_TOLERANCE_FLOOR)
}

/// Relative difference allowed between kernel backends (scaled by
/// `1 + |reference|`, as the repository's cross-backend tests do).
pub const CROSS_BACKEND_TOLERANCE: f64 = 1e-12;

/// Failures kept verbatim for the report; later ones are only counted.
const KEPT_FAILURES: usize = 8;

/// Counts attempted and failed operations.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub total: u64,
    /// Operations that panicked, errored or disagreed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Ops {
    /// Runs one operation, counting it; a panic or an `Err` is a
    /// failure and yields `None`.
    pub fn run<T>(&mut self, what: &str, op: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.total += 1;
        let err = match catch_unwind(AssertUnwindSafe(op)) {
            Ok(Ok(v)) => return Some(v),
            Ok(Err(e)) => e,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                format!("panicked: {msg}")
            }
        };
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(format!("{what}: {err}"));
        }
        None
    }
}

/// `got` must equal `want` bit for bit.
pub fn same_bits(what: &str, got: f64, want: f64) -> Result<(), String> {
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "{what} {got:e} differs from the reference {want:e}"
        ))
    }
}

/// `got` must be within `tol` of `want`.
pub fn within(what: &str, got: f64, want: f64, tol: f64) -> Result<(), String> {
    if (got - want).abs() <= tol {
        Ok(())
    } else {
        Err(format!(
            "{what} {got:e} is {:e} from the reference {want:e} (tolerance {tol:e})",
            (got - want).abs()
        ))
    }
}

/// Two counts that must agree exactly.
pub fn same_count(what: &str, got: usize, want: usize) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} {got} differs from the reference {want}"))
    }
}
