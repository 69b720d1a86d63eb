//! A timing decorator over [`phylo_search::Evaluator`].
//!
//! [`Timed`] forwards every call unchanged to the evaluator it wraps
//! and adds the call's wall-clock to a per-method total. The search
//! sees the same values it would see from the bare evaluator, so a
//! traced search takes the same path as an untraced one; the time
//! spent outside these calls is the search logic's own.

use phylo_models::GtrParams;
use phylo_search::Evaluator;
use phylo_tree::{EdgeId, Tree};
use std::time::Instant;

/// The timed `Evaluator` methods. The getters (`alpha`, `model`) are
/// plain field reads and are not timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `log_likelihood`.
    LogLikelihood,
    /// `prepare_branch` (the `derivativeSum` precomputation).
    PrepareBranch,
    /// `branch_derivatives` (one Newton step's `derivativeCore`).
    BranchDerivatives,
    /// `set_model`.
    SetModel,
    /// `set_alpha`.
    SetAlpha,
}

impl Call {
    /// Every timed call, in report order.
    pub const ALL: [Call; 5] = [
        Call::LogLikelihood,
        Call::PrepareBranch,
        Call::BranchDerivatives,
        Call::SetModel,
        Call::SetAlpha,
    ];

    /// Metric-name stem of the call.
    pub fn name(self) -> &'static str {
        match self {
            Call::LogLikelihood => "log_likelihood",
            Call::PrepareBranch => "prepare_branch",
            Call::BranchDerivatives => "branch_derivatives",
            Call::SetModel => "set_model",
            Call::SetAlpha => "set_alpha",
        }
    }
}

/// Call count and total wall-clock of one method.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CallStat {
    /// Calls made.
    pub calls: u64,
    /// Seconds spent inside them.
    pub seconds: f64,
}

/// An [`Evaluator`] that times every call into the one it wraps.
pub struct Timed<E> {
    inner: E,
    stats: [CallStat; Call::ALL.len()],
}

impl<E: Evaluator> Timed<E> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: E) -> Self {
        Timed {
            inner,
            stats: [CallStat::default(); Call::ALL.len()],
        }
    }

    /// The wrapped evaluator.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Mutable access to the wrapped evaluator (untimed).
    pub fn inner_mut(&mut self) -> &mut E {
        &mut self.inner
    }

    /// Counters of one method.
    pub fn stat(&self, call: Call) -> CallStat {
        self.stats[call as usize]
    }

    /// Seconds spent inside all timed calls.
    pub fn total_seconds(&self) -> f64 {
        self.stats.iter().map(|s| s.seconds).sum()
    }

    fn time<T>(&mut self, call: Call, f: impl FnOnce(&mut E) -> T) -> T {
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        let s = &mut self.stats[call as usize];
        s.seconds += t0.elapsed().as_secs_f64();
        s.calls += 1;
        out
    }
}

impl<E: Evaluator> Evaluator for Timed<E> {
    fn log_likelihood(&mut self, tree: &Tree, root_edge: EdgeId) -> f64 {
        self.time(Call::LogLikelihood, |e| e.log_likelihood(tree, root_edge))
    }
    fn prepare_branch(&mut self, tree: &Tree, edge: EdgeId) {
        self.time(Call::PrepareBranch, |e| e.prepare_branch(tree, edge))
    }
    fn branch_derivatives(&mut self, t: f64) -> (f64, f64) {
        self.time(Call::BranchDerivatives, |e| e.branch_derivatives(t))
    }
    fn set_alpha(&mut self, alpha: f64) {
        self.time(Call::SetAlpha, |e| e.set_alpha(alpha))
    }
    fn set_model(&mut self, params: GtrParams) {
        self.time(Call::SetModel, |e| e.set_model(params))
    }
    fn alpha(&self) -> f64 {
        self.inner.alpha()
    }
    fn model(&self) -> GtrParams {
        self.inner.model()
    }
}
