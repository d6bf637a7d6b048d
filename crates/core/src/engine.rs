//! Convergence engine: drives a process to ε-convergence and estimates
//! the convergence value `F`.
//!
//! Two drivers coexist: [`run_until_converged`] steps a scalar
//! [`OpinionProcess`] one update at a time, checking the incrementally
//! maintained potential after every step (exact stopping time);
//! [`run_kernel_until_converged`] drives a batched [`StepKernel`] in
//! blocks, paying an O(n) potential evaluation only at block boundaries —
//! the right trade at large `n`, where a step is ~10 ns but convergence
//! takes `Ω(n log n)` steps.

use crate::error::CoreError;
use crate::kernel::StepKernel;
use crate::process::OpinionProcess;
use rand::RngCore;

/// Result of driving a process towards ε-convergence.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ConvergenceReport {
    /// Steps taken **by this call**. A driver invoked on a process that
    /// already took steps reports only the increment, and `max_steps` is a
    /// per-call budget — a pre-stepped process gets the full budget, not a
    /// silently truncated one.
    pub steps: u64,
    /// Whether `φ(ξ(T)) ≤ ε` was reached within the budget.
    pub converged: bool,
    /// The potential `φ` at the end of the run.
    pub potential: f64,
    /// `M(T) = Σ π_u ξ_u(T)` at the end of the run — the estimate of the
    /// convergence value `F` (Lemma 4.1) when `converged`. On the exact
    /// stopping rule this is bit-identical to the scalar
    /// [`estimate_convergence_value`] path.
    pub weighted_average: f64,
    /// Elementary topology mutations a churned batch topology
    /// ([`crate::Topology`]) had applied when this replica stopped; 0 on
    /// a static graph.
    pub mutations: u64,
}

/// Runs `process` until the paper's ε-convergence (`φ(ξ(t)) ≤ ε`, Eq. 3)
/// or until `max_steps` further steps have been taken.
///
/// `max_steps` is a **per-call budget**: it counts steps taken by this
/// call, not the process's lifetime `time()`. (Historically the budget
/// was compared against the absolute step count, so a pre-stepped process
/// got a truncated — possibly zero — budget and `steps` reported the
/// lifetime total; the regression tests below pin the per-call semantics.)
///
/// The potential is maintained incrementally by the state, so the check is
/// O(1) per step.
pub fn run_until_converged<P: OpinionProcess + ?Sized>(
    process: &mut P,
    rng: &mut dyn RngCore,
    epsilon: f64,
    max_steps: u64,
) -> ConvergenceReport {
    let mut taken = 0u64;
    while process.state().potential_pi() > epsilon && taken < max_steps {
        process.step(rng);
        taken += 1;
    }
    ConvergenceReport {
        steps: taken,
        converged: process.state().potential_pi() <= epsilon,
        potential: process.state().potential_pi(),
        weighted_average: process.state().weighted_average(),
        mutations: 0,
    }
}

/// Runs a [`StepKernel`] until `φ(ξ(t)) ≤ ε` or `max_steps` further steps,
/// checking the potential every `check_every` steps.
///
/// `max_steps` is a per-call budget, like [`run_until_converged`]. The
/// kernel has no incremental aggregates, so each check costs O(n); the
/// returned `steps` is therefore a multiple of `check_every` (capped at
/// `max_steps`) — convergence is detected at block granularity. A good
/// default for `check_every` is `n`, amortising the check to O(1) per
/// step like the scalar path. For the scalar-identical per-step stopping
/// rule at O(1) cost, use the batched driver
/// [`crate::ReplicaBatch::run_until_converged`] with [`StopRule::Exact`].
///
/// # Panics
///
/// Panics if `check_every == 0`.
pub fn run_kernel_until_converged<R: RngCore + ?Sized>(
    kernel: &mut StepKernel<'_>,
    rng: &mut R,
    epsilon: f64,
    max_steps: u64,
    check_every: u64,
) -> ConvergenceReport {
    assert!(check_every > 0, "check_every must be positive");
    let mut taken = 0u64;
    let mut potential = kernel.potential_pi();
    while potential > epsilon && taken < max_steps {
        let block = check_every.min(max_steps - taken);
        kernel.step_many(block, rng);
        taken += block;
        potential = kernel.potential_pi();
    }
    ConvergenceReport {
        steps: taken,
        converged: potential <= epsilon,
        potential,
        weighted_average: kernel.weighted_average(),
        mutations: 0,
    }
}

/// Estimates the convergence value `F` by running until the potential is
/// negligible and returning `M(t) = Σ π_u ξ_u(t)` — the martingale that
/// converges to `F` (Lemma 4.1). Returns `None` if the per-call budget is
/// exhausted before `φ ≤ ε`.
pub fn estimate_convergence_value<P: OpinionProcess + ?Sized>(
    process: &mut P,
    rng: &mut dyn RngCore,
    epsilon: f64,
    max_steps: u64,
) -> Option<f64> {
    let report = run_until_converged(process, rng, epsilon, max_steps);
    report.converged.then_some(report.weighted_average)
}

/// Which potential a convergence driver thresholds against.
///
/// The paper defines two quadratic gauges on the value vector: the
/// π-weighted potential `φ(ξ) = ⟨ξ,ξ⟩_π − ⟨1,ξ⟩_π²` (Eq. 3), natural for
/// the NodeModel martingale, and the uniform-weight potential
/// `φ̄_V(ξ) = Σξ² − (Σξ)²/n` of Prop. D.1, under which the EdgeModel's
/// one-step contraction is analysed. The tracked stopping machinery is
/// weight-generic: only the weight vector (and the normalisation of the
/// cross term) differs between the two arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PotentialKind {
    /// `φ(ξ)` with weights `π_u = d_u/2m` (Eq. 3) — the default.
    #[default]
    Pi,
    /// `φ̄_V(ξ)` with uniform weights (Prop. D.1). Under
    /// [`StopRule::Exact`] the tracker mirrors
    /// [`crate::OpinionState::potential_uniform`] bit for bit, so batched
    /// stopping times equal the scalar `potential_uniform`-loop exactly.
    /// The reported `weighted_average` is then the plain average `Avg(T)`
    /// (the EdgeModel's `F` estimate, Prop. D.1(i)).
    Uniform,
}

/// How a batched convergence driver detects the ε-threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopRule {
    /// Check `φ` with one O(n) two-pass evaluation at every block
    /// boundary. Maximum step throughput; stopping times are block-
    /// granular (multiples of `check_every`), like
    /// [`run_kernel_until_converged`].
    Block,
    /// Check `φ` before every step via an incrementally tracked potential
    /// that mirrors [`crate::OpinionState`]'s arithmetic bit for bit.
    /// Stopping times equal the scalar [`run_until_converged`] rule
    /// exactly (gated in `tests/batch_equivalence.rs`); the inner loop
    /// pays ~a handful of extra flops per step for the tracking.
    Exact,
}

/// Configuration for the batched convergence drivers
/// ([`crate::ReplicaBatch::run_until_converged`] and friends).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergeConfig {
    /// ε-convergence threshold on `φ` (Eq. 3). Must be finite and ≥ 0.
    pub epsilon: f64,
    /// Per-call step budget **per replica** (same semantics as
    /// [`run_until_converged`]).
    pub max_steps: u64,
    /// Block length between retirement sweeps (and, under
    /// [`StopRule::Block`], between potential checks). `0` means "one
    /// block per `n` steps", amortising the block-mode check to O(1) per
    /// step. Under [`StopRule::Exact`] this only affects scheduling
    /// granularity, never results.
    pub check_every: u64,
    /// How convergence is detected.
    pub stop: StopRule,
    /// Which potential the threshold applies to (`φ` of Eq. 3 by
    /// default; `φ̄_V` of Prop. D.1 with [`PotentialKind::Uniform`]).
    pub potential: PotentialKind,
    /// Worker threads for intra-batch parallelism. `0` means
    /// `std::thread::available_parallelism()`. Results are identical for
    /// every thread count.
    pub threads: usize,
}

impl ConvergeConfig {
    /// A block-mode config with auto `check_every` and auto threads.
    pub fn new(epsilon: f64, max_steps: u64) -> Self {
        ConvergeConfig {
            epsilon,
            max_steps,
            check_every: 0,
            stop: StopRule::Block,
            potential: PotentialKind::Pi,
            threads: 0,
        }
    }

    /// Selects the stopping rule.
    #[must_use]
    pub fn with_stop(mut self, stop: StopRule) -> Self {
        self.stop = stop;
        self
    }

    /// Selects the potential the ε-threshold applies to.
    #[must_use]
    pub fn with_potential(mut self, potential: PotentialKind) -> Self {
        self.potential = potential;
        self
    }

    /// Overrides the block length (`0` = one block per `n` steps).
    #[must_use]
    pub fn with_check_every(mut self, check_every: u64) -> Self {
        self.check_every = check_every;
        self
    }

    /// Overrides the worker thread count (`0` = available parallelism).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Validates the threshold: a finite `ε ≥ 0`, or exactly
    /// `f64::NEG_INFINITY`, which means "never stops" (no potential lies
    /// below it, so every trial runs its whole budget; `output trace`
    /// cells sample `φ` on such a [`crate::ConvergeWindow`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidEpsilon`] if `epsilon` is NaN, `+∞` or a
    /// negative finite number.
    pub(crate) fn validate(&self) -> Result<(), CoreError> {
        if self.epsilon == f64::NEG_INFINITY {
            return Ok(());
        }
        if !self.epsilon.is_finite() || self.epsilon < 0.0 {
            return Err(CoreError::InvalidEpsilon {
                epsilon: self.epsilon,
            });
        }
        Ok(())
    }

    /// The effective block length for an `n`-node scenario.
    pub(crate) fn resolved_check_every(&self, n: usize) -> u64 {
        resolve_check_every(self.check_every, n)
    }

    /// The effective worker count.
    pub(crate) fn resolved_threads(&self) -> usize {
        resolve_threads(self.threads)
    }
}

/// Resolves a user-facing block-length parameter (`0` = one block per `n`
/// steps). Shared by every batched convergence driver.
pub(crate) fn resolve_check_every(check_every: u64, n: usize) -> u64 {
    if check_every == 0 {
        (n as u64).max(1)
    } else {
        check_every
    }
}

/// Resolves a user-facing worker-thread parameter (`0` = available
/// parallelism, at least 1). The one home of that rule: the batched
/// drivers, the Monte-Carlo runner and the daemon's worker pool all
/// resolve through it.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeModel, EdgeModelParams, NodeModel, NodeModelParams};
    use od_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn node_model_reaches_epsilon() {
        let g = generators::complete(10).unwrap();
        let params = NodeModelParams::new(0.5, 2).unwrap();
        let mut m = NodeModel::new(&g, (0..10).map(f64::from).collect(), params).unwrap();
        let mut r = StdRng::seed_from_u64(1);
        let report = run_until_converged(&mut m, &mut r, 1e-10, 10_000_000);
        assert!(report.converged);
        assert!(report.potential <= 1e-10);
        assert!(report.steps > 0);
    }

    #[test]
    fn budget_exhaustion_flagged() {
        let g = generators::cycle(50).unwrap();
        let params = NodeModelParams::new(0.5, 1).unwrap();
        let mut m = NodeModel::new(&g, (0..50).map(f64::from).collect(), params).unwrap();
        let mut r = StdRng::seed_from_u64(2);
        let report = run_until_converged(&mut m, &mut r, 1e-30, 100);
        assert!(!report.converged);
        assert_eq!(report.steps, 100);
    }

    #[test]
    fn estimate_f_close_to_initial_average_on_regular_graph() {
        let g = generators::complete(12).unwrap();
        let params = EdgeModelParams::new(0.5).unwrap();
        let xi0: Vec<f64> = (0..12).map(f64::from).collect();
        let avg0 = 5.5;
        let mut m = EdgeModel::new(&g, xi0, params).unwrap();
        let mut r = StdRng::seed_from_u64(3);
        let f = estimate_convergence_value(&mut m, &mut r, 1e-16, 10_000_000).unwrap();
        // Var(F) = Θ(‖ξ‖²/n²) ≈ 3.5 here, so F is within a few std devs.
        assert!((f - avg0).abs() < 8.0, "F = {f}");
    }

    #[test]
    fn estimate_none_when_budget_too_small() {
        let g = generators::cycle(30).unwrap();
        let params = EdgeModelParams::new(0.5).unwrap();
        let mut m = EdgeModel::new(&g, (0..30).map(f64::from).collect(), params).unwrap();
        let mut r = StdRng::seed_from_u64(4);
        assert_eq!(estimate_convergence_value(&mut m, &mut r, 1e-30, 10), None);
    }

    #[test]
    fn kernel_driver_reaches_epsilon() {
        use crate::{KernelSpec, StepKernel};
        let g = generators::complete(10).unwrap();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2).unwrap());
        let mut kernel = StepKernel::new(&g, (0..10).map(f64::from).collect(), spec).unwrap();
        let mut r = StdRng::seed_from_u64(1);
        let report = run_kernel_until_converged(&mut kernel, &mut r, 1e-10, 10_000_000, 10);
        assert!(report.converged);
        assert!(report.potential <= 1e-10);
        // Block granularity: the stopping time is a multiple of the check
        // interval.
        assert_eq!(report.steps % 10, 0);
        assert_eq!(report.steps, kernel.time());
    }

    #[test]
    fn kernel_driver_budget_exhaustion() {
        use crate::{KernelSpec, StepKernel};
        let g = generators::cycle(50).unwrap();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 1).unwrap());
        let mut kernel = StepKernel::new(&g, (0..50).map(f64::from).collect(), spec).unwrap();
        let mut r = StdRng::seed_from_u64(2);
        // A budget that is not a multiple of check_every must still be
        // honoured exactly.
        let report = run_kernel_until_converged(&mut kernel, &mut r, 1e-30, 105, 50);
        assert!(!report.converged);
        assert_eq!(report.steps, 105);
    }

    #[test]
    fn budget_is_per_call_for_prestepped_process() {
        // Regression: the budget used to be compared against the absolute
        // process time, so a pre-stepped process got a truncated (here:
        // zero) budget and `steps` reported the lifetime total.
        let g = generators::cycle(50).unwrap();
        let params = NodeModelParams::new(0.5, 1).unwrap();
        let mut m = NodeModel::new(&g, (0..50).map(f64::from).collect(), params).unwrap();
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..150 {
            m.step(&mut r);
        }
        // 150 lifetime steps > budget 100: the old driver would take zero
        // steps yet report steps = 150.
        let report = run_until_converged(&mut m, &mut r, 1e-30, 100);
        assert_eq!(report.steps, 100, "budget must be per-call");
        assert_eq!(m.time(), 250, "the call must actually take 100 steps");
        assert!(!report.converged);
    }

    #[test]
    fn zero_budget_on_prestepped_process_reports_zero_steps() {
        let g = generators::cycle(30).unwrap();
        let params = NodeModelParams::new(0.5, 1).unwrap();
        let mut m = NodeModel::new(&g, (0..30).map(f64::from).collect(), params).unwrap();
        let mut r = StdRng::seed_from_u64(8);
        for _ in 0..40 {
            m.step(&mut r);
        }
        let report = run_until_converged(&mut m, &mut r, 1e-30, 0);
        assert_eq!(report.steps, 0);
        assert_eq!(m.time(), 40);
        assert!(!report.converged);
    }

    #[test]
    fn kernel_budget_is_per_call_for_prestepped_kernel() {
        use crate::{KernelSpec, StepKernel};
        let g = generators::cycle(50).unwrap();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 1).unwrap());
        let mut kernel = StepKernel::new(&g, (0..50).map(f64::from).collect(), spec).unwrap();
        let mut r = StdRng::seed_from_u64(9);
        kernel.step_many(200, &mut r);
        // Lifetime 200 > budget 105: must still take 105 fresh steps.
        let report = run_kernel_until_converged(&mut kernel, &mut r, 1e-30, 105, 50);
        assert_eq!(report.steps, 105);
        assert_eq!(kernel.time(), 305);
        assert!(!report.converged);
    }

    #[test]
    fn estimate_respects_per_call_budget_on_prestepped_process() {
        // A process stepped well past a would-be absolute budget must
        // still converge (and return Some) when given a fresh per-call
        // budget.
        let g = generators::complete(10).unwrap();
        let params = NodeModelParams::new(0.5, 2).unwrap();
        let mut m = NodeModel::new(&g, (0..10).map(f64::from).collect(), params).unwrap();
        let mut r = StdRng::seed_from_u64(10);
        for _ in 0..5_000 {
            m.step(&mut r);
        }
        let f = estimate_convergence_value(&mut m, &mut r, 1e-10, 1_000_000);
        assert!(f.is_some(), "per-call budget must not be pre-consumed");
    }

    #[test]
    fn converge_config_validation_and_resolution() {
        assert!(ConvergeConfig::new(1e-9, 10).validate().is_ok());
        assert!(ConvergeConfig::new(0.0, 10).validate().is_ok());
        assert!(matches!(
            ConvergeConfig::new(-1e-9, 10).validate(),
            Err(crate::CoreError::InvalidEpsilon { .. })
        ));
        // −∞ means "never stops"; NaN, +∞ and negative finite ε do not.
        assert!(ConvergeConfig::new(f64::NEG_INFINITY, 10)
            .validate()
            .is_ok());
        for epsilon in [f64::NAN, f64::INFINITY, -1e-9, f64::MIN] {
            assert!(
                matches!(
                    ConvergeConfig::new(epsilon, 10).validate(),
                    Err(crate::CoreError::InvalidEpsilon { .. })
                ),
                "epsilon {epsilon}"
            );
        }
        let c = ConvergeConfig::new(1e-9, 10);
        assert_eq!(c.resolved_check_every(64), 64);
        assert_eq!(c.with_check_every(7).resolved_check_every(64), 7);
        assert!(c.resolved_threads() >= 1);
        assert_eq!(c.with_threads(3).resolved_threads(), 3);
    }

    #[test]
    #[should_panic(expected = "check_every")]
    fn kernel_driver_zero_interval_panics() {
        use crate::{KernelSpec, StepKernel};
        let g = generators::cycle(4).unwrap();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 1).unwrap());
        let mut kernel = StepKernel::new(&g, vec![0.0; 4], spec).unwrap();
        let mut r = StdRng::seed_from_u64(3);
        run_kernel_until_converged(&mut kernel, &mut r, 1e-10, 10, 0);
    }
}
