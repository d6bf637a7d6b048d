//! The value vector `ξ(t)` and the one incremental bookkeeping of the
//! paper's potentials.
//!
//! [`PotentialTracker`] is the only code that maintains, refreshes or
//! clamps the running sums behind `φ` (Eq. 3) and `φ̄_V` (Prop. D.1).
//! The scalar processes' [`OpinionState`] holds two of them (a π arm and
//! a uniform arm), and the batched exact stopping rule
//! ([`crate::StopRule::Exact`]) steps one per replica, so both stop on
//! the same arithmetic by construction.

use crate::engine::PotentialKind;
use crate::error::CoreError;
use od_graph::{Graph, NodeId};

/// How many single-coordinate updates may elapse before a tracker's
/// running sums are recomputed from scratch, bounding floating-point
/// drift.
const REFRESH_INTERVAL: u64 = 1 << 20;

/// The value vector `ξ(t)` together with the running aggregates the paper's
/// analysis uses, maintained in O(1) per update:
///
/// * `Avg(t) = (1/n) Σ_u ξ_u(t)` and `M(t) = Σ_u π_u ξ_u(t)` (Eq. 1);
/// * the potential `φ(ξ) = ⟨ξ,ξ⟩_π − ⟨1,ξ⟩_π²` (Eq. 3), whose threshold
///   defines ε-convergence;
/// * the uniform-weight potential `φ̄_V(ξ) = Σξ² − (Σξ)²/n` of Prop. D.1.
///
/// One bookkeeping, two arms: the π arm (`M`, `φ`) and the uniform arm
/// (`Avg`, `φ̄_V`) are two potential trackers started on the same `π` and
/// values, and every `set_value` records into both. Each keeps its sums
/// centered at the initial π-weighted mean (the "gauge", so the summands
/// scale with the opinion *spread*, not its magnitude) and recomputes
/// them from scratch every 2²⁰ updates to bound drift. The batched exact
/// stopping rule ([`crate::StopRule::Exact`]) steps the same trackers.
#[derive(Debug, Clone)]
pub struct OpinionState {
    values: Vec<f64>,
    /// Stationary distribution π_u = d_u/2m of the underlying graph.
    pi: Vec<f64>,
    /// The π arm: `M(t)` and `φ`.
    weighted: PotentialTracker,
    /// The uniform arm: `Avg(t)` and `φ̄_V`.
    uniform: PotentialTracker,
}

impl OpinionState {
    /// Creates a state for `graph` with the given initial values.
    ///
    /// # Errors
    ///
    /// [`CoreError::LengthMismatch`] or [`CoreError::NonFiniteValue`].
    pub fn new(graph: &Graph, values: Vec<f64>) -> Result<Self, CoreError> {
        if values.len() != graph.n() {
            return Err(CoreError::LengthMismatch {
                values: values.len(),
                nodes: graph.n(),
            });
        }
        if let Some(index) = values.iter().position(|v| !v.is_finite()) {
            return Err(CoreError::NonFiniteValue { index });
        }
        let pi = graph.stationary_distribution();
        let weighted = PotentialTracker::new(&pi, &values, PotentialKind::Pi);
        let uniform = PotentialTracker::new(&pi, &values, PotentialKind::Uniform);
        Ok(OpinionState {
            values,
            pi,
            weighted,
            uniform,
        })
    }

    /// The current value vector `ξ(t)`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The value at node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn value(&self, u: NodeId) -> f64 {
        self.values[u as usize]
    }

    /// The stationary distribution `π` used for the weighted aggregates.
    pub fn pi(&self) -> &[f64] {
        &self.pi
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.values.len()
    }

    /// Sets `ξ_u` and updates the aggregates in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn set_value(&mut self, u: NodeId, new: f64) {
        let idx = u as usize;
        let old = self.values[idx];
        self.values[idx] = new;
        self.weighted.record_pi(self.pi[idx], old, new);
        self.uniform.record_uniform(old, new);
        self.weighted.maybe_refresh(&self.pi, &self.values);
        self.uniform.maybe_refresh(&self.pi, &self.values);
    }

    /// `Avg(t) = (1/n) Σ_u ξ_u(t)` (Eq. 1).
    pub fn average(&self) -> f64 {
        self.uniform.mean()
    }

    /// `M(t) = Σ_u π_u ξ_u(t)` (Eq. 1) — the NodeModel martingale
    /// (Lemma 4.1).
    pub fn weighted_average(&self) -> f64 {
        self.weighted.mean()
    }

    /// The paper's potential `φ(ξ(t)) = ⟨ξ,ξ⟩_π − ⟨1,ξ⟩_π²` (Eq. 3),
    /// clamped at 0 against rounding. The process is ε-converged when this
    /// is at most ε.
    ///
    /// The clamp is a cross-path contract: every potential evaluation in
    /// the crate — the trackers here and in the exact stopping rule, and
    /// the kernels' on-demand `slice_potential_pi` — returns a
    /// non-negative value, so a `converged` flag can never flip on a
    /// `-1e-18` rounding artifact (pinned by the potential proptest in
    /// `tests/kernel_prop.rs`).
    pub fn potential_pi(&self) -> f64 {
        self.weighted.potential()
    }

    /// The uniform-weight potential `φ̄_V(ξ) = Σξ² − (Σξ)²/n`
    /// (Prop. D.1), clamped at 0.
    pub fn potential_uniform(&self) -> f64 {
        self.uniform.potential()
    }

    /// Whether `φ(ξ(t)) ≤ ε` (the paper's ε-convergence).
    pub fn is_converged(&self, epsilon: f64) -> bool {
        self.potential_pi() <= epsilon
    }

    /// Discrepancy `K = max ξ − min ξ` (Section 2). O(n).
    pub fn discrepancy(&self) -> f64 {
        od_linalg::vector::discrepancy(&self.values)
    }

    /// `‖ξ‖₂²`. O(n) (recomputed exactly, not from the running sum).
    pub fn norm_sq(&self) -> f64 {
        od_linalg::vector::norm2_sq(&self.values)
    }

    /// Recomputes all running sums from scratch.
    pub fn refresh_sums(&mut self) {
        self.weighted.refresh(&self.pi, &self.values);
        self.uniform.refresh(&self.pi, &self.values);
    }
}

/// An incrementally maintained potential: the running sums behind `φ`
/// (the π arm) or `φ̄_V` (the uniform arm, Prop. D.1), by
/// [`PotentialKind`].
///
/// Both potentials are *shift-invariant*, so the sums are kept in
/// coordinates centered at the π-weighted mean of the values at tracking
/// start (the "gauge", fixed for the tracker's life, also on the uniform
/// arm). This avoids the catastrophic cancellation that computing
/// `S₂ − S₁²` on raw values with a large common offset would incur — with
/// a gauge, the summands scale with the opinion *spread*, not the opinion
/// magnitude. The sums are recomputed from scratch every
/// [`REFRESH_INTERVAL`] updates to bound drift, and the potential is
/// clamped at 0. Because a scalar process and a replica under
/// [`crate::StopRule::Exact`] step the same tracker, they stop at exactly
/// the same step from the same state and seed (pinned in
/// `tests/batch_equivalence.rs`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PotentialTracker {
    kind: PotentialKind,
    /// `n` as f64, the cross-term normaliser of the uniform arm.
    n: f64,
    /// Centering offset: the π-weighted mean at tracking start.
    gauge: f64,
    /// π arm: Σ π_u (ξ_u − gauge). Uniform arm: Σ (ξ_u − gauge).
    weighted_sum_c: f64,
    /// π arm: Σ π_u (ξ_u − gauge)². Uniform arm: Σ (ξ_u − gauge)².
    weighted_sq_sum_c: f64,
    updates_since_refresh: u64,
}

impl PotentialTracker {
    /// Starts tracking `values`. `pi` is always the stationary
    /// distribution: the uniform arm still uses it for the gauge.
    pub(crate) fn new(pi: &[f64], values: &[f64], kind: PotentialKind) -> Self {
        let gauge = pi.iter().zip(values).map(|(w, v)| w * v).sum();
        let mut tracker = PotentialTracker {
            kind,
            n: values.len() as f64,
            gauge,
            weighted_sum_c: 0.0,
            weighted_sq_sum_c: 0.0,
            updates_since_refresh: 0,
        };
        tracker.refresh(pi, values);
        tracker
    }

    /// Recomputes the running sums from scratch (the gauge stays fixed).
    fn refresh(&mut self, pi: &[f64], values: &[f64]) {
        self.weighted_sum_c = 0.0;
        self.weighted_sq_sum_c = 0.0;
        match self.kind {
            PotentialKind::Pi => {
                for (v, w) in values.iter().zip(pi) {
                    let c = v - self.gauge;
                    self.weighted_sum_c += w * c;
                    self.weighted_sq_sum_c += w * c * c;
                }
            }
            PotentialKind::Uniform => {
                for v in values {
                    let c = v - self.gauge;
                    self.weighted_sum_c += c;
                    self.weighted_sq_sum_c += c * c;
                }
            }
        }
        self.updates_since_refresh = 0;
    }

    /// Records `ξ_u: old → new` with weight `w = π_u` in O(1) (the
    /// uniform arm ignores `w`). The caller refreshes via
    /// [`PotentialTracker::maybe_refresh`] after the value write.
    #[inline]
    pub(crate) fn record(&mut self, w: f64, old: f64, new: f64) {
        match self.kind {
            PotentialKind::Pi => self.record_pi(w, old, new),
            PotentialKind::Uniform => self.record_uniform(old, new),
        }
    }

    /// [`PotentialTracker::record`] on a tracker known to be a π arm.
    #[inline]
    fn record_pi(&mut self, w: f64, old: f64, new: f64) {
        let old_c = old - self.gauge;
        let new_c = new - self.gauge;
        self.weighted_sum_c += w * (new_c - old_c);
        self.weighted_sq_sum_c += w * (new_c * new_c - old_c * old_c);
        self.updates_since_refresh += 1;
    }

    /// [`PotentialTracker::record`] on a tracker known to be a uniform arm.
    #[inline]
    fn record_uniform(&mut self, old: f64, new: f64) {
        let old_c = old - self.gauge;
        let new_c = new - self.gauge;
        self.weighted_sum_c += new_c - old_c;
        self.weighted_sq_sum_c += new_c * new_c - old_c * old_c;
        self.updates_since_refresh += 1;
    }

    /// Refreshes the sums when [`REFRESH_INTERVAL`] updates have elapsed.
    #[inline]
    pub(crate) fn maybe_refresh(&mut self, pi: &[f64], values: &[f64]) {
        if self.updates_since_refresh >= REFRESH_INTERVAL {
            self.refresh(pi, values);
        }
    }

    /// The tracked potential, clamped at 0: `φ` on the π arm, `φ̄_V` on
    /// the uniform arm.
    #[inline]
    pub(crate) fn potential(&self) -> f64 {
        match self.kind {
            PotentialKind::Pi => {
                (self.weighted_sq_sum_c - self.weighted_sum_c * self.weighted_sum_c).max(0.0)
            }
            PotentialKind::Uniform => (self.weighted_sq_sum_c
                - self.weighted_sum_c * self.weighted_sum_c / self.n)
                .max(0.0),
        }
    }

    /// The tracked mean: `M(t) = Σ π_u ξ_u(t)` on the π arm, `Avg(t)` on
    /// the uniform arm (the EdgeModel's `F` estimate, Prop. D.1(i)).
    #[inline]
    pub(crate) fn mean(&self) -> f64 {
        match self.kind {
            PotentialKind::Pi => self.weighted_sum_c + self.gauge,
            PotentialKind::Uniform => self.weighted_sum_c / self.n + self.gauge,
        }
    }

    /// The raw running state, for window checkpointing
    /// ([`crate::ConvergeWindow`]). The incremental sums must be restored
    /// bit-for-bit: a tracker rebuilt from the current values via
    /// [`PotentialTracker::new`] would pick a fresh gauge and drop the
    /// accumulated drift, so its stopping decisions would not reproduce
    /// the uninterrupted run.
    pub(crate) fn state(&self) -> TrackerState {
        TrackerState {
            gauge: self.gauge,
            weighted_sum_c: self.weighted_sum_c,
            weighted_sq_sum_c: self.weighted_sq_sum_c,
            updates_since_refresh: self.updates_since_refresh,
        }
    }

    /// Rebuilds a tracker from a captured [`TrackerState`]. `n` is the
    /// replica's node count (the uniform arm's cross-term normaliser).
    // od-lint: allow(D3) — defines PotentialTracker::from_state (checkpoint restore of a scalar tracker), not an RNG constructor
    pub(crate) fn from_state(kind: PotentialKind, n: usize, state: TrackerState) -> Self {
        PotentialTracker {
            kind,
            n: n as f64,
            gauge: state.gauge,
            weighted_sum_c: state.weighted_sum_c,
            weighted_sq_sum_c: state.weighted_sq_sum_c,
            updates_since_refresh: state.updates_since_refresh,
        }
    }
}

/// The serialisable portion of a [`PotentialTracker`] (everything except
/// `kind` and `n`, which the restoring window re-derives from its own
/// configuration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TrackerState {
    pub(crate) gauge: f64,
    pub(crate) weighted_sum_c: f64,
    pub(crate) weighted_sq_sum_c: f64,
    pub(crate) updates_since_refresh: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_graph::generators;

    fn state_on(graph: &Graph, values: Vec<f64>) -> OpinionState {
        OpinionState::new(graph, values).unwrap()
    }

    #[test]
    fn rejects_bad_inputs() {
        let g = generators::cycle(4).unwrap();
        assert!(matches!(
            OpinionState::new(&g, vec![1.0; 3]),
            Err(CoreError::LengthMismatch { .. })
        ));
        assert!(matches!(
            OpinionState::new(&g, vec![1.0, f64::NAN, 0.0, 0.0]),
            Err(CoreError::NonFiniteValue { index: 1 })
        ));
    }

    #[test]
    fn averages_regular_graph() {
        let g = generators::cycle(4).unwrap();
        let s = state_on(&g, vec![1.0, 2.0, 3.0, 4.0]);
        assert!((s.average() - 2.5).abs() < 1e-15);
        // Regular graph: weighted average equals plain average.
        assert!((s.weighted_average() - 2.5).abs() < 1e-15);
    }

    #[test]
    fn weighted_average_star() {
        // Star on 4 nodes: π = (1/2, 1/6, 1/6, 1/6).
        let g = generators::star(4).unwrap();
        let s = state_on(&g, vec![6.0, 0.0, 0.0, 3.0]);
        assert!((s.weighted_average() - (3.0 + 0.5)).abs() < 1e-15);
        assert!((s.average() - 2.25).abs() < 1e-15);
    }

    #[test]
    fn potential_matches_pairwise_formula() {
        // φ = ½ Σ_{u,v} π_u π_v (ξ_u − ξ_v)² (Eq. 3, second form).
        let g = generators::star(5).unwrap();
        let values = vec![2.0, -1.0, 0.5, 3.0, -2.0];
        let s = state_on(&g, values.clone());
        let pi = g.stationary_distribution();
        let mut direct = 0.0;
        for u in 0..5 {
            for v in 0..5 {
                direct += 0.5 * pi[u] * pi[v] * (values[u] - values[v]).powi(2);
            }
        }
        assert!((s.potential_pi() - direct).abs() < 1e-12);
    }

    #[test]
    fn uniform_potential_matches_direct() {
        let g = generators::cycle(5).unwrap();
        let values = vec![1.0, 4.0, -2.0, 0.0, 2.0];
        let s = state_on(&g, values.clone());
        let n = 5.0;
        let mean = values.iter().sum::<f64>() / n;
        let direct: f64 = values.iter().map(|v| (v - mean).powi(2)).sum();
        assert!((s.potential_uniform() - direct).abs() < 1e-12);
    }

    #[test]
    fn incremental_updates_match_refresh() {
        let g = generators::petersen();
        let mut s = state_on(&g, (0..10).map(f64::from).collect());
        // Interleave updates, compare against fresh recomputation.
        for step in 0..100u32 {
            let u = (step * 7 % 10) as NodeId;
            s.set_value(u, (step as f64) * 0.37 - 5.0);
            let mut fresh = s.clone();
            fresh.refresh_sums();
            assert!((s.potential_pi() - fresh.potential_pi()).abs() < 1e-9);
            assert!((s.average() - fresh.average()).abs() < 1e-10);
            assert!((s.weighted_average() - fresh.weighted_average()).abs() < 1e-10);
        }
    }

    #[test]
    fn incremental_aggregates_match_direct_across_a_refresh() {
        use crate::kernel::{
            slice_average, slice_potential_and_mean, slice_potential_uniform_and_mean,
        };
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Irregular degrees (3, 2, 2, 2, 2, 1), so π is not uniform and
        // the two arms differ.
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5)]).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        // Opinions at a 1e6 offset with spread of order one keep φ of
        // order one while the raw values would cancel.
        let draw = |rng: &mut StdRng| 1e6 + rng.gen_range(-1.0..1.0);
        let mut s = state_on(&g, (0..6).map(|_| draw(&mut rng)).collect());
        let close = |tracked: f64, direct: f64| {
            assert!(
                (tracked - direct).abs() <= 1e-10 * direct.abs(),
                "{tracked} vs {direct}"
            );
        };
        let checkpoints = [REFRESH_INTERVAL - 1, REFRESH_INTERVAL, REFRESH_INTERVAL + 5];
        for t in 1..=REFRESH_INTERVAL + 5 {
            let u = rng.gen_range(0..6u32);
            let value = draw(&mut rng);
            s.set_value(u, value);
            if checkpoints.contains(&t) {
                let (phi, m) = slice_potential_and_mean(&g, s.values());
                let (phi_v, _) = slice_potential_uniform_and_mean(s.values());
                assert!(phi > 0.01 && phi_v > 0.01, "φ of order one: {phi}, {phi_v}");
                close(s.potential_pi(), phi);
                close(s.weighted_average(), m);
                close(s.potential_uniform(), phi_v);
                close(s.average(), slice_average(s.values()));
            }
        }
    }

    #[test]
    fn potential_resolves_under_large_offsets() {
        // The gauge keeps φ accurate even when opinions sit at a huge
        // common offset — the regime where raw S₂ − S₁² cancels
        // catastrophically.
        let g = generators::cycle(6).unwrap();
        let offset = 1.0e9;
        let spread = [0.0, 1e-3, 2e-3, 0.0, -1e-3, -2e-3];
        let values: Vec<f64> = spread.iter().map(|d| offset + d).collect();
        let mut s = state_on(&g, values.clone());
        // Direct φ on the representable spreads (shift-invariant): ~1e-6
        // magnitude. Input quantization at offset 1e9 is ~1e-7 per value,
        // so agreement to ~1e-9 is the best achievable.
        let stored: Vec<f64> = values.iter().map(|v| v - offset).collect();
        let mean: f64 = stored.iter().sum::<f64>() / 6.0;
        let direct: f64 = stored.iter().map(|v| (v - mean) * (v - mean) / 6.0).sum();
        assert!(
            (s.potential_pi() - direct).abs() < 1e-9,
            "{} vs {direct}",
            s.potential_pi()
        );
        // And it keeps resolving after updates near the offset.
        s.set_value(0, offset + 5e-4);
        assert!(s.potential_pi() > 0.0);
        assert!(s.potential_pi() < 1e-5);
    }

    #[test]
    fn converged_iff_constant() {
        let g = generators::cycle(6).unwrap();
        let s = state_on(&g, vec![3.0; 6]);
        assert!(s.is_converged(1e-15));
        assert_eq!(s.discrepancy(), 0.0);

        let s = state_on(&g, vec![3.0, 3.0, 3.0, 3.0, 3.0, 4.0]);
        assert!(!s.is_converged(1e-6));
        assert_eq!(s.discrepancy(), 1.0);
    }

    #[test]
    fn norm_sq_exact() {
        let g = generators::path(3).unwrap();
        let s = state_on(&g, vec![1.0, 2.0, 2.0]);
        assert_eq!(s.norm_sq(), 9.0);
    }
}
