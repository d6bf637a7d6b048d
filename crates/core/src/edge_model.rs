use crate::error::CoreError;
use crate::params::{EdgeModelParams, Laziness};
use crate::process::{OpinionProcess, StepRecord};
use crate::state::OpinionState;
use od_graph::{Graph, NodeId};
use rand::{Rng, RngCore};

/// The EdgeModel (Definition 2.3).
///
/// At each step `t ≥ 1` a **directed** edge `(u, v)` is chosen uniformly
/// among all `2m` orientations and `u` updates unilaterally:
///
/// `ξ_u(t) = α ξ_u(t−1) + (1−α) ξ_v(t−1)`.
///
/// In expectation the convergence value is the plain initial average even
/// on irregular graphs (Prop. D.1(i)); on `d`-regular graphs the process
/// coincides with the [`NodeModel`] at `k = 1`.
///
/// [`NodeModel`]: crate::NodeModel
#[derive(Debug, Clone)]
pub struct EdgeModel<'g> {
    graph: &'g Graph,
    /// The graph's slot owners, read once here rather than per step.
    tails: &'g [NodeId],
    state: OpinionState,
    params: EdgeModelParams,
    time: u64,
}

impl<'g> EdgeModel<'g> {
    /// Creates an EdgeModel on a connected graph.
    ///
    /// # Errors
    ///
    /// [`CoreError::Disconnected`] if the graph is not connected;
    /// [`CoreError::LengthMismatch`] / [`CoreError::NonFiniteValue`] from
    /// state validation.
    pub fn new(
        graph: &'g Graph,
        initial_values: Vec<f64>,
        params: EdgeModelParams,
    ) -> Result<Self, CoreError> {
        if graph.is_directed() {
            return Err(CoreError::DirectedUnsupported);
        }
        if graph.is_weighted() {
            // Same restriction as the scalar NodeModel: weighted runs go
            // through the batched kernels.
            return Err(CoreError::WeightedUnsupported { tier: "scalar" });
        }
        if !graph.is_connected() || graph.n() < 2 {
            return Err(CoreError::Disconnected);
        }
        let state = OpinionState::new(graph, initial_values)?;
        Ok(EdgeModel {
            graph,
            tails: graph.tails(),
            state,
            params,
            time: 0,
        })
    }

    /// The model parameters.
    pub fn params(&self) -> &EdgeModelParams {
        &self.params
    }

    fn apply_update(&mut self, tail: NodeId, head: NodeId) {
        let alpha = self.params.alpha();
        let new = alpha * self.state.value(tail) + (1.0 - alpha) * self.state.value(head);
        self.state.set_value(tail, new);
    }

    fn step_inner(&mut self, rng: &mut dyn RngCore) -> Option<(NodeId, NodeId)> {
        self.time += 1;
        if self.params.laziness() == Laziness::Lazy && rng.gen_bool(0.5) {
            return None;
        }
        let e = rng.gen_range(0..self.graph.directed_edge_count());
        let (tail, head) = (self.tails[e], self.graph.heads()[e]);
        self.apply_update(tail, head);
        Some((tail, head))
    }
}

impl OpinionProcess for EdgeModel<'_> {
    fn graph(&self) -> &Graph {
        self.graph
    }

    fn state(&self) -> &OpinionState {
        &self.state
    }

    fn time(&self) -> u64 {
        self.time
    }

    fn step(&mut self, rng: &mut dyn RngCore) {
        self.step_inner(rng);
    }

    fn step_recorded(&mut self, rng: &mut dyn RngCore) -> StepRecord {
        match self.step_inner(rng) {
            None => StepRecord::Noop,
            Some((tail, head)) => StepRecord::Edge { tail, head },
        }
    }

    fn apply(&mut self, record: &StepRecord) {
        match record {
            StepRecord::Noop => {
                self.time += 1;
            }
            StepRecord::Edge { tail, head } => {
                assert!(
                    self.graph.has_edge(*tail, *head),
                    "record references non-edge ({tail}, {head})"
                );
                self.apply_update(*tail, *head);
                self.time += 1;
            }
            StepRecord::Node { .. } => {
                panic!("cannot apply a Node record to an EdgeModel")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn construction_validation() {
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let params = EdgeModelParams::new(0.5).unwrap();
        assert!(matches!(
            EdgeModel::new(&disconnected, vec![0.0; 4], params),
            Err(CoreError::Disconnected)
        ));
        let g = generators::cycle(4).unwrap();
        assert!(matches!(
            EdgeModel::new(&g, vec![0.0; 3], params),
            Err(CoreError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn update_formula_exact() {
        let g = generators::path(3).unwrap();
        let params = EdgeModelParams::new(0.75).unwrap();
        let mut m = EdgeModel::new(&g, vec![4.0, 0.0, 8.0], params).unwrap();
        m.apply(&StepRecord::Edge { tail: 1, head: 2 });
        assert!((m.state().value(1) - (0.75 * 0.0 + 0.25 * 8.0)).abs() < 1e-15);
        assert_eq!(m.state().value(0), 4.0);
        assert_eq!(m.state().value(2), 8.0);
        assert_eq!(m.time(), 1);
    }

    #[test]
    fn edges_sampled_uniformly() {
        // On a path 0-1-2 there are 4 directed edges; tails 0 and 2 appear
        // once each, tail 1 twice.
        let g = generators::path(3).unwrap();
        let params = EdgeModelParams::new(0.5).unwrap();
        let mut m = EdgeModel::new(&g, vec![0.0; 3], params).unwrap();
        let mut r = rng(17);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..40_000 {
            if let StepRecord::Edge { tail, head } = m.step_recorded(&mut r) {
                *counts.entry((tail, head)).or_insert(0u32) += 1;
            }
        }
        assert_eq!(counts.len(), 4);
        for (&edge, &c) in &counts {
            let frac = c as f64 / 40_000.0;
            assert!((frac - 0.25).abs() < 0.02, "{edge:?}: {frac}");
        }
    }

    #[test]
    fn converges_on_irregular_graph() {
        let g = generators::star(10).unwrap();
        let params = EdgeModelParams::new(0.5).unwrap();
        let mut m = EdgeModel::new(&g, (0..10).map(f64::from).collect(), params).unwrap();
        let mut r = rng(23);
        for _ in 0..100_000 {
            m.step(&mut r);
        }
        assert!(m.state().discrepancy() < 1e-8);
    }

    #[test]
    fn lazy_variant_half_noop() {
        let g = generators::cycle(5).unwrap();
        let params = EdgeModelParams::new(0.5)
            .unwrap()
            .with_laziness(Laziness::Lazy);
        let mut m = EdgeModel::new(&g, (0..5).map(f64::from).collect(), params).unwrap();
        let mut r = rng(31);
        let noops = (0..10_000)
            .filter(|_| m.step_recorded(&mut r) == StepRecord::Noop)
            .count();
        let frac = noops as f64 / 10_000.0;
        assert!((frac - 0.5).abs() < 0.03, "noop fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "cannot apply a Node record")]
    fn apply_wrong_record_kind_panics() {
        let g = generators::cycle(4).unwrap();
        let params = EdgeModelParams::new(0.5).unwrap();
        let mut m = EdgeModel::new(&g, vec![0.0; 4], params).unwrap();
        m.apply(&StepRecord::Node {
            node: 0,
            sample: vec![1],
        });
    }

    use od_graph::Graph;
}
