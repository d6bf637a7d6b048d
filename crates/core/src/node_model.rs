use crate::error::CoreError;
use crate::kernel::{averaging_update, unweighted_mean};
use crate::params::{Laziness, NodeModelParams};
use crate::process::{OpinionProcess, StepRecord};
use crate::state::OpinionState;
use od_graph::{Graph, NodeId};
use rand::{Rng, RngCore};

/// The NodeModel (Definition 2.1).
///
/// At each step `t ≥ 1` a node `u` is chosen uniformly at random; `u`
/// samples `k` of its neighbours uniformly **without replacement** and
/// updates unilaterally:
///
/// `ξ_u(t) = α ξ_u(t−1) + (1−α)/k · Σᵢ ξ_{vᵢ}(t−1)`.
///
/// For `k = 1`, `α = 0` this is the voter model on numeric opinions; for
/// regular graphs and `k = 1` it coincides with the [`EdgeModel`].
///
/// [`EdgeModel`]: crate::EdgeModel
#[derive(Debug, Clone)]
pub struct NodeModel<'g> {
    graph: &'g Graph,
    state: OpinionState,
    params: NodeModelParams,
    /// Scratch buffer holding the current step's neighbour sample
    /// (avoids per-step allocation on the Monte-Carlo hot path).
    sample: Vec<NodeId>,
    /// Scratch permutation buffer for dense sampling.
    perm: Vec<u32>,
    /// Parked sample buffer for `step_recorded_into`: holds the record's
    /// allocation across `Noop` transitions of the lazy variant so the
    /// replay loop stays allocation-free.
    record_spare: Vec<NodeId>,
    time: u64,
}

impl<'g> NodeModel<'g> {
    /// Creates a NodeModel on a connected graph.
    ///
    /// # Errors
    ///
    /// [`CoreError::Disconnected`] if the graph is not connected;
    /// [`CoreError::InvalidSampleSize`] if `k > d_min`;
    /// [`CoreError::LengthMismatch`] / [`CoreError::NonFiniteValue`] from
    /// state validation.
    pub fn new(
        graph: &'g Graph,
        initial_values: Vec<f64>,
        params: NodeModelParams,
    ) -> Result<Self, CoreError> {
        if graph.is_directed() {
            return Err(CoreError::DirectedUnsupported);
        }
        if graph.is_weighted() {
            // The scalar reference path keeps the paper's unweighted
            // arithmetic; weighted runs go through the batched kernels.
            return Err(CoreError::WeightedUnsupported { tier: "scalar" });
        }
        if !graph.is_connected() || graph.n() < 2 {
            return Err(CoreError::Disconnected);
        }
        let d_min = graph.min_degree();
        if params.k() > d_min {
            return Err(CoreError::InvalidSampleSize {
                k: params.k(),
                d_min,
            });
        }
        let state = OpinionState::new(graph, initial_values)?;
        Ok(NodeModel {
            graph,
            state,
            params,
            sample: Vec::with_capacity(params.k()),
            perm: Vec::new(),
            record_spare: Vec::new(),
            time: 0,
        })
    }

    /// The model parameters.
    pub fn params(&self) -> &NodeModelParams {
        &self.params
    }

    /// Samples `k` distinct neighbours of `u` into `self.sample` (shared
    /// with the batched kernel path; see [`crate::sampling`]).
    fn sample_neighbors(&mut self, u: NodeId, rng: &mut dyn RngCore) {
        crate::sampling::sample_k_neighbors(
            self.graph.neighbors(u),
            self.params.k(),
            &mut self.sample,
            &mut self.perm,
            rng,
        );
    }

    /// Applies the averaging update for node `u` with the neighbours
    /// currently in `self.sample`.
    fn apply_update(&mut self, u: NodeId) {
        let mean = unweighted_mean(&self.sample, self.state.values());
        let new = averaging_update(self.params.alpha(), self.state.value(u), mean);
        self.state.set_value(u, new);
    }

    /// One step; returns the selected node, or `None` for a lazy skip.
    /// `self.sample` holds the neighbour sample afterwards.
    fn step_inner(&mut self, rng: &mut dyn RngCore) -> Option<NodeId> {
        self.time += 1;
        if self.params.laziness() == Laziness::Lazy && rng.gen_bool(0.5) {
            self.sample.clear();
            return None;
        }
        let u = rng.gen_range(0..self.graph.n()) as NodeId;
        self.sample_neighbors(u, rng);
        self.apply_update(u);
        Some(u)
    }
}

impl OpinionProcess for NodeModel<'_> {
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
            Some(u) => StepRecord::Node {
                node: u,
                sample: self.sample.clone(),
            },
        }
    }

    fn step_recorded_into(&mut self, rng: &mut dyn RngCore, record: &mut StepRecord) {
        match self.step_inner(rng) {
            None => {
                // Park the record's sample buffer instead of dropping it,
                // so lazy Noop runs don't force a reallocation on the next
                // active step.
                if let StepRecord::Node { sample, .. } = record {
                    self.record_spare = std::mem::take(sample);
                }
                *record = StepRecord::Noop;
            }
            Some(u) => {
                // Reuse the record's (or the parked) sample buffer when the
                // caller hands the previous step's record back — the replay
                // hot path allocates only on the very first active step.
                if let StepRecord::Node { node, sample } = record {
                    *node = u;
                    sample.clear();
                    sample.extend_from_slice(&self.sample);
                } else {
                    let mut sample = std::mem::take(&mut self.record_spare);
                    sample.clear();
                    sample.extend_from_slice(&self.sample);
                    *record = StepRecord::Node { node: u, sample };
                }
            }
        }
    }

    fn apply(&mut self, record: &StepRecord) {
        match record {
            StepRecord::Noop => {
                self.time += 1;
            }
            StepRecord::Node { node, sample } => {
                assert_eq!(
                    sample.len(),
                    self.params.k(),
                    "record sample size {} != k = {}",
                    sample.len(),
                    self.params.k()
                );
                for &v in sample {
                    assert!(
                        self.graph.has_edge(*node, v),
                        "record references non-edge ({node}, {v})"
                    );
                }
                self.sample.clear();
                self.sample.extend_from_slice(sample);
                self.apply_update(*node);
                self.time += 1;
            }
            StepRecord::Edge { .. } => {
                panic!("cannot apply an Edge record to a NodeModel")
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
        let g = generators::cycle(5).unwrap();
        let params = NodeModelParams::new(0.5, 3).unwrap();
        // k = 3 > d_min = 2.
        assert!(matches!(
            NodeModel::new(&g, vec![0.0; 5], params),
            Err(CoreError::InvalidSampleSize { d_min: 2, .. })
        ));

        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let params = NodeModelParams::new(0.5, 1).unwrap();
        assert!(matches!(
            NodeModel::new(&disconnected, vec![0.0; 4], params),
            Err(CoreError::Disconnected)
        ));
    }

    #[test]
    fn single_step_on_path_updates_one_node() {
        let g = generators::path(3).unwrap();
        let params = NodeModelParams::new(0.5, 1).unwrap();
        let mut m = NodeModel::new(&g, vec![0.0, 6.0, 12.0], params).unwrap();
        let mut r = rng(3);
        let record = m.step_recorded(&mut r);
        let StepRecord::Node { node, sample } = &record else {
            panic!("expected node record");
        };
        assert_eq!(sample.len(), 1);
        assert!(g.has_edge(*node, sample[0]));
        // Exactly one coordinate changed, to the α-blend.
        assert_eq!(m.time(), 1);
    }

    #[test]
    fn update_formula_exact() {
        // Deterministic replay: node 1 averages with nodes 0 and 2 on a
        // triangle with α = 0.25, k = 2:
        // new = 0.25*ξ₁ + 0.75 * (ξ₀+ξ₂)/2.
        let g = generators::complete(3).unwrap();
        let params = NodeModelParams::new(0.25, 2).unwrap();
        let mut m = NodeModel::new(&g, vec![4.0, 8.0, 12.0], params).unwrap();
        m.apply(&StepRecord::Node {
            node: 1,
            sample: vec![0, 2],
        });
        let expected = 0.25 * 8.0 + 0.75 * 8.0;
        assert!((m.state().value(1) - expected).abs() < 1e-15);
        assert_eq!(m.state().value(0), 4.0);
        assert_eq!(m.state().value(2), 12.0);
    }

    #[test]
    fn sampling_without_replacement_all_regimes() {
        // Hub of a star has degree 29: exercise k=1, sparse (k=3),
        // dense (k=20), and full (k=29) sampling.
        let g = generators::star(30).unwrap();
        for &k in &[1usize, 3, 20, 29] {
            let params = NodeModelParams::new(0.5, k).unwrap();
            // k > 1 requires d_min >= k, so sample manually at the hub.
            let mut m = NodeModel {
                graph: &g,
                state: OpinionState::new(&g, vec![0.0; 30]).unwrap(),
                params,
                sample: Vec::new(),
                perm: Vec::new(),
                record_spare: Vec::new(),
                time: 0,
            };
            let mut r = rng(k as u64);
            for _ in 0..50 {
                m.sample_neighbors(0, &mut r);
                assert_eq!(m.sample.len(), k);
                let mut sorted = m.sample.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), k, "sample must be distinct (k={k})");
                assert!(sorted.iter().all(|&v| g.has_edge(0, v)));
            }
        }
    }

    #[test]
    fn sampling_is_uniform_for_k1() {
        // Each neighbour of the chosen node should be picked ~uniformly.
        let g = generators::complete(4).unwrap();
        let params = NodeModelParams::new(0.5, 1).unwrap();
        let mut m = NodeModel::new(&g, vec![0.0; 4], params).unwrap();
        let mut r = rng(11);
        let mut counts = [0u32; 4];
        for _ in 0..30_000 {
            m.sample_neighbors(0, &mut r);
            counts[m.sample[0] as usize] += 1;
        }
        for v in 1..4 {
            let frac = counts[v] as f64 / 30_000.0;
            assert!((frac - 1.0 / 3.0).abs() < 0.02, "neighbour {v}: {frac}");
        }
    }

    #[test]
    fn lazy_variant_skips_roughly_half() {
        let g = generators::cycle(6).unwrap();
        let params = NodeModelParams::new(0.5, 1)
            .unwrap()
            .with_laziness(Laziness::Lazy);
        let mut m = NodeModel::new(&g, (0..6).map(f64::from).collect(), params).unwrap();
        let mut r = rng(5);
        let mut noops = 0;
        for _ in 0..10_000 {
            if m.step_recorded(&mut r) == StepRecord::Noop {
                noops += 1;
            }
        }
        let frac = noops as f64 / 10_000.0;
        assert!((frac - 0.5).abs() < 0.03, "noop fraction {frac}");
        assert_eq!(m.time(), 10_000);
    }

    #[test]
    fn step_recorded_into_matches_step_recorded() {
        // The reusing API must produce the same records and trajectory as
        // the allocating one, including across Noop/Node transitions of
        // the lazy variant (which exercise both reuse branches).
        let g = generators::torus(4, 4).unwrap();
        let xi0: Vec<f64> = (0..16).map(|i| f64::from(i) * 0.3).collect();
        let params = NodeModelParams::new(0.4, 2)
            .unwrap()
            .with_laziness(Laziness::Lazy);
        let mut a = NodeModel::new(&g, xi0.clone(), params).unwrap();
        let mut b = NodeModel::new(&g, xi0, params).unwrap();
        let mut rng_a = rng(77);
        let mut rng_b = rng(77);
        let mut record = StepRecord::Noop;
        let mut buf_ptr = None;
        for step in 0..2_000 {
            let expected = a.step_recorded(&mut rng_a);
            b.step_recorded_into(&mut rng_b, &mut record);
            assert_eq!(record, expected, "record diverged at step {step}");
            // The sample buffer must survive Noop/Node transitions: one
            // allocation on the first active step, pointer-stable after.
            if let StepRecord::Node { sample, .. } = &record {
                match buf_ptr {
                    None => buf_ptr = Some(sample.as_ptr()),
                    Some(p) => assert_eq!(
                        sample.as_ptr(),
                        p,
                        "record buffer reallocated at step {step}"
                    ),
                }
            }
        }
        assert_eq!(a.state().values(), b.state().values());
        assert_eq!(a.time(), b.time());
    }

    #[test]
    fn converges_to_consensus() {
        let g = generators::complete(8).unwrap();
        let params = NodeModelParams::new(0.5, 3).unwrap();
        let mut m = NodeModel::new(&g, (0..8).map(f64::from).collect(), params).unwrap();
        let mut r = rng(42);
        for _ in 0..20_000 {
            m.step(&mut r);
        }
        assert!(m.state().discrepancy() < 1e-6);
        // The consensus value is within the initial range (convexity).
        let f = m.state().average();
        assert!((0.0..=7.0).contains(&f));
    }

    #[test]
    fn max_minus_min_never_increases() {
        let g = generators::petersen();
        let params = NodeModelParams::new(0.3, 2).unwrap();
        let mut m =
            NodeModel::new(&g, (0..10).map(|i| f64::from(i * i)).collect(), params).unwrap();
        let mut r = rng(9);
        let mut last = m.state().discrepancy();
        for _ in 0..2_000 {
            m.step(&mut r);
            let now = m.state().discrepancy();
            assert!(
                now <= last + 1e-12,
                "discrepancy increased: {last} -> {now}"
            );
            last = now;
        }
    }

    #[test]
    #[should_panic(expected = "cannot apply an Edge record")]
    fn apply_wrong_record_kind_panics() {
        let g = generators::cycle(4).unwrap();
        let params = NodeModelParams::new(0.5, 1).unwrap();
        let mut m = NodeModel::new(&g, vec![0.0; 4], params).unwrap();
        m.apply(&StepRecord::Edge { tail: 0, head: 1 });
    }

    #[test]
    #[should_panic(expected = "non-edge")]
    fn apply_non_edge_panics() {
        let g = generators::path(4).unwrap();
        let params = NodeModelParams::new(0.5, 1).unwrap();
        let mut m = NodeModel::new(&g, vec![0.0; 4], params).unwrap();
        m.apply(&StepRecord::Node {
            node: 0,
            sample: vec![3],
        });
    }

    use od_graph::Graph;
}
