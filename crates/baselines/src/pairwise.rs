use od_graph::{Graph, NodeId};
use rand::{Rng, RngCore};

/// Coordinated pairwise averaging gossip (Boyd, Ghosh, Prabhakar, Shah
/// 2006).
///
/// At each step a uniform random edge `{u, v}` is activated and **both**
/// endpoints move to their midpoint: `ξ_u, ξ_v ← (ξ_u + ξ_v)/2`. The
/// update matrix is doubly stochastic, so `Avg(t)` is invariant — the
/// process converges to the exact initial average with zero variance, at
/// the cost of requiring coordinated simultaneous updates (the paper's
/// §1 contrast with its unilateral models).
#[derive(Debug, Clone)]
pub struct PairwiseGossip<'g> {
    graph: &'g Graph,
    /// The graph's slot owners, read once here rather than per step.
    tails: &'g [NodeId],
    values: Vec<f64>,
    time: u64,
}

impl<'g> PairwiseGossip<'g> {
    /// Creates the process.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected/too small or the value count
    /// mismatches.
    pub fn new(graph: &'g Graph, values: Vec<f64>) -> Self {
        assert!(
            graph.is_connected() && graph.n() >= 2,
            "graph must be connected"
        );
        assert_eq!(values.len(), graph.n(), "one value per node");
        PairwiseGossip {
            graph,
            tails: graph.tails(),
            values,
            time: 0,
        }
    }

    /// Current values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Steps taken.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Current average (invariant across steps).
    pub fn average(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Discrepancy `max − min`.
    pub fn discrepancy(&self) -> f64 {
        od_linalg::vector::discrepancy(&self.values)
    }

    /// One gossip step: activate a uniform edge, both endpoints average.
    pub fn step(&mut self, rng: &mut dyn RngCore) {
        self.time += 1;
        let e = rng.gen_range(0..self.graph.directed_edge_count());
        let (tail, head) = (self.tails[e] as usize, self.graph.heads()[e] as usize);
        let mid = 0.5 * (self.values[tail] + self.values[head]);
        self.values[tail] = mid;
        self.values[head] = mid;
    }

    /// Runs until the discrepancy falls below `tol` or `max_steps`.
    /// Returns the number of steps taken.
    pub fn run(&mut self, rng: &mut dyn RngCore, tol: f64, max_steps: u64) -> u64 {
        while self.discrepancy() > tol && self.time < max_steps {
            self.step(rng);
        }
        self.time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn average_is_exactly_invariant() {
        let g = generators::petersen();
        let mut p = PairwiseGossip::new(&g, (0..10).map(f64::from).collect());
        let avg0 = p.average();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            p.step(&mut rng);
            assert!((p.average() - avg0).abs() < 1e-10);
        }
    }

    #[test]
    fn converges_to_exact_average() {
        let g = generators::cycle(12).unwrap();
        let xi0: Vec<f64> = (0..12).map(f64::from).collect();
        let avg0 = 5.5;
        let mut p = PairwiseGossip::new(&g, xi0);
        let mut rng = StdRng::seed_from_u64(2);
        p.run(&mut rng, 1e-9, 10_000_000);
        for &v in p.values() {
            assert!((v - avg0).abs() < 1e-8, "value {v} != {avg0}");
        }
    }

    #[test]
    fn discrepancy_never_increases() {
        let g = generators::complete(6).unwrap();
        let mut p = PairwiseGossip::new(&g, vec![0.0, 10.0, -5.0, 3.0, 7.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut last = p.discrepancy();
        for _ in 0..1000 {
            p.step(&mut rng);
            let now = p.discrepancy();
            assert!(now <= last + 1e-12);
            last = now;
        }
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn rejects_disconnected() {
        let g = od_graph::Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        PairwiseGossip::new(&g, vec![0.0; 4]);
    }
}
