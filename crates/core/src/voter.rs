use crate::error::CoreError;
use od_graph::{Graph, NodeId};
use rand::{Rng, RngCore};

/// The classical (pull) voter model — the discrete ancestor of the
/// NodeModel (`k = 1`, `α = 0`, opinions from a finite set).
///
/// At each step a node chosen uniformly at random adopts the opinion of a
/// uniformly random neighbour. The paper (§2, §3) contrasts the NodeModel's
/// `O(n log(n‖ξ‖²/ε)/(1−λ₂))` ε-convergence against the voter model's
/// `O(n/(1−λ₂))` expected consensus time, a `Ω(n/log n)` separation; the
/// CMP-VOTER experiment measures exactly that.
#[derive(Debug, Clone)]
pub struct VoterModel<'g> {
    graph: &'g Graph,
    opinions: Vec<u32>,
    /// `counts[op]` = number of nodes currently holding opinion `op`.
    counts: Vec<u64>,
    /// Number of opinions with a non-zero count.
    live_opinions: usize,
    time: u64,
}

/// Outcome of a voter-model run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VoterReport {
    /// Steps taken **by this run** until consensus (or the per-call step
    /// budget if not reached).
    pub steps: u64,
    /// The winning opinion if consensus was reached.
    pub winner: Option<u32>,
    /// Elementary topology mutations a churned batch topology
    /// ([`crate::Topology`]) had applied when this replica stopped; 0 on
    /// a static graph.
    pub mutations: u64,
}

impl<'g> VoterModel<'g> {
    /// Creates a voter model with the given initial opinions (arbitrary
    /// `u32` labels).
    ///
    /// # Errors
    ///
    /// [`CoreError::Disconnected`] or [`CoreError::LengthMismatch`].
    // Invariant-backed: the `expect` messages state why each cannot fire.
    #[allow(clippy::expect_used)]
    pub fn new(graph: &'g Graph, opinions: Vec<u32>) -> Result<Self, CoreError> {
        if graph.is_directed() {
            return Err(CoreError::DirectedUnsupported);
        }
        if graph.is_weighted() {
            // The voter duality results live on uniform edge sampling;
            // weight-proportional adoption is a different process.
            return Err(CoreError::WeightedUnsupported { tier: "voter" });
        }
        if !graph.is_connected() || graph.n() < 2 {
            return Err(CoreError::Disconnected);
        }
        if opinions.len() != graph.n() {
            return Err(CoreError::LengthMismatch {
                values: opinions.len(),
                nodes: graph.n(),
            });
        }
        let max_op = *opinions.iter().max().expect("non-empty") as usize;
        let mut counts = vec![0u64; max_op + 1];
        for &op in &opinions {
            counts[op as usize] += 1;
        }
        let live_opinions = counts.iter().filter(|&&c| c > 0).count();
        Ok(VoterModel {
            graph,
            opinions,
            counts,
            live_opinions,
            time: 0,
        })
    }

    /// Current opinions.
    pub fn opinions(&self) -> &[u32] {
        &self.opinions
    }

    /// Steps taken.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Whether all nodes share one opinion.
    pub fn is_consensus(&self) -> bool {
        self.live_opinions <= 1
    }

    /// The consensus opinion, if reached.
    // Invariant-backed: the `expect` messages state why each cannot fire.
    #[allow(clippy::expect_used)]
    pub fn consensus_opinion(&self) -> Option<u32> {
        self.is_consensus().then(|| {
            self.counts
                .iter()
                .position(|&c| c > 0)
                .expect("some opinion is live") as u32
        })
    }

    /// One voter step: uniform node adopts a uniform neighbour's opinion.
    pub fn step(&mut self, rng: &mut dyn RngCore) {
        self.time += 1;
        let u = rng.gen_range(0..self.graph.n()) as NodeId;
        let neighbors = self.graph.neighbors(u);
        let v = neighbors[rng.gen_range(0..neighbors.len())];
        let old = self.opinions[u as usize];
        let new = self.opinions[v as usize];
        if old != new {
            self.opinions[u as usize] = new;
            self.counts[old as usize] -= 1;
            if self.counts[old as usize] == 0 {
                self.live_opinions -= 1;
            }
            if self.counts[new as usize] == 0 {
                self.live_opinions += 1; // cannot happen (v holds it), kept for clarity
            }
            self.counts[new as usize] += 1;
        }
    }

    /// Runs until consensus or `max_steps` further steps. Like the
    /// averaging drivers, `max_steps` is a **per-call budget**: a model
    /// that already took steps gets the full budget, and the report counts
    /// only this call's steps.
    pub fn run_to_consensus(&mut self, rng: &mut dyn RngCore, max_steps: u64) -> VoterReport {
        let mut taken = 0u64;
        while !self.is_consensus() && taken < max_steps {
            self.step(rng);
            taken += 1;
        }
        VoterReport {
            steps: taken,
            winner: self.consensus_opinion(),
            mutations: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validation() {
        let g = generators::cycle(4).unwrap();
        assert!(VoterModel::new(&g, vec![0, 1, 0]).is_err());
        let disconnected = od_graph::Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(VoterModel::new(&disconnected, vec![0; 4]).is_err());
    }

    #[test]
    fn already_consensus() {
        let g = generators::cycle(4).unwrap();
        let mut v = VoterModel::new(&g, vec![7; 4]).unwrap();
        assert!(v.is_consensus());
        assert_eq!(v.consensus_opinion(), Some(7));
        let mut r = StdRng::seed_from_u64(0);
        let report = v.run_to_consensus(&mut r, 1000);
        assert_eq!(report.steps, 0);
        assert_eq!(report.winner, Some(7));
    }

    #[test]
    fn reaches_consensus_on_complete_graph() {
        let g = generators::complete(8).unwrap();
        let opinions: Vec<u32> = (0..8).collect();
        let mut v = VoterModel::new(&g, opinions).unwrap();
        let mut r = StdRng::seed_from_u64(123);
        let report = v.run_to_consensus(&mut r, 1_000_000);
        assert!(report.winner.is_some(), "should reach consensus");
        assert!(v.is_consensus());
        let w = report.winner.unwrap();
        assert!(v.opinions().iter().all(|&o| o == w));
    }

    #[test]
    fn step_preserves_opinion_multiset_support() {
        // Opinions can die but never appear from nowhere.
        let g = generators::cycle(6).unwrap();
        let mut v = VoterModel::new(&g, vec![0, 0, 1, 1, 2, 2]).unwrap();
        let mut r = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            v.step(&mut r);
            for &op in v.opinions() {
                assert!(op <= 2);
            }
            let total: u64 = v.counts.iter().sum();
            assert_eq!(total, 6);
        }
    }

    #[test]
    fn budget_exhaustion_reports_no_winner() {
        let g = generators::cycle(50).unwrap();
        let opinions: Vec<u32> = (0..50).collect();
        let mut v = VoterModel::new(&g, opinions).unwrap();
        let mut r = StdRng::seed_from_u64(9);
        let report = v.run_to_consensus(&mut r, 10);
        assert_eq!(report.steps, 10);
        assert_eq!(report.winner, None);
    }

    #[test]
    fn consensus_budget_is_per_call() {
        // Regression: the budget used to be compared against lifetime
        // time(), so a pre-stepped model got a truncated budget and the
        // report counted lifetime steps.
        let g = generators::cycle(50).unwrap();
        let opinions: Vec<u32> = (0..50).collect();
        let mut v = VoterModel::new(&g, opinions).unwrap();
        let mut r = StdRng::seed_from_u64(10);
        for _ in 0..25 {
            v.step(&mut r);
        }
        let report = v.run_to_consensus(&mut r, 10);
        assert_eq!(report.steps, 10, "budget must be per-call");
        assert_eq!(v.time(), 35, "the call must actually take 10 steps");
    }
}
