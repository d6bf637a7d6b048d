//! Property suite for the dynamic-graph layer: across random instances
//! from **all 17** `od-graph` generator families,
//!
//! * the committed CSR stays well-formed after arbitrary churn — sorted
//!   offsets and rows, in-bounds targets, no self loops or duplicates,
//!   symmetric adjacency, and memoised tails and minimum degree that
//!   match the offsets (everything `Graph::check_invariants` pins);
//! * edge-swap churn preserves the degree sequence *exactly* (and so
//!   never triggers a CSR rebuild — commits stay on the in-place patch
//!   path);
//! * rewiring churn preserves the edge count and respects its degree
//!   floor;
//! * the logical edge view and the committed CSR always agree after a
//!   commit.
//!
//! The graph-instance strategy mirrors `tests/kernel_prop.rs` so every
//! generator family is exercised.

use opinion_dynamics::graph::{generators, ChurnModel, CommitOutcome, DynamicGraph, Graph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Number of graph families covered; kept in sync with [`build_graph`].
const FAMILIES: usize = 17;

/// Builds an instance of family `family` (same mapping as
/// `tests/kernel_prop.rs`). Every returned graph is connected, `n >= 2`.
fn build_graph(family: usize, size: usize, graph_seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(graph_seed);
    match family {
        0 => generators::cycle(size).unwrap(),
        1 => generators::path(size).unwrap(),
        2 => generators::complete(size).unwrap(),
        3 => generators::star(size).unwrap(),
        4 => generators::complete_bipartite(size / 2, size / 2 + 1).unwrap(),
        5 => generators::grid2d(size / 2, 3, false).unwrap(),
        6 => generators::torus(3 + size % 3, 3 + size / 8).unwrap(),
        7 => generators::hypercube(2 + size % 4).unwrap(),
        8 => generators::binary_tree(2 + size % 3).unwrap(),
        9 => generators::petersen(),
        10 => generators::barbell(3 + size / 4).unwrap(),
        11 => generators::lollipop(3 + size / 4, 1 + size / 3).unwrap(),
        12 => generators::gnp_connected(size, 0.5, &mut rng).unwrap(),
        13 => {
            let m = (size + 3).min(size * (size - 1) / 2);
            generators::gnm_connected(size, m, &mut rng).unwrap()
        }
        14 => {
            let n = size + size % 2; // n*d even
            generators::random_regular(n.max(6), 4, &mut rng).unwrap()
        }
        15 => generators::watts_strogatz(size.max(6), 2, 0.2, &mut rng).unwrap(),
        16 => generators::barabasi_albert(size, 2, &mut rng).unwrap(),
        _ => unreachable!("family index out of range"),
    }
}

/// The logical edge view and the committed CSR must describe the same
/// graph.
fn assert_csr_matches_logical(dg: &DynamicGraph) -> Result<(), TestCaseError> {
    prop_assert!(!dg.is_dirty(), "commit left staged mutations behind");
    prop_assert_eq!(dg.graph().m(), dg.m(), "edge count diverged");
    for &(u, v) in dg.edges() {
        prop_assert!(
            dg.graph().has_edge(u, v),
            "logical edge ({}, {}) missing from CSR",
            u,
            v
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(102))]

    /// Edge-swap churn: CSR well-formed, degree sequence preserved
    /// exactly, and every commit takes the in-place patch path (never a
    /// rebuild) — on every generator family.
    #[test]
    fn edge_swap_churn_preserves_degrees_on_every_generator(
        family in 0usize..FAMILIES,
        size in 4usize..24,
        graph_seed in 0u64..1000,
        churn_seed in 0u64..u64::MAX,
        swaps in 1usize..12,
        epochs in 1u64..8,
    ) {
        let g = build_graph(family, size, graph_seed);
        let degrees = g.degree_sequence();
        let mut dg = DynamicGraph::new(g);
        let churn = ChurnModel::edge_swap(swaps);
        let mut rng = StdRng::seed_from_u64(churn_seed);
        for epoch in 0..epochs {
            churn.apply(&mut dg, epoch, &mut rng).unwrap();
            let outcome = dg.commit();
            prop_assert!(
                outcome != CommitOutcome::Rebuilt,
                "degree-preserving churn forced a rebuild"
            );
            if let Err(e) = dg.graph().check_invariants() {
                return Err(TestCaseError::fail(format!("epoch {epoch}: {e}")));
            }
            prop_assert_eq!(&dg.graph().degree_sequence(), &degrees);
            assert_csr_matches_logical(&dg)?;
        }
        prop_assert_eq!(dg.rebuilds(), 0);
    }

    /// Rewiring churn: CSR well-formed, edge count preserved, degree
    /// floor respected — on every generator family. (Floor 1 is always
    /// feasible: every family is connected with `d_min >= 1`.)
    ///
    /// Rewires change degrees, so every mutating commit must take the
    /// **shifted-patch** route (never a full rebuild), and the shifted
    /// CSR must equal a from-scratch construction of the logical edge
    /// list exactly — offsets and sorted rows are determined by the edge
    /// set, so `Graph` equality is the full oracle for the adjacency.
    /// `==` ignores the memos, so the tails (built every epoch, and so
    /// carried forward by the next shift) are compared on their own.
    #[test]
    fn rewire_churn_respects_floor_on_every_generator(
        family in 0usize..FAMILIES,
        size in 4usize..24,
        graph_seed in 0u64..1000,
        churn_seed in 0u64..u64::MAX,
        rewires in 1usize..12,
        epochs in 1u64..8,
    ) {
        let g = build_graph(family, size, graph_seed);
        let m = g.m();
        let mut dg = DynamicGraph::new(g);
        let churn = ChurnModel::rewire(rewires, 1);
        let mut rng = StdRng::seed_from_u64(churn_seed);
        for epoch in 0..epochs {
            let applied = churn.apply(&mut dg, epoch, &mut rng).unwrap();
            let outcome = dg.commit();
            if applied > 0 {
                // Several rewires can net out to a degree-preserving
                // delta (in-place patch) or cancel entirely (unchanged);
                // a genuinely degree-changing delta takes the shifted
                // patch. Edge deltas must never force the full rebuild.
                prop_assert!(
                    outcome != CommitOutcome::Rebuilt,
                    "degree-changing edge delta forced a full rebuild"
                );
            }
            if let Err(e) = dg.graph().check_invariants() {
                return Err(TestCaseError::fail(format!("epoch {epoch}: {e}")));
            }
            prop_assert_eq!(dg.graph().m(), m, "rewiring changed the edge count");
            prop_assert!(dg.graph().min_degree() >= 1, "degree floor violated");
            let reference = Graph::from_edges(dg.n(), dg.edges()).unwrap();
            prop_assert_eq!(
                dg.graph(),
                &reference,
                "shifted CSR diverged from a from-scratch rebuild"
            );
            prop_assert_eq!(dg.graph().tails(), reference.tails());
            assert_csr_matches_logical(&dg)?;
        }
        prop_assert_eq!(dg.rebuilds(), 0, "rewiring must never force a full rebuild");
    }

    /// G(n,p) resampling: CSR well-formed and degree floor met after
    /// every resample, for any p.
    ///
    /// `set_edges` diffs the replacement against the committed CSR, so
    /// the commit route depends on how much of the sample survives —
    /// whatever route is taken, the committed CSR must equal a
    /// from-scratch construction of the resampled edge list exactly.
    #[test]
    fn gnp_resample_well_formed_on_every_generator(
        family in 0usize..FAMILIES,
        size in 4usize..24,
        graph_seed in 0u64..1000,
        churn_seed in 0u64..u64::MAX,
        p in 0.0f64..1.0,
        epochs in 1u64..5,
    ) {
        let g = build_graph(family, size, graph_seed);
        let mut dg = DynamicGraph::new(g);
        let churn = ChurnModel::gnp_resample(p, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(churn_seed);
        for epoch in 0..epochs {
            churn.apply(&mut dg, epoch, &mut rng).unwrap();
            dg.commit();
            if let Err(e) = dg.graph().check_invariants() {
                return Err(TestCaseError::fail(format!("epoch {epoch}: {e}")));
            }
            prop_assert!(dg.graph().min_degree() >= 2, "degree floor violated");
            let reference = Graph::from_edges(dg.n(), dg.edges()).unwrap();
            prop_assert_eq!(
                dg.graph(),
                &reference,
                "set_edges diff diverged from a from-scratch rebuild"
            );
            prop_assert_eq!(dg.graph().tails(), reference.tails());
            assert_csr_matches_logical(&dg)?;
        }
    }

    /// Mixed churn: interleaving swap epochs (patch path) and rewire
    /// epochs (shift path) never corrupts the CSR — the overlay and the
    /// double buffer compose.
    #[test]
    fn interleaved_patch_and_rebuild_commits_stay_consistent(
        family in 0usize..FAMILIES,
        size in 4usize..24,
        graph_seed in 0u64..1000,
        churn_seed in 0u64..u64::MAX,
        epochs in 2u64..10,
    ) {
        let g = build_graph(family, size, graph_seed);
        let mut dg = DynamicGraph::new(g);
        let swap = ChurnModel::edge_swap(4);
        let rewire = ChurnModel::rewire(4, 1);
        let mut rng = StdRng::seed_from_u64(churn_seed);
        for epoch in 0..epochs {
            // Built memos must survive the in-place patch, and the shift
            // must reset them or carry the tails forward correctly;
            // `check_invariants` verifies whatever is built.
            dg.graph().tails();
            dg.graph().min_degree();
            let model = if epoch % 2 == 0 { &swap } else { &rewire };
            model.apply(&mut dg, epoch, &mut rng).unwrap();
            dg.commit();
            if let Err(e) = dg.graph().check_invariants() {
                return Err(TestCaseError::fail(format!("epoch {epoch}: {e}")));
            }
            assert_csr_matches_logical(&dg)?;
        }
    }
}

#[test]
fn every_family_index_builds_a_connected_graph() {
    // The proptests draw `family in 0..FAMILIES`; make sure no index
    // panics or yields something churn could not legally mutate.
    for family in 0..FAMILIES {
        for size in [4usize, 11, 23] {
            let g = build_graph(family, size, 7);
            assert!(
                g.is_connected() && g.n() >= 2 && g.min_degree() >= 1,
                "family {family} size {size} built an invalid graph"
            );
            g.check_invariants().unwrap();
        }
    }
}

#[test]
fn check_invariants_rejects_malformed_graphs() {
    // `check_invariants` is the oracle every property above leans on, so
    // prove it can actually fail: hand-build graphs violating each class
    // of invariant through the public constructor's error paths.
    assert!(Graph::from_edges(3, &[(0, 0)]).is_err());
    assert!(Graph::from_edges(3, &[(0, 5)]).is_err());
    assert!(Graph::from_edges(3, &[(0, 1), (1, 0)]).is_err());
    // And a valid graph passes.
    generators::petersen().check_invariants().unwrap();
}
