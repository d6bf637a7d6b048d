//! Property-based tests over randomly generated graphs.

use od_graph::{generators, metrics, traversal, Graph, GraphBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Handshake lemma: degree sum equals 2m for arbitrary valid graphs.
    #[test]
    fn degree_sum_is_twice_edges(seed in 0u64..10_000, n in 4usize..40, p in 0.1f64..0.9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let Ok(g) = generators::gnp_connected(n, p, &mut rng) else {
            return Ok(()); // sub-threshold p may exhaust retries: skip
        };
        let degree_sum: usize = g.nodes().map(|u| g.degree(u)).sum();
        prop_assert_eq!(degree_sum, 2 * g.m());
        prop_assert_eq!(g.directed_edge_count(), 2 * g.m());
    }

    /// Every directed-edge index resolves to a real edge, and adjacency is
    /// symmetric.
    #[test]
    fn adjacency_is_symmetric(seed in 0u64..10_000, n in 4usize..30) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::gnm_connected(n, n + n / 2, &mut rng).unwrap();
        for e in 0..g.directed_edge_count() {
            let de = g.directed_edge(e);
            prop_assert!(g.has_edge(de.tail, de.head));
            prop_assert!(g.has_edge(de.head, de.tail));
        }
    }

    /// BFS distances satisfy the triangle inequality along edges.
    #[test]
    fn bfs_distances_are_1_lipschitz_on_edges(seed in 0u64..10_000, n in 6usize..30) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::gnm_connected(n, 2 * n, &mut rng).unwrap();
        let dist = traversal::bfs_distances(&g, 0);
        for (u, v) in g.edges() {
            let du = dist[u as usize] as i64;
            let dv = dist[v as usize] as i64;
            prop_assert!((du - dv).abs() <= 1, "edge ({u},{v}): {du} vs {dv}");
        }
    }

    /// The random-regular generator really is d-regular and connected.
    #[test]
    fn random_regular_invariants(seed in 0u64..10_000, half_n in 5usize..15, d in 3usize..6) {
        let n = 2 * half_n; // even so n*d is even for all d
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_regular(n, d, &mut rng).unwrap();
        prop_assert_eq!(g.regular_degree(), Some(d));
        prop_assert!(g.is_connected());
    }

    /// The four resampling generators record the connectivity their retry
    /// loop measured; the recorded answer matches a raw BFS.
    #[test]
    fn resampling_generators_record_true_connectivity(
        seed in 0u64..10_000,
        half_n in 4usize..20,
        family in 0usize..4,
    ) {
        let n = 2 * half_n;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = match family {
            0 => generators::gnp_connected(n, 0.3, &mut rng),
            1 => generators::gnm_connected(n, 2 * n, &mut rng),
            2 => generators::random_regular(n, 3, &mut rng),
            _ => generators::watts_strogatz(n, 2, 0.3, &mut rng),
        };
        let Ok(g) = g else {
            return Ok(()); // sub-threshold samples may exhaust retries: skip
        };
        prop_assert_eq!(g.is_connected(), traversal::is_connected(&g));
        prop_assert!(g.clone().is_connected());
        prop_assert!(g.check_invariants().is_ok());
    }

    /// The builder deduplicates arbitrary edge streams into a simple graph.
    #[test]
    fn builder_yields_simple_graph(edges in prop::collection::vec((0u32..12, 0u32..12), 0..80)) {
        let mut b = GraphBuilder::new(12);
        for (u, v) in edges {
            if u != v {
                b.add_edge(u, v).unwrap();
            }
        }
        let g = b.build();
        // No duplicates survived: neighbour lists are strictly increasing.
        for u in g.nodes() {
            let ns = g.neighbors(u);
            for w in ns.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            prop_assert!(!ns.contains(&u), "self loop at {u}");
        }
    }

    /// Stationary distribution is a probability vector proportional to
    /// degrees.
    #[test]
    fn stationary_distribution_properties(seed in 0u64..10_000, n in 6usize..30) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::gnm_connected(n, 2 * n, &mut rng).unwrap();
        let pi = g.stationary_distribution();
        let total: f64 = pi.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-12);
        for u in g.nodes() {
            let expect = g.degree(u) as f64 / (2 * g.m()) as f64;
            prop_assert!((pi[u as usize] - expect).abs() < 1e-15);
        }
    }

    /// Exhaustive isoperimetric number is monotone under edge addition
    /// (more edges can only increase the minimum boundary ratio) — checked
    /// by comparing a graph against itself plus one extra edge.
    #[test]
    fn isoperimetric_monotone_under_edge_addition(seed in 0u64..5_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::gnm_connected(8, 10, &mut rng).unwrap();
        let before = metrics::isoperimetric_number_exact(&g).unwrap();
        // Find a non-edge to add.
        let mut extra = None;
        'outer: for u in 0..8u32 {
            for v in (u + 1)..8 {
                if !g.has_edge(u, v) {
                    extra = Some((u, v));
                    break 'outer;
                }
            }
        }
        if let Some((u, v)) = extra {
            let mut edges: Vec<(u32, u32)> = g.edges().collect();
            edges.push((u, v));
            let g2 = Graph::from_edges(8, &edges).unwrap();
            let after = metrics::isoperimetric_number_exact(&g2).unwrap();
            prop_assert!(after >= before - 1e-12, "{after} < {before}");
        }
    }
}
