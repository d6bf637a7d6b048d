//! Property-based tests over randomly generated graphs.

use od_graph::{generators, metrics, traversal, Graph, GraphBuilder, GraphError, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// A weighted arc; plain shapes drop the weight.
type Arc = (NodeId, NodeId, f64);

/// Builds `arcs` on `n` nodes through the constructor of one shape.
fn build(n: usize, arcs: &[Arc], directed: bool, weighted: bool) -> Result<Graph, GraphError> {
    let ends: Vec<(NodeId, NodeId)> = arcs.iter().map(|&(u, v, _)| (u, v)).collect();
    match (directed, weighted) {
        (false, false) => Graph::from_edges(n, &ends),
        (false, true) => Graph::from_weighted_edges(n, arcs),
        (true, false) => Graph::from_directed_edges(n, &ends),
        (true, true) => Graph::from_directed_weighted_edges(n, arcs),
    }
}

/// The naive reference: each node's row as a `BTreeMap` from head to the
/// weights given for it, with the documented fault order — per-arc
/// endpoint, self-loop and weight checks in list order, then the first
/// row (and its smallest head) given twice, then the first all-zero row.
fn reference_rows(
    n: usize,
    arcs: &[Arc],
    directed: bool,
    weighted: bool,
) -> Result<Vec<BTreeMap<NodeId, f64>>, GraphError> {
    for &(u, v, w) in arcs {
        for end in [u, v] {
            if end as usize >= n {
                return Err(GraphError::InvalidNode {
                    node: end as u64,
                    n,
                });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u as u64 });
        }
        if weighted && !(w.is_finite() && w >= 0.0) {
            return Err(GraphError::InvalidWeight {
                u: u as u64,
                v: v as u64,
            });
        }
    }
    let mut given: Vec<BTreeMap<NodeId, Vec<f64>>> = vec![BTreeMap::new(); n];
    for &(u, v, w) in arcs {
        given[u as usize].entry(v).or_default().push(w);
        if !directed {
            given[v as usize].entry(u).or_default().push(w);
        }
    }
    for (u, row) in given.iter().enumerate() {
        if let Some((&v, _)) = row.iter().find(|(_, ws)| ws.len() > 1) {
            return Err(GraphError::DuplicateEdge {
                u: u as u64,
                v: v as u64,
            });
        }
    }
    let rows: Vec<BTreeMap<NodeId, f64>> = given
        .into_iter()
        .map(|row| row.into_iter().map(|(v, ws)| (v, ws[0])).collect())
        .collect();
    if weighted {
        let zero = rows
            .iter()
            .position(|row| !row.is_empty() && row.values().all(|&w| w == 0.0));
        if let Some(u) = zero {
            return Err(GraphError::ZeroWeightRow { node: u as u64 });
        }
    }
    Ok(rows)
}

/// A valid arc list on `n` nodes in random order: each pair (each arc,
/// when `directed`) with probability `density`, undirected edges in a
/// random orientation, weights in `[0.25, 4)` with some exact zeros.
fn random_arcs(rng: &mut StdRng, n: usize, directed: bool, density: f64) -> Vec<Arc> {
    let mut arcs = Vec::new();
    for u in 0..n as NodeId {
        for v in 0..n as NodeId {
            if u == v || (!directed && u > v) || !rng.gen_bool(density) {
                continue;
            }
            let (a, b) = if !directed && rng.gen_bool(0.5) {
                (v, u)
            } else {
                (u, v)
            };
            let w = if rng.gen_bool(0.1) {
                0.0
            } else {
                rng.gen_range(0.25..4.0)
            };
            arcs.push((a, b, w));
        }
    }
    shuffle(rng, &mut arcs);
    arcs
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Injects one fault into `arcs` on `n` nodes: 0 an out-of-range
/// endpoint, 1 a self loop, 2 a repeated arc (an undirected edge maybe
/// reversed), 3 a non-finite or negative weight, 4 an all-zero row.
/// Faults 2–4 need an arc to act on and do nothing without one.
fn inject(rng: &mut StdRng, arcs: &mut Vec<Arc>, n: usize, directed: bool, fault: usize) {
    let at = rng.gen_range(0..=arcs.len());
    let node = rng.gen_range(0..n as NodeId);
    let picked = (!arcs.is_empty()).then(|| rng.gen_range(0..arcs.len()));
    match (fault, picked) {
        (0, _) => {
            let far = n as NodeId + rng.gen_range(0..3u32);
            let arc = if rng.gen_bool(0.5) {
                (node, far, 1.0)
            } else {
                (far, node, 1.0)
            };
            arcs.insert(at, arc);
        }
        (1, _) => arcs.insert(at, (node, node, 1.0)),
        (2, Some(i)) => {
            let (u, v, w) = arcs[i];
            let copy = if !directed && rng.gen_bool(0.5) {
                (v, u, w)
            } else {
                (u, v, w)
            };
            arcs.insert(at, copy);
        }
        (3, Some(i)) => {
            arcs[i].2 =
                [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0][rng.gen_range(0..4usize)];
        }
        (4, Some(i)) => {
            let row = arcs[i].0;
            for arc in arcs.iter_mut() {
                if arc.0 == row || (!directed && arc.1 == row) {
                    arc.2 = 0.0;
                }
            }
        }
        _ => {}
    }
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every arc-list shape (un/directed × un/weighted) builds the rows of
    /// the naive `BTreeMap` reference, weights and row sums bitwise, and
    /// a reordered list (edges reversed at random where undirected) gives
    /// an `==` graph.
    #[test]
    fn arc_lists_build_their_reference_rows(
        seed in 0u64..1_000_000,
        n in 1usize..12,
        shape in 0usize..4,
        density in 0.05f64..0.8,
    ) {
        let (directed, weighted) = (shape >= 2, shape % 2 == 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let arcs = random_arcs(&mut rng, n, directed, density);
        let (built, reference) = (
            build(n, &arcs, directed, weighted),
            reference_rows(n, &arcs, directed, weighted),
        );
        let rows = match reference {
            Ok(rows) => rows,
            // Random zero weights can leave a weighted row all zero.
            Err(e) => {
                prop_assert_eq!(built.err(), Some(e));
                return Ok(());
            }
        };
        let g = built.unwrap();
        prop_assert_eq!((g.n(), g.is_directed(), g.is_weighted()), (n, directed, weighted));
        g.check_invariants().unwrap();
        for (u, row) in rows.iter().enumerate() {
            let u = u as NodeId;
            let heads: Vec<NodeId> = row.keys().copied().collect();
            prop_assert_eq!(g.neighbors(u), &heads[..]);
            let bits: Vec<u64> = row.values().map(|w| w.to_bits()).collect();
            let sum: f64 = row.values().sum();
            let max = row.values().copied().fold(0.0f64, f64::max);
            if weighted {
                let got: Vec<u64> = g.row_weights(u).unwrap().iter().map(|w| w.to_bits()).collect();
                prop_assert_eq!(got, bits);
                prop_assert_eq!(g.row_weight_sum(u).to_bits(), sum.to_bits());
                prop_assert_eq!(g.row_weight_max(u).to_bits(), max.to_bits());
            } else {
                prop_assert_eq!(g.row_weights(u), None);
            }
        }
        let mut reordered = arcs.clone();
        shuffle(&mut rng, &mut reordered);
        if !directed {
            for arc in reordered.iter_mut() {
                if rng.gen_bool(0.5) {
                    *arc = (arc.1, arc.0, arc.2);
                }
            }
        }
        prop_assert!(build(n, &reordered, directed, weighted).unwrap() == g);
    }

    /// With one or two injected faults every shape returns exactly the
    /// reference's error: the same variant, naming the same arc, row or
    /// node.
    #[test]
    fn faulty_arc_lists_report_the_reference_error(
        seed in 0u64..1_000_000,
        n in 2usize..10,
        shape in 0usize..4,
        first in 0usize..5,
        second in 0usize..6,
    ) {
        let (directed, weighted) = (shape >= 2, shape % 2 == 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arcs = random_arcs(&mut rng, n, directed, 0.4);
        inject(&mut rng, &mut arcs, n, directed, first);
        inject(&mut rng, &mut arcs, n, directed, second);
        let built = build(n, &arcs, directed, weighted).err();
        let reference = reference_rows(n, &arcs, directed, weighted).err();
        prop_assert_eq!(&built, &reference, "{built:?} != {reference:?} for {arcs:?}");
    }
}
