//! Graph families used throughout the experiments.
//!
//! Deterministic families (cycle, torus, hypercube, clique, …) have known
//! spectra, which lets the convergence experiments compare measured times
//! against exact `1 − λ₂(P)` and `λ₂(L)`. Random families (G(n,p), random
//! d-regular, …) exercise the "arbitrary graph" side of Theorems 2.2/2.4.
//!
//! All generators return *connected* graphs or an error; randomized ones
//! retry a bounded number of times. Every returned graph arrives with its
//! connectivity memo filled (see [`Graph::is_connected`]): the families
//! that are connected by construction record it, the resampling families
//! keep the answer of their retry loop's BFS.
//!
//! The lattices ([`grid2d`], [`torus`], [`hypercube`]) write their CSR
//! rows directly, through one row builder that sizes the arrays with
//! checked arithmetic, takes the arrays a dropped graph left (see
//! [`Graph`]) or reserves fresh ones fallibly, then fills and checks the
//! rows in contiguous chunks. [`grid2d_threads`] and
//! [`hypercube_threads`] spend a thread budget on those chunks, inline
//! below [`crate::MIN_SPLIT_WORK`] arcs; the plain spellings are their
//! one-thread form. The graph is the same whatever the budget and
//! whatever the recycled arrays held. The other families build on the
//! calling thread from an edge list that is sized with checked
//! arithmetic and reserved fallibly too, so an oversized family is a
//! [`GraphError::InvalidParameter`], not an allocation abort.

use crate::builder::GraphBuilder;
use crate::csr::{check_node_count, CsrPool, Graph, NodeId, CSR_POOL};
use crate::error::GraphError;
use rand::Rng;

/// Records that a family is connected by construction, so neither the
/// returned graph nor any copy of it is ever walked to find out.
fn connected(graph: Result<Graph, GraphError>) -> Result<Graph, GraphError> {
    graph.map(|mut g| {
        g.record_connected();
        g
    })
}

/// An empty edge list with room for `count` edges of an `n`-node family
/// (`None`: the count overflows). The node count is checked and the list
/// reserved fallibly, so an oversized family is an error before it
/// allocates anything.
fn edge_list(
    family: &str,
    n: usize,
    count: Option<usize>,
) -> Result<Vec<(NodeId, NodeId)>, GraphError> {
    check_node_count(n)?;
    let mut edges = Vec::new();
    count
        .and_then(|count| edges.try_reserve_exact(count).ok())
        .ok_or_else(|| {
            GraphError::InvalidParameter(format!(
                "{family} on {n} nodes: cannot allocate its edge list"
            ))
        })?;
    Ok(edges)
}

/// Cycle `C_n` (`n >= 3`), 2-regular.
///
/// # Errors
///
/// [`GraphError::TooFewNodes`] if `n < 3`;
/// [`GraphError::InvalidParameter`] if the nodes or edges are more than
/// a graph holds or the edge list cannot be allocated.
pub fn cycle(n: usize) -> Result<Graph, GraphError> {
    if n < 3 {
        return Err(GraphError::TooFewNodes {
            family: "cycle",
            requested: n,
            minimum: 3,
        });
    }
    let mut edges = edge_list("cycle", n, Some(n))?;
    edges.extend((0..n).map(|i| (i as NodeId, ((i + 1) % n) as NodeId)));
    connected(Graph::from_edges(n, &edges))
}

/// Path `P_n` (`n >= 2`).
///
/// # Errors
///
/// [`GraphError::TooFewNodes`] if `n < 2`;
/// [`GraphError::InvalidParameter`] if the nodes or edges are more than
/// a graph holds or the edge list cannot be allocated.
pub fn path(n: usize) -> Result<Graph, GraphError> {
    if n < 2 {
        return Err(GraphError::TooFewNodes {
            family: "path",
            requested: n,
            minimum: 2,
        });
    }
    let mut edges = edge_list("path", n, Some(n - 1))?;
    edges.extend((0..n - 1).map(|i| (i as NodeId, (i + 1) as NodeId)));
    connected(Graph::from_edges(n, &edges))
}

/// Complete graph `K_n` (`n >= 2`), `(n-1)`-regular.
///
/// # Errors
///
/// [`GraphError::TooFewNodes`] if `n < 2`;
/// [`GraphError::InvalidParameter`] if the nodes or edges are more than
/// a graph holds or the edge list cannot be allocated.
pub fn complete(n: usize) -> Result<Graph, GraphError> {
    if n < 2 {
        return Err(GraphError::TooFewNodes {
            family: "complete",
            requested: n,
            minimum: 2,
        });
    }
    let mut edges = edge_list("complete", n, n.checked_mul(n - 1).map(|c| c / 2))?;
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push((u as NodeId, v as NodeId));
        }
    }
    connected(Graph::from_edges(n, &edges))
}

/// Star `S_n` on `n` nodes total: node 0 is the centre (`n >= 2`). The
/// prototypical highly irregular graph for Lemma 4.1 / EXP-IRREG.
///
/// # Errors
///
/// [`GraphError::TooFewNodes`] if `n < 2`;
/// [`GraphError::InvalidParameter`] if the nodes or edges are more than
/// a graph holds or the edge list cannot be allocated.
pub fn star(n: usize) -> Result<Graph, GraphError> {
    if n < 2 {
        return Err(GraphError::TooFewNodes {
            family: "star",
            requested: n,
            minimum: 2,
        });
    }
    let mut edges = edge_list("star", n, Some(n - 1))?;
    edges.extend((1..n).map(|v| (0 as NodeId, v as NodeId)));
    connected(Graph::from_edges(n, &edges))
}

/// Complete bipartite graph `K_{a,b}` (`a, b >= 1`); nodes `0..a` on one
/// side, `a..a+b` on the other.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] if `a == 0` or `b == 0`, or if the
/// nodes or edges are more than a graph holds or the edge list cannot be
/// allocated.
pub fn complete_bipartite(a: usize, b: usize) -> Result<Graph, GraphError> {
    if a == 0 || b == 0 {
        return Err(GraphError::InvalidParameter(format!(
            "complete_bipartite sides must be positive, got ({a}, {b})"
        )));
    }
    // Sides whose sum saturates are over the node limit too.
    let n = a.saturating_add(b);
    let mut edges = edge_list("complete_bipartite", n, a.checked_mul(b))?;
    for u in 0..a {
        for v in 0..b {
            edges.push((u as NodeId, (a + v) as NodeId));
        }
    }
    connected(Graph::from_edges(n, &edges))
}

/// 2-D grid of `rows × cols` nodes. With `wrap = true` this is the torus
/// (4-regular, needs `rows, cols >= 3` to stay simple); without wrapping it
/// is the planar grid (`rows, cols >= 2`, irregular at the boundary).
///
/// Node `(r, c)` has id `r * cols + c`. Built on one thread; see
/// [`grid2d_threads`].
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] when dimensions are too small for the
/// requested variant, or when `rows * cols` overflows or exceeds the
/// `u32::MAX` nodes a graph holds (checked before anything is allocated).
pub fn grid2d(rows: usize, cols: usize, wrap: bool) -> Result<Graph, GraphError> {
    grid2d_threads(rows, cols, wrap, 1)
}

/// [`grid2d`] with its rows written and checked on up to `threads`
/// workers; graphs below [`crate::MIN_SPLIT_WORK`] arcs build inline.
/// The graph does not depend on `threads`.
///
/// # Errors
///
/// See [`grid2d`].
pub fn grid2d_threads(
    rows: usize,
    cols: usize,
    wrap: bool,
    threads: usize,
) -> Result<Graph, GraphError> {
    grid_rows(rows, cols, wrap, threads, &CSR_POOL)
}

/// [`grid2d_threads`] with the row builder's pool (its spares and split
/// cutoff) as an argument.
fn grid_rows(
    rows: usize,
    cols: usize,
    wrap: bool,
    threads: usize,
    pool: &CsrPool,
) -> Result<Graph, GraphError> {
    let min = if wrap { 3 } else { 2 };
    if rows < min || cols < min {
        return Err(GraphError::InvalidParameter(format!(
            "grid2d(wrap={wrap}) requires dimensions >= {min}, got {rows}x{cols}"
        )));
    }
    let n = rows.checked_mul(cols).ok_or_else(|| {
        GraphError::InvalidParameter(format!("grid2d {rows}x{cols} overflows the node count"))
    })?;
    let before = |i: usize, len: usize| match i {
        0 if wrap => Some(len - 1),
        0 => None,
        _ => Some(i - 1),
    };
    let after = |i: usize, len: usize| match i + 1 {
        next if next < len => Some(next),
        _ if wrap => Some(0),
        _ => None,
    };
    // An axis's two neighbours in ascending order; an open boundary's
    // `None` sorts first and is skipped.
    let pair = |i: usize, len: usize| {
        let (a, b) = (before(i, len), after(i, len));
        if a <= b {
            [a, b]
        } else {
            [b, a]
        }
    };
    let degree = |u: usize| {
        if wrap {
            return 4;
        }
        let (r, c) = (u / cols, u % cols);
        [
            before(r, rows),
            after(r, rows),
            before(c, cols),
            after(c, cols),
        ]
        .iter()
        .flatten()
        .count()
    };
    let fill = |u: usize, row: &mut [NodeId]| {
        let (r, c) = (u / cols, u % cols);
        let id = |r: usize, c: usize| (r * cols + c) as NodeId;
        // The vertical neighbours lie in other rows, the horizontal ones
        // in row r, so the row ascends through the vertical neighbours in
        // earlier rows, the horizontal pair, then those in later rows.
        let [v0, v1] = pair(r, rows);
        let [h0, h1] = pair(c, cols);
        let mut k = 0;
        let mut put = |v: NodeId| {
            row[k] = v;
            k += 1;
        };
        for v in [v0, v1].into_iter().flatten() {
            if v < r {
                put(id(v, c));
            }
        }
        for h in [h0, h1].into_iter().flatten() {
            put(id(r, h));
        }
        for v in [v0, v1].into_iter().flatten() {
            if v > r {
                put(id(v, c));
            }
        }
    };
    connected(Graph::from_rows(n, degree, fill, threads, pool))
}

/// Torus shorthand: `grid2d(rows, cols, true)`.
///
/// # Errors
///
/// See [`grid2d`].
pub fn torus(rows: usize, cols: usize) -> Result<Graph, GraphError> {
    grid2d(rows, cols, true)
}

/// Hypercube `Q_dim` on `2^dim` nodes, `dim`-regular (`1 <= dim <= 20`).
/// Built on one thread; see [`hypercube_threads`].
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] if `dim` is 0 or greater than 20.
pub fn hypercube(dim: usize) -> Result<Graph, GraphError> {
    hypercube_threads(dim, 1)
}

/// [`hypercube`] with its rows written and checked on up to `threads`
/// workers; graphs below [`crate::MIN_SPLIT_WORK`] arcs build inline.
/// The graph does not depend on `threads`.
///
/// # Errors
///
/// See [`hypercube`].
pub fn hypercube_threads(dim: usize, threads: usize) -> Result<Graph, GraphError> {
    hypercube_rows(dim, threads, &CSR_POOL)
}

/// [`hypercube_threads`] with the row builder's pool (its spares and split
/// cutoff) as an argument.
fn hypercube_rows(dim: usize, threads: usize, pool: &CsrPool) -> Result<Graph, GraphError> {
    if dim == 0 || dim > 20 {
        return Err(GraphError::InvalidParameter(format!(
            "hypercube dimension must be in 1..=20, got {dim}"
        )));
    }
    let fill = |u: usize, row: &mut [NodeId]| {
        // Clearing a set bit lowers the id, the higher bit the more;
        // setting a clear bit raises it. So the row ascends through the
        // set bits from high to low, then the clear bits from low to high:
        // walking the bits from high to low, a set bit's neighbour takes
        // the next slot from the front, a clear bit's the next from the
        // back.
        let (mut front, mut back) = (0, dim);
        for b in (0..dim).rev() {
            let set = (u >> b) & 1;
            let slot = if set == 1 { front } else { back - 1 };
            row[slot] = (u ^ (1 << b)) as NodeId;
            front += set;
            back -= 1 - set;
        }
    };
    connected(Graph::from_rows(1 << dim, |_| dim, fill, threads, pool))
}

/// Complete binary tree with the given number of levels (`levels >= 1`;
/// 1 level = single root… which is disconnected-trivial, so we require
/// `levels >= 2`). Nodes are numbered in heap order.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] if `levels < 2` or `levels > 24`.
pub fn binary_tree(levels: usize) -> Result<Graph, GraphError> {
    if !(2..=24).contains(&levels) {
        return Err(GraphError::InvalidParameter(format!(
            "binary_tree levels must be in 2..=24, got {levels}"
        )));
    }
    let n = (1usize << levels) - 1;
    let mut edges = edge_list("binary_tree", n, Some(n - 1))?;
    for child in 1..n {
        let parent = (child - 1) / 2;
        edges.push((parent as NodeId, child as NodeId));
    }
    connected(Graph::from_edges(n, &edges))
}

/// The Petersen graph: 10 nodes, 3-regular, girth 5. A standard
/// small regular graph with non-trivial structure for Q-chain tests.
// Invariant-backed: the `expect` messages state why each cannot fire.
#[allow(clippy::expect_used)]
pub fn petersen() -> Graph {
    // Outer 5-cycle 0..5, inner 5-star 5..10 (pentagram), spokes i -- i+5.
    let mut edges = Vec::with_capacity(15);
    for i in 0..5u32 {
        edges.push((i, (i + 1) % 5));
        edges.push((5 + i, 5 + (i + 2) % 5));
        edges.push((i, i + 5));
    }
    let mut g = Graph::from_edges(10, &edges).expect("Petersen construction is fixed and valid");
    g.record_connected();
    g
}

/// Barbell graph: two copies of `K_k` joined by a single bridge edge
/// (`k >= 3`). Smallest-conductance workhorse for Thm 2.4 experiments.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] if `k < 3`, or if the
/// nodes or edges are more than a graph holds or the edge list cannot be
/// allocated.
pub fn barbell(k: usize) -> Result<Graph, GraphError> {
    if k < 3 {
        return Err(GraphError::InvalidParameter(format!(
            "barbell clique size must be >= 3, got {k}"
        )));
    }
    let clique = k.checked_mul(k - 1).map(|c| c / 2);
    let n = k.saturating_mul(2);
    let count = clique.and_then(|c| c.checked_mul(2)?.checked_add(1));
    let mut edges = edge_list("barbell", n, count)?;
    for u in 0..k {
        for v in (u + 1)..k {
            edges.push((u as NodeId, v as NodeId));
            edges.push(((k + u) as NodeId, (k + v) as NodeId));
        }
    }
    // Bridge between node k-1 (first clique) and node k (second clique).
    edges.push(((k - 1) as NodeId, k as NodeId));
    connected(Graph::from_edges(n, &edges))
}

/// Lollipop graph: `K_k` with a path of `tail` extra nodes attached
/// (`k >= 3`, `tail >= 1`).
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] if `k < 3` or `tail == 0`, or if the
/// nodes or edges are more than a graph holds or the edge list cannot be
/// allocated.
pub fn lollipop(k: usize, tail: usize) -> Result<Graph, GraphError> {
    if k < 3 || tail == 0 {
        return Err(GraphError::InvalidParameter(format!(
            "lollipop requires k >= 3 and tail >= 1, got ({k}, {tail})"
        )));
    }
    let n = k.saturating_add(tail);
    let count = k.checked_mul(k - 1).and_then(|c| (c / 2).checked_add(tail));
    let mut edges = edge_list("lollipop", n, count)?;
    for u in 0..k {
        for v in (u + 1)..k {
            edges.push((u as NodeId, v as NodeId));
        }
    }
    edges.push(((k - 1) as NodeId, k as NodeId));
    for i in 0..tail - 1 {
        edges.push(((k + i) as NodeId, (k + i + 1) as NodeId));
    }
    connected(Graph::from_edges(n, &edges))
}

/// Maximum attempts for randomized generators before giving up.
const MAX_ATTEMPTS: usize = 200;

/// Erdős–Rényi `G(n, p)`, retried until connected.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] for `p ∉ [0, 1]` or `n < 2`;
/// [`GraphError::RetriesExhausted`] if no connected sample is found (choose
/// `p` above the connectivity threshold `ln n / n`).
pub fn gnp_connected<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Result<Graph, GraphError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameter(format!(
            "gnp probability must be in [0,1], got {p}"
        )));
    }
    if n < 2 {
        return Err(GraphError::TooFewNodes {
            family: "gnp",
            requested: n,
            minimum: 2,
        });
    }
    for _ in 0..MAX_ATTEMPTS {
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p) {
                    b.add_edge(u as NodeId, v as NodeId)?;
                }
            }
        }
        let g = b.build();
        // The retry loop's BFS fills the graph's connectivity memo.
        if g.is_connected() {
            return Ok(g);
        }
    }
    Err(GraphError::RetriesExhausted {
        family: "gnp",
        attempts: MAX_ATTEMPTS,
    })
}

/// Erdős–Rényi `G(n, m)` with exactly `m` edges, retried until connected.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] if `m` exceeds `n(n-1)/2` or is below
/// `n - 1` (a connected graph needs at least a spanning tree);
/// [`GraphError::RetriesExhausted`] if no connected sample is found.
pub fn gnm_connected<R: Rng + ?Sized>(
    n: usize,
    m: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    let max_m = n * n.saturating_sub(1) / 2;
    if m > max_m || m + 1 < n {
        return Err(GraphError::InvalidParameter(format!(
            "gnm with n={n} requires m in [{}, {max_m}], got {m}",
            n.saturating_sub(1)
        )));
    }
    for _ in 0..MAX_ATTEMPTS {
        let mut b = GraphBuilder::new(n);
        while b.m() < m {
            let u = rng.gen_range(0..n) as NodeId;
            let v = rng.gen_range(0..n) as NodeId;
            if u != v {
                b.add_edge(u, v)?;
            }
        }
        let g = b.build();
        // The retry loop's BFS fills the graph's connectivity memo.
        if g.is_connected() {
            return Ok(g);
        }
    }
    Err(GraphError::RetriesExhausted {
        family: "gnm",
        attempts: MAX_ATTEMPTS,
    })
}

/// Random `d`-regular graph via the configuration (pairing) model with
/// rejection of self loops and parallel edges, retried until simple and
/// connected. Requires `n*d` even, `d < n`.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] for infeasible `(n, d)`;
/// [`GraphError::RetriesExhausted`] if the pairing model keeps colliding
/// (only plausibly an issue for `d` close to `n`).
pub fn random_regular<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if d == 0 || d >= n || !(n * d).is_multiple_of(2) {
        return Err(GraphError::InvalidParameter(format!(
            "random_regular requires 0 < d < n and n*d even, got (n={n}, d={d})"
        )));
    }
    'attempt: for _ in 0..MAX_ATTEMPTS {
        // Stubs: node u appears d times. Pair random stubs; on a self loop
        // or parallel edge, re-draw locally (up to a bound) rather than
        // rejecting the whole sample — full rejection has success
        // probability ~e^{-d²/4} and stalls for moderate d.
        let mut remaining: Vec<NodeId> = (0..n)
            .flat_map(|u| std::iter::repeat_n(u as NodeId, d))
            .collect();
        let mut b = GraphBuilder::new(n);
        while remaining.len() >= 2 {
            let mut paired = false;
            for _ in 0..200 {
                let i = rng.gen_range(0..remaining.len());
                let j = rng.gen_range(0..remaining.len());
                if i == j {
                    continue;
                }
                let (u, v) = (remaining[i], remaining[j]);
                if u != v && !b.has_edge(u, v) {
                    b.add_edge(u, v)?;
                    let (hi, lo) = if i > j { (i, j) } else { (j, i) };
                    remaining.swap_remove(hi);
                    remaining.swap_remove(lo);
                    paired = true;
                    break;
                }
            }
            if !paired {
                continue 'attempt; // stuck with unmatchable stubs: restart
            }
        }
        let g = b.build();
        // The retry loop's BFS fills the graph's connectivity memo.
        if g.is_connected() {
            return Ok(g);
        }
    }
    Err(GraphError::RetriesExhausted {
        family: "random_regular",
        attempts: MAX_ATTEMPTS,
    })
}

/// Watts–Strogatz small world: ring lattice where each node connects to its
/// `k` nearest neighbours on each side (`2k`-regular before rewiring), each
/// lattice edge rewired with probability `beta`; retried until connected.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] for infeasible `(n, k, beta)`;
/// [`GraphError::RetriesExhausted`] if no connected sample is found.
pub fn watts_strogatz<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    beta: f64,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if k == 0 || 2 * k >= n {
        return Err(GraphError::InvalidParameter(format!(
            "watts_strogatz requires 0 < 2k < n, got (n={n}, k={k})"
        )));
    }
    if !(0.0..=1.0).contains(&beta) {
        return Err(GraphError::InvalidParameter(format!(
            "watts_strogatz beta must be in [0,1], got {beta}"
        )));
    }
    for _ in 0..MAX_ATTEMPTS {
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            for offset in 1..=k {
                let v = (u + offset) % n;
                if rng.gen_bool(beta) {
                    // Rewire: pick a random non-self target, skip on collision.
                    let mut placed = false;
                    for _ in 0..16 {
                        let w = rng.gen_range(0..n);
                        if w != u && b.add_edge(u as NodeId, w as NodeId)? {
                            placed = true;
                            break;
                        }
                    }
                    if !placed {
                        b.add_edge(u as NodeId, v as NodeId)?;
                    }
                } else {
                    b.add_edge(u as NodeId, v as NodeId)?;
                }
            }
        }
        let g = b.build();
        // The retry loop's BFS fills the graph's connectivity memo.
        if g.is_connected() {
            return Ok(g);
        }
    }
    Err(GraphError::RetriesExhausted {
        family: "watts_strogatz",
        attempts: MAX_ATTEMPTS,
    })
}

/// Barabási–Albert preferential attachment: starts from a star on
/// `attach + 1` nodes and adds nodes each connecting to `attach` existing
/// nodes with probability proportional to degree. Always connected.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] if `attach == 0` or `n <= attach`.
pub fn barabasi_albert<R: Rng + ?Sized>(
    n: usize,
    attach: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if attach == 0 || n <= attach {
        return Err(GraphError::InvalidParameter(format!(
            "barabasi_albert requires 0 < attach < n, got (n={n}, attach={attach})"
        )));
    }
    let mut b = GraphBuilder::new(n);
    // Degree-proportional sampling via the repeated-endpoints trick.
    let mut endpoints: Vec<NodeId> = Vec::new();
    for v in 1..=attach {
        b.add_edge(0, v as NodeId)?;
        endpoints.extend_from_slice(&[0, v as NodeId]);
    }
    for u in (attach + 1)..n {
        let mut added = 0usize;
        let mut guard = 0usize;
        while added < attach {
            let target = endpoints[rng.gen_range(0..endpoints.len())];
            if target != u as NodeId && b.add_edge(u as NodeId, target)? {
                endpoints.extend_from_slice(&[u as NodeId, target]);
                added += 1;
            }
            guard += 1;
            if guard > 1000 * attach {
                return Err(GraphError::RetriesExhausted {
                    family: "barabasi_albert",
                    attempts: guard,
                });
            }
        }
    }
    let mut g = b.build();
    g.record_connected();
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x0D15EA5E)
    }

    #[test]
    fn cycle_is_2_regular_connected() {
        let g = cycle(7).unwrap();
        assert_eq!(g.regular_degree(), Some(2));
        assert!(g.is_connected());
        assert_eq!(g.m(), 7);
        assert!(cycle(2).is_err());
    }

    #[test]
    fn path_endpoints_have_degree_one() {
        let g = path(6).unwrap();
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(5), 1);
        assert_eq!(g.degree(3), 2);
        assert!(path(1).is_err());
    }

    #[test]
    fn complete_graph_edge_count() {
        let g = complete(6).unwrap();
        assert_eq!(g.m(), 15);
        assert_eq!(g.regular_degree(), Some(5));
    }

    #[test]
    fn star_degrees() {
        let g = star(9).unwrap();
        assert_eq!(g.degree(0), 8);
        assert_eq!(g.degree(5), 1);
        assert_eq!(g.m(), 8);
    }

    #[test]
    fn complete_bipartite_structure() {
        let g = complete_bipartite(2, 3).unwrap();
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 6);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(2), 2);
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
        assert!(complete_bipartite(0, 3).is_err());
    }

    #[test]
    fn torus_is_4_regular() {
        let g = torus(4, 5).unwrap();
        assert_eq!(g.n(), 20);
        assert_eq!(g.regular_degree(), Some(4));
        assert!(g.is_connected());
        assert!(torus(2, 5).is_err());
    }

    #[test]
    fn open_grid_is_irregular() {
        let g = grid2d(3, 3, false).unwrap();
        assert_eq!(g.degree(0), 2); // corner
        assert_eq!(g.degree(1), 3); // edge
        assert_eq!(g.degree(4), 4); // centre
        assert_eq!(g.m(), 12);
    }

    #[test]
    fn hypercube_structure() {
        let g = hypercube(4).unwrap();
        assert_eq!(g.n(), 16);
        assert_eq!(g.regular_degree(), Some(4));
        assert!(g.is_connected());
        // Neighbours differ in exactly one bit.
        for u in g.nodes() {
            for &v in g.neighbors(u) {
                assert_eq!((u ^ v).count_ones(), 1);
            }
        }
        assert!(hypercube(0).is_err());
    }

    /// The edge-list form the lattice generators used to sort through
    /// `from_edges`: the reference their direct row writers must match.
    fn grid_edges(rows: usize, cols: usize, wrap: bool) -> Vec<(NodeId, NodeId)> {
        let id = |r: usize, c: usize| (r * cols + c) as NodeId;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((id(r, c), id(r, c + 1)));
                } else if wrap {
                    edges.push((id(r, c), id(r, 0)));
                }
                if r + 1 < rows {
                    edges.push((id(r, c), id(r + 1, c)));
                } else if wrap {
                    edges.push((id(r, c), id(0, c)));
                }
            }
        }
        edges
    }

    /// The thread counts the row-builder tests split at, with the split
    /// cutoff forced to 0 so even the smallest graphs split.
    const THREADS: [usize; 4] = [1, 2, 3, 7];

    #[test]
    fn lattice_rows_equal_edge_list_builds() {
        for dim in 1..=12 {
            let n = 1usize << dim;
            let edges: Vec<_> = (0..n)
                .flat_map(|u| (0..dim).map(move |b| (u, u ^ (1 << b))))
                .filter(|&(u, v)| u < v)
                .map(|(u, v)| (u as NodeId, v as NodeId))
                .collect();
            let reference = Graph::from_edges(n, &edges).unwrap();
            assert_eq!(hypercube(dim).unwrap(), reference, "hypercube({dim})");
            for threads in THREADS {
                let g = hypercube_rows(dim, threads, &CsrPool::new(0)).unwrap();
                assert_eq!(g, reference, "hypercube({dim}), {threads} threads");
                assert_eq!(g.check_invariants(), Ok(()));
            }
        }
        for rows in 2..=9 {
            for cols in 2..=9 {
                for wrap in [false, true] {
                    let Ok(g) = grid2d(rows, cols, wrap) else {
                        assert!(wrap && (rows < 3 || cols < 3));
                        continue;
                    };
                    let edges = grid_edges(rows, cols, wrap);
                    let reference = Graph::from_edges(rows * cols, &edges).unwrap();
                    assert_eq!(g, reference, "grid2d({rows}, {cols}, {wrap})");
                    for threads in THREADS {
                        let g = grid_rows(rows, cols, wrap, threads, &CsrPool::new(0)).unwrap();
                        assert_eq!(
                            g, reference,
                            "grid2d({rows}, {cols}, {wrap}), {threads} threads"
                        );
                        assert_eq!(g.check_invariants(), Ok(()));
                    }
                }
            }
        }
        let reference = Graph::from_edges(64 * 33, &grid_edges(64, 33, true)).unwrap();
        assert_eq!(torus(64, 33).unwrap(), reference);
        for threads in THREADS {
            assert_eq!(
                grid_rows(64, 33, true, threads, &CsrPool::new(0)).unwrap(),
                reference
            );
        }
    }

    #[test]
    fn sorted_rows_reject_what_from_edges_rejects() {
        // The 8-cycle's rows, with node 6's replaced by `row6` and node
        // 7's by `row7`: a bad row 6 must be reported over a bad row 7
        // at every split, though row 7 sits in a later chunk.
        let build = |row6: [NodeId; 2], row7: [NodeId; 2], threads: usize| {
            let fill = |u: usize, row: &mut [NodeId]| {
                let mut cycle = [((u + 7) % 8) as NodeId, ((u + 1) % 8) as NodeId];
                cycle.sort_unstable();
                row.copy_from_slice(match u {
                    6 => &row6,
                    7 => &row7,
                    _ => &cycle,
                });
            };
            Graph::from_rows(8, |_| 2, fill, threads, &CsrPool::new(0))
        };
        let self_loop7 = [0, 7];
        for threads in THREADS {
            assert_eq!(
                build([5, 7], [0, 6], threads),
                cycle(8),
                "{threads} threads"
            );
            assert_eq!(
                build([5, 8], self_loop7, threads),
                Err(GraphError::InvalidNode { node: 8, n: 8 })
            );
            assert_eq!(
                build([5, 6], self_loop7, threads),
                Err(GraphError::SelfLoop { node: 6 })
            );
            assert_eq!(
                build([5, 5], self_loop7, threads),
                Err(GraphError::DuplicateEdge { u: 6, v: 5 })
            );
            assert_eq!(
                build([7, 5], self_loop7, threads),
                Err(GraphError::BrokenInvariant(
                    "row of node 6 not ascending: 7 then 5".into()
                ))
            );
            assert_eq!(
                build([5, 7], self_loop7, threads),
                Err(GraphError::SelfLoop { node: 7 })
            );
        }
    }

    #[test]
    fn oversized_lattices_are_rejected_before_allocating() {
        let too_large = |g: Result<Graph, GraphError>| {
            assert!(matches!(g, Err(GraphError::InvalidParameter(_))), "{g:?}");
        };
        // 2³² · 2³² wraps to 0 nodes unchecked.
        too_large(torus(1 << 32, 1 << 32));
        too_large(grid2d(usize::MAX, 2, false));
        // 2³² nodes is one more than a graph holds: rejected before the
        // 32 GiB of row offsets are asked for.
        too_large(torus(1 << 16, 1 << 16));
        too_large(grid2d_threads(1 << 16, 1 << 16, false, 7));
        // An arc count that overflows, on 3 rows of offsets.
        too_large(Graph::from_rows(
            3,
            |_| usize::MAX,
            |_, _| (),
            1,
            &CsrPool::new(0),
        ));
    }

    /// A lattice build on a thread budget and a pool.
    type LatticeBuild = Box<dyn Fn(usize, &CsrPool) -> Result<Graph, GraphError>>;

    /// Every lattice the row builder writes, with its `from_edges`
    /// reference: hypercubes, tori and open grids of several sizes.
    fn lattices() -> Vec<(String, Graph, LatticeBuild)> {
        let mut lattices: Vec<(String, Graph, LatticeBuild)> = Vec::new();
        for dim in [1, 3, 6, 9] {
            let n = 1usize << dim;
            let edges: Vec<_> = (0..n)
                .flat_map(|u| (0..dim).map(move |b| (u, u ^ (1 << b))))
                .filter(|&(u, v)| u < v)
                .map(|(u, v)| (u as NodeId, v as NodeId))
                .collect();
            lattices.push((
                format!("hypercube({dim})"),
                Graph::from_edges(n, &edges).unwrap(),
                Box::new(move |threads, pool| hypercube_rows(dim, threads, pool)),
            ));
        }
        for (rows, cols) in [(3, 3), (4, 7), (9, 5), (17, 23)] {
            for wrap in [false, true] {
                lattices.push((
                    format!("grid2d({rows}, {cols}, {wrap})"),
                    Graph::from_edges(rows * cols, &grid_edges(rows, cols, wrap)).unwrap(),
                    Box::new(move |threads, pool| grid_rows(rows, cols, wrap, threads, pool)),
                ));
            }
        }
        lattices
    }

    #[test]
    fn lattices_built_on_a_dirty_spare_equal_fresh_builds() {
        // Before each build, a graph of another family and a larger size
        // is dropped into the pool, so the build takes its arrays, still
        // holding that graph's rows and offsets.
        let pool = CsrPool::new(0);
        let dirty = [
            || star(5000).unwrap(),
            || complete_bipartite(520, 10).unwrap(),
            || cycle(6000).unwrap(),
        ];
        for (name, reference, build) in lattices() {
            for (i, threads) in THREADS.into_iter().enumerate() {
                let mut other = dirty[i % dirty.len()]();
                assert!(
                    other.n() > reference.n()
                        && other.directed_edge_count() > reference.directed_edge_count()
                );
                pool.recycle(&mut other);
                let g = build(threads, &pool).unwrap();
                assert_eq!(pool.spare_capacities(), (0, 0), "{name} took both spares");
                assert_eq!(g, reference, "{name}, {threads} threads");
                assert_eq!(g.check_invariants(), Ok(()));
            }
        }
    }

    #[test]
    fn a_spare_too_small_for_a_lattice_is_freed_not_grown() {
        let pool = CsrPool::new(0);
        let (_, reference, build) = lattices().swap_remove(3);
        let mut small = cycle(5).unwrap();
        pool.recycle(&mut small);
        assert_eq!(pool.spare_capacities(), (6, 10));
        assert_eq!(build(2, &pool).unwrap(), reference);
        assert_eq!(pool.spare_capacities(), (0, 0));
    }

    #[test]
    fn graphs_below_the_cutoff_neither_take_nor_leave_a_spare() {
        // hypercube(10): 1025 offsets and 10240 arcs, above a cutoff of
        // 1000; torus(5, 5): 26 offsets and 100 arcs, below it.
        let pool = CsrPool::new(1000);
        let mut big = hypercube(10).unwrap();
        pool.recycle(&mut big);
        assert_eq!(pool.spare_capacities(), (1025, 10240));
        let mut small = grid_rows(5, 5, true, 2, &pool).unwrap();
        assert_eq!(small, torus(5, 5).unwrap());
        assert_eq!(pool.spare_capacities(), (1025, 10240));
        pool.recycle(&mut small);
        assert_eq!(pool.spare_capacities(), (1025, 10240));
        // A graph at the cutoff takes both.
        let g = grid_rows(25, 40, true, 2, &pool).unwrap();
        assert_eq!(g, torus(25, 40).unwrap());
        assert_eq!(pool.spare_capacities(), (0, 0));
    }

    #[test]
    fn a_dropped_graph_leaves_its_arrays_for_the_next_lattice() {
        // Through the process-wide pool: above the cutoff, a dropped
        // hypercube's arrays hold the next torus. Tests sharing this
        // binary may take the spare first; the torus is the same either
        // way.
        drop(hypercube(16).unwrap());
        let reference = Graph::from_edges(256 * 256, &grid_edges(256, 256, true)).unwrap();
        assert_eq!(grid2d_threads(256, 256, true, 2).unwrap(), reference);
    }

    #[test]
    fn oversized_edge_lists_are_rejected_before_allocating() {
        let too_large = |g: Result<Graph, GraphError>| {
            assert!(matches!(g, Err(GraphError::InvalidParameter(_))), "{g:?}");
        };
        // About 2⁶³ edges of 8 bytes: over `isize::MAX` bytes.
        too_large(complete(u32::MAX as usize));
        // One node more than a graph holds.
        too_large(complete(u32::MAX as usize + 1));
        too_large(cycle(1 << 40));
        too_large(path(1 << 40));
        too_large(star(1 << 40));
        // Two 2³¹ sides: 2³² nodes and 2⁶² edges of 8 bytes.
        too_large(complete_bipartite(1 << 31, 1 << 31));
        too_large(complete_bipartite(usize::MAX, 2));
        too_large(barbell(usize::MAX));
        too_large(lollipop(1 << 33, usize::MAX));
        too_large(Graph::from_edges(u32::MAX as usize + 1, &[]));
    }

    #[test]
    fn binary_tree_structure() {
        let g = binary_tree(3).unwrap();
        assert_eq!(g.n(), 7);
        assert_eq!(g.m(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.degree(6), 1);
        assert!(g.is_connected());
    }

    #[test]
    fn petersen_properties() {
        let g = petersen();
        assert_eq!(g.n(), 10);
        assert_eq!(g.m(), 15);
        assert_eq!(g.regular_degree(), Some(3));
        assert!(g.is_connected());
        // Girth 5: no triangles or 4-cycles => no two adjacent nodes share a
        // common neighbour.
        for (u, v) in g.edges() {
            assert_eq!(g.common_neighbors(u, v), 0);
        }
    }

    #[test]
    fn barbell_has_bridge() {
        let g = barbell(4).unwrap();
        assert_eq!(g.n(), 8);
        assert_eq!(g.m(), 2 * 6 + 1);
        assert!(g.has_edge(3, 4));
        assert!(g.is_connected());
        assert_eq!(g.degree(3), 4); // clique + bridge
        assert_eq!(g.degree(0), 3);
    }

    #[test]
    fn lollipop_shape() {
        let g = lollipop(4, 3).unwrap();
        assert_eq!(g.n(), 7);
        assert_eq!(g.degree(6), 1);
        assert!(g.is_connected());
    }

    #[test]
    fn gnp_connected_and_valid() {
        let mut r = rng();
        let g = gnp_connected(40, 0.2, &mut r).unwrap();
        assert_eq!(g.n(), 40);
        assert!(g.is_connected());
        assert!(gnp_connected(40, 1.5, &mut r).is_err());
    }

    #[test]
    fn gnp_p1_is_complete() {
        let mut r = rng();
        let g = gnp_connected(10, 1.0, &mut r).unwrap();
        assert_eq!(g.m(), 45);
    }

    #[test]
    fn gnm_exact_edge_count() {
        let mut r = rng();
        let g = gnm_connected(30, 60, &mut r).unwrap();
        assert_eq!(g.m(), 60);
        assert!(g.is_connected());
        assert!(gnm_connected(30, 10, &mut r).is_err()); // below spanning tree
    }

    #[test]
    fn random_regular_is_regular_connected() {
        let mut r = rng();
        for &(n, d) in &[(20, 3), (24, 4), (16, 6)] {
            let g = random_regular(n, d, &mut r).unwrap();
            assert_eq!(g.regular_degree(), Some(d), "n={n} d={d}");
            assert!(g.is_connected());
        }
        assert!(random_regular(9, 3, &mut r).is_err()); // odd n*d
        assert!(random_regular(4, 4, &mut r).is_err()); // d >= n
    }

    #[test]
    fn watts_strogatz_connected() {
        let mut r = rng();
        let g = watts_strogatz(30, 2, 0.1, &mut r).unwrap();
        assert_eq!(g.n(), 30);
        assert!(g.is_connected());
        // beta = 0 keeps the ring lattice: 2k-regular.
        let lattice = watts_strogatz(30, 2, 0.0, &mut r).unwrap();
        assert_eq!(lattice.regular_degree(), Some(4));
    }

    #[test]
    fn barabasi_albert_connected_with_hubs() {
        let mut r = rng();
        let g = barabasi_albert(100, 2, &mut r).unwrap();
        assert_eq!(g.n(), 100);
        assert!(g.is_connected());
        assert!(
            g.max_degree() > 5,
            "expected hubs, max degree {}",
            g.max_degree()
        );
        assert!(barabasi_albert(3, 3, &mut r).is_err());
    }
}
