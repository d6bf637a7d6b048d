//! The declarative scenario description and its hand-rolled text format.
//!
//! A [`ScenarioSpec`] names one point in the paper's experiment space —
//! model × topology (static or churned) × initial state × replicas ×
//! stopping rule — without naming an engine. [`crate::Simulation`] picks
//! the optimal engine from the spec (see the dispatch table in the crate
//! docs and `README.md`).
//!
//! # Text format
//!
//! One `key value` pair per line; `#` starts a comment; keys may appear
//! in any order; structured values use `sub=val` tokens. The environment
//! vendors no serde, so the format is hand-rolled; [`ScenarioSpec::parse`]
//! and the [`std::fmt::Display`] impl round-trip exactly
//! (`parse ∘ to_string = id`, property-gated in `tests/spec_prop.rs`).
//!
//! ```text
//! # NodeModel ε-convergence sweep on the 6-cube.
//! scenario t22-hypercube
//! model node alpha=0.5 k=2 lazy=false
//! graph hypercube dim=6
//! init pm_one
//! replicas 30
//! seed 42
//! stop converge eps=0.000000001 rule=exact potential=pi budget=2000000
//! ```

use od_graph::{ChurnModel, Graph, GraphError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Errors raised while parsing, validating or running a scenario.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A line of the text format could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The spec is structurally well-formed but semantically invalid
    /// (zero replicas, bad ε, model/init mismatch, …).
    Invalid(String),
    /// Graph construction or churn failed.
    Graph(GraphError),
    /// An engine rejected the scenario.
    Core(od_core::CoreError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Parse { line, message } => write!(f, "parse error on line {line}: {message}"),
            SimError::Invalid(message) => write!(f, "invalid scenario: {message}"),
            SimError::Graph(err) => write!(f, "graph error: {err}"),
            SimError::Core(err) => write!(f, "engine error: {err}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<GraphError> for SimError {
    fn from(err: GraphError) -> Self {
        SimError::Graph(err)
    }
}

impl From<od_core::CoreError> for SimError {
    fn from(err: od_core::CoreError) -> Self {
        SimError::Core(err)
    }
}

/// Which averaging process (or baseline) a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelSpec {
    /// The NodeModel (Definition 2.1).
    Node {
        /// Self-weight `α ∈ [0, 1)`.
        alpha: f64,
        /// Neighbour sample size `k ≥ 1`.
        k: usize,
        /// Section 4's lazy variant (skip each step w.p. 1/2).
        lazy: bool,
    },
    /// The EdgeModel (Definition 2.3).
    Edge {
        /// Self-weight `α ∈ [0, 1)`.
        alpha: f64,
        /// Section 4's lazy variant.
        lazy: bool,
    },
    /// The discrete voter model (§2 baseline).
    Voter,
    /// Synchronous lazy DeGroot rounds (`od_core::SyncModel::DeGroot`) —
    /// deterministic repeated averaging, the baseline the paper's random
    /// `F` is compared against. Runs weighted and directed graphs.
    DeGroot {
        /// Laziness `ℓ ∈ [0, 1)`: `x ← (1−ℓ)·P x + ℓ·x`.
        lazy: f64,
    },
    /// Synchronous Friedkin–Johnsen rounds
    /// (`od_core::SyncModel::FriedkinJohnsen`): the initial values are
    /// the fixed private anchors. Runs weighted and directed graphs.
    Fj {
        /// Uniform stubbornness `α ∈ (0, 1]`.
        alpha: f64,
    },
    /// Synchronous weighted-median dynamics
    /// (`od_core::SyncModel::WeightedMedian`): each node moves to the
    /// weighted median of its out-neighbourhood.
    WeightedMedian,
}

impl ModelSpec {
    /// Whether this is a continuous averaging process (vs the voter).
    pub fn is_averaging(&self) -> bool {
        !matches!(self, ModelSpec::Voter)
    }

    /// Whether this is a deterministic synchronous-rounds model
    /// (`degroot`, `fj`, `weighted_median`) — dispatched to
    /// `od_core::SyncKernel` instead of an asynchronous engine.
    pub fn is_sync(&self) -> bool {
        matches!(
            self,
            ModelSpec::DeGroot { .. } | ModelSpec::Fj { .. } | ModelSpec::WeightedMedian
        )
    }

    /// The sync-kernel model for the synchronous-rounds variants
    /// (`None` for the asynchronous models).
    pub fn sync_model(&self) -> Option<od_core::SyncModel> {
        match *self {
            ModelSpec::DeGroot { lazy } => Some(od_core::SyncModel::DeGroot { lazy }),
            ModelSpec::Fj { alpha } => Some(od_core::SyncModel::FriedkinJohnsen { alpha }),
            ModelSpec::WeightedMedian => Some(od_core::SyncModel::WeightedMedian),
            _ => None,
        }
    }

    /// The kernel spec for the averaging models.
    ///
    /// # Errors
    ///
    /// Parameter validation errors from `od-core`.
    pub fn kernel_spec(&self) -> Result<od_core::KernelSpec, SimError> {
        let lazify = |lazy: bool| {
            if lazy {
                od_core::Laziness::Lazy
            } else {
                od_core::Laziness::Active
            }
        };
        match *self {
            ModelSpec::Node { alpha, k, lazy } => Ok(od_core::KernelSpec::Node(
                od_core::NodeModelParams::new(alpha, k)?.with_laziness(lazify(lazy)),
            )),
            ModelSpec::Edge { alpha, lazy } => Ok(od_core::KernelSpec::Edge(
                od_core::EdgeModelParams::new(alpha)?.with_laziness(lazify(lazy)),
            )),
            ModelSpec::Voter => Err(SimError::Invalid(
                "the voter model has no averaging kernel spec".into(),
            )),
            ModelSpec::DeGroot { .. } | ModelSpec::Fj { .. } | ModelSpec::WeightedMedian => {
                Err(SimError::Invalid(
                    "synchronous models run through the sync kernel, not an \
                     asynchronous kernel spec"
                        .into(),
                ))
            }
        }
    }
}

/// A graph generator plus its parameters — every family `od-graph`
/// provides — or a real-world edge-list file ([`GraphSpec::File`]).
/// Random families carry their own construction seed so a scenario
/// names one reproducible instance.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field meanings match the od-graph generators 1:1
pub enum GraphSpec {
    Cycle {
        n: usize,
    },
    Path {
        n: usize,
    },
    Complete {
        n: usize,
    },
    Star {
        n: usize,
    },
    CompleteBipartite {
        a: usize,
        b: usize,
    },
    Grid {
        rows: usize,
        cols: usize,
    },
    Torus {
        rows: usize,
        cols: usize,
    },
    Hypercube {
        dim: usize,
    },
    BinaryTree {
        levels: usize,
    },
    Petersen,
    Barbell {
        k: usize,
    },
    Lollipop {
        k: usize,
        tail: usize,
    },
    Gnp {
        n: usize,
        p: f64,
        seed: u64,
    },
    Gnm {
        n: usize,
        m: usize,
        seed: u64,
    },
    RandomRegular {
        n: usize,
        d: usize,
        seed: u64,
    },
    WattsStrogatz {
        n: usize,
        k: usize,
        p: f64,
        seed: u64,
    },
    BarabasiAlbert {
        n: usize,
        m: usize,
        seed: u64,
    },
    /// A real-world graph loaded from an edge-list file (`graph
    /// file=<path> [directed=true]`): `u v` or `u v w` lines, comma- or
    /// whitespace-separated, `#` comments ignored. A third column
    /// attaches per-edge weights. Path-validated at parse; the IO
    /// happens when the simulation is assembled, like
    /// [`InitSpec::File`].
    File {
        /// Path to the edge list. Must be a single `#`-free token (no
        /// whitespace) so the line-based text format round-trips.
        path: String,
        /// Whether lines are directed `(tail, head)` arcs. Directed
        /// graphs run the synchronous-rounds models only.
        directed: bool,
    },
}

impl GraphSpec {
    /// Builds the named graph instance on one thread. For
    /// [`GraphSpec::File`] use [`GraphSpec::realize`], which performs the
    /// IO.
    ///
    /// # Errors
    ///
    /// The underlying generator's error, or
    /// [`GraphError::InvalidParameter`] for [`GraphSpec::File`].
    pub fn build(&self) -> Result<Graph, GraphError> {
        self.build_threads(1)
    }

    /// [`GraphSpec::build`] on a budget of `threads` workers: the
    /// lattices (grid, torus, hypercube) write and check their CSR rows
    /// in parallel above [`od_graph::MIN_SPLIT_WORK`] arcs; the other
    /// families build on the calling thread. The graph does not depend
    /// on `threads`.
    fn build_threads(&self, threads: usize) -> Result<Graph, GraphError> {
        use od_graph::generators as g;
        match *self {
            GraphSpec::Cycle { n } => g::cycle(n),
            GraphSpec::Path { n } => g::path(n),
            GraphSpec::Complete { n } => g::complete(n),
            GraphSpec::Star { n } => g::star(n),
            GraphSpec::CompleteBipartite { a, b } => g::complete_bipartite(a, b),
            GraphSpec::Grid { rows, cols } => g::grid2d_threads(rows, cols, false, threads),
            GraphSpec::Torus { rows, cols } => g::grid2d_threads(rows, cols, true, threads),
            GraphSpec::Hypercube { dim } => g::hypercube_threads(dim, threads),
            GraphSpec::BinaryTree { levels } => g::binary_tree(levels),
            GraphSpec::Petersen => Ok(g::petersen()),
            GraphSpec::Barbell { k } => g::barbell(k),
            GraphSpec::Lollipop { k, tail } => g::lollipop(k, tail),
            GraphSpec::Gnp { n, p, seed } => {
                g::gnp_connected(n, p, &mut StdRng::seed_from_u64(seed))
            }
            GraphSpec::Gnm { n, m, seed } => {
                g::gnm_connected(n, m, &mut StdRng::seed_from_u64(seed))
            }
            GraphSpec::RandomRegular { n, d, seed } => {
                g::random_regular(n, d, &mut StdRng::seed_from_u64(seed))
            }
            GraphSpec::WattsStrogatz { n, k, p, seed } => {
                g::watts_strogatz(n, k, p, &mut StdRng::seed_from_u64(seed))
            }
            GraphSpec::BarabasiAlbert { n, m, seed } => {
                g::barabasi_albert(n, m, &mut StdRng::seed_from_u64(seed))
            }
            GraphSpec::File { .. } => Err(GraphError::InvalidParameter(
                "file graphs load through GraphSpec::realize (the edge-list IO step)".into(),
            )),
        }
    }

    /// Builds the graph on one thread, performing the edge-list IO for
    /// [`GraphSpec::File`].
    ///
    /// # Errors
    ///
    /// [`SimError::Graph`] from the generator, or [`SimError::Invalid`]
    /// naming the file (and line) for IO failures and malformed edge
    /// lists.
    pub fn realize(&self) -> Result<Graph, SimError> {
        self.realize_threads(1)
    }

    /// [`GraphSpec::realize`] on a budget of `threads` workers (see
    /// [`GraphSpec::build_threads`]) — the resolve step
    /// [`crate::Simulation`] and the sweep runner call with the spec's
    /// resolved `threads`.
    pub(crate) fn realize_threads(&self, threads: usize) -> Result<Graph, SimError> {
        match self {
            GraphSpec::File { path, directed } => load_edge_list_file(path, *directed),
            spec => Ok(spec.build_threads(threads)?),
        }
    }
}

impl fmt::Display for GraphSpec {
    /// The graph's text-format tokens without the leading `graph` key
    /// (e.g. `cycle n=16`) — the `graph` line of [`ScenarioSpec`] and,
    /// with spaces swapped for `:`, the sweep grammar's graph
    /// descriptors (`cycle:n=16`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphSpec::Cycle { n } => write!(f, "cycle n={n}"),
            GraphSpec::Path { n } => write!(f, "path n={n}"),
            GraphSpec::Complete { n } => write!(f, "complete n={n}"),
            GraphSpec::Star { n } => write!(f, "star n={n}"),
            GraphSpec::CompleteBipartite { a, b } => {
                write!(f, "complete_bipartite a={a} b={b}")
            }
            GraphSpec::Grid { rows, cols } => write!(f, "grid rows={rows} cols={cols}"),
            GraphSpec::Torus { rows, cols } => write!(f, "torus rows={rows} cols={cols}"),
            GraphSpec::Hypercube { dim } => write!(f, "hypercube dim={dim}"),
            GraphSpec::BinaryTree { levels } => write!(f, "binary_tree levels={levels}"),
            GraphSpec::Petersen => write!(f, "petersen"),
            GraphSpec::Barbell { k } => write!(f, "barbell k={k}"),
            GraphSpec::Lollipop { k, tail } => write!(f, "lollipop k={k} tail={tail}"),
            GraphSpec::Gnp { n, p, seed } => write!(f, "gnp n={n} p={p} seed={seed}"),
            GraphSpec::Gnm { n, m, seed } => write!(f, "gnm n={n} m={m} seed={seed}"),
            GraphSpec::RandomRegular { n, d, seed } => {
                write!(f, "random_regular n={n} d={d} seed={seed}")
            }
            GraphSpec::WattsStrogatz { n, k, p, seed } => {
                write!(f, "watts_strogatz n={n} k={k} p={p} seed={seed}")
            }
            GraphSpec::BarabasiAlbert { n, m, seed } => {
                write!(f, "barabasi_albert n={n} m={m} seed={seed}")
            }
            // The path rides in the variant token itself (the
            // `graph file=edges.csv` spelling); `directed` is printed
            // explicitly so the canonical form round-trips.
            GraphSpec::File { path, directed } => write!(f, "file={path} directed={directed}"),
        }
    }
}

/// Parses the tokens of a `graph` line (family name plus `key=val`
/// fields) — the crate-internal hook the sweep grammar's graph
/// descriptors reuse.
pub(crate) fn parse_graph_tokens(line: usize, rest: &[&str]) -> Result<GraphSpec, SimError> {
    parse::parse_graph(line, rest)
}

/// How per-edge weights are attached to a *generated* topology
/// (file graphs carry their weights in the file). The default
/// [`WeightSpec::Unit`] is not printed by the canonical form, so
/// existing unweighted scenario keys are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum WeightSpec {
    /// Unit weights — no weight array; kernels take the historical
    /// bit-exact unweighted paths.
    #[default]
    Unit,
    /// One weight per undirected edge drawn i.i.d. uniform from
    /// `[lo, hi]` (`0 < lo ≤ hi`), in the canonical `u < v` edge order,
    /// from a dedicated RNG — every replica sees the same weighted
    /// instance (`weights uniform lo=.. hi=.. seed=..`).
    Uniform {
        /// Lower endpoint (strictly positive, so no zero-weight rows).
        lo: f64,
        /// Upper endpoint (`≥ lo`).
        hi: f64,
        /// Seed of the dedicated weight RNG.
        seed: u64,
    },
}

impl WeightSpec {
    /// Attaches the drawn weights to `graph` ([`WeightSpec::Unit`] is a
    /// no-op). Called once at [`crate::Simulation`] assembly, after the
    /// graph is realized. A graph shared with other cells is copied on
    /// write, so only this scenario's instance becomes weighted.
    ///
    /// # Errors
    ///
    /// [`SimError::Graph`] if the graph rejects the weights (directed,
    /// or already carrying its own).
    pub fn apply(&self, graph: &mut Arc<Graph>) -> Result<(), SimError> {
        let WeightSpec::Uniform { lo, hi, seed } = *self else {
            return Ok(());
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let draws: Vec<f64> = (0..graph.m())
            .map(|_| lo + rng.gen::<f64>() * (hi - lo))
            .collect();
        Arc::make_mut(graph).attach_weights(&draws)?;
        Ok(())
    }
}

/// The initial state distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum InitSpec {
    /// Balanced ±1 values (exactly centered for even `n`, centered by
    /// subtraction otherwise) — the experiments' standard `ξ(0)`.
    PmOne,
    /// Linear ramp from `lo` (node 0) to `hi` (node n−1).
    Linear {
        /// Value at node 0.
        lo: f64,
        /// Value at node n−1.
        hi: f64,
    },
    /// Every node starts at `value`.
    Constant {
        /// The common initial value.
        value: f64,
    },
    /// `1.0` at `node`, `0.0` elsewhere (the duality unit vector).
    Indicator {
        /// The distinguished node.
        node: usize,
    },
    /// Voter: node `i` starts with opinion `i % levels` (`levels ≥ 1`).
    Opinions {
        /// Number of distinct opinions.
        levels: usize,
    },
    /// Voter: node `i` starts with its own opinion `i`.
    Distinct,
    /// Averaging values loaded from a text file: one finite float per
    /// line, blank lines and `#` comments ignored, exactly one value per
    /// node. The file is read when the simulation is assembled
    /// ([`crate::Simulation::from_spec`]), so the scenario file stays a
    /// self-contained description plus a data path.
    File {
        /// Path to the values file. Must be a single `#`-free token (no
        /// whitespace) so the line-based text format round-trips.
        path: String,
    },
}

impl InitSpec {
    /// Whether this initial state feeds an averaging process.
    pub fn is_averaging(&self) -> bool {
        !matches!(self, InitSpec::Opinions { .. } | InitSpec::Distinct)
    }

    /// The averaging initial values for an `n`-node graph.
    ///
    /// # Panics
    ///
    /// Panics on voter variants, on [`InitSpec::File`] (resolved with IO
    /// via [`load_init_file`] when the simulation is assembled), and on
    /// an out-of-range [`InitSpec::Indicator`] node (`Simulation`
    /// rejects all of these with a proper error before resolving
    /// values).
    pub fn values(&self, n: usize) -> Vec<f64> {
        match *self {
            InitSpec::PmOne => pm_one(n),
            InitSpec::Linear { lo, hi } => (0..n)
                .map(|i| {
                    if n == 1 {
                        lo
                    } else {
                        lo + (hi - lo) * i as f64 / (n - 1) as f64
                    }
                })
                .collect(),
            InitSpec::Constant { value } => vec![value; n],
            InitSpec::Indicator { node } => {
                assert!(node < n, "indicator node {node} out of range for {n} nodes");
                let mut v = vec![0.0; n];
                v[node] = 1.0;
                v
            }
            InitSpec::Opinions { .. } | InitSpec::Distinct => {
                panic!("voter init has no f64 values")
            }
            InitSpec::File { .. } => panic!("file init resolves through load_init_file"),
        }
    }

    /// The voter initial opinions for an `n`-node graph.
    ///
    /// # Panics
    ///
    /// Panics on averaging variants (guarded by
    /// [`ScenarioSpec::validate`]).
    pub fn opinions(&self, n: usize) -> Vec<u32> {
        match *self {
            InitSpec::Opinions { levels } => (0..n as u32).map(|i| i % levels as u32).collect(),
            InitSpec::Distinct => (0..n as u32).collect(),
            _ => panic!("averaging init has no opinions"),
        }
    }
}

/// Balanced ±1 initial values (exactly centered for even `n`; centered by
/// subtraction otherwise). The paper's bounds are scale-free in
/// `‖ξ(0)‖²`, and ±1 keeps `‖ξ‖² = n` so normalized variances are easy
/// to read. The single home of the experiments' standard `ξ(0)`.
pub fn pm_one(n: usize) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    if n % 2 == 1 {
        let mean = v.iter().sum::<f64>() / n as f64;
        for x in &mut v {
            *x -= mean;
        }
    }
    v
}

/// How the topology evolves between epochs (omit for a static graph).
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSpec {
    /// The churn family and its parameters.
    pub model: ChurnModelSpec,
    /// Process steps per epoch (the churn cadence).
    pub steps_per_epoch: u64,
    /// Seed of the dedicated churn RNG: every replica of the scenario
    /// sees the same topology trajectory.
    pub seed: u64,
}

/// The churn families representable in the text format. Every
/// `od_graph::ChurnModel` has a spelling: the generative families carry
/// their parameters inline, and `ChurnModel::TemporalReplay` is named by
/// an edge-snapshot file ([`ChurnModelSpec::Replay`]).
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field meanings match od_graph::ChurnModel 1:1
pub enum ChurnModelSpec {
    EdgeSwap {
        swaps: usize,
    },
    Rewire {
        rewires: usize,
        min_degree: usize,
    },
    GnpResample {
        p: f64,
        min_degree: usize,
    },
    /// A recorded topology trajectory replayed from a file: snapshots of
    /// `u v` edge lines separated by `--` lines (blank lines and `#`
    /// comments ignored), cycled when the run outlives the recording.
    /// Read when the simulation is assembled, like [`InitSpec::File`].
    Replay {
        /// Path to the snapshot file. Must be a single `#`-free token
        /// (no whitespace) so the text format round-trips.
        path: String,
    },
}

impl ChurnModelSpec {
    /// The `od-graph` churn model. [`ChurnModelSpec::Replay`] reads its
    /// snapshot file here.
    ///
    /// # Errors
    ///
    /// Parameter validation errors from `od-graph`, or
    /// [`SimError::Invalid`] for an unreadable or malformed snapshot
    /// file.
    pub fn build(&self) -> Result<ChurnModel, SimError> {
        match self {
            &ChurnModelSpec::EdgeSwap { swaps } => Ok(ChurnModel::edge_swap(swaps)),
            &ChurnModelSpec::Rewire {
                rewires,
                min_degree,
            } => Ok(ChurnModel::rewire(rewires, min_degree)),
            &ChurnModelSpec::GnpResample { p, min_degree } => {
                Ok(ChurnModel::gnp_resample(p, min_degree)?)
            }
            ChurnModelSpec::Replay { path } => {
                Ok(ChurnModel::temporal_replay(load_replay_file(path)?)?)
            }
        }
    }
}

/// Whether `path` survives the line-based text format as a single
/// `sub=val` token: non-empty, no whitespace, no `#`.
fn path_token(path: &str) -> bool {
    !path.is_empty() && !path.contains('#') && !path.chars().any(char::is_whitespace)
}

/// Reads an [`InitSpec::File`] values file: one finite float per line,
/// blank lines and `#` comments ignored.
///
/// # Errors
///
/// [`SimError::Invalid`] naming the file (and line) for IO failures,
/// malformed or non-finite values, or an empty file.
pub fn load_init_file(path: &str) -> Result<Vec<f64>, SimError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SimError::Invalid(format!("init file '{path}': {e}")))?;
    let mut values = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let value: f64 = content.parse().map_err(|_| {
            SimError::Invalid(format!(
                "init file '{path}' line {}: malformed value '{content}'",
                idx + 1
            ))
        })?;
        if !value.is_finite() {
            return Err(SimError::Invalid(format!(
                "init file '{path}' line {}: non-finite value",
                idx + 1
            )));
        }
        values.push(value);
    }
    if values.is_empty() {
        return Err(SimError::Invalid(format!(
            "init file '{path}' contains no values"
        )));
    }
    Ok(values)
}

/// Reads a [`ChurnModelSpec::Replay`] snapshot file: `u v` edge lines,
/// snapshots separated by `--` lines (the trailing separator is
/// optional), blank lines and `#` comments ignored.
///
/// # Errors
///
/// [`SimError::Invalid`] naming the file (and line) for IO failures,
/// malformed edge lines, an empty snapshot, or a file with no
/// snapshots at all.
pub fn load_replay_file(path: &str) -> Result<Vec<Vec<(u32, u32)>>, SimError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SimError::Invalid(format!("replay file '{path}': {e}")))?;
    let mut snapshots: Vec<Vec<(u32, u32)>> = Vec::new();
    let mut current: Vec<(u32, u32)> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        if content == "--" {
            if current.is_empty() {
                return Err(SimError::Invalid(format!(
                    "replay file '{path}' line {line}: empty snapshot before '--'"
                )));
            }
            snapshots.push(std::mem::take(&mut current));
            continue;
        }
        let bad = || {
            SimError::Invalid(format!(
                "replay file '{path}' line {line}: expected 'u v', got '{content}'"
            ))
        };
        let mut it = content.split_whitespace();
        let (Some(u), Some(v), None) = (it.next(), it.next(), it.next()) else {
            return Err(bad());
        };
        let u: u32 = u.parse().map_err(|_| bad())?;
        let v: u32 = v.parse().map_err(|_| bad())?;
        current.push((u, v));
    }
    if !current.is_empty() {
        snapshots.push(current);
    }
    if snapshots.is_empty() {
        return Err(SimError::Invalid(format!(
            "replay file '{path}' contains no snapshots"
        )));
    }
    Ok(snapshots)
}

/// Reads a [`GraphSpec::File`] edge list: one edge per line, `u v` or
/// `u v w` (comma- or whitespace-separated — `0,1,2.5` and `0 1 2.5`
/// both work), blank lines and `#` comments ignored. The column count
/// must be consistent across the file; a third column attaches per-edge
/// weights. Node count is `max id + 1`.
///
/// # Errors
///
/// [`SimError::Invalid`] naming the file (and line) for IO failures,
/// malformed or inconsistent lines, or an empty file;
/// [`SimError::Graph`] if the edge list itself is rejected (self-loops,
/// duplicates, non-finite or negative weights, zero-weight rows).
pub fn load_edge_list_file(path: &str, directed: bool) -> Result<Graph, SimError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SimError::Invalid(format!("graph file '{path}': {e}")))?;
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    let mut weighted: Option<bool> = None;
    let mut max_id = 0u32;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let bad = |what: &str| {
            SimError::Invalid(format!(
                "graph file '{path}' line {line}: {what}: '{content}'"
            ))
        };
        let tokens: Vec<&str> = content
            .split(|c: char| c == ',' || c.is_whitespace())
            .filter(|t| !t.is_empty())
            .collect();
        let has_weight = match tokens.len() {
            2 => false,
            3 => true,
            _ => return Err(bad("expected 'u v' or 'u v w'")),
        };
        if *weighted.get_or_insert(has_weight) != has_weight {
            return Err(bad("mixed 2- and 3-column lines"));
        }
        let u: u32 = tokens[0].parse().map_err(|_| bad("malformed node id"))?;
        let v: u32 = tokens[1].parse().map_err(|_| bad("malformed node id"))?;
        let w: f64 = if has_weight {
            tokens[2].parse().map_err(|_| bad("malformed weight"))?
        } else {
            1.0
        };
        max_id = max_id.max(u).max(v);
        edges.push((u, v, w));
    }
    if edges.is_empty() {
        return Err(SimError::Invalid(format!(
            "graph file '{path}' contains no edges"
        )));
    }
    let n = max_id as usize + 1;
    let graph = match (directed, weighted.unwrap_or(false)) {
        (false, false) => {
            let plain: Vec<(u32, u32)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
            Graph::from_edges(n, &plain)?
        }
        (false, true) => Graph::from_weighted_edges(n, &edges)?,
        (true, false) => {
            let plain: Vec<(u32, u32)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
            Graph::from_directed_edges(n, &plain)?
        }
        (true, true) => Graph::from_directed_weighted_edges(n, &edges)?,
    };
    Ok(graph)
}

/// How the batched convergence engine detects the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopRuleSpec {
    /// Scalar-identical per-step stopping (`od_core::StopRule::Exact`).
    Exact,
    /// Block-boundary stopping (`od_core::StopRule::Block`). Under churn
    /// this is the epoch-boundary rule of the dynamic engine.
    Block,
}

/// Which potential the ε-threshold applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PotentialSpec {
    /// `φ` of Eq. 3 (π-weighted).
    Pi,
    /// `φ̄_V` of Prop. D.1 (uniform weights).
    Uniform,
}

impl PotentialSpec {
    /// The `od-core` potential kind.
    pub fn kind(&self) -> od_core::PotentialKind {
        match self {
            PotentialSpec::Pi => od_core::PotentialKind::Pi,
            PotentialSpec::Uniform => od_core::PotentialKind::Uniform,
        }
    }
}

/// When a trial stops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopSpec {
    /// A fixed step horizon.
    Steps {
        /// Steps per trial.
        steps: u64,
    },
    /// ε-convergence of the chosen potential, within a step budget.
    Converge {
        /// The threshold ε.
        epsilon: f64,
        /// Detection rule.
        rule: StopRuleSpec,
        /// Which potential is thresholded.
        potential: PotentialSpec,
        /// Per-trial step budget.
        budget: u64,
    },
    /// Voter consensus, within a step budget.
    Consensus {
        /// Per-trial step budget.
        budget: u64,
    },
    /// Synchronous fixed point: stop when a full round moves no node by
    /// more than ε, within a round budget (`stop fixed_point eps=..
    /// budget=..`; the synchronous models only).
    FixedPoint {
        /// The per-round max-movement threshold ε.
        epsilon: f64,
        /// Per-trial round budget.
        budget: u64,
    },
}

/// The spec's `tier` line. There is one kernel tier; the enum keeps the
/// `tier` line's two spellings so every spec text parses, validates and
/// renders (and so keys the `od-serve` cache) as it always has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TierSpec {
    /// The bit-exact kernels (the default): per-trial results are
    /// bit-identical to the direct engine calls they replace, independent
    /// of batch size and thread count.
    #[default]
    Exact,
    /// A retired spelling that runs the exact engines, so its results are
    /// bit-identical to the [`TierSpec::Exact`] twin's. It keeps its
    /// validation rules (averaging models only, no trace, `rule=block`
    /// and the `pi` potential for `stop converge`, no sync models).
    Lane,
}

/// What a run returns beyond the per-trial reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputSpec {
    /// Per-trial reports plus summary statistics (the default).
    Reports,
    /// Additionally record a `(t, φ(ξ(t)))` potential trace — single
    /// replica, static unweighted graph, fixed step horizon.
    Trace {
        /// Sampling interval in steps.
        every: u64,
    },
}

/// One declarative point in the paper's experiment space. See the module
/// docs for the text format and [`crate::Simulation`] for the engine
/// dispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Optional human-readable name (`scenario <name>`).
    pub name: Option<String>,
    /// The process.
    pub model: ModelSpec,
    /// The topology.
    pub graph: GraphSpec,
    /// Per-edge weights attached to a generated topology
    /// ([`WeightSpec::Unit`] — no weights — by default).
    pub weights: WeightSpec,
    /// Topology evolution; `None` = static graph.
    pub churn: Option<ChurnSpec>,
    /// The initial state distribution.
    pub init: InitSpec,
    /// Number of independent trials (replicas).
    pub replicas: usize,
    /// Master seed; trial `i` runs from
    /// `SeedSequence::new(seed).seed(i)`, matching the Monte-Carlo
    /// runner's derivation exactly.
    pub seed: u64,
    /// The stopping rule.
    pub stop: StopSpec,
    /// Block length between convergence checks (0 = auto, one block per
    /// `n` steps). Ignored under churn (the epoch is the block).
    pub check_every: u64,
    /// The cell's thread budget (0 = available parallelism), resolved
    /// once: seed chunks run side by side, each driver with `budget /
    /// chunks` workers (at least one) for its replicas; the streaming
    /// window gets all of it. Block rounds below the block runner's work
    /// cutoff run inline whatever the budget. Results never depend on
    /// this.
    pub threads: usize,
    /// Replicas per structure-of-arrays batch / streaming-window
    /// capacity (0 = auto). Results never depend on this.
    pub batch: usize,
    /// The `tier` line ([`TierSpec::Exact`] by default). Both spellings
    /// run the same engines.
    pub tier: TierSpec,
    /// Output selection.
    pub output: OutputSpec,
}

/// Default streaming-window / batch capacity when `batch = 0`.
pub const DEFAULT_BATCH: usize = 16;

impl ScenarioSpec {
    /// A minimal valid spec: one replica of `model` on `graph`, default
    /// init for the model family, stopping after `steps` steps.
    pub fn new(model: ModelSpec, graph: GraphSpec, steps: u64) -> ScenarioSpec {
        ScenarioSpec {
            name: None,
            model,
            graph,
            weights: WeightSpec::Unit,
            churn: None,
            init: if model.is_averaging() {
                InitSpec::PmOne
            } else {
                InitSpec::Distinct
            },
            replicas: 1,
            seed: 0,
            stop: StopSpec::Steps { steps },
            check_every: 0,
            threads: 0,
            batch: 0,
            tier: TierSpec::Exact,
            output: OutputSpec::Reports,
        }
    }

    /// The spec's canonical text form — the result-cache key.
    ///
    /// This is exactly [`fmt::Display`], named to document the contract
    /// the `od-serve` memo cache relies on: `parse` / `Display` round-
    /// trip exactly, so two specs render the same key **iff** they are
    /// equal — and because every engine makes trial `i` a
    /// pure function of `SeedSequence::new(seed).seed(i)`, equal keys
    /// imply bit-identical results. The `seed` line is part of the
    /// rendered text, so the key already covers the seed.
    pub fn canonical_key(&self) -> String {
        self.to_string()
    }

    /// The effective batch / streaming-window capacity.
    pub fn resolved_batch(&self) -> usize {
        if self.batch == 0 {
            DEFAULT_BATCH
        } else {
            self.batch
        }
    }

    /// Validates the spec's internal consistency (graph-independent
    /// checks; graph-dependent ones — `k ≤ d_min`, connectivity — happen
    /// at [`crate::Simulation::from_spec`]).
    ///
    /// # Errors
    ///
    /// [`SimError::Invalid`] naming the first violated rule.
    pub fn validate(&self) -> Result<(), SimError> {
        let invalid = |message: &str| Err(SimError::Invalid(message.into()));
        if let Some(name) = &self.name {
            // The text format is line-based with `#` comments and the
            // parser joins a name's whitespace-separated tokens with
            // single spaces, so a name must be non-empty, `#`-free and
            // already in that normalized form or the exact parse/Display
            // round trip breaks.
            let normalized = name.split_whitespace().collect::<Vec<_>>().join(" ");
            if name.is_empty() || name.contains('#') || normalized != *name {
                return invalid(
                    "scenario name must be non-empty, single-line, '#'-free and \
                     single-space separated",
                );
            }
        }
        if self.replicas == 0 {
            return invalid("replicas must be at least 1");
        }
        match self.model {
            ModelSpec::Node { alpha, k, .. } => {
                if !alpha.is_finite() || !(0.0..1.0).contains(&alpha) {
                    return invalid("node model alpha must lie in [0, 1)");
                }
                if k == 0 {
                    return invalid("node model k must be at least 1");
                }
            }
            ModelSpec::Edge { alpha, .. } => {
                if !alpha.is_finite() || !(0.0..1.0).contains(&alpha) {
                    return invalid("edge model alpha must lie in [0, 1)");
                }
            }
            ModelSpec::Voter | ModelSpec::WeightedMedian => {}
            ModelSpec::DeGroot { lazy } => {
                if !lazy.is_finite() || !(0.0..1.0).contains(&lazy) {
                    return invalid("degroot laziness must lie in [0, 1)");
                }
            }
            ModelSpec::Fj { alpha } => {
                if !alpha.is_finite() || alpha <= 0.0 || alpha > 1.0 {
                    return invalid("fj stubbornness alpha must lie in (0, 1]");
                }
            }
        }
        if self.model.is_averaging() != self.init.is_averaging() {
            return invalid("init distribution does not match the model family (voter opinions vs averaging values)");
        }
        match self.init {
            InitSpec::Opinions { levels: 0 } => {
                return invalid("opinions init needs at least 1 level");
            }
            InitSpec::Linear { lo, hi } if !lo.is_finite() || !hi.is_finite() => {
                return invalid("linear init endpoints must be finite");
            }
            InitSpec::Constant { value } if !value.is_finite() => {
                return invalid("constant init value must be finite");
            }
            InitSpec::File { ref path } if !path_token(path) => {
                return invalid("init file path must be a non-empty single token without '#'");
            }
            _ => {}
        }
        match self.graph {
            GraphSpec::Gnp { p, .. } | GraphSpec::WattsStrogatz { p, .. } if !p.is_finite() => {
                return invalid("graph edge probability must be finite");
            }
            GraphSpec::File { ref path, .. } if !path_token(path) => {
                return invalid("graph file path must be a non-empty single token without '#'");
            }
            _ => {}
        }
        if matches!(self.graph, GraphSpec::File { directed: true, .. }) && !self.model.is_sync() {
            return invalid(
                "directed graphs run the synchronous models only (degroot, fj, weighted_median)",
            );
        }
        if let WeightSpec::Uniform { lo, hi, .. } = self.weights {
            if !lo.is_finite() || !hi.is_finite() || lo <= 0.0 || lo > hi {
                return invalid("uniform weights need finite endpoints with 0 < lo <= hi");
            }
            if !self.model.is_averaging() {
                return invalid("the voter model samples uniform edges; drop the weights line");
            }
            if self.churn.is_some() {
                return invalid(
                    "churned graphs are unweighted (the dynamic engines reject weights)",
                );
            }
            if matches!(self.graph, GraphSpec::File { .. }) {
                return invalid(
                    "file graphs carry their weights in the file; drop the weights line",
                );
            }
            if matches!(self.output, OutputSpec::Trace { .. }) {
                return invalid("trace output runs on unweighted graphs only");
            }
        }
        if self.model.is_sync() {
            // The synchronous-rounds kernels are deterministic: one
            // round sweep, no per-trial randomness, no churn interplay.
            if self.churn.is_some() {
                return invalid("synchronous models run on a static graph");
            }
            if self.replicas != 1 {
                return invalid("synchronous rounds are deterministic; use replicas 1");
            }
            if self.tier == TierSpec::Lane {
                return invalid(
                    "tier lane (retired) never applied to the synchronous models; use tier exact",
                );
            }
            if matches!(self.output, OutputSpec::Trace { .. }) {
                return invalid("trace output samples the node and edge models' potential");
            }
            if !matches!(
                self.stop,
                StopSpec::Steps { .. } | StopSpec::FixedPoint { .. }
            ) {
                return invalid(
                    "synchronous models stop on fixed_point or a fixed round count (stop steps)",
                );
            }
        }
        match self.stop {
            StopSpec::Steps { .. } => {}
            StopSpec::Converge {
                epsilon,
                rule,
                potential,
                ..
            } => {
                if !self.model.is_averaging() {
                    return invalid("the voter model stops on consensus, not epsilon-convergence");
                }
                if !epsilon.is_finite() || epsilon < 0.0 {
                    return invalid("epsilon must be finite and non-negative");
                }
                if self.churn.is_some() {
                    if rule != StopRuleSpec::Block {
                        return invalid(
                            "under churn, convergence is checked at epoch boundaries (rule=block)",
                        );
                    }
                    if potential != PotentialSpec::Pi {
                        return invalid("under churn, only the pi potential is supported");
                    }
                }
            }
            StopSpec::Consensus { .. } => {
                if self.model.is_averaging() {
                    return invalid("consensus stopping applies to the voter model only");
                }
            }
            StopSpec::FixedPoint { epsilon, .. } => {
                if !self.model.is_sync() {
                    return invalid(
                        "fixed_point stopping applies to the synchronous models \
                         (degroot, fj, weighted_median)",
                    );
                }
                if !epsilon.is_finite() || epsilon < 0.0 {
                    return invalid("epsilon must be finite and non-negative");
                }
            }
        }
        if let Some(churn) = &self.churn {
            if churn.steps_per_epoch == 0 {
                return invalid("churn epoch must be at least 1 step");
            }
            if let ChurnModelSpec::GnpResample { p, .. } = churn.model {
                if !(0.0..=1.0).contains(&p) {
                    return invalid("gnp_resample probability must lie in [0, 1]");
                }
            }
            if let ChurnModelSpec::Replay { ref path } = churn.model {
                if !path_token(path) {
                    return invalid(
                        "churn replay file path must be a non-empty single token without '#'",
                    );
                }
            }
            let horizon = match self.stop {
                StopSpec::Steps { steps } => steps,
                StopSpec::Converge { budget, .. }
                | StopSpec::Consensus { budget }
                | StopSpec::FixedPoint { budget, .. } => budget,
            };
            if !horizon.is_multiple_of(churn.steps_per_epoch) {
                return invalid("the step horizon/budget must be a whole number of churn epochs");
            }
        }
        if self.tier == TierSpec::Lane {
            if !self.model.is_averaging() {
                return invalid(
                    "tier lane (retired) applies to the averaging models only; use tier exact",
                );
            }
            if matches!(self.output, OutputSpec::Trace { .. }) {
                return invalid("trace output never ran under tier lane (retired); use tier exact");
            }
            if let StopSpec::Converge {
                rule, potential, ..
            } = self.stop
            {
                if rule != StopRuleSpec::Block {
                    return invalid(
                        "tier lane (retired) applies with rule=block only; use tier exact",
                    );
                }
                if potential != PotentialSpec::Pi {
                    return invalid("tier lane (retired) applies to the pi potential only");
                }
            }
        }
        if let OutputSpec::Trace { every } = self.output {
            if every == 0 {
                return invalid("trace sampling interval must be at least 1");
            }
            if self.replicas != 1 {
                return invalid("trace output records one run; use replicas 1");
            }
            if self.churn.is_some() {
                return invalid("trace output needs a static graph");
            }
            if !self.model.is_averaging() {
                return invalid("trace output records the averaging potential, not voter opinions");
            }
            if !matches!(self.stop, StopSpec::Steps { .. }) {
                return invalid("trace output needs a fixed step horizon (stop steps)");
            }
        }
        Ok(())
    }

    /// Parses the text format (see the module docs). Unknown keys,
    /// malformed numbers, duplicate keys and missing required keys
    /// (`model`, `graph`, `stop`) are errors; everything else defaults.
    ///
    /// # Errors
    ///
    /// [`SimError::Parse`] with the offending line, or
    /// [`SimError::Invalid`] if the parsed spec fails
    /// [`ScenarioSpec::validate`].
    pub fn parse(text: &str) -> Result<ScenarioSpec, SimError> {
        parse::parse(text)
    }
}

impl fmt::Display for ScenarioSpec {
    /// The canonical text form: every field explicit, fixed key order, so
    /// `parse(spec.to_string()) == spec` exactly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(name) = &self.name {
            writeln!(f, "scenario {name}")?;
        }
        match self.model {
            ModelSpec::Node { alpha, k, lazy } => {
                writeln!(f, "model node alpha={alpha} k={k} lazy={lazy}")?;
            }
            ModelSpec::Edge { alpha, lazy } => {
                writeln!(f, "model edge alpha={alpha} lazy={lazy}")?;
            }
            ModelSpec::Voter => writeln!(f, "model voter")?,
            ModelSpec::DeGroot { lazy } => writeln!(f, "model degroot lazy={lazy}")?,
            ModelSpec::Fj { alpha } => writeln!(f, "model fj alpha={alpha}")?,
            ModelSpec::WeightedMedian => writeln!(f, "model weighted_median")?,
        }
        writeln!(f, "graph {}", self.graph)?;
        // Unit weights print nothing: the canonical key of every
        // pre-existing (unweighted) scenario is unchanged, so od-serve
        // memo entries stay valid.
        if let WeightSpec::Uniform { lo, hi, seed } = self.weights {
            writeln!(f, "weights uniform lo={lo} hi={hi} seed={seed}")?;
        }
        match &self.init {
            InitSpec::PmOne => writeln!(f, "init pm_one")?,
            InitSpec::Linear { lo, hi } => writeln!(f, "init linear lo={lo} hi={hi}")?,
            InitSpec::Constant { value } => writeln!(f, "init constant value={value}")?,
            InitSpec::Indicator { node } => writeln!(f, "init indicator node={node}")?,
            InitSpec::Opinions { levels } => writeln!(f, "init opinions levels={levels}")?,
            InitSpec::Distinct => writeln!(f, "init distinct")?,
            InitSpec::File { path } => writeln!(f, "init file path={path}")?,
        }
        if let Some(churn) = &self.churn {
            let (epoch, seed) = (churn.steps_per_epoch, churn.seed);
            match &churn.model {
                ChurnModelSpec::EdgeSwap { swaps } => {
                    writeln!(f, "churn edge_swap swaps={swaps} epoch={epoch} seed={seed}")?;
                }
                ChurnModelSpec::Rewire {
                    rewires,
                    min_degree,
                } => writeln!(
                    f,
                    "churn rewire rewires={rewires} floor={min_degree} epoch={epoch} seed={seed}"
                )?,
                ChurnModelSpec::GnpResample { p, min_degree } => writeln!(
                    f,
                    "churn gnp_resample p={p} floor={min_degree} epoch={epoch} seed={seed}"
                )?,
                ChurnModelSpec::Replay { path } => {
                    writeln!(f, "churn replay file={path} epoch={epoch} seed={seed}")?;
                }
            }
        }
        writeln!(f, "replicas {}", self.replicas)?;
        writeln!(f, "seed {}", self.seed)?;
        match self.stop {
            StopSpec::Steps { steps } => writeln!(f, "stop steps count={steps}")?,
            StopSpec::Converge {
                epsilon,
                rule,
                potential,
                budget,
            } => {
                let rule = match rule {
                    StopRuleSpec::Exact => "exact",
                    StopRuleSpec::Block => "block",
                };
                let potential = match potential {
                    PotentialSpec::Pi => "pi",
                    PotentialSpec::Uniform => "uniform",
                };
                writeln!(
                    f,
                    "stop converge eps={epsilon} rule={rule} potential={potential} budget={budget}"
                )?;
            }
            StopSpec::Consensus { budget } => writeln!(f, "stop consensus budget={budget}")?,
            StopSpec::FixedPoint { epsilon, budget } => {
                writeln!(f, "stop fixed_point eps={epsilon} budget={budget}")?;
            }
        }
        writeln!(f, "check_every {}", self.check_every)?;
        writeln!(f, "threads {}", self.threads)?;
        writeln!(f, "batch {}", self.batch)?;
        match self.tier {
            TierSpec::Exact => writeln!(f, "tier exact")?,
            TierSpec::Lane => writeln!(f, "tier lane")?,
        }
        match self.output {
            OutputSpec::Reports => writeln!(f, "output reports"),
            OutputSpec::Trace { every } => writeln!(f, "output trace every={every}"),
        }
    }
}

mod parse {
    use super::*;

    /// `k=v` token map with duplicate and completeness checking.
    struct Fields<'a> {
        line: usize,
        map: HashMap<&'a str, &'a str>,
    }

    impl<'a> Fields<'a> {
        fn new(line: usize, tokens: &[&'a str]) -> Result<Self, SimError> {
            let mut map = HashMap::new();
            for token in tokens {
                let Some((key, value)) = token.split_once('=') else {
                    return Err(err(line, format!("expected key=value, got '{token}'")));
                };
                if map.insert(key, value).is_some() {
                    return Err(err(line, format!("duplicate field '{key}'")));
                }
            }
            Ok(Fields { line, map })
        }

        fn take<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, SimError> {
            let Some(raw) = self.map.remove(key) else {
                return Err(err(self.line, format!("missing field '{key}'")));
            };
            raw.parse()
                .map_err(|_| err(self.line, format!("malformed value for '{key}': '{raw}'")))
        }

        /// Like [`Fields::take`], but defaults instead of erroring when
        /// the field is absent — for optional fields like the file
        /// graph's `directed` flag.
        fn take_or<T: std::str::FromStr>(&mut self, key: &str, default: T) -> Result<T, SimError> {
            if self.map.contains_key(key) {
                self.take(key)
            } else {
                Ok(default)
            }
        }

        /// Like [`Fields::take`] for `f64`, but rejects the non-finite
        /// tokens `f64::from_str` would happily accept (`NaN`, `inf`,
        /// …) — a spec file can never name a non-finite parameter.
        fn take_finite(&mut self, key: &str) -> Result<f64, SimError> {
            let line = self.line;
            let value: f64 = self.take(key)?;
            if !value.is_finite() {
                return Err(err(line, format!("non-finite value for '{key}'")));
            }
            Ok(value)
        }

        fn finish(self) -> Result<(), SimError> {
            if let Some(key) = self.map.keys().next() {
                return Err(err(self.line, format!("unknown field '{key}'")));
            }
            Ok(())
        }
    }

    fn err(line: usize, message: String) -> SimError {
        SimError::Parse { line, message }
    }

    pub(super) fn parse(text: &str) -> Result<ScenarioSpec, SimError> {
        let mut name: Option<String> = None;
        let mut model: Option<ModelSpec> = None;
        let mut graph: Option<GraphSpec> = None;
        let mut weights: Option<WeightSpec> = None;
        let mut churn: Option<ChurnSpec> = None;
        let mut init: Option<InitSpec> = None;
        let mut replicas: Option<usize> = None;
        let mut seed: Option<u64> = None;
        let mut stop: Option<StopSpec> = None;
        let mut check_every: Option<u64> = None;
        let mut threads: Option<usize> = None;
        let mut batch: Option<usize> = None;
        let mut tier: Option<TierSpec> = None;
        let mut output: Option<OutputSpec> = None;

        for (idx, raw_line) in text.lines().enumerate() {
            let line = idx + 1;
            let content = raw_line.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let mut tokens = content.split_whitespace();
            let key = tokens.next().expect("non-empty line has a first token");
            let rest: Vec<&str> = tokens.collect();
            let dup = |slot_taken: bool| {
                if slot_taken {
                    Err(err(line, format!("duplicate key '{key}'")))
                } else {
                    Ok(())
                }
            };
            match key {
                "scenario" => {
                    dup(name.is_some())?;
                    if rest.is_empty() {
                        return Err(err(line, "scenario needs a name".into()));
                    }
                    name = Some(rest.join(" "));
                }
                "model" => {
                    dup(model.is_some())?;
                    model = Some(parse_model(line, &rest)?);
                }
                "graph" => {
                    dup(graph.is_some())?;
                    graph = Some(parse_graph(line, &rest)?);
                }
                "weights" => {
                    dup(weights.is_some())?;
                    weights = Some(parse_weights(line, &rest)?);
                }
                "churn" => {
                    dup(churn.is_some())?;
                    churn = Some(parse_churn(line, &rest)?);
                }
                "init" => {
                    dup(init.is_some())?;
                    init = Some(parse_init(line, &rest)?);
                }
                "replicas" => {
                    dup(replicas.is_some())?;
                    replicas = Some(parse_scalar(line, key, &rest)?);
                }
                "seed" => {
                    dup(seed.is_some())?;
                    seed = Some(parse_scalar(line, key, &rest)?);
                }
                "stop" => {
                    dup(stop.is_some())?;
                    stop = Some(parse_stop(line, &rest)?);
                }
                "check_every" => {
                    dup(check_every.is_some())?;
                    check_every = Some(parse_scalar(line, key, &rest)?);
                }
                "threads" => {
                    dup(threads.is_some())?;
                    threads = Some(parse_scalar(line, key, &rest)?);
                }
                "batch" => {
                    dup(batch.is_some())?;
                    batch = Some(parse_scalar(line, key, &rest)?);
                }
                "tier" => {
                    dup(tier.is_some())?;
                    tier = Some(parse_tier(line, &rest)?);
                }
                "output" => {
                    dup(output.is_some())?;
                    output = Some(parse_output(line, &rest)?);
                }
                other => return Err(err(line, format!("unknown key '{other}'"))),
            }
        }

        let Some(model) = model else {
            return Err(SimError::Invalid("missing 'model' line".into()));
        };
        let Some(graph) = graph else {
            return Err(SimError::Invalid("missing 'graph' line".into()));
        };
        let Some(stop) = stop else {
            return Err(SimError::Invalid("missing 'stop' line".into()));
        };
        let spec = ScenarioSpec {
            name,
            model,
            graph,
            weights: weights.unwrap_or_default(),
            churn,
            init: init.unwrap_or(if model.is_averaging() {
                InitSpec::PmOne
            } else {
                InitSpec::Distinct
            }),
            replicas: replicas.unwrap_or(1),
            seed: seed.unwrap_or(0),
            stop,
            check_every: check_every.unwrap_or(0),
            threads: threads.unwrap_or(0),
            batch: batch.unwrap_or(0),
            tier: tier.unwrap_or_default(),
            output: output.unwrap_or(OutputSpec::Reports),
        };
        spec.validate()?;
        Ok(spec)
    }

    fn parse_scalar<T: std::str::FromStr>(
        line: usize,
        key: &str,
        rest: &[&str],
    ) -> Result<T, SimError> {
        if rest.len() != 1 {
            return Err(err(line, format!("'{key}' takes exactly one value")));
        }
        rest[0]
            .parse()
            .map_err(|_| err(line, format!("malformed value for '{key}': '{}'", rest[0])))
    }

    fn variant_fields<'a>(
        line: usize,
        what: &str,
        rest: &'a [&'a str],
    ) -> Result<(&'a str, Fields<'a>), SimError> {
        let Some((&variant, fields)) = rest.split_first() else {
            return Err(err(line, format!("'{what}' needs a variant")));
        };
        Ok((variant, Fields::new(line, fields)?))
    }

    fn parse_model(line: usize, rest: &[&str]) -> Result<ModelSpec, SimError> {
        let (variant, mut f) = variant_fields(line, "model", rest)?;
        let model = match variant {
            "node" => ModelSpec::Node {
                alpha: f.take_finite("alpha")?,
                k: f.take("k")?,
                lazy: f.take("lazy")?,
            },
            "edge" => ModelSpec::Edge {
                alpha: f.take_finite("alpha")?,
                lazy: f.take("lazy")?,
            },
            "voter" => ModelSpec::Voter,
            "degroot" => ModelSpec::DeGroot {
                lazy: f.take_finite("lazy")?,
            },
            "fj" => ModelSpec::Fj {
                alpha: f.take_finite("alpha")?,
            },
            "weighted_median" => ModelSpec::WeightedMedian,
            other => return Err(err(line, format!("unknown model '{other}'"))),
        };
        f.finish()?;
        Ok(model)
    }

    fn parse_weights(line: usize, rest: &[&str]) -> Result<WeightSpec, SimError> {
        let (variant, mut f) = variant_fields(line, "weights", rest)?;
        let weights = match variant {
            "uniform" => WeightSpec::Uniform {
                lo: f.take_finite("lo")?,
                hi: f.take_finite("hi")?,
                seed: f.take("seed")?,
            },
            other => return Err(err(line, format!("unknown weights distribution '{other}'"))),
        };
        f.finish()?;
        Ok(weights)
    }

    pub(super) fn parse_graph(line: usize, rest: &[&str]) -> Result<GraphSpec, SimError> {
        let (variant, mut f) = variant_fields(line, "graph", rest)?;
        // `graph file=<path> [directed=true]` names an edge-list file,
        // not a generator family — the variant token carries the path.
        if let Some(path) = variant.strip_prefix("file=") {
            if path.is_empty() {
                return Err(err(line, "file graph needs a non-empty path".into()));
            }
            let directed = f.take_or("directed", false)?;
            f.finish()?;
            return Ok(GraphSpec::File {
                path: path.to_string(),
                directed,
            });
        }
        let graph = match variant {
            "cycle" => GraphSpec::Cycle { n: f.take("n")? },
            "path" => GraphSpec::Path { n: f.take("n")? },
            "complete" => GraphSpec::Complete { n: f.take("n")? },
            "star" => GraphSpec::Star { n: f.take("n")? },
            "complete_bipartite" => GraphSpec::CompleteBipartite {
                a: f.take("a")?,
                b: f.take("b")?,
            },
            "grid" => GraphSpec::Grid {
                rows: f.take("rows")?,
                cols: f.take("cols")?,
            },
            "torus" => GraphSpec::Torus {
                rows: f.take("rows")?,
                cols: f.take("cols")?,
            },
            "hypercube" => GraphSpec::Hypercube {
                dim: f.take("dim")?,
            },
            "binary_tree" => GraphSpec::BinaryTree {
                levels: f.take("levels")?,
            },
            "petersen" => GraphSpec::Petersen,
            "barbell" => GraphSpec::Barbell { k: f.take("k")? },
            "lollipop" => GraphSpec::Lollipop {
                k: f.take("k")?,
                tail: f.take("tail")?,
            },
            "gnp" => GraphSpec::Gnp {
                n: f.take("n")?,
                p: f.take_finite("p")?,
                seed: f.take("seed")?,
            },
            "gnm" => GraphSpec::Gnm {
                n: f.take("n")?,
                m: f.take("m")?,
                seed: f.take("seed")?,
            },
            "random_regular" => GraphSpec::RandomRegular {
                n: f.take("n")?,
                d: f.take("d")?,
                seed: f.take("seed")?,
            },
            "watts_strogatz" => GraphSpec::WattsStrogatz {
                n: f.take("n")?,
                k: f.take("k")?,
                p: f.take_finite("p")?,
                seed: f.take("seed")?,
            },
            "barabasi_albert" => GraphSpec::BarabasiAlbert {
                n: f.take("n")?,
                m: f.take("m")?,
                seed: f.take("seed")?,
            },
            other => return Err(err(line, format!("unknown graph generator '{other}'"))),
        };
        f.finish()?;
        Ok(graph)
    }

    fn parse_init(line: usize, rest: &[&str]) -> Result<InitSpec, SimError> {
        let (variant, mut f) = variant_fields(line, "init", rest)?;
        let init = match variant {
            "pm_one" => InitSpec::PmOne,
            "linear" => InitSpec::Linear {
                lo: f.take_finite("lo")?,
                hi: f.take_finite("hi")?,
            },
            "constant" => InitSpec::Constant {
                value: f.take_finite("value")?,
            },
            "indicator" => InitSpec::Indicator {
                node: f.take("node")?,
            },
            "opinions" => InitSpec::Opinions {
                levels: f.take("levels")?,
            },
            "distinct" => InitSpec::Distinct,
            "file" => InitSpec::File {
                path: f.take("path")?,
            },
            other => return Err(err(line, format!("unknown init distribution '{other}'"))),
        };
        f.finish()?;
        Ok(init)
    }

    fn parse_churn(line: usize, rest: &[&str]) -> Result<ChurnSpec, SimError> {
        let (variant, mut f) = variant_fields(line, "churn", rest)?;
        let model = match variant {
            "edge_swap" => ChurnModelSpec::EdgeSwap {
                swaps: f.take("swaps")?,
            },
            "rewire" => ChurnModelSpec::Rewire {
                rewires: f.take("rewires")?,
                min_degree: f.take("floor")?,
            },
            "gnp_resample" => ChurnModelSpec::GnpResample {
                p: f.take_finite("p")?,
                min_degree: f.take("floor")?,
            },
            "replay" => ChurnModelSpec::Replay {
                path: f.take("file")?,
            },
            other => return Err(err(line, format!("unknown churn model '{other}'"))),
        };
        let spec = ChurnSpec {
            model,
            steps_per_epoch: f.take("epoch")?,
            seed: f.take("seed")?,
        };
        f.finish()?;
        Ok(spec)
    }

    fn parse_stop(line: usize, rest: &[&str]) -> Result<StopSpec, SimError> {
        let (variant, mut f) = variant_fields(line, "stop", rest)?;
        let stop = match variant {
            "steps" => StopSpec::Steps {
                steps: f.take("count")?,
            },
            "converge" => {
                let epsilon = f.take_finite("eps")?;
                let rule = match f.take::<String>("rule")?.as_str() {
                    "exact" => StopRuleSpec::Exact,
                    "block" => StopRuleSpec::Block,
                    other => return Err(err(line, format!("unknown stop rule '{other}'"))),
                };
                let potential = match f.take::<String>("potential")?.as_str() {
                    "pi" => PotentialSpec::Pi,
                    "uniform" => PotentialSpec::Uniform,
                    other => return Err(err(line, format!("unknown potential '{other}'"))),
                };
                StopSpec::Converge {
                    epsilon,
                    rule,
                    potential,
                    budget: f.take("budget")?,
                }
            }
            "consensus" => StopSpec::Consensus {
                budget: f.take("budget")?,
            },
            "fixed_point" => StopSpec::FixedPoint {
                epsilon: f.take_finite("eps")?,
                budget: f.take("budget")?,
            },
            other => return Err(err(line, format!("unknown stop rule '{other}'"))),
        };
        f.finish()?;
        Ok(stop)
    }

    fn parse_tier(line: usize, rest: &[&str]) -> Result<TierSpec, SimError> {
        match rest {
            ["exact"] => Ok(TierSpec::Exact),
            ["lane"] => Ok(TierSpec::Lane),
            _ => Err(err(line, "'tier' takes exactly 'exact' or 'lane'".into())),
        }
    }

    fn parse_output(line: usize, rest: &[&str]) -> Result<OutputSpec, SimError> {
        let (variant, mut f) = variant_fields(line, "output", rest)?;
        let output = match variant {
            "reports" => OutputSpec::Reports,
            "trace" => OutputSpec::Trace {
                every: f.take("every")?,
            },
            other => return Err(err(line, format!("unknown output '{other}'"))),
        };
        f.finish()?;
        Ok(output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: Some("demo".into()),
            model: ModelSpec::Node {
                alpha: 0.5,
                k: 2,
                lazy: false,
            },
            graph: GraphSpec::Torus { rows: 8, cols: 8 },
            weights: WeightSpec::Unit,
            churn: Some(ChurnSpec {
                model: ChurnModelSpec::EdgeSwap { swaps: 4 },
                steps_per_epoch: 64,
                seed: 7,
            }),
            init: InitSpec::PmOne,
            replicas: 8,
            seed: 42,
            stop: StopSpec::Converge {
                epsilon: 1e-10,
                rule: StopRuleSpec::Block,
                potential: PotentialSpec::Pi,
                budget: 64 * 1000,
            },
            check_every: 0,
            threads: 1,
            batch: 4,
            tier: TierSpec::Exact,
            output: OutputSpec::Reports,
        }
    }

    #[test]
    fn round_trips_through_text() {
        let spec = sample_spec();
        let text = spec.to_string();
        let parsed = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(parsed, spec);
        // And the canonical form is a fixed point.
        assert_eq!(parsed.to_string(), text);
    }

    #[test]
    fn parses_comments_defaults_and_order_insensitivity() {
        let text = "\n# a comment\nstop steps count=100   # trailing comment\n\ngraph petersen\nmodel voter\n";
        let spec = ScenarioSpec::parse(text).unwrap();
        assert_eq!(spec.model, ModelSpec::Voter);
        assert_eq!(spec.graph, GraphSpec::Petersen);
        assert_eq!(spec.init, InitSpec::Distinct);
        assert_eq!(spec.replicas, 1);
        assert_eq!(spec.output, OutputSpec::Reports);
    }

    #[test]
    fn rejects_malformed_lines() {
        let bad = [
            "model node alpha=0.5 k=2 lazy=false", // no graph/stop
            "model nodule\ngraph petersen\nstop steps count=1", // unknown model
            "model voter\ngraph petersen\nstop steps count=x", // bad number
            "model voter\ngraph petersen\nstop steps count=1\nzap 3", // unknown key
            "model voter\ngraph petersen\ngraph petersen\nstop steps count=1", // duplicate
            "model node alpha=0.5 k=2 lazy=false extra=1\ngraph petersen\nstop steps count=1",
            "model node alpha=0.5\ngraph petersen\nstop steps count=1", // missing field
        ];
        for text in bad {
            assert!(ScenarioSpec::parse(text).is_err(), "accepted: {text}");
        }
    }

    #[test]
    fn rejects_non_finite_floats_at_parse_time() {
        // `f64::from_str` happily parses NaN/inf tokens; the spec format
        // must reject them before validation ever sees a value.
        let bad = [
            "model node alpha=NaN k=2 lazy=false\ngraph petersen\nstop steps count=1",
            "model edge alpha=inf lazy=false\ngraph petersen\nstop steps count=1",
            "model node alpha=0.5 k=2 lazy=false\ngraph petersen\ninit linear lo=NaN hi=1\nstop steps count=1",
            "model node alpha=0.5 k=2 lazy=false\ngraph petersen\ninit constant value=-inf\nstop steps count=1",
            "model node alpha=0.5 k=2 lazy=false\ngraph gnp n=16 p=inf seed=1\nstop steps count=1",
            "model node alpha=0.5 k=2 lazy=false\ngraph watts_strogatz n=16 k=2 p=NaN seed=1\nstop steps count=1",
            "model node alpha=0.5 k=2 lazy=false\ngraph petersen\nchurn gnp_resample p=NaN floor=1 epoch=8 seed=1\nstop steps count=8",
            "model node alpha=0.5 k=2 lazy=false\ngraph petersen\nstop converge eps=NaN rule=block potential=pi budget=100",
        ];
        for text in bad {
            assert!(
                matches!(ScenarioSpec::parse(text), Err(SimError::Parse { .. })),
                "accepted or mis-classified: {text}"
            );
        }
        // And programmatically-built specs hit the same wall in validate.
        let mut spec = sample_spec();
        spec.init = InitSpec::Linear {
            lo: f64::NAN,
            hi: 1.0,
        };
        assert!(matches!(spec.validate(), Err(SimError::Invalid(_))));
        let mut spec = sample_spec();
        spec.init = InitSpec::Constant {
            value: f64::INFINITY,
        };
        assert!(matches!(spec.validate(), Err(SimError::Invalid(_))));
        let mut spec = sample_spec();
        spec.graph = GraphSpec::Gnp {
            n: 16,
            p: f64::NAN,
            seed: 1,
        };
        assert!(matches!(spec.validate(), Err(SimError::Invalid(_))));
    }

    #[test]
    fn tier_round_trips_and_validates() {
        // Default is exact, printed explicitly, and round-trips.
        let spec = sample_spec();
        assert_eq!(spec.tier, TierSpec::Exact);
        assert!(spec.to_string().contains("tier exact"));
        let mut lane = sample_spec();
        lane.tier = TierSpec::Lane;
        assert!(lane.validate().is_ok(), "lane + block/pi converge is fine");
        let text = lane.to_string();
        assert!(text.contains("tier lane"));
        assert_eq!(ScenarioSpec::parse(&text).unwrap(), lane);
        // Unknown tier token is a parse error.
        assert!(
            ScenarioSpec::parse("model voter\ngraph petersen\nstop steps count=1\ntier warp")
                .is_err()
        );
        // Lane rejects the voter model…
        let mut bad = sample_spec();
        bad.tier = TierSpec::Lane;
        bad.model = ModelSpec::Voter;
        bad.init = InitSpec::Distinct;
        bad.stop = StopSpec::Steps { steps: 64 };
        assert!(matches!(bad.validate(), Err(SimError::Invalid(_))));
        // …the exact per-step stopping rule…
        let mut bad = sample_spec();
        bad.tier = TierSpec::Lane;
        bad.churn = None;
        bad.stop = StopSpec::Converge {
            epsilon: 1e-9,
            rule: StopRuleSpec::Exact,
            potential: PotentialSpec::Pi,
            budget: 6400,
        };
        assert!(matches!(bad.validate(), Err(SimError::Invalid(_))));
        // …the uniform potential…
        let mut bad = sample_spec();
        bad.tier = TierSpec::Lane;
        bad.churn = None;
        bad.stop = StopSpec::Converge {
            epsilon: 1e-9,
            rule: StopRuleSpec::Block,
            potential: PotentialSpec::Uniform,
            budget: 6400,
        };
        assert!(matches!(bad.validate(), Err(SimError::Invalid(_))));
        // …and trace output.
        let mut bad = sample_spec();
        bad.tier = TierSpec::Lane;
        bad.churn = None;
        bad.replicas = 1;
        bad.stop = StopSpec::Steps { steps: 100 };
        bad.output = OutputSpec::Trace { every: 10 };
        assert!(matches!(bad.validate(), Err(SimError::Invalid(_))));
    }

    #[test]
    fn rejects_semantic_violations() {
        // Zero replicas.
        let mut spec = sample_spec();
        spec.replicas = 0;
        assert!(matches!(spec.validate(), Err(SimError::Invalid(_))));
        // Negative epsilon.
        let mut spec = sample_spec();
        spec.stop = StopSpec::Converge {
            epsilon: -1.0,
            rule: StopRuleSpec::Block,
            potential: PotentialSpec::Pi,
            budget: 64,
        };
        assert!(spec.validate().is_err());
        // Voter model with averaging init.
        let mut spec = sample_spec();
        spec.model = ModelSpec::Voter;
        assert!(spec.validate().is_err());
        // Churn with exact rule.
        let mut spec = sample_spec();
        spec.stop = StopSpec::Converge {
            epsilon: 1e-9,
            rule: StopRuleSpec::Exact,
            potential: PotentialSpec::Pi,
            budget: 6400,
        };
        assert!(spec.validate().is_err());
        // Budget not a whole number of epochs.
        let mut spec = sample_spec();
        spec.stop = StopSpec::Converge {
            epsilon: 1e-9,
            rule: StopRuleSpec::Block,
            potential: PotentialSpec::Pi,
            budget: 65,
        };
        assert!(spec.validate().is_err());
        // Trace with many replicas.
        let mut spec = sample_spec();
        spec.churn = None;
        spec.stop = StopSpec::Steps { steps: 100 };
        spec.output = OutputSpec::Trace { every: 10 };
        assert!(spec.validate().is_err());
        spec.replicas = 1;
        assert!(spec.validate().is_ok());
        // Names that would break the line-based round trip: comments,
        // newlines, and whitespace the parser would normalize away.
        for bad in [
            "",
            "with # comment",
            "two\nlines",
            " lead",
            "trail ",
            "a  b",
            "tab\tb",
        ] {
            let mut spec = sample_spec();
            spec.name = Some(bad.into());
            assert!(spec.validate().is_err(), "accepted name {bad:?}");
        }
        let mut spec = sample_spec();
        spec.name = Some("multi word name".into());
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn graph_specs_build_every_family() {
        let specs = [
            GraphSpec::Cycle { n: 8 },
            GraphSpec::Path { n: 8 },
            GraphSpec::Complete { n: 8 },
            GraphSpec::Star { n: 8 },
            GraphSpec::CompleteBipartite { a: 3, b: 4 },
            GraphSpec::Grid { rows: 3, cols: 4 },
            GraphSpec::Torus { rows: 4, cols: 4 },
            GraphSpec::Hypercube { dim: 3 },
            GraphSpec::BinaryTree { levels: 3 },
            GraphSpec::Petersen,
            GraphSpec::Barbell { k: 4 },
            GraphSpec::Lollipop { k: 4, tail: 3 },
            GraphSpec::Gnp {
                n: 16,
                p: 0.4,
                seed: 1,
            },
            GraphSpec::Gnm {
                n: 16,
                m: 24,
                seed: 1,
            },
            GraphSpec::RandomRegular {
                n: 12,
                d: 4,
                seed: 1,
            },
            GraphSpec::WattsStrogatz {
                n: 16,
                k: 2,
                p: 0.2,
                seed: 1,
            },
            GraphSpec::BarabasiAlbert {
                n: 16,
                m: 2,
                seed: 1,
            },
        ];
        assert_eq!(specs.len(), 17, "cover all 17 generator families");
        for spec in specs {
            let g = spec.build().unwrap();
            // Generators record connectivity; a raw BFS keeps the
            // recorded answer honest.
            assert!(od_graph::traversal::is_connected(&g), "{spec:?}");
            assert!(g.is_connected(), "{spec:?}");
            // Random families are reproducible from their seed.
            assert_eq!(spec.build().unwrap(), g);
        }
    }

    #[test]
    fn init_distributions() {
        assert_eq!(pm_one(4), vec![1.0, -1.0, 1.0, -1.0]);
        assert!(pm_one(5).iter().sum::<f64>().abs() < 1e-12);
        assert_eq!(
            InitSpec::Linear { lo: 0.0, hi: 3.0 }.values(4),
            vec![0.0, 1.0, 2.0, 3.0]
        );
        assert_eq!(InitSpec::Constant { value: 2.5 }.values(3), vec![2.5; 3]);
        assert_eq!(
            InitSpec::Indicator { node: 1 }.values(3),
            vec![0.0, 1.0, 0.0]
        );
        assert_eq!(
            InitSpec::Opinions { levels: 3 }.opinions(5),
            vec![0, 1, 2, 0, 1]
        );
        assert_eq!(InitSpec::Distinct.opinions(3), vec![0, 1, 2]);
    }

    /// A scratch file under the target temp dir whose path is a single
    /// `#`-free token (the text format's path constraint).
    fn scratch_file(name: &str, contents: &str) -> String {
        let path = std::env::temp_dir().join(format!("od_spec_test_{name}"));
        std::fs::write(&path, contents).unwrap();
        let path = path.to_str().unwrap().to_string();
        assert!(!path.contains(['#', ' ']), "temp path must be a token");
        path
    }

    #[test]
    fn file_spellings_round_trip_without_io() {
        // Parsing and formatting never touch the file system — the
        // paths need not exist until `Simulation::from_spec`.
        let mut spec = sample_spec();
        spec.init = InitSpec::File {
            path: "/nonexistent/values.txt".into(),
        };
        spec.churn = Some(ChurnSpec {
            model: ChurnModelSpec::Replay {
                path: "/nonexistent/snapshots.txt".into(),
            },
            steps_per_epoch: 64,
            seed: 7,
        });
        let text = spec.to_string();
        assert!(text.contains("init file path=/nonexistent/values.txt"));
        assert!(text.contains("churn replay file=/nonexistent/snapshots.txt"));
        let parsed = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.to_string(), text);
    }

    #[test]
    fn file_paths_must_be_tokens() {
        let mut spec = sample_spec();
        spec.init = InitSpec::File {
            path: String::new(),
        };
        assert!(spec.validate().is_err());
        spec.init = InitSpec::File {
            path: "has#hash".into(),
        };
        assert!(spec.validate().is_err());
        let mut spec = sample_spec();
        spec.churn = Some(ChurnSpec {
            model: ChurnModelSpec::Replay {
                path: "white space".into(),
            },
            steps_per_epoch: 64,
            seed: 7,
        });
        assert!(spec.validate().is_err());
    }

    #[test]
    fn init_file_loader() {
        let path = scratch_file("init_ok.txt", "# header\n1.5\n\n-2.5\n0.0 # inline\n");
        assert_eq!(load_init_file(&path).unwrap(), vec![1.5, -2.5, 0.0]);

        let empty = scratch_file("init_empty.txt", "# nothing\n\n");
        assert!(load_init_file(&empty).is_err());
        let non_finite = scratch_file("init_nan.txt", "1.0\nNaN\n");
        assert!(load_init_file(&non_finite).is_err());
        let malformed = scratch_file("init_bad.txt", "1.0\ntwo\n");
        assert!(load_init_file(&malformed).is_err());
        assert!(load_init_file("/nonexistent/init.txt").is_err());
    }

    #[test]
    fn replay_file_loader() {
        let path = scratch_file(
            "replay_ok.txt",
            "# two snapshots, trailing separator optional\n0 1\n1 2\n--\n0 2\n2 1\n--\n",
        );
        assert_eq!(
            load_replay_file(&path).unwrap(),
            vec![vec![(0, 1), (1, 2)], vec![(0, 2), (2, 1)]]
        );

        let no_snapshots = scratch_file("replay_empty.txt", "# nothing\n");
        assert!(load_replay_file(&no_snapshots).is_err());
        let empty_snapshot = scratch_file("replay_gap.txt", "0 1\n--\n--\n0 1\n");
        assert!(load_replay_file(&empty_snapshot).is_err());
        let malformed = scratch_file("replay_bad.txt", "0 1 2\n");
        assert!(load_replay_file(&malformed).is_err());
        assert!(load_replay_file("/nonexistent/replay.txt").is_err());
    }

    fn sync_spec(model: ModelSpec) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(model, GraphSpec::Petersen, 1);
        spec.stop = StopSpec::FixedPoint {
            epsilon: 1e-10,
            budget: 10_000,
        };
        spec
    }

    #[test]
    fn sync_models_round_trip_through_text() {
        for model in [
            ModelSpec::DeGroot { lazy: 0.5 },
            ModelSpec::Fj { alpha: 0.25 },
            ModelSpec::WeightedMedian,
        ] {
            let spec = sync_spec(model);
            spec.validate().unwrap();
            let text = spec.to_string();
            let parsed = ScenarioSpec::parse(&text).unwrap();
            assert_eq!(parsed, spec);
            assert_eq!(parsed.to_string(), text);
        }
        // Steps is the other admissible stop.
        let mut spec = sync_spec(ModelSpec::DeGroot { lazy: 0.0 });
        spec.stop = StopSpec::Steps { steps: 100 };
        spec.validate().unwrap();
    }

    #[test]
    fn sync_model_scenario_rules() {
        // Parameter ranges: lazy ∈ [0,1), alpha ∈ (0,1].
        for bad in [
            sync_spec(ModelSpec::DeGroot { lazy: 1.0 }),
            sync_spec(ModelSpec::DeGroot { lazy: -0.1 }),
            sync_spec(ModelSpec::Fj { alpha: 0.0 }),
            sync_spec(ModelSpec::Fj { alpha: 1.5 }),
        ] {
            assert!(matches!(bad.validate(), Err(SimError::Invalid(_))));
        }
        // Deterministic rounds: replicas must stay 1…
        let mut bad = sync_spec(ModelSpec::DeGroot { lazy: 0.5 });
        bad.replicas = 4;
        assert!(matches!(bad.validate(), Err(SimError::Invalid(_))));
        // …no churn…
        let mut bad = sync_spec(ModelSpec::Fj { alpha: 0.5 });
        bad.churn = Some(ChurnSpec {
            model: ChurnModelSpec::EdgeSwap { swaps: 4 },
            steps_per_epoch: 64,
            seed: 7,
        });
        assert!(matches!(bad.validate(), Err(SimError::Invalid(_))));
        // …no lane tier, no trace…
        let mut bad = sync_spec(ModelSpec::WeightedMedian);
        bad.tier = TierSpec::Lane;
        assert!(matches!(bad.validate(), Err(SimError::Invalid(_))));
        let mut bad = sync_spec(ModelSpec::WeightedMedian);
        bad.stop = StopSpec::Steps { steps: 100 };
        bad.output = OutputSpec::Trace { every: 10 };
        assert!(matches!(bad.validate(), Err(SimError::Invalid(_))));
        // …and only steps/fixed_point stops.
        let mut bad = sync_spec(ModelSpec::DeGroot { lazy: 0.5 });
        bad.stop = StopSpec::Consensus { budget: 100 };
        assert!(matches!(bad.validate(), Err(SimError::Invalid(_))));
        // fixed_point conversely requires a sync model.
        let mut bad = sample_spec();
        bad.churn = None;
        bad.stop = StopSpec::FixedPoint {
            epsilon: 1e-9,
            budget: 100,
        };
        assert!(matches!(bad.validate(), Err(SimError::Invalid(_))));
    }

    #[test]
    fn weights_round_trip_and_default_is_silent() {
        // The default unit weighting prints nothing, so every
        // pre-existing scenario keeps its canonical key byte-for-byte.
        let spec = sample_spec();
        assert!(!spec.to_string().contains("weights"));
        let mut weighted = sample_spec();
        weighted.churn = None;
        weighted.weights = WeightSpec::Uniform {
            lo: 0.5,
            hi: 2.0,
            seed: 11,
        };
        weighted.validate().unwrap();
        let text = weighted.to_string();
        assert!(text.contains("weights uniform lo=0.5 hi=2 seed=11"));
        let parsed = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(parsed, weighted);
        assert_eq!(parsed.to_string(), text);
    }

    #[test]
    fn weighted_scenario_rules() {
        let weights = WeightSpec::Uniform {
            lo: 0.5,
            hi: 2.0,
            seed: 11,
        };
        // Bad ranges: lo must be positive and ≤ hi, both finite.
        for (lo, hi) in [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (0.5, f64::NAN)] {
            let mut bad = sample_spec();
            bad.churn = None;
            bad.weights = WeightSpec::Uniform { lo, hi, seed: 1 };
            assert!(matches!(bad.validate(), Err(SimError::Invalid(_))));
        }
        // Voter ignores values, so weighting it is a spec error.
        let mut bad = sample_spec();
        bad.churn = None;
        bad.model = ModelSpec::Voter;
        bad.init = InitSpec::Distinct;
        bad.stop = StopSpec::Steps { steps: 64 };
        bad.weights = weights;
        assert!(matches!(bad.validate(), Err(SimError::Invalid(_))));
        // Churn rewires edges out from under the weight vector.
        let mut bad = sample_spec();
        bad.weights = weights;
        assert!(matches!(bad.validate(), Err(SimError::Invalid(_))));
        // File graphs carry their own weights.
        let mut bad = sample_spec();
        bad.churn = None;
        bad.graph = GraphSpec::File {
            path: "edges.csv".into(),
            directed: false,
        };
        bad.weights = weights;
        assert!(matches!(bad.validate(), Err(SimError::Invalid(_))));
    }

    #[test]
    fn file_graph_round_trips_and_validates() {
        let mut spec = sync_spec(ModelSpec::DeGroot { lazy: 0.5 });
        spec.graph = GraphSpec::File {
            path: "data/edges.csv".into(),
            directed: true,
        };
        spec.validate().unwrap();
        let text = spec.to_string();
        assert!(text.contains("graph file=data/edges.csv directed=true"));
        let parsed = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.to_string(), text);
        // `directed` defaults to false when omitted.
        let undirected =
            ScenarioSpec::parse("model voter\ngraph file=data/edges.csv\nstop steps count=1")
                .unwrap();
        assert_eq!(
            undirected.graph,
            GraphSpec::File {
                path: "data/edges.csv".into(),
                directed: false,
            }
        );
        // Empty path is a parse error; path tokens re-checked in validate.
        assert!(ScenarioSpec::parse("model voter\ngraph file=\nstop steps count=1").is_err());
        let mut bad = sync_spec(ModelSpec::DeGroot { lazy: 0.5 });
        bad.graph = GraphSpec::File {
            path: "white space.csv".into(),
            directed: false,
        };
        assert!(matches!(bad.validate(), Err(SimError::Invalid(_))));
        // A directed file graph only runs the synchronous models.
        let mut bad = sample_spec();
        bad.churn = None;
        bad.graph = GraphSpec::File {
            path: "edges.csv".into(),
            directed: true,
        };
        assert!(matches!(bad.validate(), Err(SimError::Invalid(_))));
    }

    #[test]
    fn edge_list_file_loader() {
        // Unweighted, whitespace-separated, with comments.
        let path = scratch_file("edges_plain.txt", "# triangle\n0 1\n1 2\n2 0\n");
        let g = load_edge_list_file(&path, false).unwrap();
        assert_eq!((g.n(), g.m()), (3, 3));
        assert!(!g.is_weighted() && !g.is_directed());

        // Weighted CSV, node ids define n = max + 1.
        let path = scratch_file("edges_weighted.csv", "0,1,2.0\n1,3,0.5\n");
        let g = load_edge_list_file(&path, false).unwrap();
        assert_eq!((g.n(), g.m()), (4, 2));
        assert!(g.is_weighted());
        assert_eq!(g.row_weight_sum(1), 2.5);

        // Directed rows stay one-way.
        let g = load_edge_list_file(&path, true).unwrap();
        assert!(g.is_directed());
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);

        // Mixed arity, malformed tokens, bad weights, empty files.
        for (name, contents) in [
            ("edges_mixed.csv", "0,1\n1,2,2.0\n"),
            ("edges_badid.csv", "0,x\n"),
            ("edges_badw.csv", "0,1,heavy\n"),
            ("edges_nanw.csv", "0,1,NaN\n"),
            ("edges_negw.csv", "0,1,-2.0\n"),
            ("edges_arity.csv", "0 1 2.0 3\n"),
            ("edges_empty.csv", "# nothing\n"),
        ] {
            let path = scratch_file(name, contents);
            assert!(
                load_edge_list_file(&path, false).is_err(),
                "accepted: {contents:?}"
            );
        }
        assert!(load_edge_list_file("/nonexistent/edges.csv", false).is_err());
    }
}
