use std::error::Error;
use std::fmt;

/// Errors raised when constructing a process.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// `α` outside the admissible range. Definition 2.1 allows
    /// `α ∈ [0, 1)`; the convergence/concentration theorems additionally
    /// assume a constant `α ∈ (0, 1)`.
    InvalidAlpha {
        /// The rejected value.
        alpha: f64,
    },
    /// `k` must satisfy `1 ≤ k ≤ d_min` so every node can sample `k`
    /// distinct neighbours.
    InvalidSampleSize {
        /// The rejected `k`.
        k: usize,
        /// The graph's minimum degree.
        d_min: usize,
    },
    /// The paper's processes are defined on connected graphs (otherwise the
    /// values converge per component, not globally).
    Disconnected,
    /// Initial value vector length differs from the node count.
    LengthMismatch {
        /// Number of initial values supplied.
        values: usize,
        /// Number of nodes in the graph.
        nodes: usize,
    },
    /// Initial values must be finite.
    NonFiniteValue {
        /// Index of the offending value.
        index: usize,
    },
    /// A churn model failed to evolve a churned batch topology
    /// (infeasible degree floor, invalid snapshot, exhausted retries).
    ChurnFailed(od_graph::GraphError),
    /// The ε-convergence threshold handed to a convergence driver must be
    /// finite and non-negative (`φ` is a non-negative quadratic form, so a
    /// negative or NaN threshold can never be met meaningfully).
    InvalidEpsilon {
        /// The rejected threshold.
        epsilon: f64,
    },
    /// A window checkpoint could not be parsed, or does not match the
    /// scenario it is being restored into (see
    /// [`crate::ConvergeWindow::restore`]).
    Checkpoint(String),
    /// The graph is directed. The paper's asynchronous gossip processes
    /// are defined on undirected graphs; directed influence is served by
    /// the synchronous-rounds tier ([`crate::SyncKernel`]).
    DirectedUnsupported,
    /// A per-edge-weighted graph reached an engine with no weighted
    /// aggregation path (the scalar processes, the voter kernels).
    WeightedUnsupported {
        /// The tier or kernel family that cannot consume weights.
        tier: &'static str,
    },
    /// The exact (tracked per-step) stopping rule follows one fixed
    /// graph; a churned [`crate::Topology`] stops at epoch boundaries
    /// ([`crate::StopRule::Block`]).
    ExactStopUnderChurn,
    /// A synchronous-rounds model parameter was out of its admissible
    /// range: DeGroot laziness lies in `[0, 1)`, Friedkin–Johnsen
    /// stubbornness in `(0, 1]`.
    InvalidSyncParameter {
        /// Parameter name (`"lazy"`, `"alpha"`).
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidAlpha { alpha } => {
                write!(f, "alpha must lie in [0, 1), got {alpha}")
            }
            CoreError::InvalidSampleSize { k, d_min } => {
                write!(f, "k must satisfy 1 <= k <= d_min = {d_min}, got {k}")
            }
            CoreError::Disconnected => write!(f, "graph must be connected"),
            CoreError::LengthMismatch { values, nodes } => {
                write!(f, "{values} initial values for {nodes} nodes")
            }
            CoreError::NonFiniteValue { index } => {
                write!(f, "initial value at index {index} is not finite")
            }
            CoreError::ChurnFailed(err) => write!(f, "topology churn failed: {err}"),
            CoreError::InvalidEpsilon { epsilon } => {
                write!(f, "epsilon must be finite and >= 0, got {epsilon}")
            }
            CoreError::Checkpoint(message) => {
                write!(f, "invalid window checkpoint: {message}")
            }
            CoreError::DirectedUnsupported => {
                write!(
                    f,
                    "directed graphs are only supported by the synchronous-rounds kernels"
                )
            }
            CoreError::WeightedUnsupported { tier } => {
                write!(f, "the {tier} kernels do not support per-edge weights")
            }
            CoreError::ExactStopUnderChurn => write!(
                f,
                "the exact stopping rule needs a static graph; churned runs stop at epoch boundaries"
            ),
            CoreError::InvalidSyncParameter { name, value } => {
                write!(f, "sync model parameter {name} out of range: got {value}")
            }
        }
    }
}

impl Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert!(CoreError::InvalidAlpha { alpha: 1.5 }
            .to_string()
            .contains("alpha"));
        assert!(CoreError::InvalidSampleSize { k: 9, d_min: 2 }
            .to_string()
            .contains("d_min = 2"));
        assert!(CoreError::Disconnected.to_string().contains("connected"));
        assert!(CoreError::LengthMismatch {
            values: 3,
            nodes: 4
        }
        .to_string()
        .contains("3 initial values"));
        assert!(CoreError::NonFiniteValue { index: 2 }
            .to_string()
            .contains("index 2"));
        assert!(CoreError::InvalidEpsilon { epsilon: -1.0 }
            .to_string()
            .contains("epsilon"));
        assert!(CoreError::DirectedUnsupported
            .to_string()
            .contains("directed"));
        assert!(CoreError::WeightedUnsupported { tier: "voter" }
            .to_string()
            .contains("voter"));
        assert!(CoreError::ExactStopUnderChurn
            .to_string()
            .contains("epoch boundaries"));
    }
}
