//! The opinion dynamics of *Distributed Averaging in Opinion Dynamics*
//! (PODC 2023): the paper's primary contribution.
//!
//! Two asynchronous averaging processes on a connected undirected graph
//! `G = (V, E)` with initial values `ξ(0) ∈ ℝⁿ`:
//!
//! * **`NodeModel`** (Definition 2.1): at each step a node `u` is chosen
//!   uniformly at random; it samples `k` distinct neighbours
//!   `v₁, …, v_k` uniformly without replacement and updates
//!   `ξ_u ← α ξ_u + (1−α)/k · Σᵢ ξ_{vᵢ}` unilaterally.
//! * **`EdgeModel`** (Definition 2.3): a directed edge `(u, v)` is chosen
//!   uniformly among all `2m`; `u` updates `ξ_u ← α ξ_u + (1−α) ξ_v`.
//!
//! Both converge to a common random value `F` with
//! `E[F] = Σ_u (d_u/2m) ξ_u(0)` (NodeModel, Lemma 4.1) or
//! `E[F] = (1/n) Σ_u ξ_u(0)` (EdgeModel, Prop. D.1(i)).
//!
//! The crate also provides the **voter model** (`k = 1`, `α = 0`,
//! discrete opinions) used as a baseline in §2, the potential functions of
//! Section 4 ([`OpinionState::potential_pi`] is Eq. 3), step recording for
//! the duality coupling of Section 5, a convergence engine, and the paper's
//! closed-form predictions ([`theory`]).
//!
//! # Example
//!
//! ```
//! use od_core::{EdgeModel, EdgeModelParams, OpinionProcess};
//! use od_graph::generators;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::complete(16)?;
//! let xi0: Vec<f64> = (0..16).map(f64::from).collect();
//! let mut process = EdgeModel::new(&g, xi0, EdgeModelParams::new(0.5)?)?;
//! let mut rng = StdRng::seed_from_u64(1);
//! while process.state().potential_pi() > 1e-12 {
//!     process.step(&mut rng);
//! }
//! let f = process.state().average();
//! assert!((f - 7.5).abs() < 2.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod batch;
mod dynamic;
mod edge_model;
mod engine;
mod error;
mod kernel;
mod node_model;
mod params;
mod process;
mod sampling;
mod state;
mod sync;
pub mod theory;
mod voter;
mod window;

pub use batch::{ReplicaBatch, VoterBatch};
pub use dynamic::Topology;
pub use edge_model::EdgeModel;
pub use engine::{
    estimate_convergence_value, resolve_threads, run_kernel_until_converged, run_until_converged,
    ConvergeConfig, ConvergenceReport, PotentialKind, StopRule,
};
pub use error::CoreError;
#[doc(hidden)]
pub use kernel::split_every_round;
pub use kernel::{KernelSpec, StepKernel, VoterKernel};
pub use node_model::NodeModel;
pub use params::{EdgeModelParams, Laziness, NodeModelParams};
pub use process::{OpinionProcess, StepRecord};
pub use state::OpinionState;
pub use sync::{SyncKernel, SyncModel};
pub use voter::{VoterModel, VoterReport};
pub use window::{ConvergeWindow, WindowCheckpoint};
