//! A small linear-programming toolkit.
//!
//! The `O(log n)`-approximation for minimum-cost `r`-fault-tolerant
//! 2-spanners (Section 3 of Dinitz & Krauthgamer, PODC 2011) solves a linear
//! program with polynomially many variables but exponentially many
//! knapsack-cover constraints, using a separation oracle. The paper invokes
//! the Ellipsoid method for this; this crate provides the practical
//! equivalent used by `ftspan-core`:
//!
//! * [`LpProblem`] — a minimization LP builder over non-negative variables.
//! * [`SimplexSolver`] — a dense two-phase primal simplex solver.
//! * [`cutting_plane_solve`] — the separation-oracle loop: solve the current
//!   relaxation, ask the oracle for violated constraints, add them, repeat.
//!
//! The substitution of simplex + cutting planes for the Ellipsoid method is
//! recorded in the *Substitutions* section of the workspace README; the LP
//! being solved is identical.
//!
//! # Example
//!
//! ```
//! use ftspan_lp::{LpProblem, SimplexSolver, ConstraintOp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // minimize x + 2y  subject to  x + y >= 1,  y >= 0.25
//! let mut lp = LpProblem::minimize(2);
//! lp.set_objective(0, 1.0);
//! lp.set_objective(1, 2.0);
//! lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Ge, 1.0);
//! lp.add_constraint(vec![(1, 1.0)], ConstraintOp::Ge, 0.25);
//! let solution = SimplexSolver::default().solve(&lp)?;
//! assert!((solution.objective - 1.25).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cutting;
mod error;
mod problem;
mod simplex;

pub use cutting::{
    cutting_plane_solve, cutting_plane_solve_with_resolve_budget, CutStats, SeparationOracle,
};
pub use error::LpError;
pub use problem::{Constraint, ConstraintOp, LpProblem};
pub use simplex::{SimplexSolver, Solution, SolveStatus};

/// Result alias for LP operations.
pub type Result<T> = std::result::Result<T, LpError>;
