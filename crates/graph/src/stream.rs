//! Streaming, memory-bounded graph generators for million-node builds.
//!
//! The classic generators in [`generate`](crate::generate) materialize a
//! [`Graph`] edge by edge, which is fine at experiment scale but wasteful
//! when construction is pushed to `n = 10^5..10^6`: the builder's graph is
//! often packed into a CSR immediately and never touched again. The
//! [`GeneratorSpec`]s here describe a graph *by seed and parameters* and
//! emit edges directly into a [`CsrBuilder`], so peak memory is the
//! finished CSR plus `O(m)` transient state (for `G(n, m)`, one sorted
//! `u64` edge-index array — 8 bytes per edge).
//!
//! Everything is deterministic: the same spec always produces the same
//! graph, the same edge identifiers and the same weights, whether it is
//! materialized as a [`Graph`], a [`CsrSubgraph`], or both.
//!
//! # Example
//!
//! ```
//! use ftspan_graph::stream::GeneratorSpec;
//! use ftspan_graph::generate::WeightKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = GeneratorSpec::Gnm {
//!     nodes: 1000,
//!     edges: 4000,
//!     weights: WeightKind::Unit,
//!     seed: 7,
//! };
//! let csr = spec.generate_csr()?;
//! assert_eq!(csr.node_count(), 1000);
//! assert_eq!(csr.edge_count(), 4000);
//! # Ok(())
//! # }
//! ```

use crate::csr::{CsrBuilder, CsrSubgraph};
use crate::generate::WeightKind;
use crate::{Graph, GraphError, Result};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A seeded description of a generated graph, evaluated lazily.
///
/// A spec is tiny and `Copy`; nothing is generated until one of
/// [`GeneratorSpec::generate`], [`GeneratorSpec::generate_csr`] or
/// [`GeneratorSpec::generate_with_csr`] runs. Both output forms agree
/// exactly: edge `i` of the `Graph` is edge `i` of the CSR, with the same
/// endpoints and weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GeneratorSpec {
    /// Erdős–Rényi `G(n, m)`: exactly `edges` distinct vertex pairs, chosen
    /// uniformly by sampling edge *indices* in `[0, n(n-1)/2)` — memory is
    /// `O(m)` regardless of `n`, unlike the `O(n^2)` pair sweep of
    /// [`generate::gnp`](crate::generate::gnp).
    Gnm {
        /// Number of vertices.
        nodes: usize,
        /// Number of edges (must be at most `n(n-1)/2`).
        edges: usize,
        /// Edge-weight distribution ([`WeightKind::Euclidean`] falls back
        /// to unit weights, as in the classic generators).
        weights: WeightKind,
        /// RNG seed; the spec is a pure function of its fields.
        seed: u64,
    },
    /// The `rows x cols` grid, optionally wrapped into a torus. Wrap edges
    /// are only added along dimensions of length at least 3 (shorter ones
    /// would duplicate existing edges).
    Grid {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
        /// Also connect last column to first and last row to first.
        wrap: bool,
        /// Edge-weight distribution.
        weights: WeightKind,
        /// RNG seed (only consumed by non-unit weight kinds).
        seed: u64,
    },
    /// Preferential attachment (Barabási–Albert): a seed clique on
    /// `attach + 1` vertices, then each arriving vertex attaches to
    /// `attach` existing vertices chosen proportionally to degree. Unit
    /// weights.
    PreferentialAttachment {
        /// Number of vertices (must exceed `attach`).
        nodes: usize,
        /// Edges added per arriving vertex (must be positive).
        attach: usize,
        /// RNG seed.
        seed: u64,
    },
    /// A road-network-like planar mesh: a `rows x cols` grid of points,
    /// each jittered away from its lattice position, connected by the grid
    /// backbone plus one random diagonal per cell with probability
    /// `diagonal_p`. Every edge weight is the Euclidean distance between
    /// the jittered endpoints, so the graph behaves like a street network:
    /// locally planar, near-uniform degree, metric weights.
    ///
    /// The grid backbone keeps the mesh connected for any seed.
    ///
    /// # Parameter constraints
    ///
    /// * `rows >= 2` and `cols >= 2` (the mesh needs at least one cell);
    /// * `diagonal_p` in `[0, 1]` and finite;
    /// * `jitter` in `[0, 0.5)` and finite — below `0.5`, neighboring
    ///   points cannot cross, so every edge weight stays strictly
    ///   positive.
    ///
    /// Violations are reported as [`GraphError::InvalidParameter`] by the
    /// generate calls.
    PlanarMesh {
        /// Number of point rows.
        rows: usize,
        /// Number of point columns.
        cols: usize,
        /// Probability that a cell gains one diagonal (main or anti,
        /// chosen uniformly).
        diagonal_p: f64,
        /// Maximum coordinate displacement from the lattice position,
        /// drawn uniformly from `[-jitter, jitter)` per axis.
        jitter: f64,
        /// RNG seed; positions, diagonals and therefore weights are a pure
        /// function of the spec.
        seed: u64,
    },
    /// A threshold hyperbolic random graph: `nodes` points placed in the
    /// hyperbolic disk of radius `radius` (angles uniform, radii with
    /// density proportional to `sinh(alpha * r)`), connected exactly when
    /// their hyperbolic distance is at most `radius`. Edge weights are the
    /// hyperbolic distances. This family produces the heavy-tailed degree
    /// sequences and tight clustering of internet-like topologies —
    /// structurally unlike both G(n, m) and meshes.
    ///
    /// # Parameter constraints
    ///
    /// * `nodes >= 2`;
    /// * `alpha > 0` and finite (larger pushes mass to the rim: sparser,
    ///   flatter degrees; `alpha = 1` is the uniform hyperbolic measure);
    /// * `radius > 0` and finite — degree falls as `radius` grows; around
    ///   `2 ln nodes` the graph sits at the sparse connectivity threshold.
    ///
    /// Generation sweeps all vertex pairs, so it costs `O(nodes^2)` time:
    /// the family is meant for adversarial batteries and benchmarks up to
    /// roughly `10^4` vertices, not the million-node streaming path.
    /// Connectivity is *not* guaranteed; callers that need a connected
    /// instance should check [`Graph::is_connected`] and pick seeds
    /// accordingly.
    ///
    /// Violations are reported as [`GraphError::InvalidParameter`] by the
    /// generate calls.
    Hyperbolic {
        /// Number of vertices.
        nodes: usize,
        /// Radial density exponent (`> 0`).
        alpha: f64,
        /// Disk radius and connection threshold (`> 0`).
        radius: f64,
        /// RNG seed; the point set and the edge set are a pure function of
        /// the spec.
        seed: u64,
    },
}

impl GeneratorSpec {
    /// Number of vertices the spec will generate.
    pub fn node_count(&self) -> usize {
        match *self {
            GeneratorSpec::Gnm { nodes, .. } => nodes,
            GeneratorSpec::Grid { rows, cols, .. } => rows * cols,
            GeneratorSpec::PreferentialAttachment { nodes, .. } => nodes,
            GeneratorSpec::PlanarMesh { rows, cols, .. } => rows * cols,
            GeneratorSpec::Hyperbolic { nodes, .. } => nodes,
        }
    }

    /// Exact number of edges, when it is a pure function of the parameters
    /// (`None` for preferential attachment, where degenerate urns can
    /// produce slightly fewer than `attach` targets).
    pub fn edge_count(&self) -> Option<usize> {
        match *self {
            GeneratorSpec::Gnm { edges, .. } => Some(edges),
            GeneratorSpec::Grid {
                rows, cols, wrap, ..
            } => {
                let mut m = 0usize;
                if rows > 0 && cols > 0 {
                    m += rows * (cols - 1) + cols * (rows - 1);
                    if wrap {
                        if cols >= 3 {
                            m += rows;
                        }
                        if rows >= 3 {
                            m += cols;
                        }
                    }
                }
                Some(m)
            }
            GeneratorSpec::PreferentialAttachment { .. } => None,
            // Diagonal and threshold edges depend on the seed.
            GeneratorSpec::PlanarMesh { .. } | GeneratorSpec::Hyperbolic { .. } => None,
        }
    }

    /// Generates the graph as a CSR, never materializing a [`Graph`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] for inconsistent parameters
    /// (for `G(n, m)`, more edges than vertex pairs; for preferential
    /// attachment, `attach == 0` or `nodes <= attach`).
    pub fn generate_csr(&self) -> Result<CsrSubgraph> {
        match *self {
            GeneratorSpec::Gnm {
                nodes,
                edges,
                weights,
                seed,
            } => generate_gnm(nodes, edges, weights, seed),
            GeneratorSpec::Grid {
                rows,
                cols,
                wrap,
                weights,
                seed,
            } => generate_grid(rows, cols, wrap, weights, seed),
            GeneratorSpec::PreferentialAttachment {
                nodes,
                attach,
                seed,
            } => generate_preferential(nodes, attach, seed),
            GeneratorSpec::PlanarMesh {
                rows,
                cols,
                diagonal_p,
                jitter,
                seed,
            } => generate_planar_mesh(rows, cols, diagonal_p, jitter, seed),
            GeneratorSpec::Hyperbolic {
                nodes,
                alpha,
                radius,
                seed,
            } => generate_hyperbolic(nodes, alpha, radius, seed),
        }
    }

    /// Generates the graph as a [`Graph`] (via the CSR, so both forms
    /// always agree).
    ///
    /// # Errors
    ///
    /// Same conditions as [`GeneratorSpec::generate_csr`].
    pub fn generate(&self) -> Result<Graph> {
        self.generate_csr()?.to_graph()
    }

    /// Generates both forms from a single evaluation: the `Graph` is the
    /// CSR's reconstruction, so edge identifiers and weights match
    /// half-edge for half-edge.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GeneratorSpec::generate_csr`].
    pub fn generate_with_csr(&self) -> Result<(Graph, CsrSubgraph)> {
        let csr = self.generate_csr()?;
        let graph = csr.to_graph()?;
        Ok((graph, csr))
    }
}

/// Decodes sorted pair-indices `k in [0, n(n-1)/2)` into vertex pairs
/// `(u, v)` with `u < v`, in one forward sweep (indices sorted ascending
/// decode to pairs sorted lexicographically).
fn decode_sorted_pairs(n: usize, sorted: &[u64], mut emit: impl FnMut(usize, usize)) {
    let mut u = 0usize;
    // Row `u` holds the pairs (u, u+1..n): `row_len = n - 1 - u` of them,
    // starting at flat index `row_start`.
    let mut row_start = 0u64;
    let mut row_len = n.saturating_sub(1) as u64;
    for &k in sorted {
        while row_len > 0 && k >= row_start + row_len {
            row_start += row_len;
            row_len -= 1;
            u += 1;
        }
        let v = u + 1 + (k - row_start) as usize;
        emit(u, v);
    }
}

fn generate_gnm(n: usize, m: usize, weights: WeightKind, seed: u64) -> Result<CsrSubgraph> {
    let pairs = (n as u64).saturating_mul(n.saturating_sub(1) as u64) / 2;
    if (m as u64) > pairs {
        return Err(GraphError::InvalidParameter {
            message: format!("G(n, m) with n = {n} has only {pairs} vertex pairs, got m = {m}"),
        });
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Sample m distinct edge indices: oversample-and-dedup keeps memory at
    // one u64 per edge (collisions are rare for m well below the pair
    // count, and each round draws only the remaining deficit).
    let mut indices: Vec<u64> = Vec::with_capacity(m);
    while indices.len() < m {
        let deficit = m - indices.len();
        for _ in 0..deficit {
            indices.push(rng.gen_range(0..pairs));
        }
        indices.sort_unstable();
        indices.dedup();
    }
    let mut builder = CsrBuilder::new(n);
    let mut count_err = Ok(());
    decode_sorted_pairs(n, &indices, |u, v| {
        if count_err.is_ok() {
            count_err = builder.count_edge(u, v);
        }
    });
    count_err?;
    builder.begin_fill();
    // Weights are drawn in sorted-edge order, so they are a deterministic
    // function of (seed, parameters) alone.
    let mut fill_err = Ok(());
    decode_sorted_pairs(n, &indices, |u, v| {
        if fill_err.is_ok() {
            let w = match weights {
                WeightKind::Uniform { min, max } => rng.gen_range(min..max),
                WeightKind::Unit | WeightKind::Euclidean => 1.0,
            };
            fill_err = builder.push_edge(u, v, w);
        }
    });
    fill_err?;
    builder.finish()
}

fn generate_grid(
    rows: usize,
    cols: usize,
    wrap: bool,
    weights: WeightKind,
    seed: u64,
) -> Result<CsrSubgraph> {
    // Enumerate edges once per pass; the enumeration is deterministic so
    // the two passes agree edge for edge.
    fn sweep(
        rows: usize,
        cols: usize,
        wrap: bool,
        f: &mut dyn FnMut(usize, usize) -> Result<()>,
    ) -> Result<()> {
        let id = |r: usize, c: usize| r * cols + c;
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    f(id(r, c), id(r, c + 1))?;
                }
                if wrap && cols >= 3 && c == 0 {
                    f(id(r, 0), id(r, cols - 1))?;
                }
                if r + 1 < rows {
                    f(id(r, c), id(r + 1, c))?;
                }
                if wrap && rows >= 3 && r == 0 {
                    f(id(0, c), id(rows - 1, c))?;
                }
            }
        }
        Ok(())
    }
    let mut builder = CsrBuilder::new(rows * cols);
    sweep(rows, cols, wrap, &mut |u, v| builder.count_edge(u, v))?;
    builder.begin_fill();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    sweep(rows, cols, wrap, &mut |u, v| {
        let w = match weights {
            WeightKind::Uniform { min, max } => rng.gen_range(min..max),
            WeightKind::Unit | WeightKind::Euclidean => 1.0,
        };
        builder.push_edge(u, v, w)
    })?;
    builder.finish()
}

fn generate_preferential(n: usize, attach: usize, seed: u64) -> Result<CsrSubgraph> {
    if attach == 0 {
        return Err(GraphError::InvalidParameter {
            message: "preferential attachment needs a positive attach count".into(),
        });
    }
    if n <= attach {
        return Err(GraphError::InvalidParameter {
            message: format!("preferential attachment needs nodes > attach, got {n} <= {attach}"),
        });
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // The attachment process needs the evolving degree urn, so edges are
    // buffered (O(m) tuples) instead of double-swept.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut urn: Vec<usize> = Vec::new();
    for u in 0..=attach {
        for v in (u + 1)..=attach {
            edges.push((u, v));
            urn.push(u);
            urn.push(v);
        }
    }
    let mut targets: Vec<usize> = Vec::with_capacity(attach);
    for v in (attach + 1)..n {
        targets.clear();
        let mut guard = 0;
        while targets.len() < attach && guard < 100 * attach {
            let t = urn[rng.gen_range(0..urn.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
            guard += 1;
        }
        // Ascending targets keep each vertex's attachment edges sorted,
        // which makes the emission deterministic and reproducible.
        targets.sort_unstable();
        for &t in &targets {
            edges.push((t, v));
            urn.push(v);
            urn.push(t);
        }
    }
    let mut builder = CsrBuilder::new(n);
    for &(u, v) in &edges {
        builder.count_edge(u, v)?;
    }
    builder.begin_fill();
    for &(u, v) in &edges {
        builder.push_edge(u, v, 1.0)?;
    }
    builder.finish()
}

/// Per-cell diagonal choice of the planar mesh.
const DIAG_NONE: u8 = 0;
const DIAG_MAIN: u8 = 1;
const DIAG_ANTI: u8 = 2;

fn generate_planar_mesh(
    rows: usize,
    cols: usize,
    diagonal_p: f64,
    jitter: f64,
    seed: u64,
) -> Result<CsrSubgraph> {
    if rows < 2 || cols < 2 {
        return Err(GraphError::InvalidParameter {
            message: format!("planar mesh needs rows >= 2 and cols >= 2, got {rows} x {cols}"),
        });
    }
    if !(diagonal_p.is_finite() && (0.0..=1.0).contains(&diagonal_p)) {
        return Err(GraphError::InvalidParameter {
            message: format!("planar mesh needs diagonal_p in [0, 1], got {diagonal_p}"),
        });
    }
    if !(jitter.is_finite() && (0.0..0.5).contains(&jitter)) {
        return Err(GraphError::InvalidParameter {
            message: format!("planar mesh needs jitter in [0, 0.5), got {jitter}"),
        });
    }
    let n = rows * cols;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Positions first (node order), then diagonal choices (cell order):
    // both are drawn once so the two builder sweeps agree edge for edge.
    let positions: Vec<(f64, f64)> = (0..n)
        .map(|id| {
            let (r, c) = (id / cols, id % cols);
            let mut offset = || jitter * (2.0 * rng.gen_range(0.0..1.0) - 1.0);
            let (dx, dy) = (offset(), offset());
            (c as f64 + dx, r as f64 + dy)
        })
        .collect();
    let diagonals: Vec<u8> = (0..(rows - 1) * (cols - 1))
        .map(|_| {
            if rng.gen_range(0.0..1.0) < diagonal_p {
                if rng.gen_range(0..2u32) == 0 {
                    DIAG_MAIN
                } else {
                    DIAG_ANTI
                }
            } else {
                DIAG_NONE
            }
        })
        .collect();

    // Deterministic edge enumeration: for every point, its right and down
    // backbone edges; for every cell, its chosen diagonal.
    let sweep = |f: &mut dyn FnMut(usize, usize) -> Result<()>| -> Result<()> {
        let id = |r: usize, c: usize| r * cols + c;
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    f(id(r, c), id(r, c + 1))?;
                }
                if r + 1 < rows {
                    f(id(r, c), id(r + 1, c))?;
                }
                if r + 1 < rows && c + 1 < cols {
                    match diagonals[r * (cols - 1) + c] {
                        DIAG_MAIN => f(id(r, c), id(r + 1, c + 1))?,
                        DIAG_ANTI => f(id(r, c + 1), id(r + 1, c))?,
                        _ => {}
                    }
                }
            }
        }
        Ok(())
    };
    let euclid = |u: usize, v: usize| {
        let (ux, uy) = positions[u];
        let (vx, vy) = positions[v];
        ((ux - vx).powi(2) + (uy - vy).powi(2)).sqrt()
    };
    let mut builder = CsrBuilder::new(n);
    sweep(&mut |u, v| builder.count_edge(u, v))?;
    builder.begin_fill();
    sweep(&mut |u, v| builder.push_edge(u, v, euclid(u, v)))?;
    builder.finish()
}

fn generate_hyperbolic(n: usize, alpha: f64, radius: f64, seed: u64) -> Result<CsrSubgraph> {
    if n < 2 {
        return Err(GraphError::InvalidParameter {
            message: format!("hyperbolic graph needs at least 2 vertices, got {n}"),
        });
    }
    if !(alpha.is_finite() && alpha > 0.0) {
        return Err(GraphError::InvalidParameter {
            message: format!("hyperbolic graph needs alpha > 0, got {alpha}"),
        });
    }
    if !(radius.is_finite() && radius > 0.0) {
        return Err(GraphError::InvalidParameter {
            message: format!("hyperbolic graph needs radius > 0, got {radius}"),
        });
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Radii by inverse CDF of the sinh density, angles uniform. cosh/sinh
    // are precomputed per point so the pair sweep is trig-free except for
    // one cosine per pair.
    let span = (alpha * radius).cosh() - 1.0;
    let mut cosh_r = Vec::with_capacity(n);
    let mut sinh_r = Vec::with_capacity(n);
    let mut theta = Vec::with_capacity(n);
    for _ in 0..n {
        let u: f64 = rng.gen_range(0.0..1.0);
        let r = (1.0 + u * span).acosh() / alpha;
        cosh_r.push(r.cosh());
        sinh_r.push(r.sinh());
        theta.push(rng.gen_range(0.0..std::f64::consts::TAU));
    }
    // The connection rule d(u, v) <= radius compares on the cosh scale
    // (cosh is increasing), so no acosh is needed to decide membership —
    // only accepted edges pay for the exact distance.
    let threshold = radius.cosh();
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let cosh_d = (cosh_r[u] * cosh_r[v]
                - sinh_r[u] * sinh_r[v] * (theta[u] - theta[v]).cos())
            .max(1.0);
            if cosh_d <= threshold {
                // Coincident points are possible in principle; a tiny floor
                // keeps the weight a valid positive length.
                edges.push((u, v, cosh_d.acosh().max(1e-12)));
            }
        }
    }
    let mut builder = CsrBuilder::new(n);
    for &(u, v, _) in &edges {
        builder.count_edge(u, v)?;
    }
    builder.begin_fill();
    for &(u, v, w) in &edges {
        builder.push_edge(u, v, w)?;
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::SsspWorkspace;
    use crate::NodeId;

    #[test]
    fn gnm_has_exact_counts_and_is_deterministic() {
        let spec = GeneratorSpec::Gnm {
            nodes: 200,
            edges: 800,
            weights: WeightKind::Uniform { min: 0.5, max: 2.0 },
            seed: 42,
        };
        let (g, csr) = spec.generate_with_csr().unwrap();
        assert_eq!(g.node_count(), 200);
        assert_eq!(g.edge_count(), 800);
        assert_eq!(csr.edge_count(), 800);
        assert_eq!(CsrSubgraph::from_graph(&g), csr);
        // Re-evaluating the spec reproduces the same graph exactly.
        assert_eq!(spec.generate().unwrap(), g);
        // A different seed gives a different graph.
        let other = GeneratorSpec::Gnm {
            nodes: 200,
            edges: 800,
            weights: WeightKind::Uniform { min: 0.5, max: 2.0 },
            seed: 43,
        };
        assert_ne!(other.generate().unwrap(), g);
        // All edges distinct is implied by Graph construction succeeding.
    }

    #[test]
    fn gnm_rejects_overfull_requests() {
        let spec = GeneratorSpec::Gnm {
            nodes: 4,
            edges: 7,
            weights: WeightKind::Unit,
            seed: 0,
        };
        assert!(spec.generate_csr().is_err());
        // Dense but legal: the complete graph.
        let full = GeneratorSpec::Gnm {
            nodes: 4,
            edges: 6,
            weights: WeightKind::Unit,
            seed: 0,
        };
        let g = full.generate().unwrap();
        assert_eq!(g.edge_count(), 6);
        assert!(g.is_connected());
    }

    #[test]
    fn grid_and_torus_shapes() {
        let grid = GeneratorSpec::Grid {
            rows: 4,
            cols: 5,
            wrap: false,
            weights: WeightKind::Unit,
            seed: 0,
        };
        let g = grid.generate().unwrap();
        assert_eq!(g.node_count(), 20);
        assert_eq!(Some(g.edge_count()), grid.edge_count());
        assert_eq!(g, crate::generate::grid(4, 5));

        let torus = GeneratorSpec::Grid {
            rows: 4,
            cols: 5,
            wrap: true,
            weights: WeightKind::Unit,
            seed: 0,
        };
        let t = torus.generate().unwrap();
        assert_eq!(Some(t.edge_count()), torus.edge_count());
        // Every torus vertex has degree 4.
        assert!(t.nodes().all(|v| t.degree(v) == 4));
        // Wrap edges close the rows and columns.
        assert!(t.has_edge(NodeId::new(0), NodeId::new(4)));
        assert!(t.has_edge(NodeId::new(0), NodeId::new(15)));
    }

    #[test]
    fn preferential_attachment_is_heavy_tailed_and_connected() {
        let spec = GeneratorSpec::PreferentialAttachment {
            nodes: 300,
            attach: 3,
            seed: 9,
        };
        let g = spec.generate().unwrap();
        assert_eq!(g.node_count(), 300);
        assert!(g.is_connected());
        assert!(g.max_degree() > 10, "hubs should emerge");
        assert_eq!(spec.generate().unwrap(), g);
        assert!(GeneratorSpec::PreferentialAttachment {
            nodes: 3,
            attach: 3,
            seed: 0
        }
        .generate()
        .is_err());
    }

    #[test]
    fn planar_mesh_is_connected_metric_and_deterministic() {
        let spec = GeneratorSpec::PlanarMesh {
            rows: 9,
            cols: 11,
            diagonal_p: 0.4,
            jitter: 0.3,
            seed: 17,
        };
        let (g, csr) = spec.generate_with_csr().unwrap();
        assert_eq!(g.node_count(), 99);
        assert_eq!(CsrSubgraph::from_graph(&g), csr);
        assert_eq!(spec.generate().unwrap(), g);
        assert!(
            g.is_connected(),
            "the grid backbone keeps the mesh connected"
        );
        // Edge count sits between the bare backbone and backbone + one
        // diagonal per cell.
        let backbone = 9 * 10 + 11 * 8;
        assert!(g.edge_count() >= backbone);
        assert!(g.edge_count() <= backbone + 8 * 10);
        // Euclidean weights of a sub-half-unit jitter: every edge is
        // strictly positive and no longer than a jittered cell diagonal.
        let max_len = (2.0f64).sqrt() + 4.0 * 0.3;
        for (_, e) in g.edges() {
            assert!(e.weight > 0.0);
            assert!(e.weight <= max_len, "weight {} exceeds {max_len}", e.weight);
        }
        let other = GeneratorSpec::PlanarMesh {
            rows: 9,
            cols: 11,
            diagonal_p: 0.4,
            jitter: 0.3,
            seed: 18,
        };
        assert_ne!(other.generate().unwrap(), g);
    }

    #[test]
    fn planar_mesh_without_jitter_or_diagonals_is_the_unit_grid_shape() {
        let spec = GeneratorSpec::PlanarMesh {
            rows: 4,
            cols: 5,
            diagonal_p: 0.0,
            jitter: 0.0,
            seed: 3,
        };
        let g = spec.generate().unwrap();
        assert_eq!(g.edge_count(), 4 * 4 + 5 * 3);
        assert!(g.edges().all(|(_, e)| (e.weight - 1.0).abs() < 1e-12));
    }

    #[test]
    fn planar_mesh_rejects_bad_parameters() {
        let base = |rows, cols, diagonal_p, jitter| GeneratorSpec::PlanarMesh {
            rows,
            cols,
            diagonal_p,
            jitter,
            seed: 0,
        };
        assert!(base(1, 5, 0.5, 0.2).generate_csr().is_err());
        assert!(base(5, 1, 0.5, 0.2).generate_csr().is_err());
        assert!(base(5, 5, -0.1, 0.2).generate_csr().is_err());
        assert!(base(5, 5, 1.5, 0.2).generate_csr().is_err());
        assert!(base(5, 5, f64::NAN, 0.2).generate_csr().is_err());
        assert!(base(5, 5, 0.5, 0.5).generate_csr().is_err());
        assert!(base(5, 5, 0.5, -0.1).generate_csr().is_err());
        assert!(base(5, 5, 0.5, f64::NAN).generate_csr().is_err());
        assert!(base(2, 2, 1.0, 0.49).generate_csr().is_ok());
    }

    #[test]
    fn hyperbolic_is_deterministic_heterogeneous_and_metric() {
        let spec = GeneratorSpec::Hyperbolic {
            nodes: 300,
            alpha: 0.8,
            radius: 2.0 * (300.0f64).ln() * 0.55,
            seed: 23,
        };
        let (g, csr) = spec.generate_with_csr().unwrap();
        assert_eq!(g.node_count(), 300);
        assert_eq!(CsrSubgraph::from_graph(&g), csr);
        assert_eq!(spec.generate().unwrap(), g);
        assert!(g.edge_count() > 300, "the disk should be reasonably dense");
        // Hub-and-spoke degrees: the maximum dwarfs the average.
        let avg = 2.0 * g.edge_count() as f64 / g.node_count() as f64;
        assert!(
            g.max_degree() as f64 > 3.0 * avg,
            "max degree {} vs average {avg}",
            g.max_degree()
        );
        // Weights are hyperbolic distances: positive, at most the radius.
        for (_, e) in g.edges() {
            assert!(e.weight > 0.0);
            assert!(e.weight <= 2.0 * (300.0f64).ln() * 0.55 + 1e-9);
        }
    }

    #[test]
    fn hyperbolic_rejects_bad_parameters() {
        let base = |nodes, alpha, radius| GeneratorSpec::Hyperbolic {
            nodes,
            alpha,
            radius,
            seed: 0,
        };
        assert!(base(1, 1.0, 4.0).generate_csr().is_err());
        assert!(base(50, 0.0, 4.0).generate_csr().is_err());
        assert!(base(50, -1.0, 4.0).generate_csr().is_err());
        assert!(base(50, f64::NAN, 4.0).generate_csr().is_err());
        assert!(base(50, 1.0, 0.0).generate_csr().is_err());
        assert!(base(50, 1.0, f64::INFINITY).generate_csr().is_err());
        assert!(base(2, 1.0, 0.5).generate_csr().is_ok());
    }

    #[test]
    fn decode_covers_all_pairs_in_order() {
        let n = 7;
        let pairs = (n * (n - 1) / 2) as u64;
        let all: Vec<u64> = (0..pairs).collect();
        let mut seen = Vec::new();
        decode_sorted_pairs(n, &all, |u, v| seen.push((u, v)));
        assert_eq!(seen.len(), pairs as usize);
        let mut expected = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                expected.push((u, v));
            }
        }
        assert_eq!(seen, expected);
    }

    #[test]
    fn generated_csr_serves_sssp_directly() {
        let spec = GeneratorSpec::Gnm {
            nodes: 500,
            edges: 2500,
            weights: WeightKind::Unit,
            seed: 5,
        };
        let csr = spec.generate_csr().unwrap();
        let mut ws = SsspWorkspace::new();
        csr.sssp_into(NodeId::new(0), None, None, &mut ws).unwrap();
        let reached = ws.distances().iter().filter(|d| d.is_finite()).count();
        assert!(reached > 400, "G(500, 2500) is connected w.h.p.");
    }
}
