//! Seeded, deterministic balanced graph partitioning — the front half of the
//! sharded spanner pipeline.
//!
//! [`partition`] splits a graph's vertex set into `parts` disjoint,
//! individually **connected** groups of bounded size by growing BFS regions
//! from spread-out seed vertices. The output is a [`Partition`]: a
//! vertex-to-part assignment plus derived views (members, cut edges,
//! boundary vertices) that the sharded artifact builder consumes.
//!
//! # Algorithm
//!
//! 1. **Seed spread.** The first seed vertex is derived from
//!    [`PartitionConfig::seed`] by a splitmix64 mix; every further seed is the vertex
//!    farthest (in BFS hops) from all previous seeds, ties broken toward the
//!    smallest index. Farthest-point seeding keeps regions from nesting
//!    inside one another, and makes the whole partition a pure function of
//!    `(graph, config)`.
//! 2. **Round-robin BFS growth.** Each part claims **one** vertex per round
//!    from its BFS frontier (smallest-index neighbor order), so parts grow
//!    in lock step and stay balanced; a part stops claiming once it holds
//!    [`Partition::capacity`] vertices, the bound
//!    `ceil(n / parts · 1.2)`: a 20% imbalance leaves growth some slack.
//!
//! Every claimed vertex is adjacent to an earlier vertex of the same part,
//! so each part induces a **connected** subgraph — which is exactly what the
//! per-shard spanner constructions need as input.
//!
//! # Determinism
//!
//! The partitioner is sequential and seeded: the same `(graph, config)`
//! always produces the identical assignment, on any machine and regardless
//! of how many worker threads the surrounding pipeline uses. Downstream
//! shard builds can therefore be fanned out across a pool without the
//! partition itself becoming a source of nondeterminism.
//!
//! # Errors
//!
//! A disconnected input (or a shape for which every neighboring part is
//! full under the imbalance bound) leaves vertices that no part can reach; the
//! partitioner reports them with the typed
//! [`GraphError::PartitionStalled`] instead of returning a partial cover.
//!
//! # Example
//!
//! ```
//! use ftspan_graph::partition::{partition, PartitionConfig};
//! use ftspan_graph::generate;
//!
//! let g = generate::grid(8, 8);
//! let parts = partition(&g, &PartitionConfig::new(4).with_seed(2011)).unwrap();
//! assert_eq!(parts.part_count(), 4);
//! // Disjoint full cover within the imbalance bound:
//! assert_eq!(parts.sizes().iter().sum::<usize>(), g.node_count());
//! assert!(parts.sizes().iter().all(|&s| s <= parts.capacity()));
//! ```

use crate::{Graph, GraphError, NodeId, Result};
use std::collections::VecDeque;

/// Maximum relative imbalance: no part exceeds
/// `ceil(n / parts · (1 + MAX_IMBALANCE))` vertices, which leaves the
/// lock-step growth some slack.
const MAX_IMBALANCE: f64 = 0.2;

/// How [`partition`] splits a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionConfig {
    /// Number of parts to grow (each part is non-empty).
    pub parts: usize,
    /// Seed of the deterministic seed-vertex choice.
    pub seed: u64,
}

impl PartitionConfig {
    /// A configuration with the default seed (`2011`, the year of the paper
    /// — the workspace-wide default).
    pub fn new(parts: usize) -> Self {
        PartitionConfig { parts, seed: 2011 }
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A disjoint full cover of a graph's vertices by connected parts, produced
/// by [`partition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    assignment: Vec<u32>,
    sizes: Vec<usize>,
    capacity: usize,
}

impl Partition {
    /// Number of parts.
    pub fn part_count(&self) -> usize {
        self.sizes.len()
    }

    /// Number of vertices of the partitioned graph.
    pub fn node_count(&self) -> usize {
        self.assignment.len()
    }

    /// The part holding vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn part_of(&self, v: NodeId) -> usize {
        self.assignment[v.index()] as usize
    }

    /// The vertex-to-part assignment, indexed by vertex.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// The per-part vertex counts.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// The size bound every part respects:
    /// `ceil(n / parts · 1.2)`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The vertices of part `p`, in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `p >= part_count()`.
    pub fn members(&self, p: usize) -> Vec<NodeId> {
        assert!(p < self.part_count(), "part {p} out of range");
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a as usize == p)
            .map(|(v, _)| NodeId::new(v))
            .collect()
    }

    /// The edges of `g` whose endpoints lie in different parts, in edge-id
    /// order. These are exactly the edges the sharded artifact's boundary
    /// overlay must carry.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if `g` has a different
    /// vertex count than the partitioned graph.
    pub fn cut_edges(&self, g: &Graph) -> Result<Vec<crate::EdgeId>> {
        self.check_graph(g)?;
        Ok(g.edges()
            .filter(|(_, e)| self.assignment[e.u.index()] != self.assignment[e.v.index()])
            .map(|(id, _)| id)
            .collect())
    }

    /// The vertices incident to at least one cut edge, sorted ascending.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if `g` has a different
    /// vertex count than the partitioned graph.
    pub fn boundary_vertices(&self, g: &Graph) -> Result<Vec<NodeId>> {
        self.check_graph(g)?;
        let mut on_boundary = vec![false; self.assignment.len()];
        for (_, e) in g.edges() {
            if self.assignment[e.u.index()] != self.assignment[e.v.index()] {
                on_boundary[e.u.index()] = true;
                on_boundary[e.v.index()] = true;
            }
        }
        Ok(on_boundary
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b)
            .map(|(v, _)| NodeId::new(v))
            .collect())
    }

    fn check_graph(&self, g: &Graph) -> Result<()> {
        if g.node_count() != self.assignment.len() {
            return Err(GraphError::InvalidParameter {
                message: format!(
                    "partition covers {} vertices but the graph has {}",
                    self.assignment.len(),
                    g.node_count()
                ),
            });
        }
        Ok(())
    }
}

/// Splits `g` into [`PartitionConfig::parts`] disjoint connected parts of at
/// most [`Partition::capacity`] vertices each (see the [module
/// docs](self) for the algorithm).
///
/// # Errors
///
/// * [`GraphError::InvalidParameter`] when `parts` is zero or exceeds the
///   vertex count.
/// * [`GraphError::PartitionStalled`] when growth cannot cover every vertex
///   — the input is disconnected, or the imbalance bound is too tight for
///   its shape.
pub fn partition(g: &Graph, config: &PartitionConfig) -> Result<Partition> {
    let n = g.node_count();
    if config.parts == 0 {
        return Err(GraphError::InvalidParameter {
            message: "cannot partition into zero parts".to_string(),
        });
    }
    if config.parts > n {
        return Err(GraphError::InvalidParameter {
            message: format!(
                "cannot grow {} non-empty parts from {n} vertices",
                config.parts
            ),
        });
    }
    let parts = config.parts;
    // Each part may hold at most ceil(n / parts · (1 + ε)) vertices, but the
    // bound is never below ceil(n / parts) — the total capacity must cover n.
    let capacity = ((n as f64 / parts as f64) * (1.0 + MAX_IMBALANCE)).ceil() as usize;
    let capacity = capacity.max(n.div_ceil(parts));

    let seeds = spread_seeds(g, parts, config.seed);

    const UNASSIGNED: u32 = u32::MAX;
    let mut assignment = vec![UNASSIGNED; n];
    let mut sizes = vec![0usize; parts];
    let mut queues: Vec<VecDeque<usize>> =
        seeds.iter().map(|s| VecDeque::from([s.index()])).collect();
    let mut remaining = n;

    // Round-robin growth: each round, every part with spare capacity claims
    // at most one vertex from its frontier. A round that claims nothing while
    // vertices remain means no growing part can reach them.
    while remaining > 0 {
        let mut progress = false;
        for p in 0..parts {
            if sizes[p] >= capacity {
                continue;
            }
            while let Some(u) = queues[p].pop_front() {
                if assignment[u] != UNASSIGNED {
                    continue;
                }
                assignment[u] = p as u32;
                sizes[p] += 1;
                remaining -= 1;
                let mut frontier: Vec<usize> = g
                    .neighbors(NodeId::new(u))
                    .map(NodeId::index)
                    .filter(|&v| assignment[v] == UNASSIGNED)
                    .collect();
                frontier.sort_unstable();
                queues[p].extend(frontier);
                progress = true;
                break;
            }
        }
        if !progress {
            return Err(GraphError::PartitionStalled {
                unassigned: remaining,
            });
        }
    }

    Ok(Partition {
        assignment,
        sizes,
        capacity,
    })
}

/// The splitmix64 mixing step: a tiny, dependency-free way to turn the
/// user's seed into a well-spread first seed vertex. Only the first seed is
/// randomized; every further one is the deterministic farthest-point choice.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Picks `parts` spread-out seed vertices: the first from the mixed seed,
/// each further one the vertex farthest (BFS hops) from all previous seeds,
/// ties toward the smallest index. Vertices in components no seed has
/// reached count as infinitely far, so extra seeds land in uncovered
/// components first.
fn spread_seeds(g: &Graph, parts: usize, seed: u64) -> Vec<NodeId> {
    let n = g.node_count();
    let mut seeds = vec![NodeId::new((splitmix64(seed) % n as u64) as usize)];
    let mut dist = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    while seeds.len() < parts {
        // Incremental multi-source BFS: only the newest seed is relaxed —
        // earlier seeds' distances are already final.
        let newest = *seeds.last().expect("at least one seed");
        dist[newest.index()] = 0;
        queue.push_back(newest.index());
        while let Some(u) = queue.pop_front() {
            let du = dist[u];
            let mut next: Vec<usize> = g
                .neighbors(NodeId::new(u))
                .map(NodeId::index)
                .filter(|&v| dist[v] > du + 1)
                .collect();
            next.sort_unstable();
            for v in next {
                if dist[v] > du + 1 {
                    dist[v] = du + 1;
                    queue.push_back(v);
                }
            }
        }
        let farthest = (0..n)
            .max_by_key(|&v| (dist[v], std::cmp::Reverse(v)))
            .expect("parts <= n guarantees vertices exist");
        seeds.push(NodeId::new(farthest));
    }
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components;
    use crate::generate;
    use rand::SeedableRng;

    fn check_cover(g: &Graph, parts: &Partition) {
        assert_eq!(parts.node_count(), g.node_count());
        assert_eq!(parts.sizes().iter().sum::<usize>(), g.node_count());
        for p in 0..parts.part_count() {
            let members = parts.members(p);
            assert!(!members.is_empty(), "part {p} is empty");
            assert!(members.len() <= parts.capacity(), "part {p} over capacity");
            assert_eq!(members.len(), parts.sizes()[p]);
            for &v in &members {
                assert_eq!(parts.part_of(v), p);
            }
        }
    }

    fn check_parts_connected(g: &Graph, parts: &Partition) {
        for p in 0..parts.part_count() {
            let members = parts.members(p);
            let mut local = vec![usize::MAX; g.node_count()];
            for (i, &v) in members.iter().enumerate() {
                local[v.index()] = i;
            }
            let mut sub = Graph::new(members.len());
            for (_, e) in g.edges() {
                let (lu, lv) = (local[e.u.index()], local[e.v.index()]);
                if lu != usize::MAX && lv != usize::MAX {
                    sub.add_edge(NodeId::new(lu), NodeId::new(lv), e.weight)
                        .unwrap();
                }
            }
            assert!(
                sub.is_connected(),
                "part {p} induces a disconnected subgraph"
            );
        }
    }

    #[test]
    fn grid_partitions_into_balanced_connected_parts() {
        let g = generate::grid(10, 10);
        for parts in [1usize, 2, 3, 4, 7] {
            let partition = partition(&g, &PartitionConfig::new(parts)).unwrap();
            assert_eq!(partition.part_count(), parts);
            check_cover(&g, &partition);
            check_parts_connected(&g, &partition);
        }
    }

    #[test]
    fn gnp_partitions_cover_disjointly() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let g = generate::connected_gnp(60, 0.1, generate::WeightKind::Unit, &mut rng);
        let partition = partition(&g, &PartitionConfig::new(4).with_seed(42)).unwrap();
        check_cover(&g, &partition);
        check_parts_connected(&g, &partition);
    }

    #[test]
    fn partition_is_deterministic_per_seed() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let g = generate::connected_gnp(50, 0.12, generate::WeightKind::Unit, &mut rng);
        let a = partition(&g, &PartitionConfig::new(3).with_seed(7)).unwrap();
        let b = partition(&g, &PartitionConfig::new(3).with_seed(7)).unwrap();
        assert_eq!(a, b);
        // A different seed is allowed to (and on this graph does) differ.
        let c = partition(&g, &PartitionConfig::new(3).with_seed(8)).unwrap();
        assert_eq!(c.sizes().iter().sum::<usize>(), g.node_count());
    }

    #[test]
    fn cut_edges_and_boundary_vertices_are_consistent() {
        let g = generate::grid(6, 6);
        let partition = partition(&g, &PartitionConfig::new(4)).unwrap();
        let cut = partition.cut_edges(&g).unwrap();
        let boundary = partition.boundary_vertices(&g).unwrap();
        assert!(!cut.is_empty(), "a 4-way grid split must cut edges");
        for id in &cut {
            let e = g.edge(*id);
            assert_ne!(partition.part_of(e.u), partition.part_of(e.v));
            assert!(boundary.binary_search(&e.u).is_ok());
            assert!(boundary.binary_search(&e.v).is_ok());
        }
        // Every boundary vertex is an endpoint of some cut edge.
        for &v in &boundary {
            assert!(cut.iter().any(|id| g.edge(*id).is_incident(v)));
        }
        // One part means no cut at all.
        let whole = super::partition(&g, &PartitionConfig::new(1)).unwrap();
        assert!(whole.cut_edges(&g).unwrap().is_empty());
        assert!(whole.boundary_vertices(&g).unwrap().is_empty());
    }

    #[test]
    fn invalid_parameters_are_typed_errors() {
        let g = generate::grid(4, 4);
        assert!(matches!(
            partition(&g, &PartitionConfig::new(0)),
            Err(GraphError::InvalidParameter { .. })
        ));
        assert!(matches!(
            partition(&g, &PartitionConfig::new(17)),
            Err(GraphError::InvalidParameter { .. })
        ));
        let other = generate::grid(3, 3);
        let partition = partition(&g, &PartitionConfig::new(2)).unwrap();
        assert!(partition.cut_edges(&other).is_err());
        assert!(partition.boundary_vertices(&other).is_err());
    }

    #[test]
    fn disconnected_leftovers_are_a_typed_error() {
        // Two 4-cycles with no path between them: one part per component
        // works, but three parts strand the growth (one component would need
        // two seeds, and the farthest-point spread puts the third seed there
        // — yet a 2-part request cannot cover both components with one).
        let mut g = Graph::new(8);
        for c in [0usize, 4] {
            for i in 0..4 {
                g.add_edge(NodeId::new(c + i), NodeId::new(c + (i + 1) % 4), 1.0)
                    .unwrap();
            }
        }
        // One part can never reach the second component.
        let err = partition(&g, &PartitionConfig::new(1)).unwrap_err();
        assert!(matches!(
            err,
            GraphError::PartitionStalled { unassigned: 4 }
        ));
        assert!(err.to_string().contains('4'));
        // Two seeds land in different components (farthest-point spread), so
        // two parts cover the disconnected input fine.
        let two = partition(&g, &PartitionConfig::new(2)).unwrap();
        assert_eq!(two.sizes(), &[4, 4]);
        assert_eq!(components::connected_components(&g).count(), 2);
    }

    #[test]
    fn tight_imbalance_still_covers_a_path_graph() {
        // A path is the worst case for frontier deadlock; lock-step growth
        // capped at ceil(n/parts · 1.2) = 8 must still cover it from spread
        // seeds.
        let mut g = Graph::new(12);
        for i in 0..11 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1), 1.0).unwrap();
        }
        let partition = partition(&g, &PartitionConfig::new(2)).unwrap();
        check_cover(&g, &partition);
        assert_eq!(partition.capacity(), 8);
        assert!(partition.sizes().iter().all(|&s| s <= 8));
    }
}
