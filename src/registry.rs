//! The workspace-wide algorithm registry.

use ftspan_core::{FtSpannerAlgorithm, Registry};
use std::sync::OnceLock;

/// The full registry of fault-tolerant spanner constructions: the
/// centralized algorithms of `ftspan-core` plus the distributed (LOCAL-model)
/// algorithms of `ftspan-local`. Algorithms are stateless descriptors, so the
/// registry is built once per process and shared.
///
/// The names it holds (see the README for the theorem table):
///
/// | name | paper result |
/// |------|--------------|
/// | `conversion` | Theorem 2.1 (vertex faults; edge faults via the request's fault model) |
/// | `corollary-2.2` | Corollary 2.2 |
/// | `adaptive` | Theorem 2.1 with a verification-battery stopping rule |
/// | `edge-fault` | Theorem 2.1, edge-fault extension |
/// | `clpr09` | CLPR09-style union-over-fault-sets baseline |
/// | `two-spanner-lp` | Theorem 3.3 |
/// | `two-spanner-greedy` | Lemma 3.1 greedy cover heuristic |
/// | `two-spanner-lll` | Theorem 3.4 |
/// | `dk10` | DK10 baseline |
/// | `distributed-conversion` | Theorem 2.3 / Corollary 2.4 |
/// | `distributed-two-spanner` | Theorem 3.9 / Algorithm 2 |
///
/// # Example
///
/// ```
/// let registry = fault_tolerant_spanners::registry();
/// assert!(registry.get("conversion").is_some());
/// assert_eq!(registry.len(), 11);
/// for algorithm in registry.iter() {
///     println!("{:<24} {:<12} {}", algorithm.name(), algorithm.reference(), algorithm.summary());
/// }
/// ```
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut algorithms: Vec<Box<dyn FtSpannerAlgorithm>> =
            ftspan_core::algorithms::core_algorithms();
        algorithms.extend(ftspan_local::algorithms::local_algorithms());
        Registry::from_algorithms(algorithms)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_every_construction_once() {
        let registry = registry();
        let names = registry.names();
        assert_eq!(names.len(), 11);
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate registry names");
        for name in [
            "conversion",
            "corollary-2.2",
            "adaptive",
            "edge-fault",
            "clpr09",
            "two-spanner-lp",
            "two-spanner-greedy",
            "two-spanner-lll",
            "dk10",
            "distributed-conversion",
            "distributed-two-spanner",
        ] {
            assert!(registry.get(name).is_some(), "`{name}` not registered");
        }
    }
}
