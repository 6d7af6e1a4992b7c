//! Differential test of `apply_deltas` against the original implementation.
//!
//! The reference below is `apply_deltas` as it was first written: every base
//! edge hashed into a `HashMap` of slots, the deltas applied to the slots,
//! and the post-delta graph rebuilt with one `add_edge` per surviving edge.
//! The patching implementation must produce exactly the same graph — the
//! edge list in order, every weight bit for bit, every adjacency list in
//! order — and, on an invalid batch, exactly the same error. The batches mix
//! the sequences that depend on order within a batch (delete then
//! re-insert, insert then reweight, insert then delete, delete twice) with
//! every invalid kind: an endpoint out of range, a self-loop, a non-finite
//! or negative weight, a duplicate insert, a missing delete or reweight,
//! and a sequence number that does not increase.

use ftspan_core::dynamic::{apply_deltas, EdgeDelta, SequencedDelta};
use ftspan_core::CoreError;
use ftspan_graph::{generate, Graph, NodeId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

fn kind(delta: &EdgeDelta) -> &'static str {
    match delta {
        EdgeDelta::Insert { .. } => "insert",
        EdgeDelta::Delete { .. } => "delete",
        EdgeDelta::Reweight { .. } => "reweight",
    }
}

/// The original `apply_deltas`, kept verbatim.
fn reference_apply_deltas(base: &Graph, deltas: &[SequencedDelta]) -> Result<Graph, CoreError> {
    let n = base.node_count();
    let mut slots: Vec<Option<(NodeId, NodeId, f64)>> = base
        .edges()
        .map(|(_, e)| Some((e.u, e.v, e.weight)))
        .collect();
    let mut index: HashMap<(usize, usize), usize> = slots
        .iter()
        .enumerate()
        .map(|(i, slot)| {
            let (u, v, _) = slot.expect("freshly collected");
            ((u.index(), v.index()), i)
        })
        .collect();

    let mut prev_seq = 0u64;
    for record in deltas {
        if record.seq <= prev_seq {
            return Err(CoreError::InvalidParameter {
                message: format!(
                    "delta sequence numbers must increase strictly: {} after {prev_seq}",
                    record.seq
                ),
            });
        }
        prev_seq = record.seq;
        let (u, v) = record.delta.endpoints();
        let reject = |why: String| CoreError::InvalidParameter {
            message: format!(
                "delta #{} ({} ({u}, {v})): {why}",
                record.seq,
                kind(&record.delta)
            ),
        };
        if u.index() >= n || v.index() >= n {
            return Err(reject(format!("endpoint out of range for {n} vertices")));
        }
        if u == v {
            return Err(reject("self-loops are not allowed".to_string()));
        }
        let key = (u.index().min(v.index()), u.index().max(v.index()));
        let (a, b) = (NodeId::new(key.0), NodeId::new(key.1));
        match record.delta {
            EdgeDelta::Insert { weight, .. } => {
                if !weight.is_finite() || weight < 0.0 {
                    return Err(reject(format!("invalid weight {weight}")));
                }
                if index.contains_key(&key) {
                    return Err(reject("edge already exists".to_string()));
                }
                index.insert(key, slots.len());
                slots.push(Some((a, b, weight)));
            }
            EdgeDelta::Delete { .. } => match index.remove(&key) {
                Some(slot) => slots[slot] = None,
                None => return Err(reject("edge does not exist".to_string())),
            },
            EdgeDelta::Reweight { weight, .. } => {
                if !weight.is_finite() || weight < 0.0 {
                    return Err(reject(format!("invalid weight {weight}")));
                }
                match index.get(&key) {
                    Some(&slot) => {
                        slots[slot] = Some((a, b, weight));
                    }
                    None => return Err(reject("edge does not exist".to_string())),
                }
            }
        }
    }

    let mut graph = Graph::new(n);
    for (u, v, w) in slots.into_iter().flatten() {
        graph
            .add_edge(u, v, w)
            .map_err(|e| CoreError::InvalidParameter {
                message: format!("post-delta graph rejected edge ({u}, {v}): {e}"),
            })?;
    }
    Ok(graph)
}

/// A weight for a generated delta: mostly valid (including `-0.0`), now and
/// then NaN, infinite or negative.
fn weight(rng: &mut ChaCha8Rng) -> f64 {
    match rng.gen_range(0..40u32) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => -1.5,
        3 => -0.0,
        _ => f64::from(rng.gen_range(0..8u32)) * 0.5,
    }
}

/// A batch of `len` deltas against `g`. A delta's pair is a base edge, the
/// pair of an earlier delta in the batch (so order within the batch
/// matters), or a random pair; its kind is mostly one that is valid for the
/// pair as the batch left it, so that many batches apply. A few pairs are
/// self-loops or out of range, and a few sequence numbers do not increase.
fn random_batch(g: &Graph, len: usize, rng: &mut ChaCha8Rng) -> Vec<SequencedDelta> {
    let n = g.node_count();
    let mut batch: Vec<SequencedDelta> = Vec::with_capacity(len);
    let mut present: HashMap<(NodeId, NodeId), bool> = HashMap::new();
    let mut seq = 0u64;
    for _ in 0..len {
        let (u, v) = match rng.gen_range(0..100u32) {
            0 => (
                NodeId::new(rng.gen_range(0..n)),
                NodeId::new(n + rng.gen_range(0..3usize)),
            ),
            1 => {
                let u = NodeId::new(rng.gen_range(0..n));
                (u, u)
            }
            2..=39 if g.edge_count() > 0 => {
                let e = g.edge(ftspan_graph::EdgeId::new(rng.gen_range(0..g.edge_count())));
                if rng.gen_bool(0.5) {
                    (e.u, e.v)
                } else {
                    (e.v, e.u)
                }
            }
            40..=79 if !batch.is_empty() => {
                let (u, v) = batch[rng.gen_range(0..batch.len())].delta.endpoints();
                (v, u)
            }
            _ => (
                NodeId::new(rng.gen_range(0..n)),
                NodeId::new(rng.gen_range(0..n)),
            ),
        };
        let exists = present
            .entry((u.min(v), u.max(v)))
            .or_insert_with(|| g.has_edge(u, v));
        let kind = match rng.gen_range(0..20u32) {
            0..=16 if *exists => 1 + rng.gen_range(0..2u32),
            0..=16 => 0,
            _ => rng.gen_range(0..3u32),
        };
        let delta = match kind {
            0 => EdgeDelta::Insert {
                u,
                v,
                weight: weight(rng),
            },
            1 => EdgeDelta::Delete { u, v },
            _ => EdgeDelta::Reweight {
                u,
                v,
                weight: weight(rng),
            },
        };
        match delta {
            EdgeDelta::Insert { .. } => *exists = true,
            EdgeDelta::Delete { .. } => *exists = false,
            EdgeDelta::Reweight { .. } => {}
        }
        seq = match rng.gen_range(0..60u32) {
            0 => seq,
            1 => seq.saturating_sub(1),
            _ => seq + 1 + u64::from(rng.gen_bool(0.1)),
        };
        batch.push(SequencedDelta { seq, delta });
    }
    batch
}

/// Applies `batch` with both implementations and compares the outcomes;
/// returns whether the batch was valid.
fn assert_matches_reference(g: &Graph, batch: &[SequencedDelta]) -> Result<bool, TestCaseError> {
    match (apply_deltas(g, batch), reference_apply_deltas(g, batch)) {
        (Ok(got), Ok(want)) => {
            let edges = |h: &Graph| -> Vec<(usize, usize, u64)> {
                h.edges()
                    .map(|(_, e)| (e.u.index(), e.v.index(), e.weight.to_bits()))
                    .collect()
            };
            prop_assert_eq!(edges(&got), edges(&want));
            prop_assert_eq!(got.node_count(), want.node_count());
            for v in want.nodes() {
                let got_adj: Vec<_> = got.incident(v).collect();
                let want_adj: Vec<_> = want.incident(v).collect();
                prop_assert_eq!(got_adj, want_adj);
            }
            prop_assert_eq!(got, want);
            Ok(true)
        }
        (got, want) => {
            prop_assert_eq!(got.err(), want.err());
            Ok(false)
        }
    }
}

/// A random graph: G(n, p) with continuous weights on `n` vertices.
fn base_graph(n: usize, p: f64, rng: &mut ChaCha8Rng) -> Graph {
    generate::gnp(
        n,
        p,
        generate::WeightKind::Uniform { min: 0.5, max: 3.0 },
        rng,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Same graph or same error on random batches over random graphs.
    #[test]
    fn apply_deltas_matches_the_reference(
        n in 2usize..24,
        p in 0.0f64..0.6,
        len in 1usize..16,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = base_graph(n, p, &mut rng);
        let batch = random_batch(&g, len, &mut rng);
        assert_matches_reference(&g, &batch)?;
    }
}

/// Runs seeded batches and checks that they cover what the proptest relies
/// on: valid batches with every order-sensitive sequence, and every error.
#[test]
fn seeded_batches_cover_every_sequence_and_every_error() {
    let mut rng = ChaCha8Rng::seed_from_u64(2011);
    let mut valid = 0;
    let mut errors: HashMap<&'static str, usize> = HashMap::new();
    let mut sequences: HashMap<(&'static str, &'static str), usize> = HashMap::new();
    for _ in 0..3000 {
        let n = rng.gen_range(2..24);
        let p = rng.gen_range(0.0..0.6);
        let g = base_graph(n, p, &mut rng);
        let len = rng.gen_range(1..16);
        let batch = random_batch(&g, len, &mut rng);
        match assert_matches_reference(&g, &batch) {
            Ok(true) => {
                valid += 1;
                let pair = |d: &SequencedDelta| {
                    let (u, v) = d.delta.endpoints();
                    (u.min(v), u.max(v))
                };
                for (i, later) in batch.iter().enumerate() {
                    if let Some(earlier) = batch[..i].iter().rev().find(|d| pair(d) == pair(later))
                    {
                        *sequences
                            .entry((kind(&earlier.delta), kind(&later.delta)))
                            .or_default() += 1;
                    }
                }
            }
            Ok(false) => {
                let message = apply_deltas(&g, &batch).unwrap_err().to_string();
                let what = [
                    "out of range",
                    "self-loops",
                    "invalid weight NaN",
                    "invalid weight inf",
                    "invalid weight -1.5",
                    "already exists",
                    "does not exist",
                    "must increase strictly",
                ]
                .into_iter()
                .find(|w| message.contains(w))
                .unwrap_or_else(|| panic!("unexpected error: {message}"));
                *errors.entry(what).or_default() += 1;
            }
            Err(e) => panic!("batch {batch:?} on {g:?}: {e:?}"),
        }
    }
    assert!(valid >= 600, "only {valid} valid batches");
    for what in [
        "out of range",
        "self-loops",
        "invalid weight NaN",
        "invalid weight inf",
        "invalid weight -1.5",
        "already exists",
        "does not exist",
        "must increase strictly",
    ] {
        assert!(
            errors.get(what).copied().unwrap_or(0) >= 50,
            "{what}: {errors:?}"
        );
    }
    for sequence in [
        ("delete", "insert"),
        ("insert", "reweight"),
        ("insert", "delete"),
        ("reweight", "delete"),
        ("reweight", "reweight"),
    ] {
        assert!(
            sequences.get(&sequence).copied().unwrap_or(0) >= 100,
            "{sequence:?}: {sequences:?}"
        );
    }
    // Delete then delete is never valid; it must fail the same way.
    let g = base_graph(6, 0.9, &mut rng);
    let e = *g.edge(ftspan_graph::EdgeId::new(0));
    let twice: Vec<SequencedDelta> = (1..=2)
        .map(|seq| SequencedDelta {
            seq,
            delta: EdgeDelta::Delete { u: e.u, v: e.v },
        })
        .collect();
    assert!(matches!(assert_matches_reference(&g, &twice), Ok(false)));
}
