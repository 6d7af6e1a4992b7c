//! Adversarial battery for the on-disk artifact store: `.ftshard` manifest
//! fuzzing (truncations, mutations, lying counts, spliced sections) and
//! partial-failure semantics of [`ArtifactStore::load_into`].
//!
//! Companion to `crates/core/tests/fuzz_ftspan.rs` (which attacks the
//! `.ftspan` codec directly); this file attacks the store layer that
//! stitches manifests, shard pieces and flat artifacts into an engine.
//! Every forged input must fail as a typed [`CoreError::InvalidParameter`]
//! — never a panic, never an unbounded allocation driven by a claimed
//! count.

use fault_tolerant_spanners::core::{CoreError, Result};
use fault_tolerant_spanners::graph::partition::PartitionConfig;
use fault_tolerant_spanners::prelude::*;
use fault_tolerant_spanners::{ArtifactStore, FtSpannerBuilder, ShardedArtifact};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;

fn temp_store(tag: &str) -> ArtifactStore {
    let dir = std::env::temp_dir().join(format!(
        "ftspan-fuzz-artifacts-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    ArtifactStore::open(&dir).unwrap()
}

fn flat_artifact(seed: u64) -> FtSpanner {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = generate::connected_gnp(16, 0.3, generate::WeightKind::Unit, &mut rng);
    FtSpannerBuilder::new("conversion")
        .faults(1)
        .seed(seed)
        .build_artifact(&g)
        .unwrap()
}

fn sharded_artifact(seed: u64) -> ShardedArtifact {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = generate::connected_gnp(
        36,
        0.2,
        generate::WeightKind::Uniform { min: 1.0, max: 4.0 },
        &mut rng,
    );
    let builder = FtSpannerBuilder::new("conversion").faults(1).seed(seed);
    ShardedArtifact::build(&g, &builder, &PartitionConfig::new(3).with_seed(seed)).unwrap()
}

fn manifest_path(store: &ArtifactStore, name: &str) -> PathBuf {
    store.dir().join(format!("{name}.ftshard"))
}

fn assert_typed<T: std::fmt::Debug>(result: Result<T>, context: &str) {
    match result {
        Err(CoreError::InvalidParameter { .. }) => {}
        Ok(v) => panic!("{context}: forged input loaded as {v:?}"),
        Err(other) => panic!("{context}: unexpected error class {other:?}"),
    }
}

#[test]
fn every_truncation_of_a_shard_manifest_is_a_typed_error() {
    let store = temp_store("manifest-truncation");
    let original = sharded_artifact(0xB1);
    store.save_sharded("wide", &original).unwrap();
    let path = manifest_path(&store, "wide");
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    for keep in 0..lines.len() {
        let mut partial = lines[..keep].join("\n");
        partial.push('\n');
        std::fs::write(&path, &partial).unwrap();
        assert_typed(
            store.load_sharded("wide"),
            &format!("manifest truncated to {keep}/{} lines", lines.len()),
        );
    }
    // Byte-level truncations cut mid-line as well as at boundaries. The
    // sole cut that may still load is the one dropping only the final
    // newline (the line content is untouched) — and then it must reproduce
    // the original artifact exactly.
    for cut in 0..text.len() {
        std::fs::write(&path, &text.as_bytes()[..cut]).unwrap();
        match store.load_sharded("wide") {
            Err(CoreError::InvalidParameter { .. }) => {}
            Ok(loaded) => {
                assert_eq!(cut, text.len() - 1, "a mid-line truncation loaded");
                assert_eq!(loaded.node_count(), original.node_count());
                assert_eq!(loaded.cut_edge_count(), original.cut_edge_count());
            }
            Err(other) => panic!("cut {cut}: unexpected error class {other:?}"),
        }
    }
    // Restoring the manifest restores the artifact.
    std::fs::write(&path, &text).unwrap();
    assert!(store.load_sharded("wide").is_ok());
}

#[test]
fn mutated_shard_manifests_never_panic_and_errors_stay_typed() {
    let store = temp_store("manifest-mutation");
    let original = sharded_artifact(0xB2);
    store.save_sharded("wide", &original).unwrap();
    let path = manifest_path(&store, "wide");
    let pristine = std::fs::read(&path).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(0xF460);
    for _ in 0..1500 {
        let mut forged = pristine.clone();
        for _ in 0..rng.gen_range(1..6usize) {
            let at = rng.gen_range(0..forged.len());
            forged[at] = rng.gen();
        }
        std::fs::write(&path, &forged).unwrap();
        match store.load_sharded("wide") {
            // A mutation that survives parsing (e.g. a cut-weight digit)
            // must still assemble a structurally consistent artifact.
            Ok(loaded) => assert_eq!(loaded.node_count(), original.node_count()),
            Err(CoreError::InvalidParameter { .. }) => {}
            Err(other) => panic!("unexpected error class: {other:?}"),
        }
    }
}

#[test]
fn lying_manifest_counts_are_refused_without_allocating() {
    let store = temp_store("manifest-lying-counts");
    store.save_sharded("wide", &sharded_artifact(0xB3)).unwrap();
    let path = manifest_path(&store, "wide");
    let pristine = std::fs::read_to_string(&path).unwrap();

    // The checked-in regression from the fuzz battery: a forged
    // `cuts 4294967295` used to size a ~100 GiB Vec up front. The claimed
    // count may now only pre-size up to a clamp; the parse must fail on the
    // first missing `cut` line instead.
    let forged = replace_field(&pristine, "cuts", "cuts 4294967295");
    std::fs::write(&path, &forged).unwrap();
    assert_typed(store.load_sharded("wide"), "cuts 4294967295");

    // Counts wider than the u32 id space are refused at parse time.
    for field in [
        "shards 99999999999",
        "nodes 99999999999",
        "cuts 99999999999",
    ] {
        let key = field.split(' ').next().unwrap();
        let forged = replace_field(&pristine, key, field);
        std::fs::write(&path, &forged).unwrap();
        assert_typed(store.load_sharded("wide"), field);
    }

    // A shard count pointing past the pieces on disk fails on the missing
    // file, not by inventing shards.
    let forged = replace_field(&pristine, "shards", "shards 4000000");
    std::fs::write(&path, &forged).unwrap();
    assert_typed(store.load_sharded("wide"), "shards 4000000");

    // A node count disagreeing with the assignment is refused.
    let forged = replace_field(&pristine, "nodes", "nodes 7");
    std::fs::write(&path, &forged).unwrap();
    assert_typed(store.load_sharded("wide"), "nodes 7");
}

/// Replaces the manifest line starting with `key ` by `replacement`.
fn replace_field(manifest: &str, key: &str, replacement: &str) -> String {
    let mut out = String::new();
    for line in manifest.lines() {
        if line.starts_with(&format!("{key} ")) {
            out.push_str(replacement);
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[test]
fn spliced_manifests_are_rejected() {
    let store = temp_store("manifest-splice");
    store.save_sharded("wide", &sharded_artifact(0xB4)).unwrap();
    store
        .save_sharded("other", &sharded_artifact(0xB5))
        .unwrap();
    let wide = std::fs::read_to_string(manifest_path(&store, "wide")).unwrap();
    let other = std::fs::read_to_string(manifest_path(&store, "other")).unwrap();

    // Reordered sections: the field order is part of the format.
    let mut lines: Vec<&str> = wide.lines().collect();
    lines.swap(2, 3); // nodes <-> cuts
    let forged = lines.join("\n") + "\n";
    std::fs::write(manifest_path(&store, "wide"), &forged).unwrap();
    assert_typed(store.load_sharded("wide"), "reordered manifest sections");

    // An assignment line spliced in from a different artifact must fail the
    // cross-validation against the shard pieces (both artifacts here have
    // the same node count, so the length check alone cannot save us).
    let donor_assignment = other
        .lines()
        .find(|l| l.starts_with("assignment "))
        .unwrap();
    let spliced = replace_field(&wide, "assignment", donor_assignment);
    std::fs::write(manifest_path(&store, "wide"), &spliced).unwrap();
    match store.load_sharded("wide") {
        Err(CoreError::InvalidParameter { .. }) => {}
        Ok(loaded) => {
            // If the donor assignment happens to be structurally compatible
            // the load may succeed, but it must then be fully consistent.
            assert_eq!(loaded.shard_count(), 3);
        }
        Err(other) => panic!("unexpected error class: {other:?}"),
    }

    // Duplicated trailer / trailing bytes after `end`.
    let forged = format!("{wide}garbage after end\n");
    std::fs::write(manifest_path(&store, "wide"), &forged).unwrap();
    assert_typed(store.load_sharded("wide"), "trailing manifest bytes");
}

#[test]
fn forged_flat_headers_cannot_bomb_through_the_store() {
    // A valid `.ftspan` image whose `DIMS` node count is patched to 2^32 - 1:
    // the node count has no backing bytes, so the store's load must refuse
    // it by the per-edge node bound before allocating adjacency for four
    // billion vertices.
    let store = temp_store("flat-bomb");
    let path = store.save("bomb", &flat_artifact(41)).unwrap();
    let mut image = std::fs::read(&path).unwrap();
    // Header (16 bytes), then 24-byte table entries; `DIMS` is entry 1 and
    // its absolute offset sits 8 bytes into the entry.
    let dims_at = u64::from_le_bytes(image[48..56].try_into().unwrap()) as usize;
    assert_eq!(&image[40..44], b"DIMS");
    image[dims_at..dims_at + 8].copy_from_slice(&u64::from(u32::MAX).to_le_bytes());
    std::fs::write(&path, &image).unwrap();
    match store.load("bomb") {
        Err(CoreError::InvalidParameter { message }) => assert!(
            message.contains("implausible node count"),
            "unexpected message: {message}"
        ),
        other => panic!("expected the node-bound refusal, got {other:?}"),
    }
}

#[test]
fn load_into_keeps_artifacts_loaded_before_a_corrupt_file() {
    let store = temp_store("load-into-partial");
    store.save("alpha", &flat_artifact(1)).unwrap();
    store.save("beta", &flat_artifact(2)).unwrap();
    store.save("omega", &flat_artifact(3)).unwrap();
    // `names()` iterates sorted, so `middle` corrupts the listing between
    // `beta` and `omega`.
    std::fs::write(store.dir().join("middle.ftspan"), b"not an artifact").unwrap();

    let mut engine = Engine::new();
    assert_typed(store.load_into(&mut engine), "corrupt mid-listing file");
    // Everything loaded before the corrupt file stays registered...
    assert!(engine.artifact("alpha").is_some());
    assert!(engine.artifact("beta").is_some());
    // ...and nothing after it was reached.
    assert!(engine.artifact("omega").is_none());
    assert!(engine.artifact("middle").is_none());
}

#[test]
fn corrupt_shard_piece_does_not_strand_siblings_as_flat_registrations() {
    let store = temp_store("load-into-shard-piece");
    store.save("alpha", &flat_artifact(4)).unwrap();
    store.save_sharded("wide", &sharded_artifact(0xB6)).unwrap();
    std::fs::write(store.dir().join("wide.shard1.ftspan"), b"corrupt piece").unwrap();

    let mut engine = Engine::new();
    assert_typed(store.load_into(&mut engine), "corrupt shard piece");
    // The sharded artifact itself must not be registered...
    assert!(engine.sharded_artifact("wide").is_none());
    // ...and crucially its intact sibling pieces must not leak into the
    // engine as flat artifacts.
    for piece in ["wide.shard0", "wide.shard1", "wide.shard2"] {
        assert!(
            engine.artifact(piece).is_none(),
            "shard piece `{piece}` was stranded as a flat registration"
        );
    }
}

#[test]
fn corrupt_manifest_does_not_strand_valid_pieces_as_flat_registrations() {
    let store = temp_store("load-into-manifest");
    store.save_sharded("wide", &sharded_artifact(0xB7)).unwrap();
    std::fs::write(manifest_path(&store, "wide"), b"ftshard 1\nshards x\n").unwrap();

    let mut engine = Engine::new();
    assert_typed(store.load_into(&mut engine), "corrupt manifest");
    assert!(engine.sharded_artifact("wide").is_none());
    for piece in ["wide.shard0", "wide.shard1", "wide.shard2"] {
        assert!(
            engine.artifact(piece).is_none(),
            "shard piece `{piece}` was stranded as a flat registration"
        );
    }
}

#[test]
fn random_manifest_bytes_decode_to_typed_errors() {
    let store = temp_store("manifest-random");
    // A real shard family must exist so shard pieces are loadable when a
    // random manifest happens to parse its header.
    store.save_sharded("wide", &sharded_artifact(0xB8)).unwrap();
    let path = manifest_path(&store, "wide");
    let mut rng = ChaCha8Rng::seed_from_u64(0xF461);
    for _ in 0..1000 {
        let len = rng.gen_range(0..200usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        std::fs::write(&path, &bytes).unwrap();
        assert_typed(store.load_sharded("wide"), "random manifest bytes");
    }
}
