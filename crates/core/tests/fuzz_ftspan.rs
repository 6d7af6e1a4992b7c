//! Fuzz-style battery for the `.ftspan` artifact codec (the v2 fixed-width
//! table, decoded through [`FtSpannerView`]), mirroring the wire battery in
//! `crates/net/tests/fuzz_decode.rs`.
//!
//! Seeded (fully reproducible) adversarial inputs — random bytes, every
//! truncation point of a valid artifact, lying section lengths and counts,
//! mutated headers and versions, spliced section tables — must all decode
//! to **typed**
//! [`CoreError`]s: no panics, no allocation bombs, no silent successes on
//! garbage.

use ftspan_core::serve::FtSpannerView;
use ftspan_core::{BuildRecipe, CoreError, DynamicArtifact, FtSpanner, SpannerRequest};
use ftspan_graph::generate;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A small real artifact, built core-only (no facade registry needed).
fn sample_artifact() -> FtSpanner {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA7);
    let g = generate::connected_gnp(
        14,
        0.3,
        generate::WeightKind::Uniform { min: 0.5, max: 2.0 },
        &mut rng,
    );
    let request = SpannerRequest {
        iterations: Some(4),
        threads: Some(1),
        ..SpannerRequest::default()
    };
    let recipe = BuildRecipe::new("corollary-2.2", request, 0xA7);
    DynamicArtifact::build(&g, recipe)
        .expect("sample build succeeds")
        .artifact()
        .clone()
}

fn encode_v2(artifact: &FtSpanner) -> Vec<u8> {
    let mut out = Vec::new();
    artifact
        .to_binary_writer(&mut out)
        .expect("v2 encoding succeeds");
    out
}

/// A magic + version header over an arbitrary body, for forging.
fn raw_image(magic: &[u8; 4], version: u32, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(body);
    out
}

fn assert_typed(result: ftspan_core::Result<FtSpanner>, context: &str) {
    match result {
        Err(CoreError::InvalidParameter { .. }) => {}
        Ok(_) => panic!("{context}: garbage decoded as an artifact"),
        Err(other) => panic!("{context}: unexpected error class {other:?}"),
    }
}

#[test]
fn the_codec_round_trips_the_sample_artifact() {
    let artifact = sample_artifact();
    let wire = encode_v2(&artifact);
    let decoded = FtSpanner::from_binary_slice(&wire).expect("v2 decodes");
    assert_eq!(decoded, artifact);
    assert_eq!(encode_v2(&decoded), wire, "re-encoding is byte-stable");
}

#[test]
fn random_bytes_decode_to_typed_errors_without_panicking() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xF450);
    for _ in 0..2000 {
        let len = rng.gen_range(0..400usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        assert_typed(FtSpanner::from_binary_slice(&bytes), "random bytes");
        if FtSpannerView::parse(&bytes).is_ok() {
            panic!("random bytes parsed as a v2 view");
        }
    }
}

#[test]
fn every_truncation_of_a_valid_v2_image_is_a_typed_error() {
    let wire = encode_v2(&sample_artifact());
    for cut in 0..wire.len() {
        assert_typed(
            FtSpanner::from_binary_slice(&wire[..cut]),
            &format!("v2 cut at {cut}/{}", wire.len()),
        );
        assert!(
            FtSpannerView::parse(&wire[..cut]).is_err(),
            "v2 view parsed a truncation at {cut}"
        );
    }
}

#[test]
fn trailing_bytes_after_an_image_are_rejected() {
    let mut v2 = encode_v2(&sample_artifact());
    v2.push(1); // non-zero so it cannot pass as alignment padding
    assert_typed(FtSpanner::from_binary_slice(&v2), "v2 trailing byte");
}

#[test]
fn bad_magic_and_version_skew_are_typed_errors() {
    let wire = encode_v2(&sample_artifact());
    let mut bad = wire.clone();
    bad[..4].copy_from_slice(b"HTTP");
    match FtSpanner::from_binary_slice(&bad) {
        Err(CoreError::InvalidParameter { message }) => {
            assert!(message.contains("magic"), "unexpected message: {message}")
        }
        other => panic!("expected a bad-magic error, got {other:?}"),
    }
    // Version 1 included: older builds wrote it, and such files must fail
    // typed, naming the version, like any other skew.
    for found in [0u32, 1, 3, 7, u32::MAX] {
        let forged = raw_image(b"FTSP", found, &wire[8..]);
        match FtSpanner::from_binary_slice(&forged) {
            Err(CoreError::InvalidParameter { message }) => {
                assert!(
                    message.contains(&format!("version {found}")),
                    "version {found}: error does not name the version: {message}"
                );
            }
            other => panic!("version {found}: expected a typed error, got {other:?}"),
        }
    }
}

#[test]
fn v2_header_and_table_violations_are_typed_errors() {
    let wire = encode_v2(&sample_artifact());
    // Section count forged to 7.
    let mut forged = wire.clone();
    forged[8..12].copy_from_slice(&7u32.to_le_bytes());
    assert_typed(FtSpanner::from_binary_slice(&forged), "v2 section count 7");
    // Reserved header word non-zero.
    let mut forged = wire.clone();
    forged[12] = 1;
    assert_typed(FtSpanner::from_binary_slice(&forged), "v2 reserved header");
    // First table entry: reserved word non-zero.
    let mut forged = wire.clone();
    forged[16 + 4] = 1;
    assert_typed(FtSpanner::from_binary_slice(&forged), "v2 reserved entry");
    // First table entry: misaligned offset.
    let mut forged = wire.clone();
    let off = u64::from_le_bytes(forged[24..32].try_into().unwrap());
    forged[24..32].copy_from_slice(&(off + 1).to_le_bytes());
    assert_typed(
        FtSpanner::from_binary_slice(&forged),
        "v2 misaligned offset",
    );
    // First table entry: length lying far past the file.
    let mut forged = wire.clone();
    forged[32..40].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
    assert_typed(FtSpanner::from_binary_slice(&forged), "v2 lying length");
    // Spliced table: swap the first two entries (tag order is fixed).
    let mut forged = wire.clone();
    let (a, b) = (16usize, 16 + 24);
    for i in 0..24 {
        forged.swap(a + i, b + i);
    }
    assert_typed(FtSpanner::from_binary_slice(&forged), "v2 spliced table");
}

#[test]
fn v2_padding_must_be_zero() {
    // The sample artifact's META section holds strings, so some section end
    // is almost surely unaligned; flip every padding byte and expect a
    // typed rejection (a reader that ignored padding would admit smuggled
    // bytes into an otherwise-valid image).
    let wire = encode_v2(&sample_artifact());
    assert!(FtSpannerView::parse(&wire).is_ok(), "own encoding parses");
    let mut rejected = 0usize;
    for at in 16 + 6 * 24..wire.len() {
        if wire[at] == 0 {
            let mut forged = wire.clone();
            forged[at] = 0xAA;
            if FtSpanner::from_binary_slice(&forged).is_err() {
                rejected += 1;
            }
        }
    }
    assert!(
        rejected > 0,
        "no padding byte rejected a non-zero overwrite"
    );
}

#[test]
fn mutated_v2_images_never_panic_and_errors_stay_typed() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xF452);
    let original = encode_v2(&sample_artifact());
    for _ in 0..3000 {
        let mut wire = original.clone();
        for _ in 0..rng.gen_range(1..9usize) {
            let at = rng.gen_range(0..wire.len());
            wire[at] = rng.gen();
        }
        match FtSpanner::from_binary_slice(&wire) {
            Ok(artifact) => {
                assert!(artifact.spanner_edge_count() <= artifact.source_edge_count());
            }
            Err(CoreError::InvalidParameter { .. }) => {}
            Err(other) => panic!("unexpected error class: {other:?}"),
        }
    }
}

#[test]
fn random_bodies_under_valid_headers_never_panic() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xF454);
    for _ in 0..2000 {
        let len = rng.gen_range(0..300usize);
        let body: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let v2 = raw_image(b"FTSP", 2, &body);
        let _ = FtSpanner::from_binary_slice(&v2);
        let _ = FtSpannerView::parse(&v2);
    }
}
