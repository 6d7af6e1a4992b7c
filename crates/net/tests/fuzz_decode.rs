//! Fuzz-style battery for the wire-protocol decoders.
//!
//! Seeded (fully reproducible) adversarial inputs — random bytes, truncated
//! frames, oversized declared lengths, version skew, mutated valid frames —
//! must all decode to **typed** `NetError`s: no panics, no allocation bombs,
//! no silent successes on garbage.

use fault_tolerant_spanners::core::CoreError;
use fault_tolerant_spanners::graph::GraphError;
use fault_tolerant_spanners::prelude::*;
use fault_tolerant_spanners::QueryOutcome;
use ftspan_net::{
    DeltaApplyInfo, NetError, Request, Response, MAX_FRAME_LEN, PROTOCOL_MAGIC, PROTOCOL_VERSION,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn encode_request(request: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    request.write_to(&mut out).expect("encoding succeeds");
    out
}

fn encode_response(response: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    response.write_to(&mut out).expect("encoding succeeds");
    out
}

/// A frame with a hand-built header, for forging bad versions/tags/lengths.
fn raw_frame(version: u32, tag: [u8; 4], declared_len: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&PROTOCOL_MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&tag);
    out.extend_from_slice(&declared_len.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn sample_request() -> Request {
    Request::RunBatch(vec![
        Query::distance(
            "backbone",
            vec![NodeId::new(3)],
            NodeId::new(0),
            NodeId::new(5),
        ),
        Query::path("mesh", vec![], NodeId::new(1), NodeId::new(2)),
        Query::certificate(
            "backbone",
            vec![NodeId::new(1), NodeId::new(2)],
            NodeId::new(4),
            NodeId::new(6),
        )
        .with_edge_faults(vec![(NodeId::new(4), NodeId::new(7))]),
    ])
}

fn sample_apply_request() -> Request {
    Request::ApplyDeltas {
        artifact: "backbone".into(),
        deltas: vec![
            EdgeDelta::Insert {
                u: NodeId::new(3),
                v: NodeId::new(9),
                weight: 1.25,
            },
            EdgeDelta::Delete {
                u: NodeId::new(0),
                v: NodeId::new(5),
            },
            EdgeDelta::Reweight {
                u: NodeId::new(3),
                v: NodeId::new(9),
                weight: 4.0,
            },
        ],
    }
}

fn sample_response() -> Response {
    Response::Batch(vec![
        Ok(QueryOutcome::Distance(2.5)),
        Ok(QueryOutcome::Distance(f64::INFINITY)),
        Ok(QueryOutcome::Path(Some(vec![
            NodeId::new(0),
            NodeId::new(9),
        ]))),
        Ok(QueryOutcome::Path(None)),
        Err(CoreError::InvalidParameter {
            message: "no artifact named `ghost`".into(),
        }),
    ])
}

#[test]
fn random_bytes_decode_to_typed_errors_without_panicking() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xF422);
    for _ in 0..2000 {
        let len = rng.gen_range(0..300usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        // Random bytes essentially never start with the 4-byte magic, so
        // both decoders must return a typed error (and absolutely must not
        // panic or hang).
        let req = Request::read_from(&mut &bytes[..]);
        let resp = Response::read_from(&mut &bytes[..]);
        assert!(req.is_err(), "random bytes decoded as a request: {bytes:?}");
        assert!(
            resp.is_err(),
            "random bytes decoded as a response: {bytes:?}"
        );
    }
}

#[test]
fn random_payloads_under_a_valid_header_never_panic() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xF423);
    let tags: [[u8; 4]; 6] = [*b"QBAT", *b"LIST", *b"RBAT", *b"RSTA", *b"ADLT", *b"RADL"];
    for round in 0..2000 {
        let len = rng.gen_range(0..200usize);
        let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let tag = tags[round % tags.len()];
        let wire = raw_frame(PROTOCOL_VERSION, tag, payload.len() as u64, &payload);
        // Structurally valid frame, garbage payload: decoding must finish
        // (no panic, no unbounded allocation) with Ok or a typed error.
        let _ = Request::read_from(&mut &wire[..]);
        let _ = Response::read_from(&mut &wire[..]);
    }
}

fn sample_apply_response() -> Response {
    Response::DeltasApplied(Ok(DeltaApplyInfo {
        version: 4,
        applied: 3,
        last_seq: 17,
        rebuilt: false,
    }))
}

#[test]
fn every_truncation_of_a_valid_frame_is_closed_or_truncated() {
    for wire in [
        encode_request(&sample_request()),
        encode_request(&sample_apply_request()),
        encode_response(&sample_response()),
        encode_response(&sample_apply_response()),
    ] {
        for cut in 0..wire.len() {
            let req = Request::read_from(&mut &wire[..cut]);
            let resp = Response::read_from(&mut &wire[..cut]);
            for result in [req.map(|_| ()), resp.map(|_| ())] {
                match result {
                    Err(NetError::Closed) => {
                        assert_eq!(cut, 0, "Closed is only for EOF before the first byte")
                    }
                    Err(NetError::Truncated { .. }) => {}
                    other => panic!(
                        "cut at {cut}/{}: expected Closed/Truncated, got {other:?}",
                        wire.len()
                    ),
                }
            }
        }
    }
}

#[test]
fn oversized_declared_lengths_are_rejected_before_any_payload_read() {
    for declared in [MAX_FRAME_LEN + 1, u64::MAX, u64::MAX / 2] {
        let wire = raw_frame(PROTOCOL_VERSION, *b"QBAT", declared, b"tiny");
        match Request::read_from(&mut &wire[..]) {
            Err(NetError::FrameTooLarge { declared: d, limit }) => {
                assert_eq!(d, declared);
                assert_eq!(limit, MAX_FRAME_LEN);
            }
            other => panic!("declared {declared}: expected FrameTooLarge, got {other:?}"),
        }
    }
    // A maximal declared length with a short body must cost only the bytes
    // that actually arrived (read_to_end through Read::take), then fail as
    // a truncation — not allocate 64 MiB up front.
    let wire = raw_frame(PROTOCOL_VERSION, *b"QBAT", MAX_FRAME_LEN, b"ten bytes!");
    assert!(matches!(
        Request::read_from(&mut &wire[..]),
        Err(NetError::Truncated { .. })
    ));
}

#[test]
fn version_skew_is_a_typed_error_carrying_both_versions() {
    // Version 1 (pre-`ApplyDeltas`) is now skew too: the codec refuses to
    // guess what an older peer meant.
    for found in [0u32, 1, 7, u32::MAX] {
        let wire = raw_frame(found, *b"QBAT", 0, b"");
        match Request::read_from(&mut &wire[..]) {
            Err(NetError::VersionSkew { found: f, expected }) => {
                assert_eq!(f, found);
                assert_eq!(expected, PROTOCOL_VERSION);
            }
            other => panic!("version {found}: expected VersionSkew, got {other:?}"),
        }
    }
}

#[test]
fn bad_magic_and_unknown_tags_are_typed() {
    let mut wire = encode_request(&sample_request());
    wire[..4].copy_from_slice(b"HTTP");
    assert_eq!(
        Request::read_from(&mut &wire[..]),
        Err(NetError::BadMagic { found: *b"HTTP" })
    );

    let wire = raw_frame(PROTOCOL_VERSION, *b"ZZZZ", 0, b"");
    assert_eq!(
        Request::read_from(&mut &wire[..]),
        Err(NetError::UnknownTag { tag: *b"ZZZZ" })
    );
    assert_eq!(
        Response::read_from(&mut &wire[..]),
        Err(NetError::UnknownTag { tag: *b"ZZZZ" })
    );
}

#[test]
fn mutated_valid_frames_never_panic_and_errors_stay_typed() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xF424);
    let originals = [
        encode_request(&sample_request()),
        encode_request(&sample_apply_request()),
        encode_response(&sample_response()),
        encode_response(&sample_apply_response()),
    ];
    for round in 0..4000 {
        let mut wire = originals[round % originals.len()].clone();
        for _ in 0..rng.gen_range(1..9usize) {
            let at = rng.gen_range(0..wire.len());
            wire[at] = rng.gen();
        }
        // Any mutation outcome is acceptable except a panic, a hang, or an
        // allocation proportional to a lying length instead of real bytes.
        let _ = Request::read_from(&mut &wire[..]);
        let _ = Response::read_from(&mut &wire[..]);
    }
}

#[test]
fn retired_graph_error_codes_decode_as_malformed() {
    // Two frames that differ only in the graph error kind locate its byte.
    let frame = |e: GraphError| encode_response(&Response::Batch(vec![Err(CoreError::Graph(e))]));
    let base = frame(GraphError::NodeOutOfBounds { node: 9, len: 4 });
    let other = frame(GraphError::EdgeOutOfBounds { edge: 9, len: 4 });
    let kind: Vec<usize> = (0..base.len()).filter(|&i| base[i] != other[i]).collect();
    assert_eq!(kind.len(), 1);
    for code in [6u8, 7] {
        let mut forged = base.clone();
        forged[kind[0]] = code;
        match Response::read_from(&mut &forged[..]) {
            Err(NetError::Malformed { message }) => assert!(message.contains("graph error")),
            other => panic!("graph error code {code} decoded as {other:?}"),
        }
    }
}

#[test]
fn lying_interior_sequence_counts_fail_fast() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xF425);
    let wire = encode_request(&sample_request());
    // Splice huge little-endian u64s over every aligned window: whichever
    // length or count field gets hit, decoding must fail (typed) before
    // trusting the value — counts are validated against remaining bytes.
    for _ in 0..500 {
        let mut forged = wire.clone();
        let at = rng.gen_range(20..forged.len().saturating_sub(8));
        let lie: u64 = rng.gen_range(1u64 << 32..u64::MAX);
        forged[at..at + 8].copy_from_slice(&lie.to_le_bytes());
        match Request::read_from(&mut &forged[..]) {
            Ok(_) => {} // the splice may have missed every length field
            Err(
                NetError::Malformed { .. }
                | NetError::Truncated { .. }
                | NetError::FrameTooLarge { .. }
                | NetError::BadMagic { .. }
                | NetError::VersionSkew { .. }
                | NetError::UnknownTag { .. },
            ) => {}
            Err(other) => panic!("unexpected error class: {other:?}"),
        }
    }
}
