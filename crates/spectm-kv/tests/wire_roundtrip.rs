//! Property tests for the wire codec (`spectm_kv::wire`): arbitrary
//! requests and responses survive encode→decode unchanged, and the decoded
//! form re-encodes **byte-identically** — so the codec has exactly one
//! representation per batch and the server and client cannot drift apart.
//!
//! Generated batches sweep the op mixes (get/put/del, duplicate keys
//! included), value sizes across the inline-SSO and out-of-line regimes,
//! and op counts from the empty frame through `MAX_RMW_KEYS`-sized
//! multi-key shapes up to the `MAX_WIRE_OPS` frame cap.
//!
//! The second half holds one long-lived `FrameReader` to its buffer
//! contract: its storage outlives every frame and is never re-zeroed, so
//! bytes of an earlier (larger) frame sit behind the cursor for the rest of
//! the connection — and must never be served as data.

use std::io::Read;

use proptest::prelude::*;
use spectm_kv::wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame, FrameReader,
    MAX_FRAME_LEN, MAX_WIRE_OPS, READ_CHUNK,
};
use spectm_kv::{BatchOp, BatchRequest, BatchResponse, Value, MAX_RMW_KEYS};

/// Deterministic payload of `len` bytes for `(key, draw)`.  Lengths are
/// drawn across 0, inline (≤ 16 bytes) and out-of-line sizes.
fn payload(key: u64, draw: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (key as u8).wrapping_mul(151) ^ (draw as u8) ^ (i as u8).wrapping_mul(41))
        .collect()
}

/// Maps one generated `(kind, key, draw, len)` quad to an operation.
fn op_from(kind: u8, key: u64, draw: u64, len: usize) -> BatchOp {
    match kind % 4 {
        0 => BatchOp::Get(key),
        1 => BatchOp::Del(key),
        _ => BatchOp::put(key, &payload(key, draw, len)),
    }
}

/// One frame's worth of generated operations: mixes, duplicate keys, value
/// sizes from empty through well past the 16-byte inline buffer, op counts
/// 0 (empty frame) through the `MAX_WIRE_OPS` cap — covering the
/// `0..=MAX_RMW_KEYS` multi-key shapes on the way.
fn ops_strategy() -> impl Strategy<Value = Vec<(u8, u64, u64, usize)>> {
    proptest::collection::vec(
        (0u8..4, 0u64..48, 0u64..1 << 60, 0usize..600),
        0..MAX_WIRE_OPS + 1,
    )
}

proptest! {
    /// encode→decode is the identity on requests, and re-encoding the
    /// decoded request reproduces the original frame byte for byte.
    #[test]
    fn requests_roundtrip_and_reencode_identically(raw in ops_strategy()) {
        let ops: Vec<BatchOp> = raw
            .iter()
            .map(|&(kind, key, draw, len)| op_from(kind, key, draw, len))
            .collect();
        let mut frame = Vec::new();
        encode_request(&ops, &mut frame).unwrap();
        prop_assert!(frame.len() >= 8, "prefix and count are always present");

        let mut decoded = BatchRequest::new();
        decode_request(&frame[4..], &mut decoded).unwrap();
        prop_assert_eq!(decoded.ops(), ops.as_slice());

        let mut reencoded = Vec::new();
        encode_request(decoded.ops(), &mut reencoded).unwrap();
        prop_assert_eq!(&reencoded, &frame, "one representation per batch");
    }

    /// The same two properties for responses, across absent results and
    /// empty/inline/out-of-line values.
    #[test]
    fn responses_roundtrip_and_reencode_identically(
        raw in proptest::collection::vec(
            (0u8..2, 0u64..48, 0u64..1 << 60, 0usize..600),
            0..MAX_WIRE_OPS + 1,
        )
    ) {
        let results: BatchResponse = raw
            .iter()
            .map(|&(tag, key, draw, len)| {
                (tag == 1).then(|| Value::new(&payload(key, draw, len)))
            })
            .collect();
        let mut frame = Vec::new();
        encode_response(&results, &mut frame).unwrap();

        let mut decoded = BatchResponse::new();
        decode_response(&frame[4..], &mut decoded).unwrap();
        prop_assert_eq!(&decoded, &results);

        let mut reencoded = Vec::new();
        encode_response(&decoded, &mut reencoded).unwrap();
        prop_assert_eq!(&reencoded, &frame, "one representation per response");
    }

    /// Decoding reuses the caller's request across frames (the server's
    /// steady-state loop): a dirty request from one frame never leaks into
    /// the decode of the next.
    #[test]
    fn decoding_into_a_reused_request_leaves_no_residue(
        first in ops_strategy(),
        second in ops_strategy(),
    ) {
        let to_ops = |raw: &[(u8, u64, u64, usize)]| -> Vec<BatchOp> {
            raw.iter().map(|&(k, key, d, l)| op_from(k, key, d, l)).collect()
        };
        let (a, b) = (to_ops(&first), to_ops(&second));
        let mut frame = Vec::new();
        let mut req = BatchRequest::new();
        encode_request(&a, &mut frame).unwrap();
        decode_request(&frame[4..], &mut req).unwrap();
        encode_request(&b, &mut frame).unwrap();
        decode_request(&frame[4..], &mut req).unwrap();
        prop_assert_eq!(req.ops(), b.as_slice());
    }
}

/// The multi-key shapes the store's own `rmw` path bounds: every op count
/// in `0..=MAX_RMW_KEYS` round-trips (the proptests cover these sizes too,
/// but this pins the boundary deterministically).
#[test]
fn every_rmw_sized_batch_roundtrips() {
    for n in 0..=MAX_RMW_KEYS {
        let ops: Vec<BatchOp> = (0..n as u64)
            .map(|i| op_from(i as u8, i, i * 7, 17 + i as usize))
            .collect();
        let mut frame = Vec::new();
        encode_request(&ops, &mut frame).unwrap();
        let mut decoded = BatchRequest::new();
        decode_request(&frame[4..], &mut decoded).unwrap();
        assert_eq!(decoded.ops(), ops.as_slice());
    }
}

/// A frame as the reader sees it: length prefix plus `len` body bytes, none
/// of them zero and all depending on `salt`, so stale bytes of another
/// frame cannot pass for this one's (nor for a plausible prefix).
fn raw_frame(len: usize, salt: u64) -> Vec<u8> {
    let mut frame = (len as u32).to_le_bytes().to_vec();
    frame.extend((0..len).map(|i| (i as u64 ^ salt).wrapping_mul(31) as u8 | 1));
    frame
}

/// A stream that hands out `sizes[i]` bytes (at least one, cycling) on its
/// `i`-th read — TCP's freedom to cut anywhere — and then ends.
struct Dribble<'a> {
    bytes: &'a [u8],
    delivered: usize,
    sizes: &'a [usize],
    reads: usize,
}

impl<'a> Dribble<'a> {
    fn new(bytes: &'a [u8], sizes: &'a [usize]) -> Self {
        Self {
            bytes,
            delivered: 0,
            sizes,
            reads: 0,
        }
    }
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let want = self.sizes[self.reads % self.sizes.len()].max(1);
        self.reads += 1;
        let n = want.min(buf.len()).min(self.bytes.len() - self.delivered);
        buf[..n].copy_from_slice(&self.bytes[self.delivered..self.delivered + n]);
        self.delivered += n;
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// One reader, many frames of mixed sizes, arbitrary read boundaries:
    /// every body comes back byte-identical and in order, `mid_frame()` is
    /// false exactly when the bytes received so far end on a frame
    /// boundary, and `buffered()` stays within one frame plus a read chunk.
    #[test]
    fn a_reused_reader_never_serves_stale_bytes(
        lens in proptest::collection::vec((0u8..8, 0usize..700), 1..40),
        sizes in proptest::collection::vec((0u8..4, 1usize..300), 1..12),
    ) {
        // Mostly small frames (1-byte bodies among them), one in eight
        // around 100 KB — always at least one, up front, so small frames
        // are read over a large frame's leftovers.
        let frames: Vec<Vec<u8>> = std::iter::once((0u8, 0usize))
            .chain(lens)
            .enumerate()
            .map(|(i, (kind, len))| match kind {
                0 => raw_frame(100_000 + len, i as u64),
                1 => raw_frame(1, i as u64),
                _ => raw_frame(len, i as u64),
            })
            .collect();
        // Reads of a few bytes, a few hundred, or more than a read chunk.
        let sizes: Vec<usize> = sizes
            .iter()
            .map(|&(kind, n)| match kind {
                0 => n % 7,
                1 => n,
                2 => n * 64,
                _ => READ_CHUNK + n,
            })
            .collect();
        let stream: Vec<u8> = frames.concat();
        let mut source = Dribble::new(&stream, &sizes);
        let mut reader = FrameReader::new();
        let (mut next, mut consumed) = (0usize, 0usize);
        loop {
            while let Some((start, end)) = reader.try_frame().unwrap() {
                prop_assert_eq!(&reader.buffered()[start..end], &frames[next][4..]);
                consumed += frames[next].len();
                next += 1;
                prop_assert_eq!(reader.mid_frame(), source.delivered > consumed);
            }
            prop_assert!(reader.buffered().len() <= 4 + 100_700 + READ_CHUNK);
            if reader.fill_from(&mut source).unwrap() == 0 {
                break;
            }
            prop_assert_eq!(reader.mid_frame(), source.delivered > consumed);
        }
        prop_assert_eq!(next, frames.len());
        prop_assert!(!reader.mid_frame());
    }
}

/// A stream that closes on a frame boundary is a clean close, whatever the
/// reader's buffer still holds from the larger frames before it.
#[test]
fn eof_after_small_frames_behind_a_large_one_is_a_clean_close() {
    let frames = [
        raw_frame(100_000, 1),
        raw_frame(1, 2),
        raw_frame(1, 3),
        raw_frame(1, 4),
    ];
    let stream = frames.concat();
    for sizes in [&[usize::MAX][..], &[3, 70_000, 1], &[5]] {
        let mut source = Dribble::new(&stream, sizes);
        let mut reader = FrameReader::new();
        for frame in &frames {
            let (start, end) = read_frame(&mut reader, &mut source)
                .expect("well formed")
                .expect("frame before the close");
            assert_eq!(&reader.buffered()[start..end], &frame[4..]);
        }
        let end = read_frame(&mut reader, &mut source).expect("not Truncated");
        assert_eq!(end, None);
    }
}

/// The documented bound — `buffered()` never beyond one frame plus a read
/// chunk — is about the frame being read *now*: once a frame close to
/// `MAX_FRAME_LEN` has been consumed, what it occupied is scratch space
/// again, not part of `buffered()`.
#[test]
fn buffered_shrinks_back_after_a_near_maximal_frame() {
    // The largest frame that arrives in whole read chunks (2.7 KB short of
    // the cap), so the read that completes it delivers nothing after it.
    let large_len = (MAX_FRAME_LEN + 4) / READ_CHUNK * READ_CHUNK;
    let mut stream = ((large_len - 4) as u32).to_le_bytes().to_vec();
    stream.resize(large_len, 0xA5);
    let small = raw_frame(1, 7);
    for _ in 0..4 {
        stream.extend_from_slice(&small);
    }
    let mut source = Dribble::new(&stream, &[READ_CHUNK]);
    let mut reader = FrameReader::new();
    let (start, end) = read_frame(&mut reader, &mut source).unwrap().unwrap();
    assert!(reader.buffered()[start..end] == stream[4..large_len]);
    assert_eq!(reader.buffered().len(), large_len);
    source.sizes = &[2];
    for _ in 0..4 {
        let (start, end) = read_frame(&mut reader, &mut source).unwrap().unwrap();
        assert_eq!(&reader.buffered()[start..end], &small[4..]);
        assert!(reader.buffered().len() <= small.len() + READ_CHUNK);
    }
    assert_eq!(read_frame(&mut reader, &mut source).unwrap(), None);
}
