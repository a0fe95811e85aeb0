//! The wire codec: [`BatchRequest`] / [`BatchResponse`] as length-prefixed
//! binary frames.
//!
//! [`BatchOp`] was designed as the wire shape — one connection read becomes
//! one request-ordered batch, grouped per shard and executed under a single
//! epoch entry by [`crate::ShardedKv::execute_batch_into`].  This module
//! gives that shape a byte encoding so a server front-end
//! (`crates/spectm-serve`) and a load-generator client (`kv-loadgen` in the
//! harness) can speak it over a socket.  The codec is deliberately *pure*:
//! encoding and decoding work on byte slices and reusable buffers, never on
//! sockets, so the whole protocol is property-testable without I/O
//! (`tests/wire_roundtrip.rs`) and the server and client cannot drift apart.
//!
//! # Frame format
//!
//! Every frame — request or response — is a 4-byte little-endian length
//! prefix followed by that many body bytes:
//!
//! ```text
//! +----------------+----------------------+
//! | len: u32 LE    | body: len bytes      |   len <= MAX_FRAME_LEN
//! +----------------+----------------------+
//! ```
//!
//! A **request body** is an operation count followed by the operations in
//! request order (the same order their results come back in):
//!
//! ```text
//! +--------------+----- per operation, count times ---------------------+
//! | count: u32   | opcode: u8 | key: u64 LE | [op-specific fields]      |
//! +--------------+------------------------------------------------------+
//!   opcode: 0 = GET, 1 = PUT (vlen: u32 LE | v bytes), 2 = DEL,
//!           3 = PUT_TTL (ttl_ms: u64 LE | vlen: u32 LE | v bytes)
//!   count <= MAX_WIRE_OPS, vlen <= MAX_VALUE_LEN
//! ```
//!
//! A **response body** is one result per request position — the stored
//! value for a get, the displaced previous value for a put or delete:
//!
//! ```text
//! +--------------+----- per result, count times ------------------------+
//! | count: u32   | tag: u8 (0 = absent, 1 = present) | [vlen | v bytes] |
//! +--------------+------------------------------------------------------+
//! ```
//!
//! Both directions share [`MAX_FRAME_LEN`], which is derived so that every
//! *legal* frame fits: [`MAX_WIRE_OPS`] operations of the worst per-op
//! header plus a [`MAX_VALUE_LEN`] payload each.  A length prefix beyond it
//! is malformed by definition, and [`FrameReader`] rejects it before
//! buffering a single body byte.
//!
//! # Errors
//!
//! Every way a peer can deviate from the format maps to a typed
//! [`WireError`]; decoding never panics and never partially applies
//! anything (decode fully validates a frame before the store sees it).
//! What a server *does* with a `WireError` — tear the connection down — is
//! policy and lives in `spectm-serve`; DESIGN.md § "Wire protocol and the
//! cache server" states the contract.

use std::io::Read;

use crate::batch::{BatchOp, BatchRequest, BatchResponse};
use crate::value::{Value, MAX_VALUE_LEN};

/// Maximum operations one request frame may carry (and, symmetrically,
/// results one response frame may carry).  Chosen so the worst-case legal
/// frame ([`MAX_FRAME_LEN`]) stays bounded even with every value at
/// [`MAX_VALUE_LEN`].
pub const MAX_WIRE_OPS: usize = 128;

/// Worst-case per-operation wire cost: opcode + key + TTL + value-length
/// header (a get, delete, or plain put costs less; this bounds a
/// put-with-TTL).
const MAX_OP_WIRE_LEN: usize = 1 + 8 + 8 + 4 + MAX_VALUE_LEN;

/// Largest legal frame body, in bytes: the operation count plus
/// [`MAX_WIRE_OPS`] worst-case operations.  Every legal request *and*
/// response fits (a response result's header is smaller than a put's), so
/// any length prefix beyond this is malformed and is rejected before any
/// body byte is buffered.
pub const MAX_FRAME_LEN: usize = 4 + MAX_WIRE_OPS * MAX_OP_WIRE_LEN;

/// Size of the frame length prefix.
const PREFIX_LEN: usize = 4;

/// Request opcodes.
const OP_GET: u8 = 0;
const OP_PUT: u8 = 1;
const OP_DEL: u8 = 2;
/// Put carrying an explicit TTL in milliseconds (`0` = never expires,
/// overriding any server-side default).
pub(crate) const OP_PUT_TTL: u8 = 3;

/// Response result tags.
const TAG_ABSENT: u8 = 0;
const TAG_PRESENT: u8 = 1;

/// Everything that can be wrong with bytes a peer sent.  Decoding reports
/// these instead of panicking; a server tears the connection down on any of
/// them (nothing from the offending frame reaches the store).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The stream or body ended in the middle of a structure (a frame cut
    /// short by a close, or a body shorter than its own headers claim).
    Truncated,
    /// A frame length prefix exceeded [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The length the prefix claimed.
        len: u64,
    },
    /// A frame declared more than [`MAX_WIRE_OPS`] operations or results.
    TooManyOps {
        /// The count the frame claimed.
        count: u64,
    },
    /// A request operation carried an unknown opcode.
    BadOpcode {
        /// The offending opcode byte.
        opcode: u8,
    },
    /// A response result carried an unknown presence tag.
    BadResultTag {
        /// The offending tag byte.
        tag: u8,
    },
    /// A value length exceeded [`MAX_VALUE_LEN`].
    ValueTooLarge {
        /// The length the frame claimed.
        len: u64,
    },
    /// A body continued past its last declared structure.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated mid-structure"),
            WireError::FrameTooLarge { len } => {
                write!(f, "frame of {len} bytes exceeds {MAX_FRAME_LEN}")
            }
            WireError::TooManyOps { count } => {
                write!(f, "{count} operations exceed {MAX_WIRE_OPS} per frame")
            }
            WireError::BadOpcode { opcode } => write!(f, "unknown opcode {opcode}"),
            WireError::BadResultTag { tag } => write!(f, "unknown result tag {tag}"),
            WireError::ValueTooLarge { len } => {
                write!(f, "value of {len} bytes exceeds {MAX_VALUE_LEN}")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last structure")
            }
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Starts a frame at the current end of `out`, returning the offset of its
/// length prefix for [`finish_frame`].  Appending (rather than clearing)
/// lets a multiplexing server queue several response frames into one
/// per-connection write buffer.
fn begin_frame(out: &mut Vec<u8>, count: usize) -> Result<usize, WireError> {
    if count > MAX_WIRE_OPS {
        return Err(WireError::TooManyOps {
            count: count as u64,
        });
    }
    let start = out.len();
    out.extend_from_slice(&[0u8; PREFIX_LEN]); // patched by finish_frame
    out.extend_from_slice(&(count as u32).to_le_bytes());
    Ok(start)
}

fn finish_frame(out: &mut [u8], start: usize) {
    let body_len = (out.len() - start - PREFIX_LEN) as u32;
    out[start..start + PREFIX_LEN].copy_from_slice(&body_len.to_le_bytes());
}

fn check_value_len(len: usize) -> Result<(), WireError> {
    if len > MAX_VALUE_LEN {
        return Err(WireError::ValueTooLarge { len: len as u64 });
    }
    Ok(())
}

/// Encodes `ops` as one complete request frame (prefix + body) into `out`
/// (cleared first).  The buffer is reusable: a steady-state request loop
/// encodes with no allocations once it has grown to its working size.
///
/// Fails — without writing a usable frame — if the batch exceeds
/// [`MAX_WIRE_OPS`] operations or any put exceeds [`MAX_VALUE_LEN`], so an
/// encoder can never produce a frame its own decoder rejects.
pub fn encode_request(ops: &[BatchOp], out: &mut Vec<u8>) -> Result<(), WireError> {
    out.clear();
    let start = begin_frame(out, ops.len())?;
    for op in ops {
        match op {
            BatchOp::Get(key) => {
                out.push(OP_GET);
                out.extend_from_slice(&key.to_le_bytes());
            }
            BatchOp::Put(key, value) => {
                check_value_len(value.len()).inspect_err(|_| out.truncate(start))?;
                out.push(OP_PUT);
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&(value.len() as u32).to_le_bytes());
                out.extend_from_slice(value);
            }
            BatchOp::Del(key) => {
                out.push(OP_DEL);
                out.extend_from_slice(&key.to_le_bytes());
            }
            BatchOp::PutTtl(key, value, ttl_ms) => {
                check_value_len(value.len()).inspect_err(|_| out.truncate(start))?;
                out.push(OP_PUT_TTL);
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&ttl_ms.to_le_bytes());
                out.extend_from_slice(&(value.len() as u32).to_le_bytes());
                out.extend_from_slice(value);
            }
        }
    }
    finish_frame(out, start);
    Ok(())
}

/// Encodes `results` as one complete response frame (prefix + body) into
/// `out` (cleared first), under the same caps as [`encode_request`].
pub fn encode_response(results: &[Option<Value>], out: &mut Vec<u8>) -> Result<(), WireError> {
    out.clear();
    encode_response_append(results, out)
}

/// [`encode_response`] without the clear: appends one complete response
/// frame after whatever `out` already holds.  This is how a multiplexing
/// server queues responses for several coalesced frames into one
/// per-connection write buffer.  On error nothing is appended.
pub fn encode_response_append(
    results: &[Option<Value>],
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    let start = begin_frame(out, results.len())?;
    for result in results {
        match result {
            None => out.push(TAG_ABSENT),
            Some(value) => {
                check_value_len(value.len()).inspect_err(|_| out.truncate(start))?;
                out.push(TAG_PRESENT);
                out.extend_from_slice(&(value.len() as u32).to_le_bytes());
                out.extend_from_slice(value);
            }
        }
    }
    finish_frame(out, start);
    Ok(())
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over a frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn bytes(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(len).ok_or(WireError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn count(&mut self) -> Result<usize, WireError> {
        let count = self.u32()? as usize;
        if count > MAX_WIRE_OPS {
            return Err(WireError::TooManyOps {
                count: count as u64,
            });
        }
        Ok(count)
    }

    fn value_len(&mut self) -> Result<usize, WireError> {
        let len = self.u32()? as usize;
        check_value_len(len)?;
        Ok(len)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::TrailingBytes {
                extra: self.buf.len() - self.pos,
            });
        }
        Ok(())
    }
}

/// Decodes one request body (the bytes after the length prefix) into `req`
/// (cleared first; its grouping scratch survives, so a server's
/// decode-execute loop reuses one request across frames).
///
/// Validation is all-or-nothing: on any [`WireError`] the request may hold
/// a partial operation list, but the error tells the caller to tear down
/// without executing it, so nothing partially applied can ever leak.
pub fn decode_request(body: &[u8], req: &mut BatchRequest) -> Result<(), WireError> {
    req.clear();
    decode_request_append(body, req).map(|_| ())
}

/// [`decode_request`] without the clear: appends one frame's operations
/// after whatever `req` already holds and returns how many were appended.
/// This is the decode half of cross-connection coalescing (see
/// [`crate::batch::MultiBatch`]): a server appends each ready frame into
/// one shared request and records the frame boundary.
///
/// On a [`WireError`] the request may hold a *partial* appended frame; the
/// caller must roll the length back to the pre-call mark (what
/// [`crate::batch::MultiBatch::rollback_frame`] does) so nothing from the
/// offending frame can execute.
pub fn decode_request_append(body: &[u8], req: &mut BatchRequest) -> Result<usize, WireError> {
    let mut cur = Cursor::new(body);
    let count = cur.count()?;
    for _ in 0..count {
        let opcode = cur.u8()?;
        let key = cur.u64()?;
        match opcode {
            OP_GET => req.get(key),
            OP_PUT => {
                let len = cur.value_len()?;
                req.put(key, cur.bytes(len)?)
            }
            OP_DEL => req.del(key),
            OP_PUT_TTL => {
                let ttl_ms = cur.u64()?;
                let len = cur.value_len()?;
                req.put_ttl(key, cur.bytes(len)?, ttl_ms)
            }
            opcode => return Err(WireError::BadOpcode { opcode }),
        };
    }
    cur.finish()?;
    Ok(count)
}

/// Decodes one response body into `out` (cleared first).
pub fn decode_response(body: &[u8], out: &mut BatchResponse) -> Result<(), WireError> {
    out.clear();
    let mut cur = Cursor::new(body);
    let count = cur.count()?;
    for _ in 0..count {
        match cur.u8()? {
            TAG_ABSENT => out.push(None),
            TAG_PRESENT => {
                let len = cur.value_len()?;
                out.push(Some(Value::new(cur.bytes(len)?)));
            }
            tag => return Err(WireError::BadResultTag { tag }),
        }
    }
    cur.finish()
}

// ---------------------------------------------------------------------------
// FrameReader: incremental frame assembly over a byte stream
// ---------------------------------------------------------------------------

/// How many bytes one [`FrameReader::fill_from`] call offers the stream —
/// exactly this many, every call.  A fill that returns fewer therefore found
/// the stream with nothing more to give at that instant: the rule
/// `spectm-serve`'s readiness sweep uses to skip the follow-up `read` whose
/// only answer would be `WouldBlock`.
pub const READ_CHUNK: usize = 64 * 1024;

/// Reassembles length-prefixed frames from an arbitrary byte stream.
///
/// TCP makes no promises about read boundaries: one `read` may return half
/// a length prefix, or three frames and the start of a fourth.  The reader
/// accumulates bytes in one reusable buffer and hands out complete frame
/// bodies as they become available — the *only* component that ever looks
/// at a length prefix, so the oversized-prefix check lives in exactly one
/// place.  Both the server's connection loop and the client use it.
///
/// A fill costs what arrived: the buffer's bytes are initialised once, when
/// it grows, and two cursors delimit what is live — nothing is zeroed or
/// allocated per read, and a fill that follows a fully consumed frame moves
/// no bytes at all.
///
/// # Examples
///
/// ```
/// use spectm_kv::wire::{encode_request, FrameReader};
/// use spectm_kv::{BatchOp, BatchRequest};
///
/// let mut frame = Vec::new();
/// encode_request(&[BatchOp::Get(7)], &mut frame).unwrap();
/// // Feed the frame one byte at a time: no frame until the last byte.
/// let mut reader = FrameReader::new();
/// let mut stream = std::io::Cursor::new(frame.clone());
/// let mut got = None;
/// while got.is_none() {
///     assert!(reader.fill_from(&mut stream).unwrap() > 0);
///     got = reader.try_frame().unwrap();
/// }
/// let (start, end) = got.unwrap();
/// assert_eq!(&reader.buffered()[start..end], &frame[4..]);
/// ```
#[derive(Default)]
pub struct FrameReader {
    /// Initialised storage: only ever grown, and zeroed only where it grows.
    /// Bytes at or past `filled` are scratch space for the next read, never
    /// data.
    buf: Vec<u8>,
    /// Bytes of `buf` before this offset belong to already-consumed frames.
    pos: usize,
    /// Bytes of `buf` before this offset were received from the stream.
    filled: usize,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes received and not yet compacted away — never the scratch
    /// space behind them; index it with the range
    /// [`FrameReader::try_frame`] returned.  Ranges are invalidated by the
    /// next [`FrameReader::fill_from`] call (which may compact the buffer).
    pub fn buffered(&self) -> &[u8] {
        &self.buf[..self.filled]
    }

    /// Whether the reader holds a partial frame — if the stream ends now,
    /// that frame was truncated.
    pub fn mid_frame(&self) -> bool {
        self.filled > self.pos
    }

    /// If a complete frame is buffered, consumes it and returns the range
    /// of its *body* within [`FrameReader::buffered`]; returns `Ok(None)`
    /// when more bytes are needed.  A length prefix beyond
    /// [`MAX_FRAME_LEN`] fails immediately — before any of the claimed body
    /// has to arrive.
    pub fn try_frame(&mut self) -> Result<Option<(usize, usize)>, WireError> {
        let available = self.filled - self.pos;
        if available < PREFIX_LEN {
            return Ok(None);
        }
        let prefix: [u8; PREFIX_LEN] = self.buf[self.pos..self.pos + PREFIX_LEN]
            .try_into()
            .unwrap();
        let len = u32::from_le_bytes(prefix) as usize;
        if len > MAX_FRAME_LEN {
            return Err(WireError::FrameTooLarge { len: len as u64 });
        }
        if available < PREFIX_LEN + len {
            return Ok(None);
        }
        let start = self.pos + PREFIX_LEN;
        self.pos = start + len;
        Ok(Some((start, start + len)))
    }

    /// Reads more bytes from `r` into the buffer — one `read` offering
    /// [`READ_CHUNK`] bytes — returning how many arrived (`0` means the
    /// peer closed the stream).  Consumed frames are compacted away first,
    /// so on a long-lived connection [`FrameReader::buffered`] never grows
    /// beyond one frame plus a read chunk.
    pub fn fill_from<R: Read>(&mut self, r: &mut R) -> std::io::Result<usize> {
        if self.pos > 0 {
            self.buf.copy_within(self.pos..self.filled, 0);
            self.filled -= self.pos;
            self.pos = 0;
        }
        let offer_end = self.filled + READ_CHUNK;
        if self.buf.len() < offer_end {
            self.buf.resize(offer_end, 0);
        }
        let n = r.read(&mut self.buf[self.filled..offer_end])?;
        self.filled += n;
        Ok(n)
    }

    /// [`FrameReader::fill_from`] for nonblocking streams: folds the three
    /// outcomes a readiness sweep must distinguish — bytes arrived, nothing
    /// available right now (`WouldBlock`, which a blocking caller never
    /// sees but an event loop treats as "move on to the next connection"),
    /// and end-of-stream — into a [`Fill`], retrying `Interrupted`
    /// internally.  Any other I/O error is a transport failure and stays an
    /// `Err`.
    pub fn fill_nonblocking<R: Read>(&mut self, r: &mut R) -> std::io::Result<Fill> {
        loop {
            match self.fill_from(r) {
                Ok(0) => return Ok(Fill::Eof),
                Ok(n) => return Ok(Fill::Bytes(n)),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Ok(Fill::WouldBlock)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// Outcome of one [`FrameReader::fill_nonblocking`] call on a nonblocking
/// stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// That many bytes (always `> 0`) arrived and were buffered.
    Bytes(usize),
    /// No bytes are available right now; the stream is still open.  An
    /// event loop moves on to its next connection and retries this one on
    /// a later sweep.
    WouldBlock,
    /// The peer closed the stream.  Whether that is clean depends on
    /// [`FrameReader::mid_frame`].
    Eof,
}

/// A frame-level failure on a live stream: either the peer broke the
/// protocol or the transport failed.
#[derive(Debug)]
pub enum FrameError {
    /// The peer sent malformed bytes (including closing mid-frame).
    Wire(WireError),
    /// The transport itself failed.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Wire(e) => write!(f, "protocol error: {e}"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Blocking convenience loop over [`FrameReader`]: reads from `r` until a
/// complete frame is available and returns its body range, or `Ok(None)` on
/// a clean close *at a frame boundary*.  A close mid-frame is
/// [`WireError::Truncated`].  (The server uses its own loop so it can
/// interleave shutdown checks with read timeouts; the client and the tests
/// use this one.)
pub fn read_frame<R: Read>(
    reader: &mut FrameReader,
    r: &mut R,
) -> Result<Option<(usize, usize)>, FrameError> {
    loop {
        if let Some(range) = reader.try_frame()? {
            return Ok(Some(range));
        }
        if reader.fill_from(r)? == 0 {
            if reader.mid_frame() {
                return Err(WireError::Truncated.into());
            }
            return Ok(None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(ops: &[BatchOp]) -> Vec<BatchOp> {
        let mut frame = Vec::new();
        encode_request(ops, &mut frame).unwrap();
        assert_eq!(
            u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize,
            frame.len() - 4,
            "prefix covers the body"
        );
        let mut req = BatchRequest::new();
        decode_request(&frame[4..], &mut req).unwrap();
        req.ops().to_vec()
    }

    #[test]
    fn requests_roundtrip_across_op_kinds_and_value_sizes() {
        let ops = vec![
            BatchOp::Get(0),
            BatchOp::Get(u64::MAX),
            BatchOp::put(7, b""),
            BatchOp::put(8, b"inline"),
            BatchOp::put(9, &[0xABu8; 100]),
            BatchOp::put(10, &vec![0x5Au8; 4096]),
            BatchOp::Del(11),
            BatchOp::put_ttl(12, b"fresh", 30_000),
            BatchOp::put_ttl(13, b"immortal", 0),
            BatchOp::put_ttl(14, &vec![0xC3u8; 512], u64::MAX),
        ];
        assert_eq!(roundtrip_request(&ops), ops);
        assert_eq!(roundtrip_request(&[]), vec![]);
    }

    #[test]
    fn responses_roundtrip() {
        let results = vec![
            None,
            Some(Value::new(b"")),
            Some(Value::new(b"short")),
            Some(Value::new(&vec![9u8; 2000])),
        ];
        let mut frame = Vec::new();
        encode_response(&results, &mut frame).unwrap();
        let mut out = BatchResponse::new();
        decode_response(&frame[4..], &mut out).unwrap();
        assert_eq!(out, results);
    }

    #[test]
    fn encoder_caps_match_the_decoder() {
        let mut out = Vec::new();
        let too_many: Vec<BatchOp> = (0..=MAX_WIRE_OPS as u64).map(BatchOp::Get).collect();
        assert_eq!(
            encode_request(&too_many, &mut out),
            Err(WireError::TooManyOps {
                count: MAX_WIRE_OPS as u64 + 1
            })
        );
        let at_cap: Vec<BatchOp> = (0..MAX_WIRE_OPS as u64).map(BatchOp::Get).collect();
        assert_eq!(roundtrip_request(&at_cap), at_cap);

        let huge = BatchOp::Put(1, Value::new(&vec![0u8; MAX_VALUE_LEN + 1]));
        assert_eq!(
            encode_request(std::slice::from_ref(&huge), &mut out),
            Err(WireError::ValueTooLarge {
                len: MAX_VALUE_LEN as u64 + 1
            })
        );
        let at_max = vec![BatchOp::put(1, &vec![3u8; MAX_VALUE_LEN])];
        assert_eq!(roundtrip_request(&at_max), at_max);

        // The TTL-carrying put enforces the same boundary: the encoder
        // rejects one byte past MAX_VALUE_LEN before the `as u32` cast and
        // leaves no partial frame behind, while exactly MAX_VALUE_LEN
        // roundtrips.
        let huge_ttl = BatchOp::PutTtl(2, Value::new(&vec![0u8; MAX_VALUE_LEN + 1]), 5_000);
        out.clear();
        assert_eq!(
            encode_request(std::slice::from_ref(&huge_ttl), &mut out),
            Err(WireError::ValueTooLarge {
                len: MAX_VALUE_LEN as u64 + 1
            })
        );
        assert!(out.is_empty(), "failed encode must not leave partial bytes");
        let at_max_ttl = vec![BatchOp::put_ttl(2, &vec![4u8; MAX_VALUE_LEN], 5_000)];
        assert_eq!(roundtrip_request(&at_max_ttl), at_max_ttl);
    }

    #[test]
    fn frame_reader_reassembles_byte_dribbles_and_coalesced_frames() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        encode_request(&[BatchOp::Get(1), BatchOp::put(2, b"two")], &mut a).unwrap();
        encode_request(&[BatchOp::Del(3)], &mut b).unwrap();
        let joined: Vec<u8> = a.iter().chain(&b).copied().collect();

        // One-byte reads: frames appear only once fully buffered.
        let mut reader = FrameReader::new();
        let mut seen = Vec::new();
        for &byte in &joined {
            let mut one = std::io::Cursor::new([byte]);
            assert_eq!(reader.fill_from(&mut one).unwrap(), 1);
            while let Some((s, e)) = reader.try_frame().unwrap() {
                seen.push(reader.buffered()[s..e].to_vec());
            }
        }
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], a[4..].to_vec());
        assert_eq!(seen[1], b[4..].to_vec());

        // One read delivering both frames: both decodable before a refill.
        let mut reader = FrameReader::new();
        let mut all = std::io::Cursor::new(joined);
        assert!(reader.fill_from(&mut all).unwrap() > 0);
        assert!(reader.try_frame().unwrap().is_some());
        assert!(reader.try_frame().unwrap().is_some());
        assert!(reader.try_frame().unwrap().is_none());
        assert!(!reader.mid_frame());
    }

    #[test]
    fn read_frame_reports_clean_and_dirty_closes() {
        let mut frame = Vec::new();
        encode_request(&[BatchOp::Get(5)], &mut frame).unwrap();

        // Clean close at a frame boundary: one frame, then None.
        let mut reader = FrameReader::new();
        let mut stream = std::io::Cursor::new(frame.clone());
        assert!(read_frame(&mut reader, &mut stream).unwrap().is_some());
        assert!(read_frame(&mut reader, &mut stream).unwrap().is_none());

        // Close mid-frame: Truncated.
        let mut reader = FrameReader::new();
        let mut stream = std::io::Cursor::new(frame[..frame.len() - 1].to_vec());
        match read_frame(&mut reader, &mut stream) {
            Err(FrameError::Wire(WireError::Truncated)) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn oversized_prefix_fails_before_the_body_arrives() {
        let mut reader = FrameReader::new();
        let prefix = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes();
        let mut stream = std::io::Cursor::new(prefix.to_vec());
        assert_eq!(reader.fill_from(&mut stream).unwrap(), 4);
        assert_eq!(
            reader.try_frame(),
            Err(WireError::FrameTooLarge {
                len: MAX_FRAME_LEN as u64 + 1
            })
        );
    }

    #[test]
    fn fill_nonblocking_distinguishes_data_wouldblock_and_eof() {
        /// Yields one chunk per read, then `WouldBlock`s forever (open) or
        /// EOFs (closed) — the shapes a nonblocking socket produces.
        struct Script {
            chunks: Vec<Vec<u8>>,
            closed: bool,
        }
        impl Read for Script {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                match self.chunks.pop() {
                    Some(chunk) => {
                        buf[..chunk.len()].copy_from_slice(&chunk);
                        Ok(chunk.len())
                    }
                    None if self.closed => Ok(0),
                    None => Err(std::io::ErrorKind::WouldBlock.into()),
                }
            }
        }

        let mut frame = Vec::new();
        encode_request(&[BatchOp::Get(9)], &mut frame).unwrap();
        let (head, tail) = frame.split_at(5);

        // Data dribbles in across WouldBlocks; the frame appears only once
        // every byte has arrived, and an idle open stream reports
        // WouldBlock, never Eof.
        let mut reader = FrameReader::new();
        let mut stream = Script {
            chunks: vec![head.to_vec()], // popped last-to-first
            closed: false,
        };
        assert_eq!(
            reader.fill_nonblocking(&mut stream).unwrap(),
            Fill::Bytes(head.len())
        );
        assert_eq!(reader.try_frame().unwrap(), None);
        assert_eq!(
            reader.fill_nonblocking(&mut stream).unwrap(),
            Fill::WouldBlock
        );
        assert!(reader.mid_frame(), "partial frame survives a WouldBlock");
        stream.chunks.push(tail.to_vec());
        assert_eq!(
            reader.fill_nonblocking(&mut stream).unwrap(),
            Fill::Bytes(tail.len())
        );
        assert!(reader.try_frame().unwrap().is_some());

        // A closed stream is Eof, cleanly distinguishable from WouldBlock.
        stream.closed = true;
        assert_eq!(reader.fill_nonblocking(&mut stream).unwrap(), Fill::Eof);
        assert!(!reader.mid_frame());
    }

    #[test]
    fn decode_request_append_accumulates_across_frames() {
        let first = vec![BatchOp::Get(1), BatchOp::put(2, b"two")];
        let second = vec![BatchOp::Del(3)];
        let mut frame = Vec::new();
        let mut req = BatchRequest::new();
        encode_request(&first, &mut frame).unwrap();
        assert_eq!(decode_request_append(&frame[4..], &mut req).unwrap(), 2);
        encode_request(&second, &mut frame).unwrap();
        assert_eq!(decode_request_append(&frame[4..], &mut req).unwrap(), 1);
        let all: Vec<BatchOp> = first.into_iter().chain(second).collect();
        assert_eq!(req.ops(), &all[..]);
        // The clearing entry point still clears.
        encode_request(&[BatchOp::Get(9)], &mut frame).unwrap();
        decode_request(&frame[4..], &mut req).unwrap();
        assert_eq!(req.ops(), &[BatchOp::Get(9)]);
    }

    #[test]
    fn encode_response_append_queues_decodable_back_to_back_frames() {
        let first = vec![None, Some(Value::new(b"hit"))];
        let second = vec![Some(Value::new(&vec![7u8; 300]))];
        let mut out = Vec::new();
        encode_response_append(&first, &mut out).unwrap();
        let split = out.len();
        encode_response_append(&second, &mut out).unwrap();

        // An oversized append leaves the queue untouched.
        let huge = vec![Some(Value::from(vec![0u8; MAX_VALUE_LEN + 1]))];
        let before = out.clone();
        assert!(encode_response_append(&huge, &mut out).is_err());
        assert_eq!(out, before, "failed append must not leave partial bytes");

        let mut resp = BatchResponse::new();
        decode_response(&out[4..split], &mut resp).unwrap();
        assert_eq!(resp, first);
        decode_response(&out[split + 4..], &mut resp).unwrap();
        assert_eq!(resp, second);
    }

    #[test]
    fn wire_errors_render() {
        for e in [
            WireError::Truncated,
            WireError::FrameTooLarge { len: 1 },
            WireError::TooManyOps { count: 2 },
            WireError::BadOpcode { opcode: 9 },
            WireError::BadResultTag { tag: 9 },
            WireError::ValueTooLarge { len: 3 },
            WireError::TrailingBytes { extra: 4 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
