//! SimNet: in-memory duplex pipes that stand in for the worker's sockets,
//! with every hostile choice drawn from one seed.
//!
//! A pipe has a server end ([`Pipe`], the worker's `Read + Write`
//! transport) and a peer end ([`Peer`], the test's client).  What a real
//! socket leaves to the kernel, the pipe's [`Link`] leaves to the net's
//! xorshift stream: how many bytes each server `read` and `write` moves,
//! when either answers `WouldBlock` although it could have moved bytes, and
//! how much the peer's receive side holds before a peer that never drains
//! blocks the server's writes.  Resets and half-closes happen where the
//! test says, at points it can draw from the same stream
//! ([`SimNet::below`]).  So a scenario — and any failure in it — replays
//! from its seed alone, and fairness or backpressure is a count of sweeps,
//! not of milliseconds.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::rc::Rc;

use harness::intset::Xorshift;
use spectm_kv::wire::FrameReader;

/// How one pipe's server end behaves.
#[derive(Clone, Copy)]
pub(crate) struct Link {
    /// Largest number of bytes one server `read` returns, drawn uniformly
    /// from `1..=cut` (never more than is buffered or offered); `None`
    /// returns everything that fits, as a socket on a quiet host does.
    pub read_cut: Option<usize>,
    /// The same for how many bytes one server `write` accepts.
    pub write_cut: Option<usize>,
    /// Chance, out of 256, that a server call which could move bytes
    /// answers `WouldBlock` instead, starting a burst of 1–4 of them.
    pub stall: u8,
    /// Bytes the peer's receive side holds before the server's writes
    /// block.  Only a peer that never calls [`Peer::recv`] ever fills it.
    pub window: usize,
}

impl Link {
    /// Whole reads, whole writes, no stalls, no receive limit.
    pub const CLEAN: Link = Link {
        read_cut: None,
        write_cut: None,
        stall: 0,
        window: usize::MAX,
    };

    /// One-byte writes under stall bursts, short reads: a partial-write
    /// storm.
    pub const STORM: Link = Link {
        read_cut: Some(7),
        write_cut: Some(1),
        stall: 96,
        window: usize::MAX,
    };
}

/// The state both ends of one pipe share.
struct Shared {
    rng: Xorshift,
    link: Link,
    /// Sent by the peer, not yet read by the server.
    inbound: VecDeque<u8>,
    /// Written by the server, not yet received by the peer.
    outbound: Vec<u8>,
    /// `WouldBlock`s left in the current stall burst.
    stalled: u8,
    /// The peer half-closed: once `inbound` drains, reads return EOF.
    peer_closed: bool,
    /// The peer reset the connection: every later server call fails.
    reset: bool,
    /// The server dropped its end.
    server_closed: bool,
    /// Server `read` calls, whatever they answered.
    reads: usize,
}

impl Shared {
    /// Whether this call stalls: continues a burst, or starts one with
    /// probability `stall / 256`.
    fn stalls(&mut self) -> bool {
        if self.stalled == 0 && (self.rng.next() & 0xFF) < u64::from(self.link.stall) {
            self.stalled = 1 + (self.rng.next() % 4) as u8;
        }
        if self.stalled > 0 {
            self.stalled -= 1;
            return true;
        }
        false
    }

    /// How many of `avail` (> 0) bytes one call moves under `cut`.
    fn cut(&mut self, avail: usize, cut: Option<usize>) -> usize {
        match cut {
            None => avail,
            Some(cut) => 1 + (self.rng.next() % avail.min(cut) as u64) as usize,
        }
    }
}

/// A seeded source of pipes.  Each pipe's own stream is drawn from the
/// net's, so the whole scenario replays from [`SimNet::new`]'s seed.
pub(crate) struct SimNet {
    rng: Xorshift,
}

impl SimNet {
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            rng: Xorshift::new(seed),
        }
    }

    /// A fresh connection: the server's end and the peer's.
    pub(crate) fn pipe(&mut self, link: Link) -> (Pipe, Peer) {
        let shared = Rc::new(RefCell::new(Shared {
            rng: Xorshift::new(self.rng.next()),
            link,
            inbound: VecDeque::new(),
            outbound: Vec::new(),
            stalled: 0,
            peer_closed: false,
            reset: false,
            server_closed: false,
            reads: 0,
        }));
        let peer = Peer {
            shared: Rc::clone(&shared),
            reader: FrameReader::new(),
        };
        (Pipe { shared }, peer)
    }

    /// A draw in `0..n` from the net's stream, for the test's own choices
    /// (cut points, operations, values).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.rng.next() % n
    }
}

/// The server's end of a pipe.
pub(crate) struct Pipe {
    shared: Rc<RefCell<Shared>>,
}

impl Read for Pipe {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut s = self.shared.borrow_mut();
        s.reads += 1;
        if s.reset {
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        if s.inbound.is_empty() {
            return if s.peer_closed {
                Ok(0)
            } else {
                Err(io::ErrorKind::WouldBlock.into())
            };
        }
        if s.stalls() {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let (avail, cut) = (s.inbound.len().min(buf.len()), s.link.read_cut);
        let n = s.cut(avail, cut);
        for (dst, src) in buf.iter_mut().zip(s.inbound.drain(..n)) {
            *dst = src;
        }
        Ok(n)
    }
}

impl Write for Pipe {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut s = self.shared.borrow_mut();
        if s.reset {
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        if buf.is_empty() {
            return Ok(0);
        }
        let room = s.link.window.saturating_sub(s.outbound.len());
        if room == 0 || s.stalls() {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let cut = s.link.write_cut;
        let n = s.cut(buf.len().min(room), cut);
        s.outbound.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for Pipe {
    fn drop(&mut self) {
        self.shared.borrow_mut().server_closed = true;
    }
}

/// The test's end of a pipe.
pub(crate) struct Peer {
    shared: Rc<RefCell<Shared>>,
    reader: FrameReader,
}

impl Peer {
    /// Queues `bytes` for the server to read.
    pub(crate) fn send(&self, bytes: &[u8]) {
        self.shared.borrow_mut().inbound.extend(bytes);
    }

    /// Half-closes: the server reads what was sent, then EOF.
    pub(crate) fn close(&self) {
        self.shared.borrow_mut().peer_closed = true;
    }

    /// Resets: the server's next `read` or `write` fails.
    pub(crate) fn reset(&self) {
        self.shared.borrow_mut().reset = true;
    }

    /// Every complete response body the server has written since the last
    /// call, in order.  Receiving frees the receive window.
    pub(crate) fn recv(&mut self) -> Vec<Vec<u8>> {
        let bytes = std::mem::take(&mut self.shared.borrow_mut().outbound);
        let mut src = &bytes[..];
        let mut bodies = Vec::new();
        while !src.is_empty() {
            self.reader.fill_from(&mut src).expect("reading a slice");
            while let Some((start, end)) = self.reader.try_frame().expect("server framing") {
                bodies.push(self.reader.buffered()[start..end].to_vec());
            }
        }
        bodies
    }

    /// Whether the server has closed its end and this peer has received
    /// everything written before that: a read here would return EOF.
    pub(crate) fn at_eof(&self) -> bool {
        let s = self.shared.borrow();
        s.server_closed && s.outbound.is_empty()
    }

    /// Server `read` calls so far.
    pub(crate) fn reads(&self) -> usize {
        self.shared.borrow().reads
    }

    /// Bytes the server wrote that this peer has not received.
    pub(crate) fn unreceived(&self) -> usize {
        self.shared.borrow().outbound.len()
    }
}
