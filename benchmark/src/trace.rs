//! Spans around the calls into each layer, recorded from the benchmark's
//! side of the public API, and the traced replay that produces them.
//!
//! After the untraced phases one thread replays frames of the same
//! generated stream through the request path unrolled by hand, with no
//! socket in it: `request` ⊃ `client.encode` → `wire.frame_read` →
//! `wire.decode_req` → `batch.execute` → `wire.encode_resp` →
//! `client.decode`.  The same replay instantiated with [`NoTrace`] compiles
//! the spans out; the difference between the two is the tracing overhead.
//! Spans *inside* the server or the store are a later change.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use spectm_kv::wire::{self, FrameReader};
use spectm_kv::{BatchResponse, MultiBatch};

use crate::json::quote;
use crate::served::{log_ops, Driver, Store, StoreThread};
use crate::stats::median;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    Request,
    ClientEncode,
    WireFrameRead,
    WireDecodeReq,
    BatchExecute,
    WireEncodeResp,
    ClientDecode,
}

impl SpanName {
    pub const ALL: [SpanName; 7] = [
        SpanName::Request,
        SpanName::ClientEncode,
        SpanName::WireFrameRead,
        SpanName::WireDecodeReq,
        SpanName::BatchExecute,
        SpanName::WireEncodeResp,
        SpanName::ClientDecode,
    ];

    pub fn label(self) -> &'static str {
        match self {
            SpanName::Request => "request",
            SpanName::ClientEncode => "client.encode",
            SpanName::WireFrameRead => "wire.frame_read",
            SpanName::WireDecodeReq => "wire.decode_req",
            SpanName::BatchExecute => "batch.execute",
            SpanName::WireEncodeResp => "wire.encode_resp",
            SpanName::ClientDecode => "client.decode",
        }
    }
}

/// Index of a span's parent when it has none.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.  `parent` is the index of the span that was open when
/// this one began; all spans of one request share `frame`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: SpanName,
    pub frame: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Where the replay reports span boundaries.  Spans nest strictly, so
/// `end` closes the innermost open one.
pub trait Tracer {
    fn begin(&mut self, name: SpanName, frame: u32);
    fn end(&mut self);
}

/// Tracing compiled out.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn begin(&mut self, _name: SpanName, _frame: u32) {}
    #[inline(always)]
    fn end(&mut self) {}
}

/// Keeps every span in memory; nothing is written until the run ends.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn with_capacity(spans: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(4),
        }
    }
}

impl Tracer for Recorder {
    fn begin(&mut self, name: SpanName, frame: u32) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            frame,
            parent,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
    }

    fn end(&mut self) {
        let index = self.open.pop().expect("end without begin");
        self.spans[index as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }
}

/// Self time of every span: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans.iter().filter(|s| s.parent != NO_PARENT) {
        let parent = span.parent as usize;
        own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
    }
    own
}

/// Per span name: how many, the median duration and the median self time.
#[derive(Debug, Clone, Copy)]
pub struct SpanSummary {
    pub name: SpanName,
    pub count: usize,
    pub median_ns: f64,
    pub median_self_ns: f64,
}

pub fn summarize(spans: &[Span]) -> Vec<SpanSummary> {
    let own = self_times(spans);
    SpanName::ALL
        .iter()
        .map(|&name| {
            let mut durations = Vec::new();
            let mut selfs = Vec::new();
            for (span, &own) in spans.iter().zip(&own).filter(|(s, _)| s.name == name) {
                durations.push((span.end_ns - span.start_ns) as f64);
                selfs.push(own as f64);
            }
            SpanSummary {
                name,
                count: durations.len(),
                median_ns: median(&durations),
                median_self_ns: median(&selfs),
            }
        })
        .collect()
}

/// Replays up to `max_frames` frames of `driver`'s stream (stopping early
/// after `budget`) through the hand-unrolled request path against `store`,
/// checking every result.  Returns frames replayed and the time taken.
pub fn replay<T: Tracer>(
    driver: &mut Driver,
    store: &Store,
    thread: &mut StoreThread,
    max_frames: usize,
    budget: Duration,
    tracer: &mut T,
) -> (usize, Duration) {
    let mut fills = Vec::new();
    let mut sent = VecDeque::new();
    let mut request_bytes = Vec::new();
    let mut server_reader = FrameReader::new();
    let mut multi = MultiBatch::new();
    let mut response_bytes = Vec::new();
    let mut client_reader = FrameReader::new();
    let mut response = BatchResponse::new();
    let started = Instant::now();
    let mut frames = 0usize;
    while frames < max_frames && (frames % 256 != 0 || started.elapsed() < budget) {
        let id = frames as u32;
        // Generating the frame is the harness's work, outside the request.
        let ops = driver.next_ops(&mut fills);
        let count = ops.len();
        log_ops(ops, &mut sent);

        tracer.begin(SpanName::Request, id);
        tracer.begin(SpanName::ClientEncode, id);
        wire::encode_request(ops, &mut request_bytes).expect("generated frames are legal");
        tracer.end();

        tracer.begin(SpanName::WireFrameRead, id);
        server_reader
            .fill_from(&mut request_bytes.as_slice())
            .expect("reading from memory");
        let (start, end) = server_reader
            .try_frame()
            .expect("own frame is well formed")
            .expect("own frame is complete");
        tracer.end();

        tracer.begin(SpanName::WireDecodeReq, id);
        wire::decode_request_append(&server_reader.buffered()[start..end], multi.request_mut())
            .expect("own frame decodes");
        multi.commit_frame(0);
        tracer.end();

        tracer.begin(SpanName::BatchExecute, id);
        store
            .execute_multi(&mut multi, thread)
            .expect("legal batch");
        tracer.end();

        tracer.begin(SpanName::WireEncodeResp, id);
        response_bytes.clear();
        for (_, results) in multi.frames() {
            wire::encode_response_append(results, &mut response_bytes).expect("store output fits");
        }
        tracer.end();

        tracer.begin(SpanName::ClientDecode, id);
        client_reader
            .fill_from(&mut response_bytes.as_slice())
            .expect("reading from memory");
        let (start, end) = client_reader
            .try_frame()
            .expect("server frame is well formed")
            .expect("server frame is complete");
        let decoded = wire::decode_response(&client_reader.buffered()[start..end], &mut response);
        tracer.end();
        tracer.end();

        if decoded.is_err() {
            response.clear();
        }
        driver.check_results(count, &response, &mut sent, &mut fills);
        multi.clear();
        frames += 1;
    }
    (frames, started.elapsed())
}

/// The trace as JSON: the per-name summary over every span, and the spans
/// themselves for the first `keep_frames` requests (all of them would be
/// tens of megabytes a run).
pub fn to_json(spans: &[Span], keep_frames: u32) -> String {
    let summary: Vec<String> = summarize(spans)
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": {}, \"count\": {}, \"median_ns\": {}, \"median_self_ns\": {}}}",
                quote(s.name.label()),
                s.count,
                s.median_ns,
                s.median_self_ns
            )
        })
        .collect();
    let kept: Vec<String> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.frame < keep_frames)
        .map(|(id, s)| {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            format!(
                "{{\"id\": {id}, \"name\": {}, \"frame\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                quote(s.name.label()),
                s.frame,
                s.start_ns,
                s.end_ns
            )
        })
        .collect();
    format!(
        "{{\"summary\": [{}],\n \"spans_kept_for_frames\": {keep_frames},\n \"spans\": [\n  {}\n ]}}",
        summary.join(", "),
        kept.join(",\n  ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: SpanName, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            frame: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(SpanName::Request, NO_PARENT, 0, 100),
            span(SpanName::ClientEncode, 0, 5, 25),
            span(SpanName::BatchExecute, 0, 30, 90),
            // A grandchild only reduces its own parent.
            span(SpanName::WireDecodeReq, 2, 40, 50),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 50, 10]);
        let by_name = summarize(&spans);
        let request = by_name
            .iter()
            .find(|s| s.name == SpanName::Request)
            .unwrap();
        assert_eq!(
            (request.count, request.median_ns, request.median_self_ns),
            (1, 100.0, 20.0)
        );
        let absent = by_name
            .iter()
            .find(|s| s.name == SpanName::ClientDecode)
            .unwrap();
        assert_eq!((absent.count, absent.median_ns), (0, 0.0));
    }

    #[test]
    fn recorder_links_children_to_the_open_span() {
        let mut rec = Recorder::with_capacity(8);
        rec.begin(SpanName::Request, 7);
        rec.begin(SpanName::ClientEncode, 7);
        rec.end();
        rec.begin(SpanName::BatchExecute, 7);
        rec.end();
        rec.end();
        rec.begin(SpanName::Request, 8);
        rec.end();
        let parents: Vec<u32> = rec.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [NO_PARENT, 0, 0, NO_PARENT]);
        assert!(rec.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(
            rec.spans[0].end_ns >= rec.spans[2].end_ns,
            "parent closes last"
        );
        assert_eq!(rec.spans[3].frame, 8);
        let json = crate::json::Json::parse(&to_json(&rec.spans, 8)).unwrap();
        assert_eq!(
            json.get("spans").unwrap().items().len(),
            3,
            "frame 8 is not kept"
        );
        assert_eq!(
            json.get("summary").unwrap().items().len(),
            SpanName::ALL.len()
        );
    }
}
