//! Spans recorded around the calls into each layer, from bench code only.
//!
//! A traced call is one root span `call` with the direct children
//! `core.send` (itself parent of `transport.write` and `bench.capture`),
//! `transport.open` (streamed lane only), `transport.read` and
//! `deser.response`. The server's handler records `server.handler`,
//! linked to its call by the sequence number carried in the request.
//! Spans stay in memory and are written out when the run ends.

use crate::workload::seq_of;
use bsoap_core::Value;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// `[start, end)` in [`now_ns`] nanoseconds.
pub type Interval = (u64, u64);

fn len(iv: Interval) -> u64 {
    iv.1.saturating_sub(iv.0)
}

/// `server.handler` spans, recorded on the server's threads while
/// tracing is switched on.
#[derive(Default)]
pub struct HandlerSpans {
    on: AtomicBool,
    spans: Mutex<Vec<(u64, Interval)>>,
}

impl HandlerSpans {
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Start of a handler span, if tracing is on.
    pub fn begin(&self) -> Option<u64> {
        self.on.load(Ordering::SeqCst).then(now_ns)
    }

    /// Close the span opened by [`HandlerSpans::begin`] for a request
    /// carrying `args`.
    pub fn end(&self, start: Option<u64>, args: &[Value]) {
        if let (Some(start), Some(seq)) = (start, seq_of(args)) {
            let end = now_ns();
            self.spans
                .lock()
                .expect("handler span lock poisoned by a panicking handler")
                .push((seq, (start, end)));
        }
    }

    /// Every recorded span as `(seq, interval)`, in recording order.
    pub fn take(&self) -> Vec<(u64, Interval)> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("handler span lock poisoned by a panicking handler"),
        )
    }
}

/// Timestamps of one call, filled in by the rig when `on`.
#[derive(Debug, Default)]
pub struct Probe {
    pub on: bool,
    /// Copy the request payload into `body` (for the in-process replay).
    pub capture: bool,
    pub body: Vec<u8>,
    pub call: Interval,
    pub open: Option<Interval>,
    pub send: Interval,
    pub writes: Vec<Interval>,
    pub captures: Vec<Interval>,
    pub read: Interval,
    pub deser: Interval,
}

impl Probe {
    /// A timestamp when tracing, else 0 without reading the clock.
    pub fn stamp(&self) -> u64 {
        if self.on {
            now_ns()
        } else {
            0
        }
    }

    /// Clear for the next call, keeping buffers.
    pub fn reset(&mut self, on: bool, capture: bool) {
        self.on = on;
        self.capture = capture;
        self.body.clear();
        self.open = None;
        self.writes.clear();
        self.captures.clear();
    }

    /// Time inside `core.send` that belongs to the layers below it or to
    /// the benchmark's own body capture.
    pub fn send_children_ns(&self) -> u64 {
        self.writes
            .iter()
            .chain(&self.captures)
            .map(|&iv| len(iv))
            .sum()
    }
}

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// Parent span id, or `None` for a root.
    pub parent: Option<u32>,
    pub name: &'static str,
    pub seq: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// All spans of a traced run, in memory until [`Tracer::write_jsonl`].
#[derive(Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
}

impl Tracer {
    fn push(&mut self, parent: Option<u32>, name: &'static str, seq: u64, iv: Interval) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name,
            seq,
            start_ns: iv.0,
            end_ns: iv.1,
        });
        id
    }

    /// Record the spans of call `seq` from its probe.
    pub fn record_call(&mut self, seq: u64, p: &Probe) {
        let call = self.push(None, "call", seq, p.call);
        if let Some(open) = p.open {
            self.push(Some(call), "transport.open", seq, open);
        }
        let send = self.push(Some(call), "core.send", seq, p.send);
        for &w in &p.writes {
            self.push(Some(send), "transport.write", seq, w);
        }
        for &c in &p.captures {
            self.push(Some(send), "bench.capture", seq, c);
        }
        self.push(Some(call), "transport.read", seq, p.read);
        self.push(Some(call), "deser.response", seq, p.deser);
    }

    /// Attach `server.handler` spans to the call carrying the same
    /// sequence number. Returns how many found no traced call.
    pub fn link_handlers(&mut self, handlers: &[(u64, Interval)]) -> usize {
        let calls: std::collections::HashMap<u64, u32> = self
            .spans
            .iter()
            .filter(|s| s.name == "call")
            .map(|s| (s.seq, s.id))
            .collect();
        let mut orphans = 0;
        for &(seq, iv) in handlers {
            match calls.get(&seq) {
                Some(&call) => {
                    self.push(Some(call), "server.handler", seq, iv);
                }
                None => orphans += 1,
            }
        }
        orphans
    }

    /// Smallest share of a `call` span covered by the union of its
    /// direct children (1.0 when there are no calls).
    pub fn min_coverage(&self) -> f64 {
        let mut children: Vec<Vec<Interval>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                if self.spans[p as usize].name == "call" && s.name != "server.handler" {
                    children[p as usize].push((s.start_ns, s.end_ns));
                }
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == "call")
            .map(|s| coverage((s.start_ns, s.end_ns), &mut children[s.id as usize]))
            .fold(1.0, f64::min)
    }

    /// Write one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"seq\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.seq, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Share of `root` covered by the union of `parts` (clipped to `root`).
pub fn coverage(root: Interval, parts: &mut [Interval]) -> f64 {
    let total = len(root);
    if total == 0 {
        return 1.0;
    }
    parts.sort_unstable();
    let mut covered = 0u64;
    let mut reach = root.0;
    for &(s, e) in parts.iter() {
        let (s, e) = (s.max(reach), e.min(root.1));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(call: Interval, send: Interval, read: Interval, deser: Interval) -> Probe {
        Probe {
            on: true,
            call,
            send,
            read,
            deser,
            writes: vec![(send.0 + 1, send.1 - 1)],
            ..Probe::default()
        }
    }

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        assert_eq!(coverage((0, 100), &mut [(0, 50), (40, 100)]), 1.0);
        assert_eq!(coverage((0, 100), &mut [(10, 20), (30, 40)]), 0.2);
        assert_eq!(coverage((10, 20), &mut [(0, 100)]), 1.0);
        assert_eq!(coverage((0, 100), &mut []), 0.0);
    }

    #[test]
    fn contiguous_children_cover_the_call() {
        let mut t = Tracer::default();
        t.record_call(1, &probe((100, 200), (100, 150), (150, 190), (190, 200)));
        assert_eq!(t.min_coverage(), 1.0);
        // transport.write is a grandchild: it must not count twice.
        assert_eq!(
            t.spans
                .iter()
                .filter(|s| s.name == "transport.write")
                .count(),
            1
        );
    }

    #[test]
    fn a_gap_between_layers_fails_the_ninety_percent_check() {
        let mut t = Tracer::default();
        t.record_call(1, &probe((0, 1000), (0, 400), (400, 800), (800, 850)));
        t.record_call(
            2,
            &probe((1000, 1100), (1000, 1050), (1050, 1090), (1090, 1100)),
        );
        let c = t.min_coverage();
        assert!((c - 0.85).abs() < 1e-12, "{c}");
        assert!(c < 0.9);
    }

    #[test]
    fn handler_spans_link_by_sequence_number() {
        let mut t = Tracer::default();
        t.record_call(7, &probe((0, 100), (0, 50), (50, 90), (90, 100)));
        assert_eq!(t.link_handlers(&[(7, (60, 70)), (8, (0, 1))]), 1);
        let h = t.spans.iter().find(|s| s.name == "server.handler").unwrap();
        assert_eq!(h.parent, Some(0));
        // The server span nests inside the read, so coverage is unchanged.
        assert_eq!(t.min_coverage(), 1.0);
    }

    #[test]
    fn spans_file_has_one_line_per_span() {
        let mut t = Tracer::default();
        t.record_call(3, &probe((0, 100), (0, 50), (50, 90), (90, 100)));
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        let path = dir.join("spans.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(text.lines().count(), t.spans.len());
        assert!(text.starts_with("{\"id\":0,\"parent\":null,\"name\":\"call\",\"seq\":3,"));
    }
}
