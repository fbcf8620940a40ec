//! The end-to-end run and the traced run of one workload.

use crate::placement::Placement;
use crate::rig::{CallError, Rig, Sent};
use crate::stats::{self, min_samples_for, Latencies};
use crate::trace::{HandlerSpans, Probe, Tracer};
use crate::workload::{respond, Inputs, Spec, Workload};
use bsoap_core::{Value, WireFormat};
use bsoap_deser::{parse_binary_envelope, DiffDeserializer};
use bsoap_obs::{Counter, Level, Metrics};
use bsoap_server::ServiceStats;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `(name, unit)` of every end-to-end metric, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("calls_per_s", "calls/s"),
    ("call_p50_us", "us"),
    ("call_p90_us", "us"),
    ("cpu_us_per_call", "us"),
    ("wire_bytes_per_call", "B"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.serialize_us", "us"),
    ("core.values_written_per_call", "count"),
    ("core.shifts_per_call", "count"),
    ("core.steals_per_call", "count"),
    ("core.fallback_ratio", "ratio"),
    ("core.reuse_ratio", "ratio"),
    ("store.hit_ratio", "ratio"),
    ("store.evictions_per_call", "count"),
    ("store.resident_bytes", "B"),
    ("transport.write_us", "us"),
    ("transport.read_us", "us"),
    ("transport.request_bytes_per_call", "B"),
    ("transport.response_bytes_per_call", "B"),
    ("server.dispatch_us", "us"),
    ("server.handler_us", "us"),
    ("server.diff_ratio", "ratio"),
    ("server.full_parse_ratio", "ratio"),
    ("server.response_reuse_ratio", "ratio"),
    ("deser.request_us", "us"),
    ("deser.response_us", "us"),
    ("overlay.portions_per_call", "count"),
    ("overlay.window_bytes", "B"),
    ("rpc.unaccounted_us", "us"),
    ("trace.overhead_us", "us"),
    ("trace.min_coverage", "ratio"),
    ("error_ratio", "ratio"),
];

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUPS: usize = 7;
/// Blocks of a traced run; even blocks are traced, odd ones are not.
const TRACE_BLOCKS: u64 = 16;
/// Largest traced run, in calls.
const TRACE_MAX_CALLS: u64 = 40_000;
/// Bounds on the request bodies a traced run keeps for the replay.
const CAPTURE_MAX_BYTES: usize = 32 << 20;
const CAPTURE_MAX_BODIES: usize = 4096;
/// Each child span of a call must cover at least this share of it.
pub const MIN_COVERAGE: f64 = 0.9;

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks: calls, reconciliation, coverage.
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn fail(&mut self, e: impl ToString) {
        self.failed += 1;
        self.problems.push(e.to_string());
    }
}

/// A rig plus its request stream.
pub struct Caller<'s> {
    spec: &'s Spec,
    rig: Rig<'s>,
    inputs: Inputs,
    seq: u64,
    pub probe: Probe,
}

/// One verified call.
pub struct Done {
    pub latency_us: f64,
    pub op: usize,
    pub sent: Sent,
}

impl<'s> Caller<'s> {
    /// Start the rig and make the workload's warm-up calls: the set-up
    /// that `setup_s` times.
    pub fn start(
        spec: &'s Spec,
        inputs: Inputs,
        placement: Placement,
        spans: &Arc<HandlerSpans>,
        client_metrics: Option<Arc<Metrics>>,
    ) -> Result<Caller<'s>, String> {
        let rig = Rig::start(spec, placement, spans, client_metrics)
            .map_err(|e| format!("set-up failed: {e}"))?;
        let mut s = Caller {
            spec,
            rig,
            inputs,
            seq: 0,
            probe: Probe::default(),
        };
        for _ in 0..spec.workload.warmup_calls() {
            s.call().map_err(|e| format!("warm-up call failed: {e}"))?;
        }
        Ok(s)
    }

    /// Generate, send and verify the next call.
    pub fn call(&mut self) -> Result<Done, CallError> {
        self.seq += 1;
        let call = self.inputs.next(self.seq);
        let expected: Vec<Value> =
            respond(self.spec.workload, call.args).map_err(CallError::Predict)?;
        let start = Instant::now();
        let sent = self.rig.call(call.op, call.args, &mut self.probe)?;
        let latency_us = start.elapsed().as_secs_f64() * 1e6;
        if sent.values != expected {
            return Err(CallError::Wrong { seq: self.seq });
        }
        Ok(Done {
            latency_us,
            op: call.op,
            sent,
        })
    }

    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Stop the server and return every reconciliation problem.
    pub fn stop(self) -> (crate::rig::Closing, Vec<String>) {
        let closing = self.rig.stop();
        let problems = closing.problems();
        (closing, problems)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The end-to-end run: closed-loop calls for `seconds` (and at least
/// enough calls for a p90) on one rig, with [`SETUPS`] timed set-ups.
pub fn end_to_end(workload: Workload, seed: u64, seconds: u64, placement: Placement) -> Outcome {
    let mut out = Outcome::default();
    let (spec, inputs) = Spec::new(workload, seed);
    let spans = Arc::new(HandlerSpans::default());
    let setup = |out: &mut Outcome, setups: &mut Vec<f64>| {
        let start = Instant::now();
        match Caller::start(&spec, inputs.clone(), placement, &spans, None) {
            Ok(s) => {
                setups.push(start.elapsed().as_secs_f64());
                Some(s)
            }
            Err(e) => {
                out.attempted = out.attempted.max(1);
                out.fail(e);
                None
            }
        }
    };
    // The measured rig is set up first. The other set-ups run between
    // segments of the timed loop, so that `setup_s` samples the whole run
    // rather than its first moments; their time is not part of the loop's.
    let mut setups = Vec::with_capacity(SETUPS);
    let Some(mut caller) = setup(&mut out, &mut setups) else {
        return out;
    };
    let min_calls = min_samples_for(90);
    let segment = Duration::from_secs_f64(seconds as f64 / SETUPS as f64);
    let mut latencies = Latencies::default();
    let (mut request_bytes, mut response_bytes) = (0u64, 0u64);
    let (mut wall, mut cpu) = (0.0, 0u64);
    'segments: for seg in 1..=SETUPS {
        let cpu0 = stats::process_cpu_us();
        let start = Instant::now();
        loop {
            out.attempted += 1;
            match caller.call() {
                Ok(done) => {
                    latencies.record(done.latency_us);
                    request_bytes += done.sent.request_bytes;
                    response_bytes += done.sent.response_bytes;
                }
                Err(e) => {
                    out.fail(e);
                    break 'segments;
                }
            }
            if start.elapsed() >= segment && (seg < SETUPS || latencies.len() >= min_calls) {
                break;
            }
        }
        wall += start.elapsed().as_secs_f64();
        cpu += stats::process_cpu_us().saturating_sub(cpu0);
        if seg < SETUPS {
            match setup(&mut out, &mut setups) {
                Some(extra) => out.problems.extend(extra.stop().1),
                None => break,
            }
        }
    }
    let (closing, problems) = caller.stop();
    out.problems.extend(problems);
    if !out.correct() {
        return out;
    }

    let n = latencies.len();
    let (p50, p90) = match (
        latencies.supported_percentile(50),
        latencies.supported_percentile(90),
    ) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            out.problems.push(e);
            return out;
        }
    };
    let response_per_call = if closing.streamed {
        // The pooled client reads streamed responses itself; the server's
        // byte counter covers every call of the rig.
        ratio(closing.server_bytes_out, closing.server.requests)
    } else {
        ratio(response_bytes, n)
    };
    let rss = match stats::peak_rss_mib() {
        Ok(r) => r,
        Err(e) => {
            out.problems.push(format!("cannot read the peak RSS: {e}"));
            return out;
        }
    };
    out.notes.push(format!(
        "timed calls {n} in {wall:.3} s; p90 has {} samples beyond it; error_ratio {} ({} of {})",
        p90.beyond,
        ratio(out.failed, out.attempted),
        out.failed,
        out.attempted
    ));
    out.notes.push(format!(
        "setup_s samples {:?}",
        setups.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>()
    ));
    out.metrics = vec![
        ("calls_per_s", n as f64 / wall),
        ("call_p50_us", p50.value),
        ("call_p90_us", p90.value),
        ("cpu_us_per_call", cpu as f64 / n as f64),
        (
            "wire_bytes_per_call",
            request_bytes as f64 / n as f64 + response_per_call,
        ),
        ("peak_rss_mb", rss),
        ("setup_s", stats::median(&setups)),
    ];
    out
}

/// Per-layer sums over the traced calls.
#[derive(Default)]
struct LayerSums {
    calls: u64,
    call_ns: u64,
    send_ns: u64,
    serialize_ns: u64,
    write_ns: u64,
    read_ns: u64,
    deser_ns: u64,
}

impl LayerSums {
    fn add(&mut self, p: &Probe) {
        let span = |iv: (u64, u64)| iv.1.saturating_sub(iv.0);
        let writes: u64 = p.writes.iter().map(|&w| span(w)).sum();
        self.calls += 1;
        self.call_ns += span(p.call);
        self.send_ns += span(p.send);
        self.serialize_ns += span(p.send).saturating_sub(p.send_children_ns());
        self.write_ns += writes + p.open.map_or(0, span);
        self.read_ns += span(p.read);
        self.deser_ns += span(p.deser);
    }

    fn mean_us(&self, ns: u64) -> f64 {
        ratio(ns, self.calls) / 1e3
    }
}

/// Engine counts over every call of the traced run.
#[derive(Default)]
struct CountSums {
    calls: u64,
    reused: u64,
    values_written: u64,
    shifts: u64,
    steals: u64,
    fell_back: u64,
    portions: u64,
    window_bytes: u64,
    request_bytes: u64,
    response_bytes: u64,
}

impl CountSums {
    fn add(&mut self, s: &Sent) {
        let c = &s.counts;
        self.calls += 1;
        self.reused += u64::from(!c.first_time);
        self.values_written += c.values_written;
        self.shifts += c.shifts;
        self.steals += c.steals;
        self.fell_back += u64::from(c.fell_back);
        self.portions += c.portions;
        self.window_bytes = self.window_bytes.max(c.window_bytes);
        self.request_bytes += s.request_bytes;
        self.response_bytes += s.response_bytes;
    }

    fn per_call(&self, v: u64) -> f64 {
        ratio(v, self.calls)
    }
}

/// A request body kept for the replay.
struct Captured {
    op: usize,
    format: WireFormat,
    body: Vec<u8>,
}

/// Calls a traced run makes: the workload's planned rate for half the
/// run time, capped, in whole pairs of traced and untraced blocks.
pub fn traced_calls(workload: Workload, seconds: u64) -> u64 {
    let want = (workload.trace_rate() * seconds / 2).clamp(2 * TRACE_BLOCKS, TRACE_MAX_CALLS);
    want / TRACE_BLOCKS * TRACE_BLOCKS
}

/// The traced run: one set-up, then a fixed number of calls in blocks
/// that alternate tracing on and off, then an in-process replay of the
/// recorded request bodies for the server-side layers.
pub fn traced(
    workload: Workload,
    seed: u64,
    seconds: u64,
    placement: Placement,
    spans_path: &Path,
) -> Outcome {
    let mut out = Outcome::default();
    let (spec, inputs) = Spec::new(workload, seed);
    let spans = Arc::new(HandlerSpans::default());
    let client_metrics = Arc::new(Metrics::new());
    let mut caller = match Caller::start(
        &spec,
        inputs,
        placement,
        &spans,
        Some(Arc::clone(&client_metrics)),
    ) {
        Ok(s) => s,
        Err(e) => {
            out.attempted = 1;
            out.fail(e);
            return out;
        }
    };

    let total = traced_calls(workload, seconds);
    let block = total / TRACE_BLOCKS;
    let store_before = client_metrics.snapshot();
    let server_before = caller.rig.server_stats();
    let mut tracer = Tracer::default();
    let mut layers = LayerSums::default();
    let mut counts = CountSums::default();
    let mut captured: Vec<Captured> = Vec::new();
    let mut captured_bytes = 0usize;
    let (mut traced_lat, mut plain_lat) = (Latencies::default(), Latencies::default());
    'blocks: for b in 0..TRACE_BLOCKS {
        let on = b % 2 == 0;
        spans.set_enabled(on);
        for _ in 0..block {
            let capture =
                on && captured_bytes < CAPTURE_MAX_BYTES && captured.len() < CAPTURE_MAX_BODIES;
            caller.probe.reset(on, capture);
            out.attempted += 1;
            let done = match caller.call() {
                Ok(d) => d,
                Err(e) => {
                    out.fail(e);
                    break 'blocks;
                }
            };
            counts.add(&done.sent);
            if on {
                tracer.record_call(caller.seq(), &caller.probe);
                layers.add(&caller.probe);
                traced_lat.record(done.latency_us);
            } else {
                plain_lat.record(done.latency_us);
            }
            if capture {
                let body = std::mem::take(&mut caller.probe.body);
                captured_bytes += body.len();
                captured.push(Captured {
                    op: done.op,
                    format: done.sent.format,
                    body,
                });
            }
        }
    }
    spans.set_enabled(false);
    let server_after = caller.rig.server_stats();
    let store_after = client_metrics.snapshot();
    let (closing, problems) = caller.stop();
    out.problems.extend(problems);
    if !out.correct() {
        return out;
    }

    let handler = spans.take();
    let handler_ns: u64 = handler.iter().map(|(_, iv)| iv.1 - iv.0).sum();
    let orphans = tracer.link_handlers(&handler);
    if orphans > 0 {
        out.problems.push(format!(
            "{orphans} server.handler spans match no traced call"
        ));
    }
    let min_coverage = tracer.min_coverage();
    if min_coverage < MIN_COVERAGE {
        out.problems.push(format!(
            "a call's child spans cover only {:.1}% of it (need {:.0}%)",
            min_coverage * 100.0,
            MIN_COVERAGE * 100.0
        ));
    }
    let (dispatch_us, deser_request_us) = match replay(&spec, &captured) {
        Ok(v) => v,
        Err(e) => {
            out.problems.push(format!("replay failed: {e}"));
            return out;
        }
    };
    if let Err(e) = tracer.write_jsonl(spans_path) {
        out.problems
            .push(format!("cannot write {}: {e}", spans_path.display()));
        return out;
    }

    let server = delta(&server_after, &server_before);
    let store = |c: Counter| store_after.get(c) - store_before.get(c);
    let (hits, misses) = (store(Counter::TemplateHits), store(Counter::TemplateMisses));
    let response_per_call = if closing.streamed {
        ratio(closing.server_bytes_out, closing.server.requests)
    } else {
        counts.per_call(counts.response_bytes)
    };
    let p50 = |h: &Latencies| h.percentile(50).map_or(0.0, |p| p.value);
    let call_us = layers.mean_us(layers.call_ns);
    let send_us = layers.mean_us(layers.send_ns);
    let deser_response_us = layers.mean_us(layers.deser_ns);
    out.notes.push(format!(
        "traced {} of {} calls; {} spans to {}; replayed {} request bodies; min coverage {:.4}",
        layers.calls,
        counts.calls,
        tracer.spans.len(),
        spans_path.display(),
        captured.len(),
        min_coverage
    ));
    out.metrics = vec![
        ("core.serialize_us", layers.mean_us(layers.serialize_ns)),
        (
            "core.values_written_per_call",
            counts.per_call(counts.values_written),
        ),
        ("core.shifts_per_call", counts.per_call(counts.shifts)),
        ("core.steals_per_call", counts.per_call(counts.steals)),
        ("core.fallback_ratio", counts.per_call(counts.fell_back)),
        ("core.reuse_ratio", counts.per_call(counts.reused)),
        ("store.hit_ratio", ratio(hits, hits + misses)),
        (
            "store.evictions_per_call",
            counts.per_call(store(Counter::TemplateEvictions)),
        ),
        (
            "store.resident_bytes",
            store_after.level(Level::TemplateBytesResident) as f64,
        ),
        ("transport.write_us", layers.mean_us(layers.write_ns)),
        ("transport.read_us", layers.mean_us(layers.read_ns)),
        (
            "transport.request_bytes_per_call",
            counts.per_call(counts.request_bytes),
        ),
        ("transport.response_bytes_per_call", response_per_call),
        ("server.dispatch_us", dispatch_us),
        (
            "server.handler_us",
            ratio(handler_ns, handler.len() as u64) / 1e3,
        ),
        (
            "server.diff_ratio",
            ratio(server.requests_differential, server.requests),
        ),
        (
            "server.full_parse_ratio",
            ratio(server.requests_full_parse, server.requests),
        ),
        (
            "server.response_reuse_ratio",
            ratio(server.requests - server.responses_first, server.requests),
        ),
        ("deser.request_us", deser_request_us),
        ("deser.response_us", deser_response_us),
        (
            "overlay.portions_per_call",
            counts.per_call(counts.portions),
        ),
        ("overlay.window_bytes", counts.window_bytes as f64),
        (
            "rpc.unaccounted_us",
            call_us - send_us - deser_response_us - dispatch_us,
        ),
        ("trace.overhead_us", p50(&traced_lat) - p50(&plain_lat)),
        ("trace.min_coverage", min_coverage),
        ("error_ratio", ratio(out.failed, out.attempted)),
    ];
    out
}

fn delta(after: &ServiceStats, before: &ServiceStats) -> ServiceStats {
    ServiceStats {
        requests: after.requests - before.requests,
        requests_identical: after.requests_identical - before.requests_identical,
        requests_differential: after.requests_differential - before.requests_differential,
        requests_full_parse: after.requests_full_parse - before.requests_full_parse,
        responses_content: after.responses_content - before.responses_content,
        responses_perfect: after.responses_perfect - before.responses_perfect,
        responses_partial: after.responses_partial - before.responses_partial,
        responses_first: after.responses_first - before.responses_first,
        faults: after.faults - before.faults,
    }
}

/// Mean microseconds per request of `Service::dispatch_formatted` and of
/// request deserialization alone, replaying `bodies` in order through a
/// fresh service (one untimed pass to reach steady state, one timed).
fn replay(spec: &Spec, bodies: &[Captured]) -> Result<(f64, f64), String> {
    if bodies.is_empty() {
        return Ok((0.0, 0.0));
    }
    let svc = spec.service(&Arc::new(HandlerSpans::default()));
    let mut dispatch_ns = 0u128;
    for pass in 0..2 {
        for c in bodies {
            let start = Instant::now();
            let reply = svc
                .dispatch_formatted(&spec.ops[c.op].name, &c.body, c.format)
                .map_err(|e| e.to_string())?;
            std::hint::black_box(reply);
            if pass == 1 {
                dispatch_ns += start.elapsed().as_nanos();
            }
        }
    }
    let mut desers: Vec<Option<DiffDeserializer>> = spec.ops.iter().map(|_| None).collect();
    let mut deser_ns = 0u128;
    for pass in 0..2 {
        for c in bodies {
            let start = Instant::now();
            match c.format {
                WireFormat::SoapXml => {
                    let d = desers[c.op]
                        .get_or_insert_with(|| DiffDeserializer::new(spec.ops[c.op].clone()));
                    let (args, outcome) = d.deserialize(&c.body).map_err(|e| e.to_string())?;
                    std::hint::black_box((args, outcome));
                }
                WireFormat::CompactBinary => {
                    let args = parse_binary_envelope(&c.body, &spec.ops[c.op])
                        .map_err(|e| e.to_string())?;
                    std::hint::black_box(args);
                }
            }
            if pass == 1 {
                deser_ns += start.elapsed().as_nanos();
            }
        }
    }
    let n = bodies.len() as f64;
    Ok((dispatch_ns as f64 / n / 1e3, deser_ns as f64 / n / 1e3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{allowed_cpus, plan};
    use crate::workload::seq_of;

    fn placement() -> Placement {
        plan(&allowed_cpus().expect("affinity mask")).expect("at least one CPU")
    }

    /// Request payloads and wire bytes of the first `calls` calls.
    fn fixed_run(spec: &Spec, inputs: Inputs, calls: usize) -> (Vec<Vec<u8>>, u64) {
        let spans = Arc::new(HandlerSpans::default());
        let mut s = Caller::start(spec, inputs, placement(), &spans, None).unwrap();
        let mut bodies = Vec::new();
        let mut wire = 0;
        for _ in 0..calls {
            s.probe.reset(false, true);
            let done = s.call().unwrap();
            wire += done.sent.request_bytes + done.sent.response_bytes;
            bodies.push(std::mem::take(&mut s.probe.body));
        }
        assert!(s.stop().1.is_empty());
        (bodies, wire)
    }

    #[test]
    fn same_seed_same_request_bytes_other_seed_other_inputs() {
        for w in [Workload::SmallRpc, Workload::StoreChurn] {
            let run = |seed| {
                let (spec, inputs) = Spec::new(w, seed);
                fixed_run(&spec, inputs, 40)
            };
            let (a, b, c) = (run(11), run(11), run(12));
            assert_eq!(a, b, "{}: same seed", w.name());
            assert_ne!(a.0, c.0, "{}: other seed", w.name());
        }
    }

    fn wrong_for_call_five(w: Workload, args: &[Value]) -> Result<Vec<Value>, String> {
        let mut v = respond(w, args)?;
        if seq_of(args) == Some(5) {
            v[0] = match &v[0] {
                Value::IntArray(ids) => Value::IntArray(ids.iter().map(|i| i ^ 1).collect()),
                Value::Long(x) => Value::Long(x ^ 1),
                other => other.clone(),
            };
        }
        Ok(v)
    }

    #[test]
    fn a_wrong_response_fails_its_call() {
        for w in [Workload::SmallRpc, Workload::StoreChurn] {
            let (mut spec, inputs) = Spec::new(w, 1);
            spec.respond = wrong_for_call_five;
            let spans = Arc::new(HandlerSpans::default());
            let rig = Rig::start(&spec, placement(), &spans, None).unwrap();
            let mut s = Caller {
                spec: &spec,
                rig,
                inputs,
                seq: 0,
                probe: Probe::default(),
            };
            for seq in 1..=8u64 {
                match s.call() {
                    Ok(_) => assert_ne!(seq, 5, "{}: wrong answer accepted", w.name()),
                    Err(CallError::Wrong { seq: 5 }) => assert_eq!(seq, 5),
                    Err(e) => panic!("{}: call {seq} failed: {e}", w.name()),
                }
            }
            // The server answered every request, so the counts still match.
            assert!(s.stop().1.is_empty());
        }
    }

    #[test]
    fn end_to_end_run_reports_every_metric() {
        let out = end_to_end(Workload::SmallRpc, 5, 1, placement());
        assert!(out.correct(), "{:?}", out.problems);
        let names: Vec<&str> = out.metrics.iter().map(|(n, _)| *n).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
        assert!(
            out.metrics.iter().all(|(_, v)| *v > 0.0),
            "{:?}",
            out.metrics
        );
    }

    #[test]
    fn traced_counts_repeat_exactly_and_spans_cover_calls() {
        for w in [Workload::StoreChurn, Workload::BulkStream] {
            let path = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!(
                    "test-spans-{}-{}.jsonl",
                    w.name(),
                    std::process::id()
                ));
            // The budgeted server store evicts among equal-cost response
            // templates in the iteration order of a std `HashMap`, whose
            // hasher is seeded per map, so which responses are reused on
            // `store_churn` differs between runs of one seed.
            let repeatable = |n: &str| {
                let timed = n.ends_with("_us") || n.starts_with("trace.");
                let hash_ordered = w == Workload::StoreChurn && n == "server.response_reuse_ratio";
                !(timed || hash_ordered)
            };
            let counts = |out: &Outcome| -> Vec<(&'static str, f64)> {
                out.metrics
                    .iter()
                    .filter(|(n, _)| repeatable(n))
                    .copied()
                    .collect()
            };
            let a = traced(w, 3, 1, placement(), &path);
            let b = traced(w, 3, 1, placement(), &path);
            std::fs::remove_file(&path).unwrap();
            assert!(
                a.correct() && b.correct(),
                "{:?} {:?}",
                a.problems,
                b.problems
            );
            assert_eq!(counts(&a), counts(&b), "{}", w.name());
            let names: Vec<&str> = a.metrics.iter().map(|(n, _)| *n).collect();
            let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, want);
            let coverage = a.metrics.iter().find(|(n, _)| *n == "trace.min_coverage");
            assert!(coverage.unwrap().1 >= MIN_COVERAGE);
        }
    }
}
