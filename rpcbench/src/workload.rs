//! The four workloads: their operations, engine configurations, seeded
//! inputs, and the handler whose answer the benchmark predicts.
//!
//! Every configuration is built explicitly (wire format, server core,
//! store mode, kernel and float policy), so no environment variable can
//! move a workload onto another lane, core or kernel.

use crate::trace::HandlerSpans;
use bsoap_convert::ScalarKind;
use bsoap_core::{
    EngineConfig, FloatFormatter, KernelPolicy, MessageTemplate, OpDesc, ParamDesc, ServerCore,
    StoreMode, TemplateStore, TypeDesc, Value, WidthPolicy, WireFormat,
};
use bsoap_server::Service;
use std::sync::Arc;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Small XML requests on the worker-pool core: fixed per-call costs.
    SmallRpc,
    /// One ~1 MB double array per XML request on the event-loop core,
    /// with ~2% of the elements changing printed width per call.
    ArrayUpdate,
    /// A few hundred binary-lane array operations of skewed popularity
    /// against a template store that holds a quarter of them.
    StoreChurn,
    /// Multi-MB arrays streamed as chunked requests on the worker pool.
    BulkStream,
}

/// Array elements in each `array_update` request.
pub const ARRAY_UPDATE_LEN: usize = 20_000;
/// Array elements in each `bulk_stream` request.
pub const BULK_LEN: usize = 80_000;
/// Operations in the `store_churn` working set.
pub const CHURN_OPS: usize = 256;
/// Smallest and largest `store_churn` array, in elements.
pub const CHURN_MIN_LEN: usize = 256;
pub const CHURN_MAX_LEN: usize = 4096;
/// Entries of the `small_rpc` result page.
pub const PAGE: usize = 25;
/// Doubles in a `small_rpc` request.
const SMALL_DOUBLES: [&str; 6] = ["lat", "lon", "radius", "boost", "min_score", "decay"];
/// Query phrases a `small_rpc` client alternates between.
const SMALL_QUERIES: usize = 8;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SmallRpc,
        Workload::ArrayUpdate,
        Workload::StoreChurn,
        Workload::BulkStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallRpc => "small_rpc",
            Workload::ArrayUpdate => "array_update",
            Workload::StoreChurn => "store_churn",
            Workload::BulkStream => "bulk_stream",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The wire lane the client asks for.
    pub fn lane(self) -> WireFormat {
        match self {
            Workload::StoreChurn => WireFormat::CompactBinary,
            _ => WireFormat::SoapXml,
        }
    }

    pub fn core(self) -> ServerCore {
        match self {
            Workload::SmallRpc | Workload::BulkStream => ServerCore::WorkerPool,
            Workload::ArrayUpdate | Workload::StoreChurn => ServerCore::EventLoop,
        }
    }

    /// Whether requests are streamed through the overlay pipeline as
    /// chunked bodies.
    pub fn streamed(self) -> bool {
        self == Workload::BulkStream
    }

    /// Calls made during set-up, before the first timed call.
    pub fn warmup_calls(self) -> usize {
        match self {
            Workload::SmallRpc => 500,
            Workload::ArrayUpdate => 8,
            Workload::StoreChurn => 2 * CHURN_OPS,
            Workload::BulkStream => 3,
        }
    }

    /// Calls per second the traced run plans for: it makes a fixed number
    /// of calls (this rate times half the run time, capped) so that its
    /// counts repeat exactly for a seed.
    pub fn trace_rate(self) -> u64 {
        match self {
            Workload::SmallRpc => 8_000,
            Workload::ArrayUpdate => 100,
            Workload::StoreChurn => 2_000,
            Workload::BulkStream => 8,
        }
    }

    fn namespace(self) -> &'static str {
        match self {
            Workload::SmallRpc => "urn:rpcbench:search",
            Workload::ArrayUpdate => "urn:rpcbench:grid",
            Workload::StoreChurn => "urn:rpcbench:store",
            Workload::BulkStream => "urn:rpcbench:bulk",
        }
    }
}

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }
}

/// A finite, non-negative double whose shortest printed form is 1 to
/// about 18 characters long, so XML re-serialization changes widths.
pub fn varied_double(rng: &mut Rng) -> f64 {
    match rng.below(4) {
        0 => rng.below(100) as f64,
        1 => rng.below(1000) as f64 / 8.0,
        2 => rng.below(1_000_000) as f64 / 1000.0,
        _ => rng.unit() * 1000.0,
    }
}

/// Order-sensitive checksum of a double array: what the array handlers
/// answer, and what the benchmark predicts from the request it sent.
pub fn checksum(xs: &[f64]) -> i64 {
    xs.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01B3)
    }) as i64
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The service's answer to `args`. The server runs it on the arguments
/// it decoded; the benchmark runs it on the arguments it generated and
/// demands the same values back.
pub fn respond(workload: Workload, args: &[Value]) -> Result<Vec<Value>, String> {
    match workload {
        Workload::SmallRpc => {
            let [Value::Int(id), Value::Str(query), doubles @ ..] = args else {
                return Err("small_rpc: expected (id, query, doubles)".into());
            };
            let mut ds = [0.0f64; SMALL_DOUBLES.len()];
            if doubles.len() != ds.len() {
                return Err("small_rpc: wrong number of doubles".into());
            }
            for (d, v) in ds.iter_mut().zip(doubles) {
                let Value::Double(x) = v else {
                    return Err("small_rpc: expected a double".into());
                };
                *d = *x;
            }
            let qh = fnv(query.as_bytes());
            let base = id.wrapping_mul(31).wrapping_add((qh & 0xFFFF) as i32);
            let ids = (0..PAGE as i32).map(|i| base.wrapping_add(i)).collect();
            let bias = (qh % 1000) as f64 / 8.0;
            let scores = (0..PAGE)
                .map(|i| ds[i % ds.len()] * (i as f64 + 1.0) + bias)
                .collect();
            Ok(vec![Value::IntArray(ids), Value::DoubleArray(scores)])
        }
        _ => {
            let [Value::DoubleArray(xs)] = args else {
                return Err(format!("{}: expected one double array", workload.name()));
            };
            Ok(vec![Value::Long(checksum(xs))])
        }
    }
}

/// The per-call sequence number the benchmark writes into each request:
/// `small_rpc`'s `id`, element 0 of every array.
pub fn seq_of(args: &[Value]) -> Option<u64> {
    match args.first()? {
        Value::Int(id) => Some(*id as u64),
        Value::DoubleArray(xs) => xs.first().map(|x| *x as u64),
        _ => None,
    }
}

/// What client and server agree on: operations, response shape, configs.
pub struct Spec {
    pub workload: Workload,
    pub ops: Vec<OpDesc>,
    pub response_params: Vec<ParamDesc>,
    pub client_config: EngineConfig,
    pub server_config: EngineConfig,
    /// Byte budget of the server's response-template store, when it has one.
    pub server_store_budget: Option<usize>,
    /// The handler the server runs. Always [`respond`] except in tests
    /// that check a wrong answer is caught.
    pub respond: fn(Workload, &[Value]) -> Result<Vec<Value>, String>,
}

fn array_param(name: &str) -> ParamDesc {
    ParamDesc {
        name: name.into(),
        desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
    }
}

fn scalar_param(name: &str, kind: ScalarKind) -> ParamDesc {
    ParamDesc {
        name: name.into(),
        desc: TypeDesc::Scalar(kind),
    }
}

/// The configuration every workload starts from, with each knob that an
/// environment variable or CPU detection could otherwise pick set here.
fn base_config(workload: Workload) -> EngineConfig {
    let config = EngineConfig::default()
        .with_wire_format(workload.lane())
        .with_server_core(workload.core())
        .with_store_mode(StoreMode::Shared)
        .with_kernel(KernelPolicy::Auto)
        .with_float(FloatFormatter::Fast);
    if workload.streamed() {
        // The overlay's shift-free operating point. With exact widths the
        // reused window fragment keeps widening for hundreds of calls, so
        // the request length — and with it the server's choice between a
        // full and a differential parse — drifts through a run.
        config.with_width(WidthPolicy::Max)
    } else {
        config
    }
}

/// Elements of `store_churn` operation `i`: a geometric ladder from
/// [`CHURN_MIN_LEN`] to [`CHURN_MAX_LEN`], scrambled so that size and
/// popularity are unrelated.
pub fn churn_len(i: usize) -> usize {
    let step = (i * 97) % CHURN_OPS;
    let ratio = (CHURN_MAX_LEN / CHURN_MIN_LEN) as f64;
    (CHURN_MIN_LEN as f64 * ratio.powf(step as f64 / (CHURN_OPS - 1) as f64)).round() as usize
}

impl Spec {
    /// The workload's specification and its seeded input generator.
    pub fn new(workload: Workload, seed: u64) -> (Spec, Inputs) {
        let ns = workload.namespace();
        let mut rng = Rng::new(seed);
        let base = base_config(workload);
        let mut server_config = base.with_server_workers(1);
        if workload.core() == ServerCore::EventLoop {
            server_config = server_config.with_event_loop(1);
        }
        let mut spec = Spec {
            workload,
            ops: Vec::new(),
            response_params: vec![scalar_param("checksum", ScalarKind::Long)],
            client_config: base,
            server_config,
            server_store_budget: None,
            respond,
        };
        let mut state = State::Arrays {
            zipf_cdf: Vec::new(),
        };
        let args = match workload {
            Workload::SmallRpc => {
                let mut params = vec![
                    scalar_param("id", ScalarKind::Int),
                    scalar_param("query", ScalarKind::Str),
                ];
                params.extend(
                    SMALL_DOUBLES
                        .iter()
                        .map(|n| scalar_param(n, ScalarKind::Double)),
                );
                spec.ops = vec![OpDesc::new("query", ns, params)];
                spec.response_params = vec![
                    ParamDesc {
                        name: "ids".into(),
                        desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Int)),
                    },
                    array_param("scores"),
                ];
                let queries: Vec<String> = (0..SMALL_QUERIES).map(|_| phrase(&mut rng)).collect();
                let mut args = vec![Value::Int(0), Value::Str(queries[0].clone())];
                args.extend(
                    (0..SMALL_DOUBLES.len()).map(|_| Value::Double(varied_double(&mut rng))),
                );
                state = State::Small { queries };
                vec![args]
            }
            Workload::ArrayUpdate | Workload::BulkStream => {
                let (name, len) = if workload == Workload::ArrayUpdate {
                    ("update", ARRAY_UPDATE_LEN)
                } else {
                    ("ingest", BULK_LEN)
                };
                spec.ops = vec![OpDesc::new(name, ns, vec![array_param("xs")])];
                let xs = (0..len).map(|_| varied_double(&mut rng)).collect();
                vec![vec![Value::DoubleArray(xs)]]
            }
            Workload::StoreChurn => {
                spec.ops = (0..CHURN_OPS)
                    .map(|i| OpDesc::new(&format!("op{i:03}"), ns, vec![array_param("xs")]))
                    .collect();
                let args: Vec<Vec<Value>> = (0..CHURN_OPS)
                    .map(|i| {
                        let xs = (0..churn_len(i)).map(|_| varied_double(&mut rng)).collect();
                        vec![Value::DoubleArray(xs)]
                    })
                    .collect();
                // Zipf(1) popularity over operation index.
                let weights: Vec<f64> = (0..CHURN_OPS).map(|r| 1.0 / (r as f64 + 1.0)).collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                let zipf_cdf = weights
                    .iter()
                    .map(|w| {
                        acc += w / total;
                        acc
                    })
                    .collect();
                state = State::Arrays { zipf_cdf };
                // Each store holds about a quarter of its working set.
                let frame = |op: &OpDesc, a: &[Value]| {
                    MessageTemplate::build(base, op, a)
                        .expect("store_churn request template")
                        .message_len()
                };
                let requests: usize = spec.ops.iter().zip(&args).map(|(op, a)| frame(op, a)).sum();
                spec.client_config = base.with_store_budget(requests / 4);
                let responses: usize = spec
                    .ops
                    .iter()
                    .map(|op| frame(&spec.response_desc_for(op), &[Value::Long(i64::MAX)]))
                    .sum();
                spec.server_store_budget = Some(responses / 4);
                args
            }
        };
        let inputs = Inputs {
            workload,
            rng,
            args,
            state,
        };
        (spec, inputs)
    }

    fn response_desc_for(&self, op: &OpDesc) -> OpDesc {
        OpDesc::new(
            &format!("{}Response", op.name),
            &op.namespace,
            self.response_params.clone(),
        )
    }

    /// The response descriptor of operation `op`.
    pub fn response_desc(&self, op: usize) -> OpDesc {
        self.response_desc_for(&self.ops[op])
    }

    /// The endpoint URL the client keys its templates by.
    pub fn endpoint(&self) -> String {
        format!("http://127.0.0.1/{}", self.workload.name())
    }

    /// `SOAPAction` of operation `op`.
    pub fn action(&self, op: usize) -> String {
        format!("{}#{}", self.ops[op].namespace, self.ops[op].name)
    }

    /// A fresh service for this workload. Its handlers record a
    /// `server.handler` span into `spans` while tracing is on.
    pub fn service(&self, spans: &Arc<HandlerSpans>) -> Service {
        let mut svc = Service::new(self.workload.namespace(), self.server_config);
        if let Some(budget) = self.server_store_budget {
            svc.set_template_store(TemplateStore::shared(budget, 0), 0);
        }
        for op in &self.ops {
            let spans = Arc::clone(spans);
            let (workload, respond) = (self.workload, self.respond);
            svc.register(op.clone(), self.response_params.clone(), move |args| {
                let start = spans.begin();
                let out = respond(workload, args);
                spans.end(start, args);
                out
            });
        }
        svc
    }
}

/// A phrase of seeded words, 10 to 25 words long: the `small_rpc` query.
fn phrase(rng: &mut Rng) -> String {
    const WORDS: [&str; 16] = [
        "grid", "service", "latency", "mesh", "solver", "flux", "kernel", "tensor", "orbit",
        "plasma", "cluster", "storage", "climate", "genome", "seismic", "lattice",
    ];
    let words = 10 + rng.index(16);
    (0..words)
        .map(|_| WORDS[rng.index(WORDS.len())])
        .collect::<Vec<_>>()
        .join(" ")
}

#[derive(Clone, Debug)]
enum State {
    Small { queries: Vec<String> },
    Arrays { zipf_cdf: Vec<f64> },
}

/// The seeded request stream of one workload. Arguments are kept and
/// mutated in place, so a call costs the generator only what changes.
#[derive(Clone, Debug)]
pub struct Inputs {
    workload: Workload,
    rng: Rng,
    /// Current arguments per operation.
    args: Vec<Vec<Value>>,
    state: State,
}

/// One generated call.
pub struct Call<'a> {
    pub op: usize,
    pub args: &'a [Value],
}

impl Inputs {
    /// The arguments of call number `seq` (numbered from 1).
    pub fn next(&mut self, seq: u64) -> Call<'_> {
        let rng = &mut self.rng;
        let op = match &self.state {
            State::Small { queries } => {
                let args = &mut self.args[0];
                args[0] = Value::Int(seq as i32);
                // One more field changes: the query a quarter of the time,
                // otherwise one of the doubles.
                if rng.below(4) == 0 {
                    args[1] = Value::Str(queries[rng.index(queries.len())].clone());
                } else {
                    let i = 2 + rng.index(SMALL_DOUBLES.len());
                    args[i] = Value::Double(varied_double(rng));
                }
                0
            }
            State::Arrays { zipf_cdf } => {
                let op = if zipf_cdf.is_empty() {
                    0
                } else {
                    let u = rng.unit();
                    zipf_cdf.partition_point(|&c| c < u).min(zipf_cdf.len() - 1)
                };
                let Value::DoubleArray(xs) = &mut self.args[op][0] else {
                    unreachable!("array workloads hold one double array per operation")
                };
                xs[0] = seq as f64;
                let changes = match self.workload {
                    Workload::ArrayUpdate => xs.len() / 50,
                    _ => (xs.len() / 100).max(1),
                };
                for _ in 0..changes {
                    let i = 1 + rng.index(xs.len() - 1);
                    xs[i] = varied_double(rng);
                }
                op
            }
        };
        Call {
            op,
            args: &self.args[op],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            let run = |seed| {
                let (_, mut inputs) = Spec::new(w, seed);
                (1..=20)
                    .map(|seq| {
                        let c = inputs.next(seq);
                        (c.op, c.args.to_vec())
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(run(7), run(7), "{}", w.name());
            assert_ne!(run(7), run(8), "{}", w.name());
        }
    }

    #[test]
    fn every_request_carries_its_sequence_number() {
        for w in Workload::ALL {
            let (_, mut inputs) = Spec::new(w, 3);
            for seq in [1u64, 2, 99] {
                assert_eq!(seq_of(inputs.next(seq).args), Some(seq), "{}", w.name());
            }
        }
    }

    #[test]
    fn churn_sizes_span_the_ladder() {
        let lens: Vec<usize> = (0..CHURN_OPS).map(churn_len).collect();
        assert_eq!(*lens.iter().min().unwrap(), CHURN_MIN_LEN);
        assert_eq!(*lens.iter().max().unwrap(), CHURN_MAX_LEN);
    }

    #[test]
    fn store_churn_budget_is_a_quarter_of_the_working_set() {
        let (spec, _) = Spec::new(Workload::StoreChurn, 1);
        let budget = spec.client_config.store_budget_bytes;
        let lens: usize = (0..CHURN_OPS).map(churn_len).sum();
        // Nine bytes per binary double, plus framing per message.
        assert!(budget > lens * 9 / 4 && budget < lens * 10 / 4, "{budget}");
        assert!(spec.server_store_budget.unwrap() > 0);
    }

    #[test]
    fn configs_are_explicit() {
        for w in Workload::ALL {
            let (spec, _) = Spec::new(w, 1);
            for c in [spec.client_config, spec.server_config] {
                assert_eq!(c.wire_format, w.lane());
                assert_eq!(c.server_core, w.core());
                assert_eq!(c.store_mode, StoreMode::Shared);
                assert_eq!(c.kernel, KernelPolicy::Auto);
                assert_eq!(c.float, FloatFormatter::Fast);
            }
            assert_eq!(spec.server_config.server_workers, 1);
        }
    }
}
