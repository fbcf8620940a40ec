//! One client, one keep-alive connection, one server, in this process.
//!
//! The call path is the one `bsoap::rpc::RpcClient` is built from —
//! `Client::call_via` into `TcpTransport::send_message`, the `Negotiator`,
//! `read_response_headers_limited`, then `parse_envelope` or
//! `parse_binary_envelope` — except on the streamed lane, where
//! `Client::call_overlaid_via` feeds `HttpPoolClient::post_streamed`.
//! The rig never retries: a failed, refused or repeated exchange is an
//! error of the call.

use crate::placement::{on_cpu, Placement};
use crate::trace::{HandlerSpans, Probe};
use crate::workload::Spec;
use bsoap_core::{Client, EngineError, OpDesc, SendTier, Value, WireFormat};
use bsoap_deser::{parse_binary_envelope, parse_envelope, DeserError};
use bsoap_obs::{Counter, Metrics};
use bsoap_server::{HttpServer, ServiceStats};
use bsoap_transport::http::{read_response_headers_limited, HttpVersion, RequestConfig};
use bsoap_transport::negotiate::{HDR_FORMAT_LOWER, TOKEN_BINARY};
use bsoap_transport::tcp::Framing;
use bsoap_transport::{HttpPoolClient, Negotiator, PoolConfig, TcpTransport, Transport};
use std::fmt;
use std::io::{self, IoSlice, Read};
use std::sync::Arc;

/// Why a call failed. Every variant counts toward `error_ratio`.
#[derive(Debug)]
pub enum CallError {
    Send(EngineError),
    Io(io::Error),
    Status(u16),
    Decode(DeserError),
    /// The decoded response differs from the value the benchmark predicted.
    Wrong {
        seq: u64,
    },
    /// The streamed lane sent a request without any overlay portion.
    NoPortions,
    /// The pooled client replayed the request on another connection.
    Retried,
    /// The benchmark could not predict the answer to its own request.
    Predict(String),
}

impl fmt::Display for CallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallError::Send(e) => write!(f, "send failed: {e}"),
            CallError::Io(e) => write!(f, "response I/O failed: {e}"),
            CallError::Status(s) => write!(f, "server answered HTTP {s}"),
            CallError::Decode(e) => write!(f, "response decode failed: {e}"),
            CallError::Wrong { seq } => write!(f, "call {seq}: wrong response value"),
            CallError::NoPortions => write!(f, "streamed call sent no overlay portion"),
            CallError::Retried => write!(f, "request was silently retried"),
            CallError::Predict(e) => write!(f, "cannot predict response: {e}"),
        }
    }
}

/// What the engine reported about one send.
#[derive(Clone, Copy, Debug, Default)]
pub struct SendCounts {
    pub first_time: bool,
    pub values_written: u64,
    pub shifts: u64,
    pub steals: u64,
    pub fell_back: bool,
    /// Overlay portions (streamed lane).
    pub portions: u64,
    /// Overlay window bytes (streamed lane).
    pub window_bytes: u64,
}

/// One completed exchange.
#[derive(Debug)]
pub struct Sent {
    pub values: Vec<Value>,
    /// Request bytes on the wire: HTTP head, chunk framing and payload.
    pub request_bytes: u64,
    /// Response bytes read by the client (0 on the streamed lane, whose
    /// reader is inside the pooled client; the server counts those).
    pub response_bytes: u64,
    /// The lane the request body took.
    pub format: WireFormat,
    pub counts: SendCounts,
}

/// Totals the rig checks against the server when it stops.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Calls made on this rig (set-up warm-up included).
    pub calls: u64,
    /// Response bytes the client read.
    pub client_response_bytes: u64,
}

/// Final counts of a stopped rig.
#[derive(Clone, Copy, Debug)]
pub struct Closing {
    pub totals: Totals,
    /// Sum of the client's tier counts.
    pub client_calls: u64,
    pub server: ServiceStats,
    /// Response bytes the server wrote.
    pub server_bytes_out: u64,
    pub streamed: bool,
}

impl Closing {
    /// Every mismatch between what the client sent and what the server
    /// saw. Empty when the run reconciles.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        let calls = self.totals.calls;
        if self.client_calls != calls {
            out.push(format!(
                "client tier counts sum to {} but {calls} calls were made",
                self.client_calls
            ));
        }
        if self.server.requests != calls {
            out.push(format!(
                "server dispatched {} requests but {calls} calls were made",
                self.server.requests
            ));
        }
        if !self.streamed && self.totals.client_response_bytes != self.server_bytes_out {
            out.push(format!(
                "client read {} response bytes but the server wrote {}",
                self.totals.client_response_bytes, self.server_bytes_out
            ));
        }
        out
    }
}

enum Lane {
    Buffered {
        transport: TcpTransport,
        negotiator: Negotiator,
    },
    Streamed {
        http: Box<HttpPoolClient>,
    },
}

/// A running client/server pair for one workload.
pub struct Rig<'s> {
    spec: &'s Spec,
    server: HttpServer,
    server_metrics: Arc<Metrics>,
    client: Client,
    lane: Lane,
    endpoint: String,
    actions: Vec<String>,
    response_descs: Vec<OpDesc>,
    totals: Totals,
}

/// Counts bytes read through it.
struct Counting<R> {
    inner: R,
    bytes: u64,
}

impl<R: Read> Read for Counting<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

fn engine_to_io(e: EngineError) -> io::Error {
    match e {
        EngineError::Io(e) => e,
        other => io::Error::other(other.to_string()),
    }
}

impl<'s> Rig<'s> {
    /// Spawn the server from a thread pinned to the server CPU, then
    /// connect. `client_metrics` attaches an observability registry to
    /// the client (traced runs read the template store's counters there).
    pub fn start(
        spec: &'s Spec,
        placement: Placement,
        spans: &Arc<HandlerSpans>,
        client_metrics: Option<Arc<Metrics>>,
    ) -> io::Result<Rig<'s>> {
        let service = spec.service(spans);
        let server_metrics = Arc::new(Metrics::new());
        let sm = Arc::clone(&server_metrics);
        let server = on_cpu(placement.server_cpu, move || {
            HttpServer::spawn_with_metrics(service, sm)
        })?;
        let addr = server.addr();
        let request = RequestConfig {
            path: "/".to_owned(),
            host: addr.ip().to_string(),
            soap_action: spec.action(0),
            version: HttpVersion::Http11Length,
            extra_headers: Vec::new(),
        };
        // The engine's base lane is XML; the negotiator upgrades the
        // endpoint once the server adverts the binary lane back.
        let negotiator =
            Negotiator::new(spec.client_config.wire_format == WireFormat::CompactBinary);
        let lane = if spec.workload.streamed() {
            let cfg = RequestConfig {
                extra_headers: negotiator.request_headers(),
                ..request
            };
            let pool = PoolConfig {
                max_idle: 1,
                max_live: Some(1),
                ..PoolConfig::default()
            };
            Lane::Streamed {
                http: Box::new(HttpPoolClient::new(addr, cfg, pool)),
            }
        } else {
            Lane::Buffered {
                transport: TcpTransport::connect(addr, Framing::Http(request))?,
                negotiator,
            }
        };
        let mut client = Client::new(spec.client_config.with_wire_format(WireFormat::SoapXml));
        if let Some(m) = client_metrics {
            client.set_metrics(m);
        }
        Ok(Rig {
            spec,
            server,
            server_metrics,
            client,
            lane,
            endpoint: spec.endpoint(),
            actions: (0..spec.ops.len()).map(|i| spec.action(i)).collect(),
            response_descs: (0..spec.ops.len()).map(|i| spec.response_desc(i)).collect(),
            totals: Totals::default(),
        })
    }

    pub fn server_stats(&self) -> ServiceStats {
        self.server.stats()
    }

    /// Make one call of operation `op` and decode its response. The
    /// probe records the layer timestamps when it is on.
    pub fn call(
        &mut self,
        op: usize,
        args: &[Value],
        probe: &mut Probe,
    ) -> Result<Sent, CallError> {
        self.totals.calls += 1;
        let desc = &self.spec.ops[op];
        let endpoint = self.endpoint.as_str();
        let client = &mut self.client;
        let (values, request_bytes, response_bytes, format, counts) = match &mut self.lane {
            Lane::Buffered {
                transport,
                negotiator,
            } => {
                let t0 = probe.stamp();
                let format = if negotiator.body_token() == TOKEN_BINARY {
                    WireFormat::CompactBinary
                } else {
                    WireFormat::SoapXml
                };
                client.set_endpoint_format(endpoint, format);
                transport.set_soap_action(&self.actions[op]);
                transport.set_extra_headers(negotiator.request_headers());
                let mut request_bytes = 0;
                let report = client
                    .call_via(endpoint, desc, args, |slices| {
                        let start = probe.stamp();
                        let n = transport.send_message(slices)?;
                        if probe.on {
                            probe.writes.push((start, probe.stamp()));
                        }
                        capture(probe, slices);
                        request_bytes = n as u64;
                        Ok(n)
                    })
                    .map_err(CallError::Send)?;
                let t1 = probe.stamp();
                let mut counted = Counting {
                    inner: transport.stream(),
                    bytes: 0,
                };
                let (status, headers, body) =
                    read_response_headers_limited(&mut counted, usize::MAX, usize::MAX)
                        .map_err(CallError::Io)?;
                let response_bytes = counted.bytes;
                self.totals.client_response_bytes += response_bytes;
                let t2 = probe.stamp();
                if status != 200 {
                    return Err(CallError::Status(status));
                }
                negotiator.observe_response(&headers);
                let binary = headers
                    .iter()
                    .any(|(n, v)| n == HDR_FORMAT_LOWER && v.eq_ignore_ascii_case(TOKEN_BINARY));
                let desc = &self.response_descs[op];
                let values = if binary {
                    parse_binary_envelope(&body, desc)
                } else {
                    parse_envelope(&body, desc)
                }
                .map_err(CallError::Decode)?;
                let t3 = probe.stamp();
                probe.call = (t0, t3);
                probe.send = (t0, t1);
                probe.read = (t1, t2);
                probe.deser = (t2, t3);
                let counts = SendCounts {
                    first_time: report.tier == SendTier::FirstTime,
                    values_written: report.values_written as u64,
                    shifts: report.shifts as u64,
                    steals: report.steals as u64,
                    fell_back: report.fell_back,
                    portions: 0,
                    window_bytes: 0,
                };
                (values, request_bytes, response_bytes, format, counts)
            }
            Lane::Streamed { http } => {
                let t0 = probe.stamp();
                let mut attempts = 0u32;
                let mut send = (0, 0);
                let (reply, report) = http
                    .post_streamed(|writer| {
                        attempts += 1;
                        let start = probe.stamp();
                        let report = client
                            .call_overlaid_via(endpoint, desc, args, |slices| {
                                let ws = probe.stamp();
                                let n = writer.write_portion(slices)?;
                                if probe.on {
                                    probe.writes.push((ws, probe.stamp()));
                                }
                                capture(probe, slices);
                                Ok(n)
                            })
                            .map_err(engine_to_io)?;
                        send = (start, probe.stamp());
                        Ok(report)
                    })
                    .map_err(CallError::Io)?;
                let t2 = probe.stamp();
                if attempts != 1 {
                    return Err(CallError::Retried);
                }
                if reply.status != 200 {
                    return Err(CallError::Status(reply.status));
                }
                if report.portions == 0 {
                    return Err(CallError::NoPortions);
                }
                let values = parse_envelope(&reply.body, &self.response_descs[op])
                    .map_err(CallError::Decode)?;
                let t3 = probe.stamp();
                probe.call = (t0, t3);
                probe.open = Some((t0, send.0));
                probe.send = send;
                probe.read = (send.1, t2);
                probe.deser = (t2, t3);
                let counts = SendCounts {
                    first_time: report.tier == SendTier::FirstTime,
                    values_written: report.values_written as u64,
                    shifts: 0,
                    steals: 0,
                    fell_back: false,
                    portions: report.portions as u64,
                    window_bytes: report.window_bytes as u64,
                };
                (
                    values,
                    reply.wire_bytes as u64,
                    0,
                    WireFormat::SoapXml,
                    counts,
                )
            }
        };
        Ok(Sent {
            values,
            request_bytes,
            response_bytes,
            format,
            counts,
        })
    }

    /// Stop the server (draining it) and collect the final counts.
    pub fn stop(self) -> Closing {
        let streamed = matches!(self.lane, Lane::Streamed { .. });
        let client_calls = self.client.stats().calls();
        // Close the client's connection first so the server drains at once.
        drop(self.lane);
        let server = self.server.stop();
        Closing {
            totals: self.totals,
            client_calls,
            server,
            server_bytes_out: self.server_metrics.snapshot().get(Counter::ServerBytesOut),
            streamed,
        }
    }
}

/// Copy the request payload for the replay, timing the copy so it can be
/// taken out of `core.send`.
fn capture(probe: &mut Probe, slices: &[IoSlice<'_>]) {
    if !probe.capture {
        return;
    }
    let start = probe.stamp();
    for s in slices {
        probe.body.extend_from_slice(s);
    }
    probe.captures.push((start, probe.stamp()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closing(calls: u64, client: u64, server: u64, resp: (u64, u64)) -> Closing {
        Closing {
            totals: Totals {
                calls,
                client_response_bytes: resp.0,
            },
            client_calls: client,
            server: ServiceStats {
                requests: server,
                ..ServiceStats::default()
            },
            server_bytes_out: resp.1,
            streamed: false,
        }
    }

    #[test]
    fn matching_counts_reconcile() {
        assert!(closing(10, 10, 10, (500, 500)).problems().is_empty());
    }

    #[test]
    fn a_dropped_request_is_caught() {
        let p = closing(10, 10, 9, (500, 500)).problems();
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(p[0].contains("server dispatched 9"));
    }

    #[test]
    fn tier_counts_and_bytes_must_agree() {
        let p = closing(10, 11, 10, (500, 499)).problems();
        assert_eq!(p.len(), 2, "{p:?}");
    }
}
