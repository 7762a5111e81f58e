//! A hand-rolled non-blocking TCP reactor over the wire protocol
//! (DESIGN.md §15) — zero external deps, `std::net` only.
//!
//! One [`NetServer`] owns a [`TranslationService`] and a listener. The
//! reactor thread accepts connections (bounded by
//! [`NetConfig::max_connections`]), reads frames into per-connection
//! buffers, and feeds verified requests into a
//! [`crate::service::SessionPool`] — so admission control, shed-oldest
//! backpressure, single-flight memoization, and the per-tenant
//! bit-identity invariant are exactly the in-process service's, with the
//! socket layer purely a transport in front of them.
//!
//! Degradation story, per the trust model in [`crate::wire`]:
//!
//! * a malformed or checksum-damaged frame costs *that frame* — the
//!   reject is counted ([`veal_obs::Event::FrameReject`]) and the
//!   connection keeps its place in the stream;
//! * an unresynchronizable stream (oversized length claim) or a broken
//!   hello costs *that connection* — never the server;
//! * a module payload is untrusted until `veal_vm::decode_module` re-runs
//!   the full verification gauntlet; a graph that fails it earns a typed
//!   [`ErrorCode::Malformed`] response instead of a session invocation.
//!
//! Graceful shutdown ([`WireFrame::Shutdown`]) drains every admitted
//! request, flushes every response, writes the final snapshot through the
//! service's [`crate::CheckpointPolicy`] (when attached), and acknowledges
//! with [`WireFrame::Bye`] before the accept loop exits.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use veal_ir::LoopBody;
use veal_obs::{metrics, Counter, Event};
use veal_vm::{
    decode_module, decode_translated_loop, encode_module, encode_translated_loop, BinaryModule,
    EncodedLoop, StaticHints, TranslatedLoop,
};

use crate::service::{ServeStats, TenantReport, TranslationService};
use crate::wire::{
    decode_frame, encode_frame, ErrorCode, FrameStatus, WireFrame, MAX_FRAME_LEN, WIRE_VERSION,
};
use std::sync::Arc;

/// Process-global network meters.
struct NetMeters {
    accepted: &'static Counter,
    frames: &'static Counter,
    decode_rejects: &'static Counter,
    responses: &'static Counter,
    idle_evicted: &'static Counter,
}

fn meters() -> &'static NetMeters {
    static M: OnceLock<NetMeters> = OnceLock::new();
    M.get_or_init(|| NetMeters {
        accepted: metrics::counter("serve.net.accepted"),
        frames: metrics::counter("serve.net.frames"),
        decode_rejects: metrics::counter("serve.net.decode_rejects"),
        responses: metrics::counter("serve.net.responses"),
        idle_evicted: metrics::counter("serve.net.idle_evicted"),
    })
}

/// Reactor configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Listen address (`"127.0.0.1:0"` binds an ephemeral port).
    pub addr: String,
    /// Idle deadline: a connection with no inbound bytes and no pending
    /// work for this long is evicted.
    pub idle_timeout: Duration,
    /// Accept cap; connections beyond it get [`ErrorCode::Overloaded`]
    /// and an immediate close.
    pub max_connections: usize,
    /// Per-connection cap on admitted-but-unanswered requests. A
    /// connection at the cap is not refused but held back: the reactor
    /// stops decoding its frames, leaves the rest buffered and stops
    /// reading its socket, so TCP flow control slows the client, and
    /// picks the connection up again on the next pass, once the drain has
    /// answered its requests.
    pub max_inflight: usize,
    /// Per-frame length cap (see [`crate::wire::MAX_FRAME_LEN`]).
    pub max_frame_len: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: "127.0.0.1:0".into(),
            idle_timeout: Duration::from_secs(30),
            max_connections: 64,
            max_inflight: 64,
            max_frame_len: MAX_FRAME_LEN,
        }
    }
}

/// Counters of one [`NetServer::run`].
#[derive(Debug, Default)]
pub struct NetReport {
    /// Connections accepted.
    pub accepted: u64,
    /// Well-formed frames processed (any tag).
    pub frames: u64,
    /// Frames rejected at decode (checksum, tag, payload, module
    /// verification) without killing their connection.
    pub decode_rejects: u64,
    /// Response frames written (outcomes and typed errors).
    pub responses: u64,
    /// Connections evicted at the idle deadline.
    pub idle_evicted: u64,
    /// Connections closed for unresynchronizable streams or broken hellos.
    pub fatal_closes: u64,
    /// Pool-level serving counters (offered / shed / batches / checkpoint
    /// counters from the shutdown snapshot).
    pub stats: ServeStats,
    /// Per-tenant session reports (the bit-identity surface).
    pub tenants: Vec<TenantReport>,
}

/// One client connection's reactor state.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Dense tenant index, set by a valid hello.
    tenant: Option<usize>,
    /// Well-formed frames received over the connection's lifetime.
    frames: u64,
    /// Tokens admitted and not yet answered.
    inflight: usize,
    /// Bytes wait in `rbuf` because `inflight` reached the cap; the socket
    /// is not read until they are decoded.
    held: bool,
    last_activity: Instant,
    /// Close once `wbuf` flushes.
    closing: bool,
}

impl Conn {
    fn push_frame(&mut self, frame: &WireFrame) {
        self.wbuf.extend_from_slice(&encode_frame(frame));
    }
}

/// Loops the server has already verified, keyed by
/// `(loop content hash, hints fingerprint)` — the lookup table behind the
/// body-less [`WireFrame::ReqHash`] fast path.
type BodyRegistry = HashMap<(u64, u64), (Arc<LoopBody>, Arc<StaticHints>)>;

/// Packs a connection slot and a client sequence number into the pool
/// token ([`crate::service::RequestOutcome::seq`]) for response routing.
///
/// Packed through `u64` so the shift is well-defined regardless of the
/// platform's `usize` width; on a 32-bit target a token that cannot be
/// represented fails loudly instead of silently routing the response to
/// connection slot 0.
fn pack_token(slot: usize, seq: u32) -> usize {
    let packed = ((slot as u64) << 32) | u64::from(seq);
    debug_assert_eq!(packed >> 32, slot as u64, "connection slot fits the token");
    usize::try_from(packed).expect("pool token fits usize")
}

fn unpack_token(token: usize) -> (usize, u32) {
    let token = token as u64;
    ((token >> 32) as usize, (token & 0xFFFF_FFFF) as u32)
}

/// The TCP server: a [`TranslationService`] behind the wire protocol.
pub struct NetServer {
    service: TranslationService,
    listener: TcpListener,
    config: NetConfig,
}

impl NetServer {
    /// Binds the listener (non-blocking) and wraps the service.
    ///
    /// # Errors
    ///
    /// Any socket error from bind or the non-blocking switch.
    pub fn bind(service: TranslationService, config: NetConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        Ok(NetServer {
            service,
            listener,
            config,
        })
    }

    /// The bound address (the ephemeral port, when `addr` asked for `:0`).
    ///
    /// # Errors
    ///
    /// Any socket error from `local_addr`.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the reactor until a client sends [`WireFrame::Shutdown`]:
    /// accept, read, decode, admit, drain, respond, flush, evict — one
    /// thread, non-blocking sockets, a short sleep when nothing moves.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn run(self) -> NetReport {
        let NetServer {
            service,
            listener,
            config,
        } = self;
        let translator_family_fp = service.config().family.as_ref().map(|f| f.fingerprint());
        let mut pool = service.session_pool(0);
        let mut report = NetReport::default();
        let mut conns: Vec<Option<Conn>> = Vec::new();
        let mut bodies = BodyRegistry::new();
        let mut shutdown_conn: Option<usize> = None;

        loop {
            let mut progressed = false;

            // Accept, unless shutting down.
            if shutdown_conn.is_none() {
                loop {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            progressed = true;
                            let open = conns.iter().filter(|c| c.is_some()).count();
                            if open >= config.max_connections.max(1) {
                                // Over the cap: a best-effort typed error,
                                // then the connection is gone.
                                let mut stream = stream;
                                let _ = stream.write_all(&encode_frame(&WireFrame::Error {
                                    seq: u32::MAX,
                                    code: ErrorCode::Overloaded,
                                    message: "connection cap reached".into(),
                                }));
                                report.fatal_closes += 1;
                                continue;
                            }
                            if stream.set_nonblocking(true).is_err() {
                                report.fatal_closes += 1;
                                continue;
                            }
                            let conn = Conn {
                                stream,
                                rbuf: Vec::new(),
                                wbuf: Vec::new(),
                                tenant: None,
                                frames: 0,
                                inflight: 0,
                                held: false,
                                last_activity: Instant::now(),
                                closing: false,
                            };
                            let slot =
                                conns.iter().position(Option::is_none).unwrap_or_else(|| {
                                    conns.push(None);
                                    conns.len() - 1
                                });
                            conns[slot] = Some(conn);
                            report.accepted += 1;
                            meters().accepted.inc();
                            service
                                .trace()
                                .emit(|| Event::ConnOpen { conn: slot as u64 });
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => break,
                    }
                }
            }

            // Read and decode every connection's inbound bytes.
            let mut admitted_any = false;
            for (slot, entry) in conns.iter_mut().enumerate() {
                let Some(conn) = entry.as_mut() else {
                    continue;
                };
                if conn.closing {
                    continue;
                }
                let mut closed_by_peer = false;
                let mut chunk = [0u8; 16 * 1024];
                while !conn.held {
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => {
                            closed_by_peer = true;
                            break;
                        }
                        Ok(n) => {
                            conn.rbuf.extend_from_slice(&chunk[..n]);
                            conn.last_activity = Instant::now();
                            progressed = true;
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            closed_by_peer = true;
                            break;
                        }
                    }
                }

                // Decode buffered frames until the in-flight cap. Each frame
                // admits at most one request, so none meets a full cap; the
                // rest wait for the next pass, which follows without the
                // idle sleep because this pass's drain answers the
                // connection's requests.
                let mut fatal = false;
                let mut at = 0usize;
                loop {
                    conn.held = conn.inflight >= config.max_inflight.max(1);
                    if conn.held {
                        break;
                    }
                    match decode_frame(&conn.rbuf[at..], config.max_frame_len) {
                        FrameStatus::Incomplete => break,
                        FrameStatus::Fatal { reason } => {
                            service.trace().emit(|| Event::FrameReject {
                                conn: slot as u64,
                                reason: reason.clone(),
                            });
                            report.decode_rejects += 1;
                            meters().decode_rejects.inc();
                            fatal = true;
                            break;
                        }
                        FrameStatus::Reject { reason, consumed } => {
                            at += consumed;
                            report.decode_rejects += 1;
                            meters().decode_rejects.inc();
                            service.trace().emit(|| Event::FrameReject {
                                conn: slot as u64,
                                reason: reason.clone(),
                            });
                        }
                        FrameStatus::Frame { frame, consumed } => {
                            at += consumed;
                            conn.frames += 1;
                            report.frames += 1;
                            meters().frames.inc();
                            match Self::handle_frame(
                                frame,
                                slot,
                                conn,
                                &mut pool,
                                &mut bodies,
                                &mut report,
                                translator_family_fp,
                            ) {
                                Handled::Ok => admitted_any = true,
                                Handled::Quiet => {}
                                Handled::CloseConn => {
                                    conn.closing = true;
                                }
                                Handled::Shutdown => {
                                    shutdown_conn = Some(slot);
                                }
                            }
                        }
                    }
                }
                conn.rbuf.drain(..at);
                conn.held &= !conn.rbuf.is_empty();

                if fatal || closed_by_peer {
                    let frames = conn.frames;
                    if fatal {
                        report.fatal_closes += 1;
                    }
                    service.trace().emit(|| Event::ConnClose {
                        conn: slot as u64,
                        frames,
                    });
                    *entry = None;
                }
            }

            // Drain the pool and route outcomes back to their sockets.
            if admitted_any || shutdown_conn.is_some() {
                pool.drain();
                let tenant_count = conns
                    .iter()
                    .flatten()
                    .filter_map(|c| c.tenant)
                    .max()
                    .map_or(0, |t| t + 1);
                for tenant in 0..tenant_count {
                    for outcome in pool.take_outcomes(tenant) {
                        let (slot, seq) = unpack_token(outcome.seq);
                        let translated = outcome
                            .translated
                            .as_deref()
                            .map(encode_translated_loop)
                            .transpose();
                        let frame = match translated {
                            Ok(bytes) => WireFrame::Outcome {
                                seq,
                                key: outcome.key,
                                translation_cycles: outcome.translation_cycles,
                                translated: bytes,
                            },
                            Err(e) => WireFrame::Error {
                                seq,
                                code: ErrorCode::Malformed,
                                message: format!("response encode failed: {e}"),
                            },
                        };
                        if let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) {
                            conn.inflight = conn.inflight.saturating_sub(1);
                            conn.push_frame(&frame);
                            report.responses += 1;
                            meters().responses.inc();
                        }
                        progressed = true;
                    }
                }
            }

            // Flush write buffers (non-blocking, partial writes kept).
            for (slot, entry) in conns.iter_mut().enumerate() {
                let Some(conn) = entry.as_mut() else {
                    continue;
                };
                while !conn.wbuf.is_empty() {
                    match conn.stream.write(&conn.wbuf) {
                        Ok(0) => break,
                        Ok(n) => {
                            conn.wbuf.drain(..n);
                            progressed = true;
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            conn.closing = true;
                            conn.wbuf.clear();
                            break;
                        }
                    }
                }
                if conn.closing && conn.wbuf.is_empty() {
                    let frames = conn.frames;
                    service.trace().emit(|| Event::ConnClose {
                        conn: slot as u64,
                        frames,
                    });
                    *entry = None;
                }
            }

            // Idle eviction: no bytes and no pending work past the deadline.
            for (slot, entry) in conns.iter_mut().enumerate() {
                let evict = entry.as_ref().is_some_and(|c| {
                    c.inflight == 0
                        && !c.held
                        && c.wbuf.is_empty()
                        && c.last_activity.elapsed() >= config.idle_timeout
                });
                if evict {
                    let frames = entry.as_ref().map_or(0, |c| c.frames);
                    report.idle_evicted += 1;
                    meters().idle_evicted.inc();
                    service.trace().emit(|| Event::ConnClose {
                        conn: slot as u64,
                        frames,
                    });
                    *entry = None;
                }
            }

            // Graceful shutdown: everything drained and flushed — final
            // checkpoint, acknowledge, exit.
            if let Some(ack_slot) = shutdown_conn {
                let quiescent = conns
                    .iter()
                    .flatten()
                    .all(|c| c.inflight == 0 && !c.held && c.wbuf.is_empty());
                if quiescent {
                    let mut stats = *pool.stats();
                    if let Some(policy) = service.checkpoint_policy() {
                        service.write_checkpoint(policy, &mut stats);
                    }
                    if let Some(conn) = conns.get_mut(ack_slot).and_then(Option::as_mut) {
                        let bye = encode_frame(&WireFrame::Bye);
                        conn.wbuf.extend_from_slice(&bye);
                        // Blocking flush of the farewell; the socket is
                        // about to close either way.
                        let _ = conn.stream.set_nonblocking(false);
                        let _ = conn.stream.write_all(&conn.wbuf);
                    }
                    for (slot, entry) in conns.iter_mut().enumerate() {
                        if let Some(c) = entry.take() {
                            service.trace().emit(|| Event::ConnClose {
                                conn: slot as u64,
                                frames: c.frames,
                            });
                        }
                    }
                    report.stats = stats;
                    report.tenants = pool.into_reports();
                    return report;
                }
            }

            if !progressed {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// Handles one well-formed frame. Module payloads pass through the
    /// full untrusted-bytes gauntlet here before any session sees them.
    fn handle_frame(
        frame: WireFrame,
        slot: usize,
        conn: &mut Conn,
        pool: &mut crate::service::SessionPool<'_>,
        bodies: &mut BodyRegistry,
        report: &mut NetReport,
        server_family_fp: Option<u64>,
    ) -> Handled {
        match frame {
            WireFrame::Hello {
                version,
                tenant,
                family_fp,
            } => {
                if version != WIRE_VERSION {
                    conn.push_frame(&WireFrame::Error {
                        seq: u32::MAX,
                        code: ErrorCode::BadHello,
                        message: format!("unsupported wire version {version}"),
                    });
                    report.responses += 1;
                    return Handled::CloseConn;
                }
                if let Some(fp) = family_fp {
                    if server_family_fp != Some(fp) {
                        conn.push_frame(&WireFrame::Error {
                            seq: u32::MAX,
                            code: ErrorCode::FamilyMismatch,
                            message: format!("server does not serve family {fp:#018x}"),
                        });
                        report.responses += 1;
                        return Handled::CloseConn;
                    }
                }
                conn.tenant = Some(tenant as usize);
                Handled::Quiet
            }
            WireFrame::ReqModule { seq, key, module } => {
                let Some(tenant) = conn.tenant else {
                    return Self::refuse(conn, report, seq, ErrorCode::BadHello, "hello first");
                };
                // The untrusted-bytes gauntlet: framing, checksums, graph
                // verification. A failure is a typed error, not a crash.
                let decoded = match decode_module(&module) {
                    Ok(m) => m,
                    Err(e) => {
                        report.decode_rejects += 1;
                        meters().decode_rejects.inc();
                        return Self::refuse(
                            conn,
                            report,
                            seq,
                            ErrorCode::Malformed,
                            &e.to_string(),
                        );
                    }
                };
                let [one] = decoded.loops.as_slice() else {
                    return Self::refuse(
                        conn,
                        report,
                        seq,
                        ErrorCode::Malformed,
                        "request module must pack exactly one loop",
                    );
                };
                let hints = Arc::new(one.hints());
                let body = Arc::new(one.body.clone());
                bodies.insert(
                    (body.dfg.content_hash(), hints.fingerprint()),
                    (Arc::clone(&body), Arc::clone(&hints)),
                );
                Self::admit(conn, pool, report, slot, tenant, seq, key, body, hints);
                Handled::Ok
            }
            WireFrame::ReqHash {
                seq,
                key,
                loop_hash,
                hints_fp,
            } => {
                let Some(tenant) = conn.tenant else {
                    return Self::refuse(conn, report, seq, ErrorCode::BadHello, "hello first");
                };
                let Some((body, hints)) = bodies.get(&(loop_hash, hints_fp)) else {
                    return Self::refuse(
                        conn,
                        report,
                        seq,
                        ErrorCode::NeedBody,
                        "unknown loop hash; resend with the module body",
                    );
                };
                let (body, hints) = (Arc::clone(body), Arc::clone(hints));
                Self::admit(conn, pool, report, slot, tenant, seq, key, body, hints);
                Handled::Ok
            }
            WireFrame::Shutdown => Handled::Shutdown,
            // Server-to-client frames arriving at the server are protocol
            // misuse; answer with a typed error and keep the connection.
            WireFrame::Outcome { seq, .. } => {
                Self::refuse(conn, report, seq, ErrorCode::Malformed, "unexpected frame")
            }
            WireFrame::Error { .. } | WireFrame::Bye => Self::refuse(
                conn,
                report,
                u32::MAX,
                ErrorCode::Malformed,
                "unexpected frame",
            ),
        }
    }

    /// Admits one request and queues shed errors for any evictions.
    #[allow(clippy::too_many_arguments)]
    fn admit(
        conn: &mut Conn,
        pool: &mut crate::service::SessionPool<'_>,
        report: &mut NetReport,
        slot: usize,
        tenant: usize,
        seq: u32,
        key: u64,
        body: Arc<LoopBody>,
        hints: Arc<StaticHints>,
    ) {
        let shed = pool.admit(tenant, pack_token(slot, seq), key, body, hints);
        conn.inflight += 1;
        for token in shed {
            let (shed_slot, shed_seq) = unpack_token(token);
            // The shed request's own connection gets the error; with one
            // connection per tenant that is this connection.
            if shed_slot == slot {
                conn.inflight = conn.inflight.saturating_sub(1);
                conn.push_frame(&WireFrame::Error {
                    seq: shed_seq,
                    code: ErrorCode::Shed,
                    message: "admission queue over bound; oldest shed".into(),
                });
                report.responses += 1;
                meters().responses.inc();
            }
        }
    }

    /// Queues a typed refusal on the connection; the connection survives.
    fn refuse(
        conn: &mut Conn,
        report: &mut NetReport,
        seq: u32,
        code: ErrorCode,
        message: &str,
    ) -> Handled {
        conn.push_frame(&WireFrame::Error {
            seq,
            code,
            message: message.into(),
        });
        report.responses += 1;
        meters().responses.inc();
        Handled::Quiet
    }
}

/// What handling one inbound frame did to the connection.
enum Handled {
    /// A request was admitted; a drain is due.
    Ok,
    /// Handled without admitting (hello, refusal).
    Quiet,
    /// The connection must close once its responses flush.
    CloseConn,
    /// Graceful shutdown was requested.
    Shutdown,
}

/// One completed request as the client observes it.
#[derive(Debug)]
pub struct ClientOutcome {
    /// Echoed sequence number.
    pub seq: u32,
    /// Echoed invocation key.
    pub key: u64,
    /// Simulated translation cycles charged (0 on a cache hit).
    pub translation_cycles: u64,
    /// The schedule, decoded and **re-verified client-side** through
    /// [`veal_vm::decode_translated_loop`] — a corrupt or hostile server
    /// cannot hand the client an invalid schedule.
    pub translated: Option<TranslatedLoop>,
    /// The raw response payload (for bit-identity comparisons).
    pub translated_bytes: Option<Vec<u8>>,
    /// The typed error, when the server refused the request.
    pub error: Option<(ErrorCode, String)>,
}

/// A blocking lock-step client: send one request, wait for its response.
/// Driving each tenant's stream in order over one connection reproduces
/// the per-tenant sequential invocation order the bit-identity invariant
/// requires.
pub struct WireClient {
    stream: TcpStream,
    rbuf: Vec<u8>,
    next_seq: u32,
    /// Bodies the server has verified from us: the ReqHash fast path.
    sent: std::collections::HashSet<(u64, u64)>,
    config: veal_accel::AcceleratorConfig,
    family_fp: Option<u64>,
}

impl WireClient {
    /// Connects and sends the hello.
    ///
    /// # Errors
    ///
    /// Any socket error from connect or the handshake write.
    pub fn connect(
        addr: &str,
        tenant: u32,
        family_fp: Option<u64>,
        config: veal_accel::AcceleratorConfig,
    ) -> io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.write_all(&encode_frame(&WireFrame::Hello {
            version: WIRE_VERSION,
            tenant,
            family_fp,
        }))?;
        Ok(WireClient {
            stream,
            rbuf: Vec::new(),
            next_seq: 0,
            sent: std::collections::HashSet::new(),
            config,
            family_fp,
        })
    }

    /// Connects *without* sending a hello — for driving the server's
    /// request-before-hello refusal path in tests.
    ///
    /// # Errors
    ///
    /// Any socket error from connect.
    pub fn connect_raw(addr: &str, config: veal_accel::AcceleratorConfig) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Ok(WireClient {
            stream,
            rbuf: Vec::new(),
            next_seq: 0,
            sent: std::collections::HashSet::new(),
            config,
            family_fp: None,
        })
    }

    /// The underlying socket, for tests that inject hand-crafted or
    /// damaged bytes into the stream.
    pub fn raw_stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Sends one translation request and blocks for its response. Tries
    /// the body-less [`WireFrame::ReqHash`] fast path for loops the server
    /// has already seen from this client, falling back to the full module
    /// on [`ErrorCode::NeedBody`].
    ///
    /// # Errors
    ///
    /// Socket errors, a closed stream, or an unrecoverable protocol
    /// violation by the server (typed refusals are `Ok` with
    /// [`ClientOutcome::error`] set).
    pub fn request(
        &mut self,
        key: u64,
        body: &LoopBody,
        hints: &StaticHints,
    ) -> io::Result<ClientOutcome> {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let id = (body.dfg.content_hash(), hints.fingerprint());
        if self.sent.contains(&id) {
            self.stream.write_all(&encode_frame(&WireFrame::ReqHash {
                seq,
                key,
                loop_hash: id.0,
                hints_fp: id.1,
            }))?;
            let outcome = self.wait_for(seq)?;
            if !matches!(outcome.error, Some((ErrorCode::NeedBody, _))) {
                return Ok(outcome);
            }
            // The server forgot the body (restart, eviction): fall through
            // and resend it in full under a fresh sequence number.
            self.sent.remove(&id);
            return self.request(key, body, hints);
        }
        let module = encode_module(&BinaryModule {
            loops: vec![EncodedLoop {
                body: body.clone(),
                priority_hint: hints.priority.clone(),
                cca_hint: hints.cca_groups.clone(),
                family_hint: self.family_fp,
            }],
        });
        self.stream
            .write_all(&encode_frame(&WireFrame::ReqModule { seq, key, module }))?;
        let outcome = self.wait_for(seq)?;
        if outcome.error.is_none() {
            self.sent.insert(id);
        }
        Ok(outcome)
    }

    /// Requests graceful shutdown and blocks for the [`WireFrame::Bye`]
    /// acknowledgment (the final checkpoint is on disk once it arrives).
    ///
    /// # Errors
    ///
    /// Socket errors, or a stream closed before the acknowledgment.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stream.write_all(&encode_frame(&WireFrame::Shutdown))?;
        loop {
            match self.read_frame()? {
                WireFrame::Bye => return Ok(()),
                _ => continue,
            }
        }
    }

    /// Blocks until the response for `seq` arrives.
    fn wait_for(&mut self, seq: u32) -> io::Result<ClientOutcome> {
        loop {
            match self.read_frame()? {
                WireFrame::Outcome {
                    seq: got,
                    key,
                    translation_cycles,
                    translated,
                } if got == seq => {
                    let decoded = match &translated {
                        None => None,
                        Some(bytes) => {
                            Some(decode_translated_loop(bytes, &self.config).map_err(|e| {
                                io::Error::new(
                                    io::ErrorKind::InvalidData,
                                    format!("response failed client-side verification: {e}"),
                                )
                            })?)
                        }
                    };
                    return Ok(ClientOutcome {
                        seq,
                        key,
                        translation_cycles,
                        translated: decoded,
                        translated_bytes: translated,
                        error: None,
                    });
                }
                WireFrame::Error {
                    seq: got,
                    code,
                    message,
                } if got == seq || got == u32::MAX => {
                    return Ok(ClientOutcome {
                        seq,
                        key: 0,
                        translation_cycles: 0,
                        translated: None,
                        translated_bytes: None,
                        error: Some((code, message)),
                    });
                }
                // Responses for other sequence numbers (shed notices for
                // older requests) or stray frames: skip.
                _ => continue,
            }
        }
    }

    /// Reads one complete frame off the blocking stream.
    fn read_frame(&mut self) -> io::Result<WireFrame> {
        loop {
            match decode_frame(&self.rbuf, MAX_FRAME_LEN) {
                FrameStatus::Frame { frame, consumed } => {
                    self.rbuf.drain(..consumed);
                    return Ok(frame);
                }
                FrameStatus::Incomplete => {
                    let mut chunk = [0u8; 16 * 1024];
                    let n = self.stream.read(&mut chunk)?;
                    if n == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed the connection",
                        ));
                    }
                    self.rbuf.extend_from_slice(&chunk[..n]);
                }
                FrameStatus::Reject { reason, .. } | FrameStatus::Fatal { reason } => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("server sent a malformed frame: {reason}"),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{pack_token, unpack_token};

    #[test]
    fn token_round_trips_at_boundary_values() {
        // The old packing shifted a `usize` by 32, which overflows on a
        // 32-bit target; the u64 path must round-trip every boundary.
        let max_slot = (1usize << 32) - 1;
        for &slot in &[0usize, 1, 0x7FFF_FFFF, 0x8000_0000, max_slot] {
            for &seq in &[0u32, 1, 0x7FFF_FFFF, u32::MAX] {
                let token = pack_token(slot, seq);
                assert_eq!(unpack_token(token), (slot, seq), "slot={slot} seq={seq}");
            }
        }
    }
}
