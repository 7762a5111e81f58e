//! The front-door workloads. Each run starts an in-process `NetServer` in
//! point mode, as `vealc serve --listen` runs it, with one worker so the
//! drain runs inline on the reactor thread, and drives it over loopback
//! with the benchmark's own client built on the public wire codec.
//!
//! * `wire-lockstep` — one thread, two connections (tenants 0 and 1), one
//!   outstanding request, replaying the serving load generator's stream in
//!   a cycle. After the warm-up pass every request is a `ReqHash` hit.
//! * `wire-open` — one sender/receiver thread per connection, seeded
//!   Poisson arrivals; 90% of requests come from a hot set larger than the
//!   code cache, 10% are never-seen loops sent as `ReqModule`.

use crate::gen::{poisson_arrivals, synth, StreamFp};
use crate::layers;
use crate::run::{nanos, Opts, Run};
use crate::trace::Tracer;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use veal::ir::rng::{Fnv64, Rng64};
use veal::serve::wire::{
    decode_frame, encode_frame, FrameStatus, WireFrame, FRAME_HEADER_LEN, MAX_FRAME_LEN,
    WIRE_VERSION,
};
use veal::serve::{generate, LoadSpec};
use veal::vm::{
    decode_module, decode_translated_loop, encode_translated_loop, MemoBackend, ShardedMemo,
    StaticHints, TranslationMemo, Translator,
};
use veal::{
    compute_hints, AcceleratorConfig, LoopBody, NetConfig, NetReport, NetServer, ServeConfig,
    TranslationService,
};

/// Offered load of `wire-open`, about half the rate at which the server
/// starts refusing requests on a two-core host.
const OPEN_RATE: f64 = 4000.0;
/// Share of `wire-open` requests that carry a never-seen loop.
const OPEN_COLD: f64 = 0.10;
/// One in this many `wire-open` responses is checked against the solo
/// replay.
const OPEN_CHECK_ONE_IN: u64 = 16;
/// How long a response may take before the client gives up on it.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);
/// Longest sleep of an open-loop connection thread between polls: the
/// resolution of its send times and of response arrival times.
const POLL: Duration = Duration::from_micros(50);
/// Generator lag (send minus due time) whose p99 invalidates a
/// `wire-open` run.
const MAX_LAG_MS: f64 = 1.0;
/// Requests in the lock-step warm-up pass of `wire-open`: as many as one
/// cycle of `wire-lockstep`.
const REHEARSAL: usize = 256;
/// Requests per natural unit of a front-door window (`Run` merges units
/// into segments).
const SEGMENT: usize = 2000;
/// Trip count the layer replay runs these synthetic loops at.
const LAYER_TRIPS: u64 = 256;

fn serve_config() -> ServeConfig {
    ServeConfig {
        threads: 1,
        ..ServeConfig::paper()
    }
}

/// One loop a tenant can request, packed as the client ships it.
///
/// `body` and `hints` are the loop as the server admits it: decoded from
/// the packed module. The solo replay and the `ReqHash` identity use that
/// form, because the module round trip is not exact for every loop (a
/// live-in node marked live-out loses the mark), and the serving invariant
/// is stated over what the server admitted.
struct Req {
    tenant: usize,
    key: u64,
    body: Arc<LoopBody>,
    hints: Arc<StaticHints>,
    module: Vec<u8>,
    loop_hash: u64,
    hints_fp: u64,
    /// Whether the module round trip changed the loop's content hash.
    drifted: bool,
}

impl Req {
    fn new(tenant: usize, key: u64, body: &LoopBody, hints: &StaticHints) -> Self {
        let module = layers::pack_module(body, hints);
        let decoded = decode_module(&module).expect("a generated module decodes");
        let [admitted] = decoded.loops.as_slice() else {
            unreachable!("the module packs one loop");
        };
        let admitted_hints = admitted.hints();
        Req {
            tenant,
            key,
            loop_hash: admitted.body.dfg.content_hash(),
            hints_fp: admitted_hints.fingerprint(),
            drifted: admitted.body.dfg.content_hash() != body.dfg.content_hash(),
            body: Arc::new(admitted.body.clone()),
            hints: Arc::new(admitted_hints),
            module,
        }
    }

    fn frame(&self, seq: u32, by_hash: bool) -> WireFrame {
        if by_hash {
            WireFrame::ReqHash {
                seq,
                key: self.key,
                loop_hash: self.loop_hash,
                hints_fp: self.hints_fp,
            }
        } else {
            WireFrame::ReqModule {
                seq,
                key: self.key,
                module: self.module.clone(),
            }
        }
    }
}

/// The server under test, on its own reactor thread.
struct Server {
    addr: String,
    memo: Arc<ShardedMemo>,
    thread: JoinHandle<NetReport>,
}

impl Server {
    fn start() -> io::Result<Server> {
        let service = TranslationService::new(serve_config());
        let memo = Arc::clone(service.memo());
        let server = NetServer::bind(service, NetConfig::default())?;
        let addr = server.local_addr()?.to_string();
        let thread = std::thread::spawn(move || server.run());
        Ok(Server { addr, memo, thread })
    }

    /// Graceful shutdown over a connection of its own; waits for the
    /// acknowledgment and the reactor thread.
    fn stop(self) -> Result<NetReport, String> {
        let bye = (|| -> io::Result<()> {
            let mut c = Client::open(&self.addr)?;
            c.send(&encode_frame(&WireFrame::Shutdown))?;
            loop {
                let deadline = Instant::now() + RESPONSE_TIMEOUT;
                if let WireFrame::Bye = c.wait_frame(deadline)? {
                    return Ok(());
                }
            }
        })();
        match bye {
            Ok(()) => self
                .thread
                .join()
                .map_err(|_| "server thread panicked".to_string()),
            // Without an acknowledgment the reactor may never exit; the
            // process ends with the thread still parked.
            Err(e) => Err(format!("shutdown failed: {e}")),
        }
    }
}

/// A loopback connection speaking the wire protocol.
struct Client {
    stream: TcpStream,
    rbuf: Vec<u8>,
    next_seq: u32,
    bytes_in: u64,
    bytes_out: u64,
    /// When the last read returned bytes: the arrival time of any frame
    /// it completed.
    arrived: Instant,
}

impl Client {
    fn open(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            rbuf: Vec::new(),
            next_seq: 0,
            bytes_in: 0,
            bytes_out: 0,
            arrived: Instant::now(),
        })
    }

    fn connect(addr: &str, tenant: usize) -> io::Result<Client> {
        let mut c = Client::open(addr)?;
        c.send(&encode_frame(&WireFrame::Hello {
            version: WIRE_VERSION,
            tenant: u32::try_from(tenant).expect("two tenants"),
            family_fp: None,
        }))?;
        Ok(c)
    }

    fn seq(&mut self) -> u32 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut off = 0;
        while off < bytes.len() {
            match self.stream.write(&bytes[off..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => off += n,
                // A non-blocking socket with a full send buffer.
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.bytes_out += bytes.len() as u64;
        Ok(())
    }

    fn received(&mut self, chunk: &[u8]) {
        self.arrived = Instant::now();
        self.rbuf.extend_from_slice(chunk);
        self.bytes_in += chunk.len() as u64;
    }

    /// Reads whatever has arrived, without waiting (the socket must be
    /// non-blocking).
    fn poll(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.received(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Whether a whole frame sits at the head of the read buffer.
    fn frame_ready(&self) -> bool {
        self.rbuf.len() >= FRAME_HEADER_LEN && {
            let len = u32::from_le_bytes([self.rbuf[1], self.rbuf[2], self.rbuf[3], self.rbuf[4]]);
            self.rbuf.len() >= FRAME_HEADER_LEN + len as usize
        }
    }

    /// One read, waiting until `deadline` at most; `false` on timeout.
    fn fill(&mut self, deadline: Instant) -> io::Result<bool> {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Ok(false);
        }
        self.stream
            .set_read_timeout(Some(left.max(Duration::from_micros(1))))?;
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Ok(n) => {
                self.received(&chunk[..n]);
                Ok(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Decodes the frame at the head of the buffer (call when
    /// [`Client::frame_ready`]).
    fn take_frame(&mut self) -> io::Result<WireFrame> {
        match decode_frame(&self.rbuf, MAX_FRAME_LEN) {
            FrameStatus::Frame { frame, consumed } => {
                self.rbuf.drain(..consumed);
                Ok(frame)
            }
            FrameStatus::Incomplete => unreachable!("frame_ready checked the length"),
            FrameStatus::Reject { reason, .. } | FrameStatus::Fatal { reason } => Err(
                io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {reason}")),
            ),
        }
    }

    /// Blocks until a whole frame is buffered, or fails at `deadline`.
    fn wait_ready(&mut self, deadline: Instant) -> io::Result<()> {
        while !self.frame_ready() {
            if !self.fill(deadline)? && Instant::now() >= deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no response"));
            }
        }
        Ok(())
    }

    fn wait_frame(&mut self, deadline: Instant) -> io::Result<WireFrame> {
        self.wait_ready(deadline)?;
        self.take_frame()
    }
}

/// Checks a response the way a client must before trusting it: the frame
/// answers this request and the schedule passes client-side verification.
/// Returns the charged cycles and the schedule's bytes.
fn verify(
    frame: WireFrame,
    seq: u32,
    key: u64,
    config: &AcceleratorConfig,
) -> Result<(u64, Option<Vec<u8>>), String> {
    match frame {
        WireFrame::Outcome {
            seq: got,
            key: got_key,
            translation_cycles,
            translated,
        } if got == seq => {
            if got_key != key {
                return Err(format!("response key {got_key} for request key {key}"));
            }
            if let Some(bytes) = &translated {
                decode_translated_loop(bytes, config)
                    .map_err(|e| format!("response failed verification: {e}"))?;
            }
            Ok((translation_cycles, translated))
        }
        WireFrame::Error { code, message, .. } => Err(format!("refused ({code:?}): {message}")),
        other => Err(format!("unexpected frame {:#x}", other.tag())),
    }
}

/// Instants of one request's life on the client.
#[derive(Clone, Copy)]
struct Stamps {
    /// When the request was due: its send time in a closed loop, its
    /// scheduled time in an open loop.
    due: Instant,
    sent: Instant,
    encoded: Instant,
    written: Instant,
    arrived: Instant,
    decode_start: Instant,
    decoded: Instant,
    verified: Instant,
}

impl Stamps {
    fn at(t: Instant) -> Self {
        Stamps {
            due: t,
            sent: t,
            encoded: t,
            written: t,
            arrived: t,
            decode_start: t,
            decoded: t,
            verified: t,
        }
    }

    /// Records the client-side spans; returns the wait span, under which
    /// the replayed server work is filed.
    fn record(&self, tr: &mut Tracer, req: u64) -> Option<usize> {
        let root = tr.push("bench.request", req, None, self.due, self.verified);
        let p = Some(root);
        tr.push("serve.wire.encode", req, p, self.sent, self.encoded);
        tr.push("bench.write", req, p, self.encoded, self.written);
        let wait = tr.push("bench.wait", req, p, self.written, self.arrived);
        tr.push("serve.wire.decode", req, p, self.decode_start, self.decoded);
        tr.push("vm.snapshot.verify", req, p, self.decoded, self.verified);
        Some(wait)
    }
}

/// Deduplicated response payloads, so every response can be kept for the
/// bit-identity gate without storing each copy.
#[derive(Default)]
struct Payloads {
    store: Vec<Vec<u8>>,
    by_key: HashMap<(usize, u64), Vec<u32>>,
}

const NO_PAYLOAD: u32 = u32::MAX;

impl Payloads {
    fn intern(&mut self, tenant: usize, key: u64, bytes: Option<Vec<u8>>) -> u32 {
        let Some(bytes) = bytes else {
            return NO_PAYLOAD;
        };
        let ids = self.by_key.entry((tenant, key)).or_default();
        if let Some(&id) = ids.iter().find(|&&id| self.store[id as usize] == bytes) {
            return id;
        }
        let id = u32::try_from(self.store.len()).expect("payload count fits u32");
        self.store.push(bytes);
        ids.push(id);
        id
    }

    fn get(&self, id: u32) -> Option<&[u8]> {
        (id != NO_PAYLOAD).then(|| self.store[id as usize].as_slice())
    }
}

/// One request as the server admitted it, in the tenant's order.
struct Logged {
    req: u32,
    /// The observed `(payload, cycles)`, when this response is checked.
    check: Option<(u32, u64)>,
}

/// A request frame as sent, for the traced server replay.
struct Sent {
    tenant: usize,
    req: u64,
    frame: Vec<u8>,
    /// The request's wait span; `None` for set-up traffic, which is
    /// replayed untraced so the server state matches.
    wait: Option<usize>,
    written: Instant,
}

/// The gate: each tenant's admitted sequence, replayed on a solo session
/// configured like the server's, must yield the same schedule bytes and
/// the same charged cycles. The replay session carries a private memo,
/// which by the memo's contract changes no observable result.
fn solo_gate(reqs: &[Req], logs: &[Vec<Logged>], payloads: &[Payloads], run: &mut Run) {
    let cfg = serve_config();
    for (tenant, log) in logs.iter().enumerate() {
        let mut solo = cfg
            .solo_session()
            .with_memo(Arc::new(TranslationMemo::new()));
        for e in log {
            let r = &reqs[e.req as usize];
            let inv = solo.invoke(r.key, &r.body, &r.hints);
            let Some((pid, cycles)) = e.check else {
                continue;
            };
            let want = inv
                .translated
                .as_deref()
                .map(encode_translated_loop)
                .transpose();
            let same = matches!(&want, Ok(w) if w.as_deref() == payloads[tenant].get(pid))
                && inv.translation_cycles == cycles;
            if !same {
                run.failed += 1;
                run.gate(format!(
                    "tenant {tenant} key {}: wire response differs from the solo replay",
                    r.key
                ));
            }
        }
    }
}

/// Replays the admitted frames through the functions the reactor calls,
/// on a fresh service, timing each as a child of the request's wait.
fn replay_server(sent: &[Sent], tr: &mut Tracer) -> Result<(), String> {
    let service = TranslationService::new(serve_config());
    let mut pool = service.session_pool(0);
    let mut bodies: HashMap<(u64, u64), (Arc<LoopBody>, Arc<StaticHints>)> = HashMap::new();
    for s in sent {
        let (id, p) = (s.req, s.wait);
        let status = tr.replay("serve.wire.decode", id, p, || {
            decode_frame(&s.frame, MAX_FRAME_LEN)
        });
        let FrameStatus::Frame { frame, .. } = status else {
            return Err("replayed request frame did not decode".into());
        };
        let (seq, key, body, hints) = match frame {
            WireFrame::ReqModule { seq, key, module } => {
                let decoded =
                    tr.replay("vm.binfmt.decode_module", id, p, || decode_module(&module));
                let m = decoded.map_err(|e| format!("replayed module: {e}"))?;
                let [one] = m.loops.as_slice() else {
                    return Err("replayed module packs more than one loop".into());
                };
                let hints = Arc::new(one.hints());
                let body = Arc::new(one.body.clone());
                bodies.insert(
                    (body.dfg.content_hash(), hints.fingerprint()),
                    (Arc::clone(&body), Arc::clone(&hints)),
                );
                (seq, key, body, hints)
            }
            WireFrame::ReqHash {
                seq,
                key,
                loop_hash,
                hints_fp,
            } => {
                let (body, hints) = bodies
                    .get(&(loop_hash, hints_fp))
                    .cloned()
                    .ok_or("replayed ReqHash names an unknown loop")?;
                (seq, key, body, hints)
            }
            _ => return Err("replayed frame is not a request".into()),
        };
        tr.replay("serve.service.admit", id, p, || {
            pool.admit(s.tenant, seq as usize, key, body, hints)
        });
        tr.replay("serve.service.drain", id, p, || pool.drain());
        let outcomes = tr.replay("serve.service.take_outcomes", id, p, || {
            pool.take_outcomes(s.tenant)
        });
        for o in outcomes {
            let bytes = tr.replay("vm.snapshot.encode", id, p, || {
                o.translated
                    .as_deref()
                    .map(encode_translated_loop)
                    .transpose()
            });
            let bytes = bytes.map_err(|e| format!("replayed response encode: {e}"))?;
            tr.replay("serve.wire.encode", id, p, || {
                encode_frame(&WireFrame::Outcome {
                    seq: u32::try_from(o.seq).unwrap_or(u32::MAX),
                    key: o.key,
                    translation_cycles: o.translation_cycles,
                    translated: bytes,
                })
            });
        }
    }
    Ok(())
}

/// Per-layer values read from the server's report and memo.
fn server_layers(run: &mut Run, report: &NetReport, memo: &ShardedMemo) {
    let l = &mut run.layers;
    l.insert("serve.net.frames".into(), report.frames as f64);
    l.insert(
        "serve.net.decode_rejects".into(),
        report.decode_rejects as f64,
    );
    l.insert("serve.net.fatal_closes".into(), report.fatal_closes as f64);
    l.insert("serve.service.shed".into(), report.stats.shed as f64);
    l.insert("serve.service.batches".into(), report.stats.batches as f64);
    let batch = serve_config().batch_size.max(1) as f64;
    l.insert(
        "serve.service.batch_fill".into(),
        report.stats.completed as f64 / (report.stats.batches.max(1) as f64 * batch),
    );
    l.insert("serve.service.queue_wait_share".into(), 0.0);
    let (hits, misses, evictions) = report.tenants.iter().fold((0, 0, 0), |a, t| {
        (
            a.0 + t.cache.hits,
            a.1 + t.cache.misses,
            a.2 + t.cache.evictions,
        )
    });
    l.insert(
        "vm.cache.hit_rate".into(),
        hits as f64 / (hits + misses).max(1) as f64,
    );
    l.insert("vm.cache.evictions".into(), evictions as f64);
    let m = MemoBackend::stats(memo);
    l.insert("vm.memo.hit_rate".into(), m.hit_rate());
    l.insert("vm.memo.misses".into(), m.misses as f64);
    l.insert("vm.memo.coalesced".into(), memo.coalesced() as f64);
    l.insert(
        "vm.memo.duplicate_translations".into(),
        memo.duplicate_translations() as f64,
    );
    l.insert("exec.cache_hit_rate".into(), 0.0);
}

/// A server after set-up, with the per-tenant records the gate and the
/// traced replay continue from.
struct Warm {
    server: Server,
    clients: Vec<Client>,
    logs: Vec<Vec<Logged>>,
    payloads: Vec<Payloads>,
    sent: Vec<Sent>,
}

/// Set-up: server, connections and hellos, each tenant's loops uploaded in
/// full, then a lock-step pass over `rehearse`. Repeated while
/// [`Opts::more_setups`] asks for more; the last set-up serves the window.
fn set_up(
    run: &mut Run,
    reqs: &[Req],
    warm: &[Vec<u32>],
    rehearse: &[u32],
    config: &AcceleratorConfig,
) -> Result<Warm, String> {
    loop {
        let t0 = Instant::now();
        let server = Server::start().map_err(|e| format!("start server: {e}"))?;
        let mut clients = (0..warm.len())
            .map(|t| Client::connect(&server.addr, t))
            .collect::<io::Result<Vec<_>>>()
            .map_err(|e| format!("connect: {e}"))?;
        let mut logs: Vec<Vec<Logged>> = warm
            .iter()
            .map(|_| Vec::with_capacity(run.opts.reserve()))
            .collect();
        let mut payloads: Vec<Payloads> = warm.iter().map(|_| Payloads::default()).collect();
        let mut sent = Vec::new();
        // Each tenant uploads its loops back to back (fewer than the
        // in-flight cap), then collects the answers in order.
        for (t, loops) in warm.iter().enumerate() {
            let c = &mut clients[t];
            for &ri in loops {
                let frame = encode_frame(&reqs[ri as usize].frame(c.seq(), false));
                c.send(&frame).map_err(|e| format!("warm-up send: {e}"))?;
                sent.push(Sent {
                    tenant: t,
                    req: u64::MAX,
                    frame,
                    wait: None,
                    written: Instant::now(),
                });
            }
        }
        for (t, loops) in warm.iter().enumerate() {
            let c = &mut clients[t];
            let first_seq = c.next_seq - loops.len() as u32;
            for (seq, &ri) in (first_seq..).zip(loops) {
                let r = &reqs[ri as usize];
                let resp = c
                    .wait_frame(Instant::now() + RESPONSE_TIMEOUT)
                    .map_err(|e| format!("warm-up: {e}"))?;
                let (cycles, bytes) = verify(resp, seq, r.key, config)?;
                let pid = payloads[t].intern(t, r.key, bytes);
                logs[t].push(Logged {
                    req: ri,
                    check: Some((pid, cycles)),
                });
            }
        }
        // Then one lock-step pass by `ReqHash`, as the window will send.
        // Set-up then spans hundreds of reactor passes, so the reactor's
        // idle sleep adds a steady share instead of a random millisecond.
        for &ri in rehearse {
            let r = &reqs[ri as usize];
            let (t, c) = (r.tenant, &mut clients[r.tenant]);
            let seq = c.seq();
            let frame = encode_frame(&r.frame(seq, true));
            c.send(&frame).map_err(|e| format!("warm-up send: {e}"))?;
            let resp = c
                .wait_frame(Instant::now() + RESPONSE_TIMEOUT)
                .map_err(|e| format!("warm-up: {e}"))?;
            let (cycles, bytes) = verify(resp, seq, r.key, config)?;
            let pid = payloads[t].intern(t, r.key, bytes);
            logs[t].push(Logged {
                req: ri,
                check: Some((pid, cycles)),
            });
            sent.push(Sent {
                tenant: t,
                req: u64::MAX,
                frame,
                wait: None,
                written: Instant::now(),
            });
        }
        run.setups_s.push(t0.elapsed().as_secs_f64());
        if !run.opts.more_setups(&run.setups_s) {
            return Ok(Warm {
                server,
                clients,
                logs,
                payloads,
                sent,
            });
        }
        drop(clients);
        server.stop()?;
    }
}

/// Requests per tenant in order of first appearance, deduplicated.
fn distinct_per_tenant(
    reqs: &[Req],
    order: impl Iterator<Item = u32>,
    tenants: usize,
) -> Vec<Vec<u32>> {
    let mut seen = HashSet::new();
    let mut out = vec![Vec::new(); tenants];
    for ri in order {
        if seen.insert(ri) {
            out[reqs[ri as usize].tenant].push(ri);
        }
    }
    out
}

/// Interns the generator's requests: one `Req` per (tenant, key).
fn intern_stream(stream: &[veal::serve::Request], reqs: &mut Vec<Req>) -> Vec<u32> {
    let mut index: HashMap<(usize, u64), u32> = HashMap::new();
    stream
        .iter()
        .map(|r| {
            *index.entry((r.tenant, r.key)).or_insert_with(|| {
                reqs.push(Req::new(r.tenant, r.key, &r.body, &r.hints));
                u32::try_from(reqs.len() - 1).expect("request count fits u32")
            })
        })
        .collect()
}

fn finish(
    run: &mut Run,
    server: Server,
    reqs: &[Req],
    logs: &[Vec<Logged>],
    payloads: &[Payloads],
    sent: &mut [Sent],
) -> Result<(), String> {
    let memo = Arc::clone(&server.memo);
    let report = server.stop()?;
    server_layers(run, &report, &memo);
    solo_gate(reqs, logs, payloads, run);
    if run.tracer.on() {
        // Admission order across connections follows the write order.
        sent.sort_by_key(|s| s.written);
        replay_server(sent, &mut run.tracer)?;
        let cfg = serve_config();
        let translator = Translator::new(cfg.config.clone(), cfg.cca.clone(), cfg.policy);
        let mut distinct = HashSet::new();
        let loops: Vec<layers::Loop<'_>> = reqs
            .iter()
            .filter(|r| distinct.insert((r.loop_hash, r.hints_fp)))
            .map(|r| layers::Loop {
                body: &r.body,
                hints: &r.hints,
                trips: LAYER_TRIPS,
            })
            .collect();
        let mut rng = Rng64::new(run.opts.seed);
        let replayed = layers::replay(&loops, &translator, &mut rng, run.opts.smoke);
        run.layers.extend(replayed);
        // Counted on the generated loops: `reqs` already hold the decoded
        // form.
        let drift = reqs.iter().filter(|r| r.drifted).count();
        run.layers
            .insert("vm.binfmt.roundtrip_drift".into(), drift as f64);
    }
    Ok(())
}

pub fn lockstep(opts: Opts) -> Result<Run, String> {
    let mut run = Run::new("wire-lockstep", opts);
    let cfg = serve_config();
    let config = cfg.config.clone();
    let spec = LoadSpec {
        seed: opts.seed,
        tenants: 2,
        ..LoadSpec::default()
    };
    let stream = generate(&spec, &cfg.config, cfg.cca.as_ref());
    let mut reqs = Vec::new();
    let cycle = intern_stream(&stream, &mut reqs);
    let mut fp = StreamFp::default();
    for r in &stream {
        fp.add(r.tenant, r.key, &r.body, &r.hints, 0);
    }
    run.stream_fp = fp.finish();
    let warm = distinct_per_tenant(&reqs, cycle.iter().copied(), 2);

    let Warm {
        server,
        mut clients,
        mut logs,
        mut payloads,
        mut sent,
    } = set_up(&mut run, &reqs, &warm, &cycle, &config)?;
    let (bytes_in0, bytes_out0): (u64, u64) = (
        clients.iter().map(|c| c.bytes_in).sum(),
        clients.iter().map(|c| c.bytes_out).sum(),
    );

    let start = Instant::now();
    let end = start + Duration::from_secs_f64(opts.seconds);
    let mut prev = start;
    let mut segment_start = start;
    let mut failure = None;
    for (n, &ri) in cycle.iter().cycle().enumerate() {
        if n > 0 && n % SEGMENT == 0 {
            run.end_segment((prev - segment_start).as_secs_f64());
            segment_start = prev;
        }
        let t_send = Instant::now();
        if t_send >= end {
            break;
        }
        let r = &reqs[ri as usize];
        let (t, c) = (r.tenant, &mut clients[r.tenant]);
        run.attempted += 1;
        run.lags_ns.push(nanos(t_send - prev));
        let mut st = Stamps::at(t_send);
        let seq = c.seq();
        let frame = encode_frame(&r.frame(seq, true));
        st.encoded = Instant::now();
        let result = c.send(&frame).and_then(|()| {
            st.written = Instant::now();
            c.wait_ready(st.written + RESPONSE_TIMEOUT)?;
            st.arrived = c.arrived;
            st.decode_start = Instant::now();
            let resp = c.take_frame();
            st.decoded = Instant::now();
            resp
        });
        let checked = result
            .map_err(|e| e.to_string())
            .and_then(|resp| verify(resp, seq, r.key, &config));
        st.verified = Instant::now();
        prev = st.verified;
        match checked {
            Ok((cycles, bytes)) => {
                run.latencies_ns.push(nanos(st.verified - st.due));
                run.units += cycles;
                let pid = payloads[t].intern(t, r.key, bytes);
                logs[t].push(Logged {
                    req: ri,
                    check: Some((pid, cycles)),
                });
                if run.tracer.on() {
                    let wait = st.record(&mut run.tracer, n as u64);
                    sent.push(Sent {
                        tenant: t,
                        req: n as u64,
                        frame,
                        wait,
                        written: st.written,
                    });
                }
            }
            Err(e) => {
                run.fail();
                failure = Some(e);
                break;
            }
        }
    }
    run.end_segment((prev - segment_start).as_secs_f64());
    let n = run.attempted.max(1) as f64;
    let bytes_in: u64 = clients.iter().map(|c| c.bytes_in).sum::<u64>() - bytes_in0;
    let bytes_out: u64 = clients.iter().map(|c| c.bytes_out).sum::<u64>() - bytes_out0;
    run.layers
        .insert("serve.wire.bytes_in_per_req".into(), bytes_out as f64 / n);
    run.layers
        .insert("serve.wire.bytes_out_per_req".into(), bytes_in as f64 / n);
    run.layers.insert("vm.binfmt.modules".into(), 0.0);
    drop(clients);
    if let Some(e) = failure {
        run.gate(format!("request failed: {e}"));
    }
    finish(&mut run, server, &reqs, &logs, &payloads, &mut sent)?;
    Ok(run)
}

/// What one open-loop connection recorded.
struct OpenConn {
    stamps: Vec<Stamps>,
    /// Per scheduled request: `Ok(cycles)` once verified, `Err` otherwise.
    outcome: Vec<Result<u64, String>>,
    /// The request frames as sent (kept for the traced replay).
    frames: Vec<Vec<u8>>,
    logs: Vec<Logged>,
    payloads: Payloads,
    bytes_in: u64,
    bytes_out: u64,
    modules: u64,
}

/// Drives one connection: sends each request at its due time and, in
/// between, polls for responses. The thread sleeps at most [`POLL`] at a
/// time: a socket read timeout would wake it only on a scheduler tick
/// (milliseconds late), which would make the generator lag.
#[allow(clippy::too_many_arguments)]
fn drive_open(
    mut client: Client,
    mut logs: Vec<Logged>,
    mut payloads: Payloads,
    tenant: usize,
    sched: &[(u64, u32)],
    reqs: &[Req],
    t0: Instant,
    deadline: Instant,
    check: &dyn Fn(u32) -> bool,
    config: &AcceleratorConfig,
    keep_frames: bool,
) -> OpenConn {
    let (base, bytes_in0, bytes_out0) = (client.next_seq, client.bytes_in, client.bytes_out);
    let n = sched.len();
    let mut stamps = Vec::with_capacity(n);
    let mut outcome: Vec<Option<Result<u64, String>>> = vec![None; n];
    let mut frames = Vec::new();
    let mut check_ids: Vec<Option<u32>> = vec![None; n];
    let mut modules = 0u64;
    let mut next = 0usize;
    let mut pending = 0usize;
    if let Err(e) = client.stream.set_nonblocking(true) {
        return failed_conn(n, &e, logs, payloads);
    }
    let broken = loop {
        if let Err(e) = (|| -> io::Result<()> {
            client.poll()?;
            while client.frame_ready() {
                let decode_start = Instant::now();
                let frame = client.take_frame()?;
                let decoded = Instant::now();
                let seq = match &frame {
                    WireFrame::Outcome { seq, .. } | WireFrame::Error { seq, .. } => *seq,
                    _ => u32::MAX,
                };
                let i = seq
                    .checked_sub(base)
                    .map(|i| i as usize)
                    .filter(|&i| i < next && outcome[i].is_none())
                    .ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, format!("stray response {seq}"))
                    })?;
                let r = &reqs[sched[i].1 as usize];
                let st: &mut Stamps = &mut stamps[i];
                st.arrived = client.arrived;
                st.decode_start = decode_start;
                st.decoded = decoded;
                let checked = verify(frame, seq, r.key, config);
                st.verified = Instant::now();
                pending -= 1;
                outcome[i] = Some(checked.map(|(cycles, bytes)| {
                    if check(seq) {
                        check_ids[i] = Some(payloads.intern(tenant, r.key, bytes));
                    }
                    cycles
                }));
            }
            Ok(())
        })() {
            break Some(e);
        }
        let now = Instant::now();
        let step = if next < n {
            let due = t0 + Duration::from_nanos(sched[next].0);
            if now < due {
                std::thread::sleep((due - now).min(POLL));
                Ok(())
            } else {
                let r = &reqs[sched[next].1 as usize];
                let mut st = Stamps::at(due);
                st.sent = now;
                let seq = client.seq();
                let cold = r.key >= COLD_KEY_BASE;
                modules += u64::from(cold);
                let frame = encode_frame(&r.frame(seq, !cold));
                st.encoded = Instant::now();
                let sent = client.send(&frame);
                st.written = Instant::now();
                stamps.push(st);
                if keep_frames {
                    frames.push(frame);
                }
                next += 1;
                pending += 1;
                sent
            }
        } else if pending > 0 && now < deadline {
            std::thread::sleep(POLL);
            Ok(())
        } else {
            break None;
        };
        if let Err(e) = step {
            break Some(e);
        }
    };
    let outcome: Vec<Result<u64, String>> = outcome
        .into_iter()
        .enumerate()
        .map(|(i, o)| {
            o.unwrap_or_else(|| {
                Err(match (&broken, i < next) {
                    (Some(e), _) => format!("connection failed: {e}"),
                    (None, true) => "response missing at window end".into(),
                    (None, false) => "never sent".into(),
                })
            })
        })
        .collect();
    for (i, o) in outcome.iter().enumerate() {
        if let Ok(cycles) = o {
            logs.push(Logged {
                req: sched[i].1,
                check: check_ids[i].map(|pid| (pid, *cycles)),
            });
        }
    }
    stamps.resize(n, Stamps::at(t0));
    OpenConn {
        stamps,
        outcome,
        frames,
        logs,
        payloads,
        bytes_in: client.bytes_in - bytes_in0,
        bytes_out: client.bytes_out - bytes_out0,
        modules,
    }
}

/// A connection that could not be driven at all.
fn failed_conn(n: usize, e: &io::Error, logs: Vec<Logged>, payloads: Payloads) -> OpenConn {
    OpenConn {
        stamps: Vec::new(),
        outcome: vec![Err(format!("connection failed: {e}")); n],
        frames: Vec::new(),
        logs,
        payloads,
        bytes_in: 0,
        bytes_out: 0,
        modules: 0,
    }
}

/// Keys of never-seen loops start here, clear of the hot pools' keys.
const COLD_KEY_BASE: u64 = 1 << 40;

pub fn open(opts: Opts) -> Result<Run, String> {
    let mut run = Run::new("wire-open", opts);
    let cfg = serve_config();
    let config = cfg.config.clone();
    let mut rng = Rng64::new(opts.seed);
    let tenants = 2usize;

    // Arrival schedule per connection, each request hot or cold.
    let arrivals: Vec<Vec<(u64, bool)>> = (0..tenants)
        .map(|_| {
            poisson_arrivals(&mut rng, OPEN_RATE / tenants as f64, opts.seconds)
                .into_iter()
                .map(|due| (due, rng.gen_bool(OPEN_COLD)))
                .collect()
        })
        .collect();
    let hot_needed = arrivals
        .iter()
        .map(|a| a.iter().filter(|(_, cold)| !cold).count())
        .max()
        .unwrap_or(0);
    // The hot set: the serving load generator with 32 shared and 16
    // private loops per tenant, 48 each, three times the code cache.
    let spec = LoadSpec {
        seed: opts.seed,
        tenants,
        requests: tenants * (hot_needed + 1),
        shared_loops: 32,
        private_loops: 16,
        ..LoadSpec::default()
    };
    let stream = generate(&spec, &cfg.config, cfg.cca.as_ref());
    let mut reqs = Vec::new();
    let hot_ids = intern_stream(&stream, &mut reqs);
    let warm = distinct_per_tenant(&reqs, hot_ids.iter().copied(), tenants);
    let mut hot: Vec<VecDeque<u32>> = vec![Default::default(); tenants];
    for (r, &id) in stream.iter().zip(&hot_ids) {
        hot[r.tenant].push_back(id);
    }

    let mut fp = StreamFp::default();
    let mut cold_key = COLD_KEY_BASE;
    let scheds: Vec<Vec<(u64, u32)>> = arrivals
        .iter()
        .enumerate()
        .map(|(t, a)| {
            a.iter()
                .map(|&(due, cold)| {
                    let ri = if cold {
                        let body = synth(&mut rng, 4, 24);
                        let hints = compute_hints(&body, &cfg.config, cfg.cca.as_ref());
                        reqs.push(Req::new(t, cold_key, &body, &hints));
                        cold_key += 1;
                        u32::try_from(reqs.len() - 1).expect("request count fits u32")
                    } else {
                        hot[t]
                            .pop_front()
                            .expect("hot stream sized to the arrivals")
                    };
                    let r = &reqs[ri as usize];
                    fp.add(t, r.key, &r.body, &r.hints, due);
                    (due, ri)
                })
                .collect()
        })
        .collect();
    run.stream_fp = fp.finish();

    let Warm {
        server,
        clients,
        logs,
        payloads,
        mut sent,
    } = set_up(
        &mut run,
        &reqs,
        &warm,
        &hot_ids[..REHEARSAL.min(hot_ids.len())],
        &config,
    )?;
    let seed = opts.seed;
    let check = move |seq: u32| {
        let mut h = Fnv64::new();
        h.write_u64(seed);
        h.write_u64(u64::from(seq));
        h.finish().is_multiple_of(OPEN_CHECK_ONE_IN)
    };

    let t0 = Instant::now() + Duration::from_millis(20);
    let deadline = t0 + Duration::from_secs_f64(opts.seconds) + Duration::from_secs(2);
    let traced = run.tracer.on();
    let conns: Vec<OpenConn> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(logs)
            .zip(payloads)
            .enumerate()
            .map(|(t, ((client, log), pay))| {
                let (sched, reqs, config, check) = (&scheds[t], &reqs, &config, &check);
                s.spawn(move || {
                    drive_open(
                        client, log, pay, t, sched, reqs, t0, deadline, check, config, traced,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });

    // Requests in due order, cut into segments of `SEGMENT`; a segment's
    // requests were served from its first due time to its last response.
    let mut order: Vec<(u64, usize, usize)> = scheds
        .iter()
        .enumerate()
        .flat_map(|(t, s)| s.iter().enumerate().map(move |(i, &(due, _))| (due, t, i)))
        .collect();
    order.sort_unstable();
    let mut first_error = None;
    let (mut seg_first, mut seg_last) = (t0, t0);
    for (n, &(due, t, i)) in order.iter().enumerate() {
        let due = t0 + Duration::from_nanos(due);
        if n % SEGMENT == 0 {
            if n > 0 {
                run.end_segment((seg_last - seg_first).as_secs_f64());
            }
            (seg_first, seg_last) = (due, due);
        }
        run.attempted += 1;
        match &conns[t].outcome[i] {
            Ok(cycles) => {
                let st = &conns[t].stamps[i];
                run.latencies_ns.push(nanos(st.verified - st.due));
                run.lags_ns
                    .push(nanos(st.sent.saturating_duration_since(st.due)));
                run.units += cycles;
                seg_last = seg_last.max(st.verified);
                if traced {
                    let wait = st.record(&mut run.tracer, n as u64);
                    sent.push(Sent {
                        tenant: t,
                        req: n as u64,
                        frame: conns[t].frames[i].clone(),
                        wait,
                        written: st.written,
                    });
                }
            }
            Err(e) => {
                run.fail();
                first_error.get_or_insert_with(|| e.clone());
            }
        }
    }
    run.end_segment((seg_last - seg_first).as_secs_f64());
    let n = run.attempted.max(1) as f64;
    let bytes_out: u64 = conns.iter().map(|c| c.bytes_out).sum();
    let bytes_in: u64 = conns.iter().map(|c| c.bytes_in).sum();
    run.layers
        .insert("serve.wire.bytes_in_per_req".into(), bytes_out as f64 / n);
    run.layers
        .insert("serve.wire.bytes_out_per_req".into(), bytes_in as f64 / n);
    run.layers.insert(
        "vm.binfmt.modules".into(),
        conns.iter().map(|c| c.modules).sum::<u64>() as f64,
    );
    if let Some(e) = first_error {
        run.gate(format!("request failed: {e}"));
    }
    // An open loop that falls behind its schedule measures the generator,
    // not the server.
    let lag = run.lag_p99_ms();
    if lag > MAX_LAG_MS {
        run.gate(format!(
            "generator lag p99 {lag:.3} ms exceeds {MAX_LAG_MS} ms; the run is invalid"
        ));
    }
    let (logs, payloads): (Vec<_>, Vec<_>) =
        conns.into_iter().map(|c| (c.logs, c.payloads)).unzip();
    finish(&mut run, server, &reqs, &logs, &payloads, &mut sent)?;
    Ok(run)
}
