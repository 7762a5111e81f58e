//! Loopback integration tests for the TCP serving path (DESIGN.md §15,
//! `veal::serve::net` + `veal::serve::wire`).
//!
//! The wire layer must be *invisible* the same way the concurrency is:
//! responses served over a socket are bit-identical to the in-process
//! service, malformed frames cost at most their own frame or connection
//! (never the server, never a bystander connection), and idle connections
//! are evicted without disturbing live ones.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use veal::serve::wire::{
    decode_frame, encode_frame, ErrorCode, FrameStatus, WireFrame, MAX_FRAME_LEN, WIRE_VERSION,
};
use veal::serve::{generate, LoadSpec, NetConfig, NetReport, ServeConfig, TranslationService};
use veal::{encode_module, encode_translated_loop, BinaryModule, EncodedLoop};
use veal::{NetServer, WireClient};

fn spec(seed: u64, requests: usize, tenants: usize) -> LoadSpec {
    LoadSpec {
        seed,
        requests,
        tenants,
        ..LoadSpec::default()
    }
}

/// Binds a loopback server on an ephemeral port and runs it on its own
/// thread; returns the address and the report-bearing join handle.
fn spawn_server(cfg: ServeConfig, net: NetConfig) -> (String, thread::JoinHandle<NetReport>) {
    let service = TranslationService::new(cfg);
    let server = NetServer::bind(service, net).expect("bind loopback");
    let addr = server.local_addr().expect("bound address").to_string();
    (addr, thread::spawn(move || server.run()))
}

/// The tentpole's acceptance bar: every response that crosses the socket
/// is bit-identical to what the in-process service hands back for the
/// same stream — same cycles charged, same encoded schedule bytes, same
/// per-tenant session statistics.
#[test]
fn network_responses_are_bit_identical_to_in_process_serving() {
    let cfg = ServeConfig {
        threads: 1,
        ..ServeConfig::paper()
    };
    let stream = generate(&spec(0x9E7, 60, 3), &cfg.config, cfg.cca.as_ref());

    // In-process reference: a fresh service over the same stream.
    let reference = TranslationService::new(cfg.clone()).run(&stream);
    assert_eq!(reference.stats.shed, 0, "queues must be deep enough here");

    let (addr, handle) = spawn_server(cfg.clone(), NetConfig::default());

    // One connection per tenant, driven lock-step in stream order — the
    // same admission order the in-process run used.
    let mut clients: Vec<Option<WireClient>> = (0..3).map(|_| None).collect();
    let mut net_outcomes: Vec<Vec<veal::ClientOutcome>> = vec![Vec::new(), Vec::new(), Vec::new()];
    for req in &stream {
        let slot = &mut clients[req.tenant];
        let c = slot.get_or_insert_with(|| {
            WireClient::connect(
                &addr,
                u32::try_from(req.tenant).expect("small tenant index"),
                None,
                cfg.config.clone(),
            )
            .expect("connect")
        });
        let outcome = c.request(req.key, &req.body, &req.hints).expect("request");
        assert!(outcome.error.is_none(), "no refusals in a calm stream");
        net_outcomes[req.tenant].push(outcome);
    }
    clients
        .into_iter()
        .flatten()
        .next()
        .expect("at least one connection")
        .shutdown()
        .expect("graceful shutdown");
    let report = handle.join().expect("server thread");

    for (tenant, got) in net_outcomes.iter().enumerate() {
        let want = &reference.tenants[tenant].outcomes;
        assert_eq!(got.len(), want.len(), "tenant {tenant} answer count");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(
                g.translation_cycles, w.translation_cycles,
                "tenant {tenant} cycles diverged over the wire"
            );
            let want_bytes = w
                .translated
                .as_deref()
                .map(|t| veal::encode_translated_loop(t).expect("schedule encodes"));
            assert_eq!(
                g.translated_bytes, want_bytes,
                "tenant {tenant} schedule bytes diverged over the wire"
            );
        }
        // The sessions behind the socket are the same sessions: their
        // cumulative statistics must match the in-process run bit for bit.
        assert_eq!(
            report.tenants[tenant].stats, reference.tenants[tenant].stats,
            "tenant {tenant} VmStats diverged over the wire"
        );
    }
    assert_eq!(report.stats.completed, 60);
    assert_eq!(report.stats.shed, 0);
    assert_eq!(report.frames, 60 + 3 + 1, "requests + hellos + shutdown");
}

/// Repeating a loop over one connection takes the body-less hash fast
/// path; the answers must not change.
#[test]
fn the_hash_fast_path_answers_match_full_module_requests() {
    let cfg = ServeConfig {
        threads: 1,
        ..ServeConfig::paper()
    };
    let stream = generate(&spec(0xFA57, 20, 1), &cfg.config, cfg.cca.as_ref());
    let (addr, handle) = spawn_server(cfg.clone(), NetConfig::default());

    let mut c = WireClient::connect(&addr, 0, None, cfg.config.clone()).expect("connect");
    let mut first_pass = Vec::new();
    for req in &stream {
        let o = c.request(req.key, &req.body, &req.hints).expect("request");
        assert!(o.error.is_none());
        first_pass.push(o.translated_bytes);
    }
    // Second pass over the same loops: every request reuses a registered
    // body, and every answer is byte-identical to the first pass.
    for (req, first) in stream.iter().zip(&first_pass) {
        let o = c.request(req.key, &req.body, &req.hints).expect("request");
        assert!(o.error.is_none());
        assert_eq!(&o.translated_bytes, first, "fast-path answer changed");
    }
    c.shutdown().expect("graceful shutdown");
    let report = handle.join().expect("server thread");
    assert_eq!(report.stats.completed, 40);
}

/// Frame-level damage costs the frame; stream-level damage costs the
/// connection; neither costs the server or a bystander connection.
#[test]
fn malformed_frames_degrade_the_frame_or_connection_never_the_server() {
    let cfg = ServeConfig {
        threads: 1,
        ..ServeConfig::paper()
    };
    let stream = generate(&spec(0xBAD, 12, 1), &cfg.config, cfg.cca.as_ref());
    let (addr, handle) = spawn_server(cfg.clone(), NetConfig::default());

    // A well-behaved bystander connection, kept open throughout.
    let mut good = WireClient::connect(&addr, 0, None, cfg.config.clone()).expect("connect");
    let first = &stream[0];
    let o = good
        .request(first.key, &first.body, &first.hints)
        .expect("request");
    assert!(o.error.is_none());

    // Attacker 1: a checksum-damaged frame, then a valid request on the
    // same connection — the frame is rejected, the connection survives.
    {
        let mut c = WireClient::connect(&addr, 1, None, cfg.config.clone()).expect("connect");
        let mut bad = encode_frame(&WireFrame::ReqHash {
            seq: 99,
            key: 1,
            loop_hash: 2,
            hints_fp: 3,
        });
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        c.raw_stream().write_all(&bad).expect("send damaged frame");
        let o = c
            .request(first.key, &first.body, &first.hints)
            .expect("the connection survives the damaged frame");
        assert!(o.error.is_none(), "valid follow-up must be served");
    }

    // Attacker 2: a syntactically valid frame whose module payload is
    // garbage — the decode gauntlet refuses it with a typed error.
    {
        let mut c = WireClient::connect(&addr, 1, None, cfg.config.clone()).expect("connect");
        c.raw_stream()
            .write_all(&encode_frame(&WireFrame::ReqModule {
                seq: 77,
                key: 7,
                module: vec![0xDE, 0xAD, 0xBE, 0xEF],
            }))
            .expect("send garbage module");
        let o = c.request(first.key, &first.body, &first.hints).expect("ok");
        assert!(o.error.is_none(), "connection must outlive the refusal");
    }

    // Attacker 3: an oversized length claim — unresynchronizable, so the
    // server closes that connection (and only that connection).
    {
        let mut s = TcpStream::connect(&addr).expect("raw connect");
        let mut frame = vec![2u8]; // ReqModule tag
        frame.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
        frame.extend_from_slice(&[0u8; 8]); // checksum field
        s.write_all(&frame).expect("send oversized claim");
        // The server hangs up; give the reactor a moment to do it.
        thread::sleep(Duration::from_millis(100));
    }

    // Attacker 4: a truncated frame followed by a hangup — torn stream,
    // no response owed, nothing to clean up but the connection.
    {
        let mut s = TcpStream::connect(&addr).expect("raw connect");
        let whole = encode_frame(&WireFrame::Hello {
            version: WIRE_VERSION,
            tenant: 1,
            family_fp: None,
        });
        s.write_all(&whole[..whole.len() / 2]).expect("send half");
        drop(s);
        thread::sleep(Duration::from_millis(100));
    }

    // The bystander is untouched: it serves the rest of its stream.
    for req in &stream[1..] {
        let o = good.request(req.key, &req.body, &req.hints).expect("ok");
        assert!(o.error.is_none(), "bystander must be unaffected");
    }
    good.shutdown().expect("graceful shutdown");
    let report = handle.join().expect("server thread");
    assert!(
        report.decode_rejects >= 2,
        "the damaged frame and the garbage module are counted rejects"
    );
    assert!(
        report.fatal_closes >= 1,
        "the oversized claim closes its connection"
    );
    assert_eq!(
        report.stats.completed,
        12 + 2,
        "stream + two attacker requests"
    );
}

/// A request before the hello and a hello from the future both earn typed
/// refusals, not silence.
#[test]
fn protocol_misuse_earns_typed_errors() {
    let cfg = ServeConfig {
        threads: 1,
        ..ServeConfig::paper()
    };
    let stream = generate(&spec(0x5E0, 1, 1), &cfg.config, cfg.cca.as_ref());
    let (addr, handle) = spawn_server(cfg.clone(), NetConfig::default());

    // Request without a hello: BadHello, per-request.
    {
        let mut c = WireClient::connect_raw(&addr, cfg.config.clone()).expect("connect");
        let req = &stream[0];
        let o = c.request(req.key, &req.body, &req.hints).expect("answered");
        assert_eq!(
            o.error.as_ref().map(|(code, _)| *code),
            Some(ErrorCode::BadHello)
        );
    }

    // Hello from a future wire version: BadHello, connection-level.
    {
        let mut s = TcpStream::connect(&addr).expect("raw connect");
        s.write_all(&encode_frame(&WireFrame::Hello {
            version: WIRE_VERSION + 1,
            tenant: 0,
            family_fp: None,
        }))
        .expect("send future hello");
        thread::sleep(Duration::from_millis(100));
    }

    let c = WireClient::connect(&addr, 0, None, cfg.config.clone()).expect("connect");
    c.shutdown().expect("graceful shutdown");
    let report = handle.join().expect("server thread");
    assert!(report.responses >= 2, "both misuses were answered");
}

/// A hello may name only a tenant below `max_connections`: the pool grows
/// to the largest tenant index it admits, so a larger index would let one
/// client make the server allocate without bound. Tenant 4 under a cap of
/// 4 is refused at hello and its connection closed, while tenant 3 on
/// another connection is served exactly as in process.
#[test]
fn hellos_naming_a_tenant_past_the_connection_cap_are_refused() {
    let cfg = ServeConfig {
        threads: 1,
        ..ServeConfig::paper()
    };
    let mut stream = generate(&spec(0x7E4, 8, 1), &cfg.config, cfg.cca.as_ref());
    for r in &mut stream {
        r.tenant = 3;
    }
    let reference = TranslationService::new(cfg.clone()).run(&stream);
    let net = NetConfig {
        max_connections: 4,
        ..NetConfig::default()
    };
    let (addr, handle) = spawn_server(cfg.clone(), net);

    // Tenant 4: the hello and a request in one write. Neither is served;
    // the connection closes once the refusals flush.
    {
        let req = &stream[0];
        let mut burst = encode_frame(&WireFrame::Hello {
            version: WIRE_VERSION,
            tenant: 4,
            family_fp: None,
        });
        burst.extend_from_slice(&encode_frame(&WireFrame::ReqModule {
            seq: 0,
            key: req.key,
            module: encode_module(&BinaryModule {
                loops: vec![EncodedLoop {
                    body: (*req.body).clone(),
                    priority_hint: req.hints.priority.clone(),
                    cca_hint: req.hints.cca_groups.clone(),
                    family_hint: None,
                }],
            }),
        }));
        let mut s = TcpStream::connect(&addr).expect("connect");
        s.write_all(&burst).expect("send hello and request");
        let mut rbuf = Vec::new();
        assert!(
            matches!(
                read_frame(&mut s, &mut rbuf),
                WireFrame::Error {
                    code: ErrorCode::BadHello,
                    ..
                }
            ),
            "tenant 4's hello must be refused with BadHello"
        );
        // Whatever else arrives before the close is a refusal, never an
        // outcome.
        loop {
            match decode_frame(&rbuf, MAX_FRAME_LEN) {
                FrameStatus::Frame { frame, consumed } => {
                    assert!(
                        matches!(frame, WireFrame::Error { .. }),
                        "tenant 4 was served"
                    );
                    rbuf.drain(..consumed);
                }
                FrameStatus::Incomplete => {
                    let mut chunk = [0u8; 1024];
                    match s.read(&mut chunk) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
                    }
                }
                other => panic!("server sent a malformed frame: {other:?}"),
            }
        }
    }

    // Tenant 3, the last index under the cap, is served bit-identically.
    let mut c = WireClient::connect(&addr, 3, None, cfg.config.clone()).expect("connect");
    for (req, want) in stream.iter().zip(&reference.tenants[3].outcomes) {
        let o = c.request(req.key, &req.body, &req.hints).expect("request");
        assert!(o.error.is_none(), "tenant 3 must be served");
        assert_eq!(o.translation_cycles, want.translation_cycles);
        let want_bytes = want
            .translated
            .as_deref()
            .map(|t| encode_translated_loop(t).expect("schedule encodes"));
        assert_eq!(o.translated_bytes, want_bytes);
    }
    c.shutdown().expect("graceful shutdown");
    let report = handle.join().expect("server thread");
    assert!(
        report.tenants.len() <= 4,
        "{} sessions built under a cap of 4",
        report.tenants.len()
    );
    assert_eq!(report.stats.completed, 8);
    assert_eq!(report.tenants[3].stats, reference.tenants[3].stats);
}

/// Connections past the idle deadline are evicted; live ones are not.
#[test]
fn idle_connections_are_evicted_at_the_deadline() {
    let cfg = ServeConfig {
        threads: 1,
        ..ServeConfig::paper()
    };
    let net = NetConfig {
        idle_timeout: Duration::from_millis(150),
        ..NetConfig::default()
    };
    let stream = generate(&spec(0x1D1E, 30, 1), &cfg.config, cfg.cca.as_ref());
    let (addr, handle) = spawn_server(cfg.clone(), net);

    // The idler says hello and then goes quiet past the deadline.
    let idler = WireClient::connect(&addr, 1, None, cfg.config.clone()).expect("connect");

    // The live connection keeps talking the whole time: each request
    // resets its own deadline, and the idler's eviction never touches it.
    let mut live = WireClient::connect(&addr, 0, None, cfg.config.clone()).expect("connect");
    let deadline = std::time::Instant::now() + Duration::from_millis(600);
    let mut served = 0usize;
    while std::time::Instant::now() < deadline {
        let req = &stream[served % stream.len()];
        let o = live.request(req.key, &req.body, &req.hints).expect("ok");
        assert!(o.error.is_none());
        served += 1;
        thread::sleep(Duration::from_millis(20));
    }
    drop(idler);
    live.shutdown().expect("graceful shutdown");
    let report = handle.join().expect("server thread");
    assert!(
        report.idle_evicted >= 1,
        "the silent connection must be evicted at the deadline"
    );
    assert!(served > 0 && report.stats.completed as usize >= served);
}

/// Reads one frame off a blocking socket, buffering what follows it.
fn read_frame(s: &mut TcpStream, rbuf: &mut Vec<u8>) -> WireFrame {
    loop {
        match decode_frame(rbuf, MAX_FRAME_LEN) {
            FrameStatus::Frame { frame, consumed } => {
                rbuf.drain(..consumed);
                return frame;
            }
            FrameStatus::Incomplete => {
                let mut chunk = [0u8; 16 * 1024];
                let n = s.read(&mut chunk).expect("read");
                assert!(n > 0, "server closed the connection");
                rbuf.extend_from_slice(&chunk[..n]);
            }
            other => panic!("server sent a malformed frame: {other:?}"),
        }
    }
}

/// A client that pipelines more requests than the in-flight cap in one
/// write is slowed down, not refused: the reactor holds the frames past
/// the cap back until the drain has answered the admitted ones, and every
/// answer is the one in-process serving gives.
#[test]
fn pipelined_requests_past_the_inflight_cap_are_held_back_not_refused() {
    let cfg = ServeConfig {
        threads: 1,
        ..ServeConfig::paper()
    };
    let stream = generate(&spec(0xCA9, 12, 1), &cfg.config, cfg.cca.as_ref());
    let reference = TranslationService::new(cfg.clone()).run(&stream);
    let net = NetConfig {
        max_inflight: 2,
        ..NetConfig::default()
    };
    let (addr, handle) = spawn_server(cfg.clone(), net);

    let mut burst = encode_frame(&WireFrame::Hello {
        version: WIRE_VERSION,
        tenant: 0,
        family_fp: None,
    });
    for (seq, req) in (0u32..).zip(&stream) {
        let module = encode_module(&BinaryModule {
            loops: vec![EncodedLoop {
                body: (*req.body).clone(),
                priority_hint: req.hints.priority.clone(),
                cca_hint: req.hints.cca_groups.clone(),
                family_hint: None,
            }],
        });
        burst.extend_from_slice(&encode_frame(&WireFrame::ReqModule {
            seq,
            key: req.key,
            module,
        }));
    }
    burst.extend_from_slice(&encode_frame(&WireFrame::Shutdown));
    let mut s = TcpStream::connect(&addr).expect("connect");
    s.write_all(&burst).expect("one pipelined write");

    let mut rbuf = Vec::new();
    let want = &reference.tenants[0].outcomes;
    assert_eq!(want.len(), 12);
    for (seq, w) in (0u32..).zip(want) {
        match read_frame(&mut s, &mut rbuf) {
            WireFrame::Outcome {
                seq: got,
                translation_cycles,
                translated,
                ..
            } => {
                assert_eq!(got, seq, "responses arrive in request order");
                assert_eq!(translation_cycles, w.translation_cycles, "request {seq}");
                let want_bytes = w
                    .translated
                    .as_deref()
                    .map(|t| encode_translated_loop(t).expect("schedule encodes"));
                assert_eq!(translated, want_bytes, "request {seq} schedule bytes");
            }
            other => panic!("request {seq} answered with {other:?}"),
        }
    }
    assert_eq!(read_frame(&mut s, &mut rbuf), WireFrame::Bye);
    let report = handle.join().expect("server thread");
    assert_eq!(report.stats.completed, 12);
    assert_eq!(report.tenants[0].stats, reference.tenants[0].stats);
}
