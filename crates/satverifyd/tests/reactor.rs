//! I/O-model tests: the readiness-driven reactor holds a thousand idle
//! connections on a bounded thread count, the thread-per-connection
//! model remains selectable and fully functional, both models frame
//! request lines the same way however the bytes arrive, and every
//! reader — both models and the router — answers a line that is not
//! UTF-8 with `bad-request` and keeps the connection.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use satverifyd::{
    Client, Endpoint, ErrorCode, IoModel, Request, Response, Router, RouterConfig, Server,
    ServerConfig, VerifyRequest,
};

const XOR_SQUARE: &str = "p cnf 2 4\n1 2 0\n-1 -2 0\n1 -2 0\n-1 2 0\n";
const XOR_PROOF: &str = "2 0\n-2 0\n0\n";

fn verify_job(id: &str) -> Request {
    Request::Verify(VerifyRequest {
        id: Some(id.to_string()),
        formula: Some(XOR_SQUARE.to_string()),
        proof: Some(XOR_PROOF.to_string()),
        ..VerifyRequest::default()
    })
}

/// The explicit thread-per-connection model still round-trips jobs and
/// control requests.
#[test]
fn threaded_model_round_trips() {
    let config = ServerConfig::default().workers(1).io(IoModel::Threads);
    let handle = Server::bind(&Endpoint::tcp("127.0.0.1:0"), config).expect("bind");
    let mut client = Client::connect(&handle.local_endpoint()).expect("connect");
    assert!(matches!(client.request(&Request::Ping).expect("ping"), Response::Pong));
    match client.request(&verify_job("t-0")).expect("verify") {
        Response::Result(r) => assert_eq!(r.outcome, "verified"),
        other => panic!("expected a result, got {other:?}"),
    }
    drop(client);
    handle.shutdown();
    handle.join();
}

/// Threads currently alive in this process, from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn thread_count() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

/// A thousand idle connections cost the reactor a poll set, not a
/// thousand parked threads — and the server still answers through any
/// of them afterwards.
#[cfg(target_os = "linux")]
#[test]
fn reactor_holds_a_thousand_idle_connections_with_bounded_threads() {
    minipoll::raise_nofile_limit(4096).expect("raise nofile limit");
    let handle =
        Server::bind(&Endpoint::tcp("127.0.0.1:0"), ServerConfig::default().workers(2))
            .expect("bind");
    let endpoint = handle.local_endpoint();

    let mut idle = Vec::with_capacity(1000);
    for i in 0..1000 {
        match Client::connect(&endpoint) {
            Ok(client) => idle.push(client),
            Err(e) => panic!("connect {i}: {e}"),
        }
    }
    // the accept backlog may still hold some: prove all 1000 are
    // serviced by round-tripping through the last one accepted
    let last = idle.last_mut().expect("clients");
    assert!(matches!(last.request(&Request::Ping).expect("ping"), Response::Pong));

    let threads = thread_count();
    assert!(
        threads < 64,
        "idle connections must not cost threads: {threads} alive with \
         1000 connections open"
    );

    // the server still verifies under the full poll set
    match idle[0].request(&verify_job("soak-0")).expect("verify") {
        Response::Result(r) => assert_eq!(r.outcome, "verified"),
        other => panic!("expected a result, got {other:?}"),
    }

    drop(idle);
    handle.shutdown();
    handle.join();
}

/// How the test client hands a connection its request bytes.
#[derive(Clone, Copy, Debug)]
enum Delivery {
    /// One write per line.
    Whole,
    /// One write per byte.
    ByteAtATime,
    /// Lines end in `\r\n`, and each write stops between the two.
    SplitInsideCrLf,
    /// Every line in one write.
    AllInOneWrite,
}

fn tcp_addr(endpoint: &Endpoint) -> String {
    endpoint.to_string().trim_start_matches("tcp:").to_string()
}

/// The request lines of one framing run, without line ends: a short
/// job, a ping, and a job whose line is several 16 KiB read chunks
/// long.
fn framing_requests() -> Vec<String> {
    let long_formula = format!("c {}\n{XOR_SQUARE}", "x".repeat(40 * 1024));
    let long = Request::Verify(VerifyRequest {
        id: Some("long".into()),
        formula: Some(long_formula),
        proof: Some(XOR_PROOF.into()),
        ..VerifyRequest::default()
    });
    vec![verify_job("short").to_line(), Request::Ping.to_line(), long.to_line()]
}

fn deliver(stream: &mut TcpStream, lines: &[String], delivery: Delivery) {
    let end = if matches!(delivery, Delivery::SplitInsideCrLf) { "\r\n" } else { "\n" };
    let bytes: Vec<u8> = lines.iter().flat_map(|l| format!("{l}{end}").into_bytes()).collect();
    match delivery {
        Delivery::Whole => {
            for line in lines {
                stream.write_all(format!("{line}\n").as_bytes()).expect("write");
            }
        }
        Delivery::ByteAtATime => {
            for b in &bytes {
                stream.write_all(std::slice::from_ref(b)).expect("write");
            }
        }
        Delivery::SplitInsideCrLf => {
            for piece in bytes.split_inclusive(|&b| b == b'\r') {
                stream.write_all(piece).expect("write");
                // give the server a chance to read the `\r` alone
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        Delivery::AllInOneWrite => stream.write_all(&bytes).expect("write"),
    }
}

/// Reads one response line and parses it, with the latency (which
/// varies run to run) cleared.
fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    match Response::parse(line.trim_end()).unwrap_or_else(|e| panic!("{e}: {line:?}")) {
        Response::Result(mut r) => {
            r.latency_ms = None;
            Response::Result(r)
        }
        other => other,
    }
}

/// Sends the framing requests one way, then a final `ping` ended by EOF
/// instead of a newline, and returns every response in a stable order.
fn framed_responses(io: IoModel, delivery: Delivery) -> Vec<String> {
    let handle = Server::bind(
        &Endpoint::tcp("127.0.0.1:0"),
        ServerConfig::default().workers(1).io(io),
    )
    .expect("bind");
    let mut stream = TcpStream::connect(tcp_addr(&handle.local_endpoint())).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let requests = framing_requests();
    deliver(&mut stream, &requests, delivery);
    // every job answers before the EOF, which would cancel what is left
    let mut responses: Vec<String> =
        (0..requests.len()).map(|_| read_response(&mut reader).to_line()).collect();
    stream.write_all(Request::Ping.to_line().as_bytes()).expect("write");
    stream.shutdown(Shutdown::Write).expect("half-close");
    responses.push(read_response(&mut reader).to_line());
    let mut rest = String::new();
    reader.read_line(&mut rest).expect("read");
    assert_eq!(rest, "", "{io:?}/{delivery:?}: nothing after the final answer");
    handle.shutdown();
    handle.join();
    responses.sort();
    responses
}

/// However the bytes of a request line arrive — whole, one at a time,
/// split between `\r` and `\n`, several lines per write, longer than a
/// read chunk, or the last one ended by EOF — both I/O models answer
/// exactly the same.
#[test]
fn both_io_models_frame_lines_alike_however_the_bytes_arrive() {
    let baseline = framed_responses(IoModel::Reactor, Delivery::Whole);
    let parsed: Vec<Response> =
        baseline.iter().map(|l| Response::parse(l).expect("parses")).collect();
    assert_eq!(parsed.iter().filter(|r| matches!(r, Response::Pong)).count(), 2);
    for id in ["long", "short"] {
        assert!(
            parsed.iter().any(|r| matches!(
                r,
                Response::Result(r) if r.outcome == "verified" && r.id.as_deref() == Some(id)
            )),
            "{id} verified: {baseline:?}"
        );
    }
    for io in [IoModel::Reactor, IoModel::Threads] {
        for delivery in [
            Delivery::Whole,
            Delivery::ByteAtATime,
            Delivery::SplitInsideCrLf,
            Delivery::AllInOneWrite,
        ] {
            assert_eq!(framed_responses(io, delivery), baseline, "{io:?}/{delivery:?}");
        }
    }
}

/// A `verify` line whose formula comment holds bytes that are not
/// UTF-8, a blank line, then a valid line on the same connection.
fn send_bad_then_good(endpoint: &Endpoint) -> (Response, Response) {
    let mut stream = TcpStream::connect(tcp_addr(endpoint)).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let good = verify_job("after-bad").to_line();
    let at = good.find("p cnf").expect("a formula");
    let mut bytes = good.as_bytes()[..at].to_vec();
    bytes.extend_from_slice(b"c \xff\xfe\\n");
    bytes.extend_from_slice(&good.as_bytes()[at..]);
    assert!(std::str::from_utf8(&bytes).is_err());
    bytes.extend_from_slice(b"\n \r\n");
    bytes.extend_from_slice(good.as_bytes());
    bytes.push(b'\n');
    stream.write_all(&bytes).expect("write");
    let first = read_response(&mut reader);
    let second = read_response(&mut reader);
    (first, second)
}

fn assert_bad_request_then_verdict((first, second): (Response, Response), reader: &str) {
    match first {
        Response::Error { code, message, .. } => {
            assert_eq!(code, ErrorCode::BadRequest, "{reader}: {message}");
            assert!(message.contains("not UTF-8"), "{reader}: {message}");
            assert!(message.contains("offset"), "{reader}: names the byte: {message}");
        }
        other => panic!("{reader}: expected bad-request, got {other:?}"),
    }
    match second {
        Response::Result(r) => {
            assert_eq!(r.outcome, "verified", "{reader}");
            assert_eq!(r.id.as_deref(), Some("after-bad"), "{reader}");
        }
        other => panic!("{reader}: the next line still gets its verdict, got {other:?}"),
    }
}

/// A request line that is not UTF-8 is not JSON: every reader answers
/// it with `bad-request`, keeps the connection, skips a blank line and
/// answers the next one.
#[test]
fn a_line_that_is_not_utf8_is_a_bad_request_on_every_reader() {
    for io in [IoModel::Reactor, IoModel::Threads] {
        let handle = Server::bind(
            &Endpoint::tcp("127.0.0.1:0"),
            ServerConfig::default().workers(1).io(io),
        )
        .expect("bind");
        assert_bad_request_then_verdict(
            send_bad_then_good(&handle.local_endpoint()),
            &format!("{io:?}"),
        );
        handle.shutdown();
        handle.join();
    }

    let backend = Server::bind(&Endpoint::tcp("127.0.0.1:0"), ServerConfig::default().workers(1))
        .expect("bind backend");
    let router = Router::bind(
        &Endpoint::tcp("127.0.0.1:0"),
        RouterConfig::new(vec![backend.local_endpoint()]),
    )
    .expect("bind router");
    assert_bad_request_then_verdict(send_bad_then_good(&router.local_endpoint()), "router");
    router.shutdown();
    router.join();
    backend.shutdown();
    backend.join();
}
