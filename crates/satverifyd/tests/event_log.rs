//! Deterministic job-lifecycle event-log tests: every admitted job's
//! timeline can be reconstructed from the JSONL log, every admitted job
//! reaches exactly one terminal event (even under disconnect), rejected
//! submissions never grow a timeline, and the latency histograms agree
//! with the log.
//!
//! No sleeps — the same [`Gate`] + ping-fence discipline as
//! `tests/service.rs`.

use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use obs::eventlog::parse_lines;
use obs::json::Json;
use obs::EventLog;
use proofver::{FaultPlan, Gate};
use satverifyd::{
    Client, Endpoint, ErrorCode, Request, Response, Server, ServerConfig,
    VerifyRequest,
};

const XOR_SQUARE: &str = "p cnf 2 4\n1 2 0\n-1 -2 0\n1 -2 0\n-1 2 0\n";
const XOR_PROOF: &str = "2 0\n-2 0\n0\n";

fn verify_with_id(id: &str) -> Request {
    Request::Verify(VerifyRequest {
        id: Some(id.to_string()),
        formula: Some(XOR_SQUARE.to_string()),
        proof: Some(XOR_PROOF.to_string()),
        ..VerifyRequest::default()
    })
}

fn spin_until(predicate: impl Fn() -> bool) {
    while !predicate() {
        std::thread::yield_now();
    }
}

/// A `Vec<u8>` sink the test can read back through an `Arc`.
struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().expect("sink").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn captured_log() -> (Arc<EventLog>, Arc<Mutex<Vec<u8>>>) {
    let buf = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::new(EventLog::from_writer(Box::new(SharedSink(Arc::clone(&buf)))));
    (log, buf)
}

fn read_events(buf: &Arc<Mutex<Vec<u8>>>) -> Vec<Json> {
    let text = String::from_utf8(buf.lock().expect("sink").clone()).expect("utf8");
    parse_lines(&text).expect("well-formed JSONL")
}

/// Waits for `disconnected` events from all `conns` reader threads
/// (which detach, so they can outlive `join()` briefly), flushing the
/// buffered log each poll. `disconnected` is the last event a reader
/// emits, so once all are visible every earlier event is too; worker
/// events are already fenced by `join()`.
fn await_disconnects(
    log: &EventLog,
    buf: &Arc<Mutex<Vec<u8>>>,
    conns: usize,
) -> Vec<Json> {
    loop {
        log.flush().expect("flush");
        let events = read_events(buf);
        let seen = events
            .iter()
            .filter(|e| field_str(e, "event").as_deref() == Some("disconnected"))
            .count();
        if seen >= conns {
            return events;
        }
        std::thread::yield_now();
    }
}

fn field_str(event: &Json, key: &str) -> Option<String> {
    event.get(key).and_then(Json::as_str).map(str::to_string)
}

fn field_u64(event: &Json, key: &str) -> Option<u64> {
    event.get(key).and_then(Json::as_int).and_then(|n| u64::try_from(n).ok())
}

const TERMINALS: [&str; 5] =
    ["verified", "rejected", "exhausted", "invalid_input", "cancelled"];

/// One job's events, keyed by the wire `id`, in log order.
fn timelines(events: &[Json]) -> HashMap<String, Vec<&Json>> {
    let mut map: HashMap<String, Vec<&Json>> = HashMap::new();
    for event in events {
        if let Some(id) = field_str(event, "id") {
            map.entry(id).or_default().push(event);
        }
    }
    map
}

#[test]
fn multi_client_timelines_are_complete_and_ordered() {
    let gate = Gate::new();
    let hold = gate.clone();
    let (log, buf) = captured_log();
    let config = ServerConfig::default()
        .workers(1)
        .queue_capacity(8)
        .fault_factory(Arc::new(move |_seq| {
            FaultPlan::none().hold_before_run(hold.clone())
        }))
        .event_log(Arc::clone(&log));
    let handle =
        Server::bind(&Endpoint::tcp("127.0.0.1:0"), config).expect("bind");

    // client A's first job parks in the single worker; everything else
    // queues behind it, guaranteeing non-zero queue waits
    let mut a = Client::connect(&handle.local_endpoint()).expect("connect a");
    let mut b = Client::connect(&handle.local_endpoint()).expect("connect b");
    a.send(&verify_with_id("a-0")).expect("send");
    gate.await_blocked(1);
    a.send(&verify_with_id("a-1")).expect("send");
    b.send(&verify_with_id("b-0")).expect("send");
    b.send(&verify_with_id("b-1")).expect("send");
    a.send(&Request::Ping).expect("fence");
    assert!(matches!(a.recv().expect("pong"), Response::Pong));
    b.send(&Request::Ping).expect("fence");
    assert!(matches!(b.recv().expect("pong"), Response::Pong));

    gate.open();
    for _ in 0..2 {
        assert!(matches!(a.recv().expect("result"), Response::Result(r) if r.outcome == "verified"));
        assert!(matches!(b.recv().expect("result"), Response::Result(r) if r.outcome == "verified"));
    }

    // percentile acceptance: the held job makes verify time large, the
    // three queued jobs make queue wait large, so p50/p99 are non-zero
    let stats = match a.request(&Request::Stats).expect("stats") {
        Response::Stats(reply) => reply,
        other => panic!("expected stats, got {other:?}"),
    };
    for name in ["queue_wait", "verify", "e2e"] {
        let summary = stats.latency(name).unwrap_or_else(|| panic!("{name} summary"));
        assert_eq!(summary.count, 4, "{name} saw every job");
        assert!(summary.p50 > 0, "{name} p50 = {}", summary.p50);
        assert!(summary.p99 > 0, "{name} p99 = {}", summary.p99);
        assert!(summary.p50 <= summary.p99, "{name} percentiles ordered");
        assert!(summary.min <= summary.p50 && summary.p99 <= summary.max.max(1));
    }

    drop(a);
    drop(b);
    handle.shutdown();
    handle.join();

    let events = await_disconnects(&log, &buf, 2);
    // two connections traced end to end
    let connected =
        events.iter().filter(|e| field_str(e, "event").as_deref() == Some("connected"));
    assert_eq!(connected.count(), 2, "one connected event per client");

    let timelines = timelines(&events);
    assert_eq!(timelines.len(), 4, "a-0 a-1 b-0 b-1");
    for (id, steps) in &timelines {
        let kinds: Vec<String> =
            steps.iter().filter_map(|e| field_str(e, "event")).collect();
        assert_eq!(
            kinds.iter().filter(|k| TERMINALS.contains(&k.as_str())).count(),
            1,
            "{id}: exactly one terminal event, got {kinds:?}"
        );
        for kind in ["received", "admitted", "started", "verified"] {
            assert!(kinds.iter().any(|k| k == kind), "{id} missing {kind}: {kinds:?}");
        }

        // every event of one job carries the same job number and conn
        let seqs: Vec<_> = steps.iter().filter_map(|e| field_u64(e, "job")).collect();
        assert!(seqs.windows(2).all(|w| w[0] == w[1]), "{id}: one job id");
        let conns: Vec<_> = steps.iter().filter_map(|e| field_u64(e, "conn")).collect();
        assert!(conns.windows(2).all(|w| w[0] == w[1]), "{id}: one conn");

        // causal timestamp order (admitted vs started is concurrent —
        // see docs/OBSERVABILITY.md — so it is not asserted here)
        let ts = |kind: &str| {
            steps
                .iter()
                .find(|e| field_str(e, "event").as_deref() == Some(kind))
                .and_then(|e| field_u64(e, "ts_us"))
                .unwrap_or_else(|| panic!("{id}: {kind} has ts_us"))
        };
        assert!(ts("received") <= ts("admitted"));
        assert!(ts("received") <= ts("started"));
        assert!(ts("started") <= ts("verified"));

        // the started event names the wait; the terminal names both costs
        let started = steps
            .iter()
            .find(|e| field_str(e, "event").as_deref() == Some("started"))
            .expect("started");
        assert!(field_u64(started, "queue_wait_us").is_some());
        let terminal = steps
            .iter()
            .find(|e| field_str(e, "event").as_deref() == Some("verified"))
            .expect("terminal");
        assert!(field_u64(terminal, "verify_us").is_some());
        assert!(field_u64(terminal, "e2e_us").is_some());
    }
}

#[test]
fn disconnect_still_terminates_every_admitted_job() {
    let gate = Gate::new();
    let hold = gate.clone();
    let (log, buf) = captured_log();
    let config = ServerConfig::default()
        .workers(1)
        .queue_capacity(8)
        .fault_factory(Arc::new(move |_seq| {
            FaultPlan::none().hold_before_run(hold.clone())
        }))
        .event_log(Arc::clone(&log));
    let handle =
        Server::bind(&Endpoint::tcp("127.0.0.1:0"), config).expect("bind");

    let mut client = Client::connect(&handle.local_endpoint()).expect("connect");
    client.send(&verify_with_id("running")).expect("send");
    gate.await_blocked(1);
    client.send(&verify_with_id("queued")).expect("send");
    client.send(&Request::Ping).expect("fence");
    assert!(matches!(client.recv().expect("pong"), Response::Pong));

    drop(client); // cancels `running`, purges `queued`
    spin_until(|| handle.stats().cancelled_queued == 1);
    gate.open();
    spin_until(|| handle.stats().exhausted == 1);

    // latency accounting under disconnect: both admitted jobs land in
    // the end-to-end histogram — the purged one included
    let snapshot = handle.stats();
    assert_eq!(snapshot.e2e_us.count, 2, "purged job is in the e2e histogram");
    assert_eq!(snapshot.verify_us.count, 1, "only the running job was checked");

    handle.shutdown();
    handle.join();

    let events = await_disconnects(&log, &buf, 1);
    let timelines = timelines(&events);
    let kinds = |id: &str| -> Vec<String> {
        timelines[id].iter().filter_map(|e| field_str(e, "event")).collect()
    };
    let running = kinds("running");
    assert!(running.iter().any(|k| k == "started"));
    assert_eq!(
        running.iter().filter(|k| TERMINALS.contains(&k.as_str())).count(),
        1,
        "mid-run cancellation terminates once: {running:?}"
    );
    assert!(running.iter().any(|k| k == "exhausted"), "{running:?}");

    let queued = kinds("queued");
    assert!(!queued.iter().any(|k| k == "started"), "purged unrun: {queued:?}");
    assert_eq!(
        queued.iter().filter(|k| TERMINALS.contains(&k.as_str())).count(),
        1,
        "purged job terminates once: {queued:?}"
    );
    assert!(queued.iter().any(|k| k == "cancelled"), "{queued:?}");
    let cancelled = timelines["queued"]
        .iter()
        .find(|e| field_str(e, "event").as_deref() == Some("cancelled"))
        .expect("cancelled event");
    assert!(field_u64(cancelled, "e2e_us").is_some(), "purge records e2e");
}

#[test]
fn rejected_submissions_get_a_reason_and_no_timeline() {
    let gate = Gate::new();
    let hold = gate.clone();
    let (log, buf) = captured_log();
    let config = ServerConfig::default()
        .workers(1)
        .queue_capacity(1)
        .fault_factory(Arc::new(move |_seq| {
            FaultPlan::none().hold_before_run(hold.clone())
        }))
        .event_log(Arc::clone(&log));
    let handle =
        Server::bind(&Endpoint::tcp("127.0.0.1:0"), config).expect("bind");

    let mut client = Client::connect(&handle.local_endpoint()).expect("connect");
    client.send(&verify_with_id("held")).expect("send");
    gate.await_blocked(1);
    client.send(&verify_with_id("fills-queue")).expect("send");
    client.send(&Request::Ping).expect("fence");
    assert!(matches!(client.recv().expect("pong"), Response::Pong));

    client.send(&verify_with_id("bounced")).expect("send");
    match client.recv().expect("rejection") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Overloaded),
        other => panic!("expected overloaded, got {other:?}"),
    }

    gate.open();
    for _ in 0..2 {
        assert!(matches!(client.recv().expect("result"), Response::Result(_)));
    }
    client.send(&Request::Shutdown).expect("send");
    assert!(matches!(client.recv().expect("ack"), Response::ShuttingDown));
    client.send(&verify_with_id("too-late")).expect("send");
    match client.recv().expect("refusal") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Draining),
        other => panic!("expected draining, got {other:?}"),
    }

    drop(client);
    // rejected submissions never reach the latency histograms
    spin_until(|| handle.stats().accounted() == handle.stats().submitted);
    let snapshot = handle.stats();
    assert_eq!(snapshot.e2e_us.count, 2, "held + fills-queue only");
    handle.join();

    let events = await_disconnects(&log, &buf, 1);
    let timelines = timelines(&events);
    for (id, reason) in [("bounced", "overloaded"), ("too-late", "draining")] {
        let steps = &timelines[id];
        let kinds: Vec<String> =
            steps.iter().filter_map(|e| field_str(e, "event")).collect();
        assert_eq!(kinds, ["received", "rejected"], "{id}: no timeline beyond rejection");
        let rejected = steps.last().expect("rejected event");
        assert_eq!(field_str(rejected, "reason").as_deref(), Some(reason), "{id}");
        assert!(field_u64(rejected, "job").is_some(), "{id}: rejection names a job id");
    }
}

/// A job's end-to-end time starts when its line is complete, before the
/// line is decoded: for a large inline hit, whose decode dominates its
/// cost, the terminal event's `e2e_us` exceeds the span from the
/// `received` event (emitted after the decode) to the terminal event.
#[test]
fn e2e_time_includes_the_decode_of_a_large_hit() {
    let (log, buf) = captured_log();
    let config = ServerConfig::default()
        .workers(1)
        .cache_enabled(true)
        .event_log(Arc::clone(&log));
    let handle = Server::bind(&Endpoint::tcp("127.0.0.1:0"), config).expect("bind");
    let formula = format!("c {}\n{XOR_SQUARE}", "x".repeat(128 * 1024));
    let job = |id: &str| {
        Request::Verify(VerifyRequest {
            id: Some(id.to_string()),
            formula: Some(formula.clone()),
            proof: Some(XOR_PROOF.to_string()),
            ..VerifyRequest::default()
        })
    };
    assert!(job("hit").to_line().len() >= 100 * 1024);
    let mut client = Client::connect(&handle.local_endpoint()).expect("connect");
    for id in ["warm", "hit"] {
        match client.request(&job(id)).expect("verify") {
            Response::Result(r) => assert_eq!(r.outcome, "verified", "{id}"),
            other => panic!("expected a result, got {other:?}"),
        }
    }
    assert_eq!(handle.stats().cache_hits, 1);
    drop(client);
    handle.shutdown();
    handle.join();

    let events = await_disconnects(&log, &buf, 1);
    let steps = &timelines(&events)["hit"];
    let event = |kind: &str| {
        steps
            .iter()
            .find(|e| field_str(e, "event").as_deref() == Some(kind))
            .unwrap_or_else(|| panic!("hit has a {kind} event"))
    };
    let terminal = event("verified");
    assert_eq!(field_str(terminal, "served").as_deref(), Some("cache"));
    let ts = |e: &Json| field_u64(e, "ts_us").expect("ts_us");
    let gap = ts(terminal) - ts(event("received"));
    let e2e = field_u64(terminal, "e2e_us").expect("e2e_us");
    assert!(e2e > gap, "e2e_us {e2e} must cover the decode before `received` (+{gap} µs)");
}
