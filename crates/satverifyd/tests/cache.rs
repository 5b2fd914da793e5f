//! Verdict-cache semantics, end to end: a cache-served verdict is
//! byte-identical to a fresh one for every storable outcome, N
//! concurrent identical submissions run exactly one verification,
//! fingerprint collisions are never served, evictions respect the byte
//! budget, and a leader whose client disconnects hands the flight to a
//! parked follower instead of fanning out its cancellation.
//!
//! Same no-sleep [`Gate`] + ping-fence discipline as `tests/service.rs`.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use obs::EventLog;
use proofver::{FaultPlan, Gate};
use satverifyd::cache::{self, CacheKey};
use satverifyd::{
    BudgetSpec, Client, Endpoint, Request, Response, Server, ServerConfig,
    VerifyRequest, VerdictCache,
};

const XOR_SQUARE: &str = "p cnf 2 4\n1 2 0\n-1 -2 0\n1 -2 0\n-1 2 0\n";
const XOR_PROOF: &str = "2 0\n-2 0\n0\n";
const BAD_PROOF: &str = "0\n";

fn spin_until(predicate: impl Fn() -> bool) {
    while !predicate() {
        std::thread::yield_now();
    }
}

fn job(id: &str, proof: &str, budget: BudgetSpec) -> Request {
    Request::Verify(VerifyRequest {
        id: Some(id.to_string()),
        formula: Some(XOR_SQUARE.to_string()),
        proof: Some(proof.to_string()),
        budget,
        ..VerifyRequest::default()
    })
}

fn cached_server() -> satverifyd::ServerHandle {
    let config = ServerConfig::default().workers(1).cache_enabled(true);
    Server::bind(&Endpoint::tcp("127.0.0.1:0"), config).expect("bind")
}

fn recv_result(client: &mut Client) -> satverifyd::JobResult {
    match client.recv().expect("recv") {
        Response::Result(r) => r,
        other => panic!("expected a result, got {other:?}"),
    }
}

/// A verdict served from the cache is byte-identical (modulo the
/// submitter's `id` and wall-clock latency, which are per-response by
/// design) to the verdict a fresh verification produces — for all three
/// storable outcomes.
#[test]
fn cache_served_verdict_is_byte_identical_to_fresh() {
    let cases: [(&str, &str, BudgetSpec); 3] = [
        ("verified", XOR_PROOF, BudgetSpec::default()),
        ("rejected", BAD_PROOF, BudgetSpec::default()),
        (
            "exhausted",
            XOR_PROOF,
            BudgetSpec { max_propagations: Some(1), ..BudgetSpec::default() },
        ),
    ];
    for (expect, proof, budget) in cases {
        let handle = cached_server();
        let mut client = Client::connect(&handle.local_endpoint()).expect("connect");
        client.send(&job("fresh", proof, budget.clone())).expect("send");
        let fresh = recv_result(&mut client);
        assert_eq!(fresh.outcome, expect, "fresh {expect}: {fresh:?}");
        spin_until(|| handle.stats().cache_misses == 1);

        client.send(&job("served", proof, budget)).expect("send");
        let served = recv_result(&mut client);
        assert_eq!(served.id.as_deref(), Some("served"), "submitter's own id");
        let snapshot = handle.stats();
        assert_eq!(snapshot.cache_hits, 1, "{expect}: second submission hit");
        assert_eq!(snapshot.verify_us.count, 1, "{expect}: one verification ran");

        let fresh_line = Response::Result(cache::normalize(&fresh)).to_line();
        let served_line = Response::Result(cache::normalize(&served)).to_line();
        assert_eq!(fresh_line, served_line, "{expect}: verdicts differ");

        // a hit is still a disposition: both submissions are accounted
        assert_eq!(snapshot.accounted(), 2, "{expect}");
        // ... but only real runs enter the verify histogram; hits get
        // their own series
        assert_eq!(snapshot.cache_hit_us.count, 1, "{expect}");
        assert_eq!(snapshot.e2e_us.count, 2, "{expect}: hits still count e2e");

        handle.shutdown();
        handle.join();
    }
}

/// N concurrent identical submissions: one leader verifies, the rest
/// coalesce onto its flight and are fanned the same verdict — exactly
/// one verification runs, and every submitter gets a response bearing
/// its own id.
#[test]
fn single_flight_coalesces_concurrent_identical_jobs() {
    let gate = Gate::new();
    let hold = gate.clone();
    let config = ServerConfig::default()
        .workers(1)
        .cache_enabled(true)
        .fault_factory(Arc::new(move |_seq| {
            FaultPlan::none().hold_before_run(hold.clone())
        }));
    let handle = Server::bind(&Endpoint::tcp("127.0.0.1:0"), config).expect("bind");

    let mut client = Client::connect(&handle.local_endpoint()).expect("connect");
    client.send(&job("n-0", XOR_PROOF, BudgetSpec::default())).expect("send");
    gate.await_blocked(1);
    for i in 1..4 {
        client
            .send(&job(&format!("n-{i}"), XOR_PROOF, BudgetSpec::default()))
            .expect("send");
    }
    client.send(&Request::Ping).expect("fence");
    assert!(matches!(client.recv().expect("pong"), Response::Pong));
    // the fence proves all four were admitted before the leader ran
    assert_eq!(handle.stats().cache_coalesced, 3, "three followers parked");

    gate.open();
    let mut ids = Vec::new();
    for _ in 0..4 {
        let result = recv_result(&mut client);
        assert_eq!(result.outcome, "verified");
        ids.push(result.id.expect("id echoed"));
    }
    ids.sort();
    assert_eq!(ids, ["n-0", "n-1", "n-2", "n-3"], "every submitter answered");

    let snapshot = handle.stats();
    assert_eq!(snapshot.verify_us.count, 1, "exactly one verification ran");
    assert_eq!(snapshot.cache_misses, 1);
    assert_eq!(snapshot.cache_hits, 0, "followers coalesced, not hit");
    assert_eq!(snapshot.verified, 4, "each coalesced job is a disposition");
    assert_eq!(snapshot.e2e_us.count, 4);

    handle.shutdown();
    handle.join();
}

/// Two keys with the same 64-bit fingerprint but different content must
/// never share a verdict: equality is on the full key bytes, the hash
/// is only a bucket index.
#[test]
fn fingerprint_collision_is_never_served() {
    let cache: VerdictCache<u32> = VerdictCache::new(1 << 20);
    let a = CacheKey::from_raw_parts(42, b"formula-a".to_vec());
    let b = CacheKey::from_raw_parts(42, b"formula-b".to_vec());

    assert!(matches!(cache.admit(&a, 1), cache::Admit::Leader(1)));
    let verdict = satverifyd::JobResult {
        outcome: "verified".to_string(),
        ..satverifyd::JobResult::default()
    };
    cache.complete(&a, Some(&verdict));
    assert_eq!(cache.entry_count(), 1);

    // same bucket, different content: a fresh flight, not a hit
    match cache.admit(&b, 2) {
        cache::Admit::Leader(2) => {}
        cache::Admit::Hit { .. } => panic!("collision served a verdict"),
        _ => panic!("collision coalesced onto a different flight"),
    }
}

/// A byte budget too small for two entries evicts the older one, and
/// the evicted entry misses on resubmission.
#[test]
fn eviction_respects_the_byte_budget() {
    // one entry costs its key bytes plus per-entry overhead; a budget
    // holding one 48-byte-key entry but not two forces an eviction
    let cache: VerdictCache<u32> = VerdictCache::new(250);
    let verdict = satverifyd::JobResult {
        outcome: "verified".to_string(),
        ..satverifyd::JobResult::default()
    };
    let a = CacheKey::from_raw_parts(1, vec![b'a'; 48]);
    let b = CacheKey::from_raw_parts(2, vec![b'b'; 48]);
    assert!(matches!(cache.admit(&a, 1), cache::Admit::Leader(_)));
    let (_, evictions) = cache.complete(&a, Some(&verdict));
    assert_eq!(evictions, 0);
    assert!(matches!(cache.admit(&b, 2), cache::Admit::Leader(_)));
    let (_, evictions) = cache.complete(&b, Some(&verdict));
    assert!(evictions >= 1, "storing b had to evict a");
    assert!(cache.bytes_used() <= 250, "budget holds after eviction");
    // the survivor still hits; the evicted key is a fresh flight again
    assert!(matches!(cache.admit(&b, 3), cache::Admit::Hit { .. }));
    assert!(matches!(cache.admit(&a, 4), cache::Admit::Leader(_)));
}

/// A `Vec<u8>` sink the test can read back through an `Arc`, to fence
/// on lifecycle events.
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

/// The leader's client disconnects while its job is held: the
/// cancellation must not fan out to the coalesced follower from another
/// connection — the follower is promoted to a fresh run and still gets
/// its verdict.
#[test]
fn leader_disconnect_promotes_the_follower() {
    let gate = Gate::new();
    let hold = gate.clone();
    let buf = Arc::new(Mutex::new(Vec::new()));
    let log =
        Arc::new(EventLog::from_writer(Box::new(SharedSink(Arc::clone(&buf)))));
    let config = ServerConfig::default()
        .workers(1)
        .cache_enabled(true)
        .event_log(Arc::clone(&log))
        .fault_factory(Arc::new(move |_seq| {
            FaultPlan::none().hold_before_run(hold.clone())
        }));
    let handle = Server::bind(&Endpoint::tcp("127.0.0.1:0"), config).expect("bind");

    let mut leader = Client::connect(&handle.local_endpoint()).expect("connect");
    let mut follower = Client::connect(&handle.local_endpoint()).expect("connect");
    leader.send(&job("leader", XOR_PROOF, BudgetSpec::default())).expect("send");
    gate.await_blocked(1);
    follower
        .send(&job("follower", XOR_PROOF, BudgetSpec::default()))
        .expect("send");
    follower.send(&Request::Ping).expect("fence");
    assert!(matches!(follower.recv().expect("pong"), Response::Pong));
    assert_eq!(handle.stats().cache_coalesced, 1);

    drop(leader); // cancels the held run — but not the follower
    // `disconnected` is emitted after the cancel token flips, so once
    // it is in the log the held run is certain to observe cancellation
    spin_until(|| {
        log.flush().expect("flush");
        let text =
            String::from_utf8(buf.lock().expect("sink").clone()).expect("utf8");
        text.contains("\"disconnected\"")
    });
    gate.open();
    let result = recv_result(&mut follower);
    assert_eq!(result.id.as_deref(), Some("follower"));
    assert_eq!(result.outcome, "verified", "promotion re-ran the job");

    let snapshot = handle.stats();
    assert_eq!(snapshot.verified, 1);
    assert_eq!(snapshot.exhausted, 1, "the leader's run was cancelled");

    handle.shutdown();
    handle.join();
}

/// The key is derived from the decoded content, not from the line: a
/// repeat that orders its fields differently and escapes its text
/// differently (`\u0070` for `p`, `\t` for a tab, a space before a
/// colon) is still a hit, while a repeat whose content differs by one
/// byte is not.
#[test]
fn a_differently_spelled_repeat_is_still_a_hit() {
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    let handle = cached_server();
    let addr = handle.local_endpoint().to_string();
    let mut stream =
        TcpStream::connect(addr.trim_start_matches("tcp:")).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut round_trip = |line: &str| -> satverifyd::JobResult {
        stream.write_all(format!("{line}\n").as_bytes()).expect("write");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        match Response::parse(reply.trim_end()).expect("parses") {
            Response::Result(r) => r,
            other => panic!("expected a result, got {other:?}"),
        }
    };
    let warm_formula = format!("{XOR_SQUARE}c\ttab\n");
    let warm = Request::Verify(VerifyRequest {
        id: Some("warm".into()),
        formula: Some(warm_formula),
        proof: Some(XOR_PROOF.into()),
        ..VerifyRequest::default()
    });
    assert!(warm.to_line().contains(r"c\ttab"));
    assert_eq!(round_trip(&warm.to_line()).outcome, "verified");
    spin_until(|| handle.stats().cache_misses == 1);

    let respelled = concat!(
        r#"{"proof" : "\u0032 0\n-2 0\n0\n", "id":"respelled", "#,
        r#""formula":"\u0070 cnf 2 4\n1 2 0\n-1 -2 0\n1 -2 0\n-1 2 0\nc\u0009tab\n", "#,
        r#""op":"verify"}"#,
    );
    let served = round_trip(respelled);
    assert_eq!(served.outcome, "verified");
    assert_eq!(served.id.as_deref(), Some("respelled"));
    assert_eq!(handle.stats().cache_hits, 1, "the respelled repeat hit");
    assert_eq!(handle.stats().verify_us.count, 1, "no second verification");

    // one more byte of content is a different job
    let changed = respelled.replace(r"-2 0\n0\n", r"-2 0\n0\n\n");
    assert_eq!(round_trip(&changed).outcome, "verified");
    assert_eq!(handle.stats().cache_hits, 1, "different content misses");
    assert_eq!(handle.stats().cache_misses, 2);

    drop(reader);
    handle.shutdown();
    handle.join();
}
