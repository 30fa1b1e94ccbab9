//! End-to-end pins for the campaign service (`repro serve`), over real TCP
//! clients against an in-process server on an ephemeral port:
//!
//! * N concurrent identical requests coalesce into exactly **one**
//!   computation, and every response body is byte-identical to a direct
//!   in-process run of the same campaign;
//! * a freshly bound server on the same cache directory restarts **warm**:
//!   the first request is already a byte-identical cache hit;
//! * malformed request JSON is a typed 422, not a connection drop;
//! * with one worker and a zero-depth queue, a request arriving while the
//!   slot is held is **shed** with HTTP 429;
//! * the occupancy gauges return to zero after a concurrent burst;
//! * `GET /metrics` parses as Prometheus text, `GET /requests` exposes the
//!   per-request span trees, and recording them keeps a cache hit
//!   byte-identical;
//! * a request whose `X-Deadline-Ms` budget expires is a typed 504 with a
//!   `Retry-After`, the occupancy gauges return to zero, and a server-wide
//!   `deadline_ms` default behaves the same without the header;
//! * a corrupted or torn cache entry is quarantined (moved, never deleted)
//!   on restart and the key recomputes byte-identically;
//! * `GET /readyz` is ready on a healthy server and flips to 503 once the
//!   cache persistence tier degrades;
//! * a stuck client is cut off by the read timeout without wedging the
//!   server, and raw non-HTTP garbage gets a typed 400;
//! * every non-200 response the server renders (400, 404, 422, 429, 500,
//!   the three 503s and 504) is pinned byte for byte.

use dls_chaos::HostFaultPlan;
use dls_suite::dls_repro::hagerup_exp::{run_figure_resilient, HagerupConfig};
use dls_suite::dls_repro::report::{format_csv, wasted_rows};
use dls_suite::dls_repro::runner::{CancelFlag, ExecContext};
use dls_suite::dls_repro::server::{ServeConfig, Server};
use dls_telemetry::{parse_prometheus_text, Logger, Snapshot, Telemetry};
use serde::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dls-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct TestServer {
    addr: SocketAddr,
    cancel: CancelFlag,
    handle: std::thread::JoinHandle<Result<(), dls_suite::dls_repro::error::ReproError>>,
}

fn config(cache_dir: &Path, workers: usize, queue_depth: usize, hold_ms: u64) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: cache_dir.to_path_buf(),
        workers,
        queue_depth,
        hold_ms,
        ..ServeConfig::default()
    }
}

fn start(cache_dir: &Path, workers: usize, queue_depth: usize, hold_ms: u64) -> TestServer {
    start_with(config(cache_dir, workers, queue_depth, hold_ms))
}

fn start_with(cfg: ServeConfig) -> TestServer {
    let cancel = CancelFlag::new();
    let server =
        Server::bind(&cfg, Telemetry::enabled(), Logger::enabled(), cancel.clone()).unwrap();
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    TestServer { addr, cancel, handle }
}

impl TestServer {
    /// Cancels the accept loop and pins the graceful-interrupt exit class.
    fn stop(self) {
        self.cancel.cancel();
        let outcome = self.handle.join().unwrap();
        let err = outcome.expect_err("a cancelled server reports Interrupted");
        assert_eq!(err.exit_code(), 130, "graceful shutdown exit class");
    }
}

/// One raw HTTP exchange; returns (status, headers lowercased, body).
fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> (u16, Vec<(String, String)>, Vec<u8>) {
    exchange_with_headers(addr, method, path, &[], body)
}

/// [`exchange`] with extra request headers (e.g. `X-Deadline-Ms`).
fn exchange_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra: &[(&str, &str)],
    body: &[u8],
) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut head =
        format!("{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n", body.len());
    for (name, value) in extra {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    parse_response(&raw)
}

/// Splits a raw HTTP/1.1 response into (status, headers lowercased, body).
fn parse_response(raw: &[u8]) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("header/body separator");
    let head = std::str::from_utf8(&raw[..split]).unwrap();
    let body = raw[split + 4..].to_vec();
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next().unwrap().split_whitespace().nth(1).unwrap().parse().unwrap();
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, body)
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
}

/// Scrapes `/metrics.json` and parses it back into a [`Snapshot`].
fn snapshot(addr: SocketAddr) -> Snapshot {
    let (status, _, body) = exchange(addr, "GET", "/metrics.json", b"");
    assert_eq!(status, 200);
    Snapshot::from_json(std::str::from_utf8(&body).unwrap()).unwrap()
}

fn metric(addr: SocketAddr, name: &str) -> Option<u64> {
    snapshot(addr).counter(name)
}

/// The small fig5 cell every test submits, and the identical direct
/// in-process computation of its CSV.
const SPEC: &[u8] = br#"{"fig":"fig5","runs":2,"seed":11,"pes":[2,4],"techniques":["SS","FAC"]}"#;

fn direct_csv() -> String {
    let mut cfg = HagerupConfig::paper(1024, 2);
    cfg.threads = 1;
    cfg.seed = 11;
    cfg.pes = vec![2, 4];
    cfg.techniques = vec!["SS".parse().unwrap(), "FAC".parse().unwrap()];
    let rows =
        run_figure_resilient(&cfg, &Telemetry::disabled(), &ExecContext::transient()).unwrap();
    let (headers, table) = wasted_rows(&rows);
    format_csv(&headers, &table)
}

#[test]
fn concurrent_identical_requests_compute_once_and_match_direct_run() {
    let dir = tmp_dir("coalesce");
    let server = start(&dir, 2, 8, 0);
    let addr = server.addr;

    let (status, _, body) = exchange(addr, "GET", "/healthz", b"");
    assert_eq!((status, body.as_slice()), (200, &b"ok\n"[..]));

    let clients: Vec<_> =
        (0..4).map(|_| std::thread::spawn(move || exchange(addr, "POST", "/run", SPEC))).collect();
    let responses: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    let expected = direct_csv();
    assert!(!expected.is_empty());
    for (status, headers, body) in &responses {
        assert_eq!(*status, 200);
        assert!(header(headers, "x-cache").is_some(), "every /run response is cache-tagged");
        assert_eq!(
            std::str::from_utf8(body).unwrap(),
            expected,
            "server response is byte-identical to direct computation"
        );
    }
    let snap = snapshot(addr);
    assert_eq!(
        snap.counter("serve.computations"),
        Some(1),
        "identical concurrent requests coalesce into one computation"
    );
    // The scrape itself is counted before it is routed: healthz + 4 runs
    // + this /metrics.json request.
    assert_eq!(snap.counter("serve.requests"), Some(6));

    // A later repeat is a plain cache hit.
    let (status, headers, body) = exchange(addr, "POST", "/run", SPEC);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-cache"), Some("hit"));
    assert_eq!(std::str::from_utf8(&body).unwrap(), expected);
    assert_eq!(metric(addr, "serve.computations"), Some(1));

    server.stop();

    // A new server over the same cache directory restarts warm: first
    // request is already a byte-identical hit, nothing recomputes.
    let warm = start(&dir, 2, 8, 0);
    let (status, headers, body) = exchange(warm.addr, "POST", "/run", SPEC);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-cache"), Some("hit"), "warm restart from disk");
    assert_eq!(std::str::from_utf8(&body).unwrap(), expected);
    assert_eq!(metric(warm.addr, "serve.computations").unwrap_or(0), 0);
    warm.stop();
}

/// A warm hit is answered as soon as it arrives: the accept loop blocks in
/// `accept` rather than polling, so sequential hits over real TCP do not
/// wait for a poll tick (a 5 ms tick alone would put the median above
/// 5 ms).
#[test]
fn sequential_warm_hits_answer_without_waiting() {
    let dir = tmp_dir("warm-latency");
    let server = start(&dir, 1, 4, 0);
    let addr = server.addr;
    let (status, _, expected) = exchange(addr, "POST", "/run", SPEC);
    assert_eq!(status, 200);

    // Head and body in one write, so the client's own Nagle delay is not
    // part of what is measured.
    let request =
        [format!("POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n", SPEC.len()).as_bytes(), SPEC]
            .concat();
    let mut latencies: Vec<Duration> = (0..100)
        .map(|_| {
            let started = Instant::now();
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&request).unwrap();
            let mut raw = Vec::new();
            stream.read_to_end(&mut raw).unwrap();
            let elapsed = started.elapsed();
            let (status, headers, body) = parse_response(&raw);
            assert_eq!((status, header(&headers, "x-cache")), (200, Some("hit")));
            assert_eq!(body, expected, "every hit is byte-identical");
            elapsed
        })
        .collect();
    latencies.sort();
    let median = latencies[latencies.len() / 2];
    assert!(median < Duration::from_millis(2), "median warm hit took {median:?}");
    server.stop();
}

/// An idle server blocked in `accept` still notices a cancellation.
#[test]
fn an_idle_server_stops_promptly_when_cancelled() {
    let dir = tmp_dir("idle-cancel");
    let TestServer { cancel, handle, .. } = start(&dir, 1, 1, 0);
    std::thread::sleep(Duration::from_millis(50));
    let cancelled = Instant::now();
    cancel.cancel();
    while !handle.is_finished() {
        assert!(cancelled.elapsed() < Duration::from_secs(1), "still serving 1 s after cancel");
        std::thread::sleep(Duration::from_millis(1));
    }
    let err = handle.join().unwrap().expect_err("a cancelled server reports Interrupted");
    assert_eq!(err.exit_code(), 130);
}

#[test]
fn malformed_and_invalid_requests_are_typed_4xx() {
    let dir = tmp_dir("badreq");
    let server = start(&dir, 1, 1, 0);
    let addr = server.addr;

    let (status, _, body) = exchange(addr, "POST", "/run", b"this is not json");
    assert_eq!(status, 422, "malformed JSON is an invalid-spec rejection");
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("\"class\":\"invalid-spec\""), "{text}");
    assert!(text.contains("\"exit_code\":4"), "{text}");

    let (status, _, _) = exchange(addr, "POST", "/run", br#"{"fig":"fig99","runs":2}"#);
    assert_eq!(status, 422, "unknown figure");

    let (status, _, _) = exchange(addr, "GET", "/nope", b"");
    assert_eq!(status, 404);

    let (status, _, _) = exchange(addr, "DELETE", "/run", b"");
    assert_eq!(status, 400, "wrong method on a real endpoint");

    server.stop();
}

#[test]
fn full_queue_sheds_with_429() {
    let dir = tmp_dir("shed");
    // One worker, no queue, and every cold computation holds its slot for
    // at least 1.5 s — long enough that the second (different-key) request
    // below deterministically finds the slot busy.
    let server = start(&dir, 1, 0, 1500);
    let addr = server.addr;

    let slow = std::thread::spawn(move || exchange(addr, "POST", "/run", SPEC));
    // Wait until the first request holds the worker slot.
    let deadline = Instant::now() + Duration::from_secs(10);
    while metric(addr, "serve.admission_granted") != Some(1) {
        assert!(Instant::now() < deadline, "first request never acquired the slot");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Different seed -> different cache key -> a second cold computation,
    // which must be shed rather than queued.
    let other = br#"{"fig":"fig5","runs":2,"seed":12,"pes":[2,4],"techniques":["SS","FAC"]}"#;
    let (status, headers, body) = exchange(addr, "POST", "/run", other);
    assert_eq!(status, 429, "{}", String::from_utf8_lossy(&body));
    assert!(String::from_utf8(body).unwrap().contains("\"class\":\"shed\""));
    let retry: u64 =
        header(&headers, "retry-after").expect("shed carries Retry-After").parse().unwrap();
    assert!(retry >= 1, "computed Retry-After is at least one second");
    assert_eq!(metric(addr, "serve.admission_shed"), Some(1));

    let (status, _, _) = slow.join().unwrap();
    assert_eq!(status, 200, "the slow request itself still completes");
    server.stop();
}

/// Regression pin for the occupancy gauges: after a concurrent burst that
/// exercises every exit path (cold computations, queued requests, a shed
/// and a malformed request), `serve.workers_busy` and `serve.queue_depth`
/// must both be back at zero — a slot leaked on any error path would show
/// up here as a stuck non-zero gauge.
#[test]
fn occupancy_gauges_return_to_zero_after_burst() {
    let dir = tmp_dir("burst");
    let server = start(&dir, 2, 8, 0);
    let addr = server.addr;

    let mut clients = Vec::new();
    for seed in 30..36u64 {
        let spec =
            format!(r#"{{"fig":"fig5","runs":2,"seed":{seed},"pes":[2],"techniques":["SS"]}}"#);
        clients.push(std::thread::spawn(move || exchange(addr, "POST", "/run", spec.as_bytes())));
    }
    clients.push(std::thread::spawn(move || exchange(addr, "POST", "/run", b"not json")));
    for c in clients {
        let (status, _, _) = c.join().unwrap();
        assert!(status == 200 || status == 422, "burst request ended with {status}");
    }

    let snap = snapshot(addr);
    assert_eq!(snap.counter("serve.computations"), Some(6), "six distinct cold keys");
    assert_eq!(snap.gauge("serve.workers_busy"), Some(0.0), "every slot released");
    assert_eq!(snap.gauge("serve.queue_depth"), Some(0.0), "queue drained");
    server.stop();
}

/// `GET /metrics` speaks the Prometheus text-exposition format (the JSON
/// snapshot moved to `/metrics.json`).
#[test]
fn metrics_endpoint_is_prometheus_text() {
    let dir = tmp_dir("prom");
    let server = start(&dir, 1, 4, 0);
    let addr = server.addr;

    let (status, _, _) = exchange(addr, "POST", "/run", SPEC);
    assert_eq!(status, 200);

    let (status, headers, body) = exchange(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "content-type"), Some("text/plain; version=0.0.4"));
    let text = std::str::from_utf8(&body).unwrap();
    let samples = parse_prometheus_text(text).expect("scrape parses as Prometheus text");
    let names: Vec<&str> = samples.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"serve_requests_total"), "counter with _total suffix: {names:?}");
    assert!(names.contains(&"serve_workers_busy"), "gauge: {names:?}");
    assert!(
        names.contains(&"serve_cold_s_bucket"),
        "histogram buckets for the cold computation: {names:?}"
    );
    let inf = samples
        .iter()
        .filter(|s| s.name == "serve_cold_s_bucket")
        .find(|s| s.labels.iter().any(|(k, v)| k == "le" && v == "+Inf"))
        .expect("+Inf bucket present");
    assert_eq!(inf.value, 1.0, "one cold computation observed");
    server.stop();
}

/// `GET /requests` exposes the span tree of every handled request, and
/// recording spans never perturbs the response: the cache hit is
/// byte-identical to the miss that populated it.
#[test]
fn request_spans_are_exported_and_do_not_perturb_responses() {
    let dir = tmp_dir("spans");
    let server = start(&dir, 1, 4, 0);
    let addr = server.addr;

    let (status, _, miss_body) = exchange(addr, "POST", "/run", SPEC);
    assert_eq!(status, 200);
    let (status, headers, hit_body) = exchange(addr, "POST", "/run", SPEC);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-cache"), Some("hit"));
    assert_eq!(hit_body, miss_body, "cache hit byte-identical while spans are recorded");
    let (status, _, _) = exchange(addr, "POST", "/run", b"not json");
    assert_eq!(status, 422);

    let (status, headers, body) = exchange(addr, "GET", "/requests", b"");
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "content-type"), Some("application/json"));
    let v: Value = serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
    let requests = v.get("requests").and_then(Value::as_array).unwrap();
    assert_eq!(requests.len(), 3);

    let outcome = |r: &Value| r.get("outcome").and_then(Value::as_str).unwrap().to_string();
    let span_names = |r: &Value| -> Vec<String> {
        r.get("spans")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|s| s.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect()
    };
    assert_eq!(outcome(&requests[0]), "miss");
    assert_eq!(
        span_names(&requests[0]),
        vec!["parse", "cache_lookup", "admission_wait", "compute", "serialize"],
        "the miss walks every phase"
    );
    assert_eq!(outcome(&requests[1]), "hit");
    assert!(span_names(&requests[1]).contains(&"serialize".to_string()));
    assert_eq!(outcome(&requests[2]), "bad-request");
    // Ids are server-unique and monotonic across the trail.
    let ids: Vec<f64> =
        requests.iter().map(|r| r.get("id").and_then(Value::as_f64).unwrap()).collect();
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");

    // The campaign behind the miss drove the progress tracker to
    // completion: done == total > 0, and the payload is well-formed.
    let (status, _, body) = exchange(addr, "GET", "/progress", b"");
    assert_eq!(status, 200);
    let p: Value = serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
    let done = p.get("done").and_then(Value::as_f64).unwrap();
    let total = p.get("total").and_then(Value::as_f64).unwrap();
    assert!(total > 0.0 && done == total, "done={done} total={total}");
    assert!(p.get("elapsed_s").and_then(Value::as_f64).is_some());
    server.stop();
}

/// A request whose deadline budget expires is a typed 504 that still frees
/// its worker slot, and the follow-up request for the same key succeeds.
#[test]
fn expired_deadline_is_a_504_that_releases_its_slot() {
    let dir = tmp_dir("deadline");
    // Every cold computation holds its slot for 400 ms, so a 50 ms budget
    // deterministically expires whether or not the compute itself is fast.
    let server = start(&dir, 1, 4, 400);
    let addr = server.addr;

    let (status, headers, body) =
        exchange_with_headers(addr, "POST", "/run", &[("X-Deadline-Ms", "50")], SPEC);
    assert_eq!(status, 504, "{}", String::from_utf8_lossy(&body));
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("\"class\":\"deadline\""), "{text}");
    let retry: u64 =
        header(&headers, "retry-after").expect("504 carries Retry-After").parse().unwrap();
    assert!(retry >= 1);

    // The span trail records the outcome before anything else runs.
    let (_, _, trail) = exchange(addr, "GET", "/requests", b"");
    let v: Value = serde_json::from_str(std::str::from_utf8(&trail).unwrap()).unwrap();
    let requests = v.get("requests").and_then(Value::as_array).unwrap();
    let last = requests.last().unwrap();
    assert_eq!(last.get("outcome").and_then(Value::as_str), Some("deadline"));

    let snap = snapshot(addr);
    assert_eq!(snap.counter("serve.deadline_expired"), Some(1));
    assert_eq!(snap.gauge("serve.workers_busy"), Some(0.0), "slot released after the 504");
    assert_eq!(snap.gauge("serve.queue_depth"), Some(0.0));

    // A malformed deadline header is a usage rejection, not a computation.
    let (status, _, body) =
        exchange_with_headers(addr, "POST", "/run", &[("X-Deadline-Ms", "0")], SPEC);
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));

    // Without a budget the same key now succeeds, byte-identical to the
    // direct computation — either as a fresh compute or as a hit on the
    // result the expired request still published.
    let (status, headers, body) = exchange(addr, "POST", "/run", SPEC);
    assert_eq!(status, 200);
    assert!(header(&headers, "x-cache").is_some());
    assert_eq!(std::str::from_utf8(&body).unwrap(), direct_csv());
    server.stop();
}

/// The server-wide `--deadline-ms` default applies to requests that carry
/// no `X-Deadline-Ms` header.
#[test]
fn server_default_deadline_applies_without_a_header() {
    let dir = tmp_dir("deadline-default");
    let mut cfg = config(&dir, 1, 4, 400);
    cfg.deadline_ms = Some(50);
    let server = start_with(cfg);
    let addr = server.addr;

    let (status, _, body) = exchange(addr, "POST", "/run", SPEC);
    assert_eq!(status, 504, "{}", String::from_utf8_lossy(&body));
    assert!(String::from_utf8(body).unwrap().contains("\"class\":\"deadline\""));
    assert_eq!(metric(addr, "serve.deadline_expired"), Some(1));
    server.stop();
}

/// A corrupted (torn) cache entry and a foreign file are quarantined on
/// restart — moved aside, never deleted — and the key transparently
/// recomputes byte-identically.
#[test]
fn corrupted_cache_entries_are_quarantined_and_recomputed() {
    let dir = tmp_dir("quarantine");
    let server = start(&dir, 1, 4, 0);
    let (status, _, first) = exchange(server.addr, "POST", "/run", SPEC);
    assert_eq!(status, 200);
    server.stop();

    // Tear the persisted entry in half and plant a garbage file beside it.
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "json"))
        .expect("the computation persisted one cache entry");
    let raw = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &raw[..raw.len() / 2]).unwrap();
    std::fs::write(dir.join("deadbeef.json"), b"{ not a cache entry").unwrap();

    let server = start(&dir, 1, 4, 0);
    let addr = server.addr;
    assert_eq!(
        metric(addr, "serve.cache_quarantined"),
        Some(2),
        "both the torn entry and the foreign file are quarantined at boot"
    );
    assert!(!entry.exists(), "the torn entry was moved out of the cache directory");
    let held = std::fs::read_dir(dir.join("quarantine")).unwrap().count();
    assert_eq!(held, 2, "quarantined files are retained for inspection, not deleted");

    // The poisoned key recomputes transparently and byte-identically.
    let (status, headers, body) = exchange(addr, "POST", "/run", SPEC);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-cache"), Some("miss"), "corrupt entry does not serve");
    assert_eq!(body, first, "recomputed answer is byte-identical to the original");
    let (status, headers, body) = exchange(addr, "POST", "/run", SPEC);
    assert_eq!((status, header(&headers, "x-cache")), (200, Some("hit")), "self-healed");
    assert_eq!(body, first);
    server.stop();
}

/// `/readyz` reports ready on a healthy server and flips to 503 once the
/// cache persistence tier degrades (every write errors via the fault plan).
#[test]
fn readyz_flips_when_the_cache_tier_degrades() {
    let healthy = start(&tmp_dir("readyz-ok"), 1, 4, 0);
    let (status, _, body) = exchange(healthy.addr, "GET", "/readyz", b"");
    assert_eq!(status, 200);
    assert!(String::from_utf8(body).unwrap().contains("\"ready\":true"));
    healthy.stop();

    let dir = tmp_dir("readyz-degraded");
    let mut cfg = config(&dir, 1, 4, 0);
    cfg.fault_plan = Some(HostFaultPlan::none().with_seed(41).with_errors(1.0));
    let server = start_with(cfg);
    let addr = server.addr;

    // The computation itself still answers (persistence is fail-soft)...
    let (status, _, body) = exchange(addr, "POST", "/run", SPEC);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    assert_eq!(std::str::from_utf8(&body).unwrap(), direct_csv());
    // ...but the server now reports itself not-ready.
    let (status, _, body) = exchange(addr, "GET", "/readyz", b"");
    assert_eq!(status, 503);
    assert!(String::from_utf8(body).unwrap().contains("cache-degraded"));
    server.stop();
}

/// A client that connects and then stops sending is cut off by the read
/// timeout with a typed 400; the server keeps serving afterwards.
#[test]
fn stuck_client_is_timed_out_without_wedging_the_server() {
    let dir = tmp_dir("stuck");
    let mut cfg = config(&dir, 1, 4, 0);
    cfg.read_timeout_ms = 150;
    let server = start_with(cfg);
    let addr = server.addr;

    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).unwrap();
    // Half a request head, then silence.
    stream.write_all(b"POST /run HTTP/1.1\r\nHost: test\r\n").unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(5), "read timeout fired, not the 10 s default");
    let (status, _, _) = parse_response(&raw);
    assert_eq!(status, 400, "the stalled read is answered as malformed HTTP");

    let (status, _, body) = exchange(addr, "GET", "/healthz", b"");
    assert_eq!((status, body.as_slice()), (200, &b"ok\n"[..]), "server unaffected");
    server.stop();
}

/// Raw non-HTTP bytes on the wire get a typed 400 and a clean close.
#[test]
fn raw_garbage_bytes_are_rejected_with_a_400() {
    let dir = tmp_dir("garbage");
    let server = start(&dir, 1, 4, 0);
    let addr = server.addr;

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"\xff\xfe\x00garbage\r\n\r\n").unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let (status, _, body) = parse_response(&raw);
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
    assert!(String::from_utf8(body).unwrap().contains("\"class\":\"usage\""));

    let (status, _, _) = exchange(addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    server.stop();
}

/// Writes `request` verbatim and returns the whole raw response.
fn raw_exchange(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request).unwrap();
    read_raw(stream)
}

fn read_raw(mut stream: TcpStream) -> String {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    String::from_utf8(raw).unwrap()
}

/// The exact bytes of a JSON response with `status` and `extra` header lines.
fn json_reply(status: &str, extra: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
         Connection: close\r\n{extra}\r\n{body}",
        body.len()
    )
}

/// A connection whose request head is sent without its closing blank line:
/// the server has accepted it, and its handler waits for the rest.
fn half_sent(addr: SocketAddr, head: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(head.as_bytes()).unwrap();
    stream
}

const INTERRUPTED: &str = "interrupted — no `--resume` directory was configured, so completed \
                           runs were not journaled and a rerun starts from scratch";

/// Exact bytes of the usage rejections, 404, 422, 429 shed, and the 503
/// and 500 a shutdown gives a computation and the request coalesced onto it.
#[test]
fn rejections_render_byte_exact() {
    let dir = tmp_dir("golden-rejections");
    let server = start(&dir, 1, 0, 1500);
    let addr = server.addr;

    let usage = |message: &str| {
        json_reply(
            "400 Bad Request",
            "",
            &format!(r#"{{"error":"{message}","class":"usage","exit_code":2}}"#),
        )
    };
    assert_eq!(
        raw_exchange(addr, b"\xff\xfe\x00garbage\r\n\r\n"),
        usage("malformed HTTP request: non-UTF-8 header line")
    );
    let body =
        format!("POST /run HTTP/1.1\r\nX-Deadline-Ms: 0\r\nContent-Length: {}\r\n\r\n", SPEC.len());
    assert_eq!(
        raw_exchange(addr, &[body.as_bytes(), SPEC].concat()),
        usage("X-Deadline-Ms must be a positive integer of milliseconds, got `0`")
    );
    assert_eq!(
        raw_exchange(addr, b"DELETE /run HTTP/1.1\r\n\r\n"),
        usage("method DELETE not allowed on /run")
    );
    assert_eq!(
        raw_exchange(addr, b"GET /nope HTTP/1.1\r\n\r\n"),
        json_reply(
            "404 Not Found",
            "",
            r#"{"error":"no such endpoint: /nope","class":"not-found"}"#
        )
    );
    assert_eq!(
        raw_exchange(addr, b"POST /run HTTP/1.1\r\nContent-Length: 4\r\n\r\n[1 ]"),
        json_reply(
            "422 Unprocessable Entity",
            "",
            r#"{"error":"request must be a JSON object","class":"invalid-spec","exit_code":4}"#
        )
    );

    // One slot, no queue, a 1.5 s hold: a second cold key is shed.
    let slow = std::thread::spawn(move || exchange(addr, "POST", "/run", SPEC));
    let waited = Instant::now();
    while metric(addr, "serve.admission_granted") != Some(1) {
        assert!(waited.elapsed() < Duration::from_secs(10), "first request never got the slot");
        std::thread::sleep(Duration::from_millis(5));
    }
    let other = br#"{"fig":"fig5","runs":2,"seed":12,"pes":[2,4],"techniques":["SS","FAC"]}"#;
    let request = format!("POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n", other.len());
    assert_eq!(
        raw_exchange(addr, &[request.as_bytes(), other].concat()),
        json_reply(
            "429 Too Many Requests",
            "Retry-After: 1\r\n",
            r#"{"error":"server at capacity: request was shed","class":"shed"}"#
        )
    );
    assert_eq!(slow.join().unwrap().0, 200);

    // Two requests for one fresh key, accepted before shutdown (the
    // healthz answer proves it: connections are accepted in order) and
    // completed after it: the leader's computation is interrupted (503)
    // and the request coalesced onto it reports the leader's failure (500).
    let fresh = br#"{"fig":"fig5","runs":2,"seed":13,"pes":[2],"techniques":["SS"]}"#;
    let head = format!("POST /run HTTP/1.1\r\nContent-Length: {}\r\n", fresh.len());
    let mut pending = [half_sent(addr, &head), half_sent(addr, &head)];
    assert_eq!(exchange(addr, "GET", "/healthz", b"").0, 200);
    server.cancel.cancel();
    for stream in &mut pending {
        stream.write_all(&[&b"\r\n"[..], fresh].concat()).unwrap();
    }
    let mut replies: Vec<String> = pending.into_iter().map(read_raw).collect();
    replies.sort();
    let interrupted =
        format!(r#"{{"error":"{INTERRUPTED}","class":"interrupted","exit_code":130}}"#);
    let coalesced = format!(
        r#"{{"error":"coalesced computation failed: {INTERRUPTED}","class":"io","exit_code":3}}"#
    );
    assert_eq!(
        replies,
        [
            json_reply("500 Internal Server Error", "", &coalesced),
            json_reply("503 Service Unavailable", "", &interrupted),
        ]
    );
    let err = server.handle.join().unwrap().expect_err("a cancelled server reports Interrupted");
    assert_eq!(err.exit_code(), 130);
}

/// Exact bytes of the 504 deadline, both not-ready `/readyz` bodies and the
/// accept loop's 503 connection shed.
#[test]
fn deadline_readiness_and_overload_responses_render_byte_exact() {
    // Every persistence write fails, so the published result degrades the
    // cache tier; the 400 ms hold outlasts the 50 ms budget.
    let mut cfg = config(&tmp_dir("golden-deadline"), 1, 4, 400);
    cfg.fault_plan = Some(HostFaultPlan::none().with_seed(41).with_errors(1.0));
    let server = start_with(cfg);
    let request = format!(
        "POST /run HTTP/1.1\r\nX-Deadline-Ms: 50\r\nContent-Length: {}\r\n\r\n",
        SPEC.len()
    );
    assert_eq!(
        raw_exchange(server.addr, &[request.as_bytes(), SPEC].concat()),
        json_reply(
            "504 Gateway Timeout",
            "Retry-After: 1\r\n",
            r#"{"error":"deadline expired before the computation completed","class":"deadline"}"#
        )
    );
    assert_eq!(
        raw_exchange(server.addr, b"GET /readyz HTTP/1.1\r\n\r\n"),
        json_reply("503 Service Unavailable", "", r#"{"ready":false,"reason":"cache-degraded"}"#)
    );
    server.stop();

    // One connection allowed: a half-sent request holds it, so the next
    // connection is shed unread; that request, completed after shutdown,
    // finds the server draining.
    let mut cfg = config(&tmp_dir("golden-overload"), 1, 4, 0);
    cfg.max_connections = 1;
    let server = start_with(cfg);
    let mut held = half_sent(server.addr, "GET /readyz HTTP/1.1\r\n");
    assert_eq!(
        raw_exchange(server.addr, b""),
        json_reply(
            "503 Service Unavailable",
            "Retry-After: 1\r\n",
            r#"{"error":"server at connection capacity: connection was shed","class":"overloaded"}"#
        )
    );
    server.cancel.cancel();
    held.write_all(b"\r\n").unwrap();
    assert_eq!(
        read_raw(held),
        json_reply("503 Service Unavailable", "", r#"{"ready":false,"reason":"draining"}"#)
    );
    let err = server.handle.join().unwrap().expect_err("a cancelled server reports Interrupted");
    assert_eq!(err.exit_code(), 130);
}
