//! `repro serve`: the campaign-as-a-service daemon.
//!
//! Determinism is the paper family's core asset: a campaign's result is a
//! pure function of (spec fingerprint, seed, git rev). This module turns
//! that purity into scale — a long-running server that accepts campaign
//! requests as JSON over a minimal HTTP/1.1 endpoint, executes them on the
//! existing resilient campaign runner, and answers repeat traffic from a
//! content-addressed [`cache`] at memcpy speed. The response to a cache
//! hit is **byte-identical** to recomputation (pinned by
//! `tests/serve.rs`).
//!
//! Pipeline per `POST /run`:
//!
//! 1. validate the request JSON into a [`HagerupConfig`] (422 on bad spec),
//! 2. derive the cache key from [`JournalMeta::cache_key`],
//! 3. resolve against the cache: hit → respond immediately (`X-Cache:
//!    hit`); an in-flight computation of the same key → coalesce onto it;
//!    otherwise lead a new flight,
//! 4. leaders pass two-level [`admission`] (bounded worker slots plus a
//!    bounded wait queue; beyond both → HTTP 429 shed, with a `Retry-After`
//!    derived from the live queue depth),
//! 5. compute via [`run_figure_resilient`], publish to the cache (entries
//!    persist through the fail-soft atomic-write seam for warm restarts),
//!    respond (`X-Cache: miss`).
//!
//! **Fault model** (DESIGN.md §18): every request may carry a deadline —
//! the server-wide `--deadline-ms` default or a per-request `X-Deadline-Ms`
//! header — enforced cooperatively at every blocking stage: a queued
//! request whose deadline passes leaves the queue as HTTP 504, and a
//! granted one runs under a per-request watchdog that cancels the campaign's
//! [`CancelFlag`] at the deadline (504, slot freed, no thread leak) and
//! logs warn-level heartbeats if a computation overruns 2× its deadline.
//! Cache persistence goes through the injectable [`HostIo`] seam, so
//! `repro chaos serve` can crash-exhaust and fault-storm the exact write
//! path production runs; corrupt entries quarantine on load rather than
//! serving wrong bytes. The accept loop sheds connections beyond
//! `--max-connections` with an immediate 503, and `GET /readyz` flips
//! not-ready during SIGINT drain and while the cache tier is degraded.
//!
//! Observability surfaces:
//!
//! * `GET /metrics` exports the server's [`Telemetry`] snapshot in the
//!   Prometheus text exposition format (request counts, admission
//!   outcomes, hit/miss counters, cold/warm latency histograms, queue-wait
//!   times, quarantine and deadline counters);
//!   `GET /metrics.json` keeps the JSON rendering of the same snapshot;
//! * every request is timed through its phases by [`spans`] and exported
//!   via `GET /requests` (a bounded recent-request ring);
//! * `GET /progress` reports the in-flight campaign's runs
//!   completed / total and ETA;
//! * `GET /healthz` answers liveness probes; `GET /readyz` readiness.

pub mod admission;
pub mod cache;
pub mod http;
pub mod spans;

use crate::error::ReproError;
use crate::hagerup_exp::{figure_n, run_figure_resilient, HagerupConfig};
use crate::journal::JournalMeta;
use crate::report::{format_csv, wasted_rows};
use crate::runner::{CancelFlag, ExecContext, Progress};
use admission::{Admission, Admit};
use cache::{Begin, ResultCache};
use dls_chaos::{ChaosIo, HostFaultPlan, HostIo, RealIo, RetryPolicy};
use dls_core::Technique;
use dls_telemetry::{to_prometheus_text, Logger, Telemetry};
use http::{Request, Response};
use serde::Value;
use spans::{RequestSpans, RequestTrail};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on `runs` a request may ask for — a service request is a
/// quick cell, not a day-long 1000-run grid (run those via the CLI).
pub const MAX_RUNS: u32 = 10_000;

/// Configuration of one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (port 0 picks a free port).
    pub addr: String,
    /// Directory persisted cache entries live in.
    pub cache_dir: PathBuf,
    /// Concurrent campaign executions (admission level one).
    pub workers: usize,
    /// Requests allowed to wait for a worker slot (admission level two);
    /// anything beyond is shed with HTTP 429.
    pub queue_depth: usize,
    /// Stop cleanly (exit 0) after handling this many connections.
    pub max_requests: Option<u64>,
    /// Testing/latency-injection knob: hold each cold computation's worker
    /// slot for at least this long, milliseconds.
    pub hold_ms: u64,
    /// Server-wide default request deadline, milliseconds (`None` = no
    /// deadline). A client `X-Deadline-Ms` header overrides it per request.
    pub deadline_ms: Option<u64>,
    /// Per-connection socket read timeout, milliseconds (0 disables).
    pub read_timeout_ms: u64,
    /// Per-connection socket write timeout, milliseconds (0 disables).
    pub write_timeout_ms: u64,
    /// Concurrent-connection bound; the accept loop sheds beyond it.
    pub max_connections: usize,
    /// Deterministic host-fault plan injected into cache persistence
    /// (`--host-fault-plan`); `None` runs on real host I/O.
    pub fault_plan: Option<HostFaultPlan>,
}

/// The defaults `repro serve` runs with: the only place they are written.
impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            cache_dir: PathBuf::from("repro-cache"),
            workers: 2,
            queue_depth: 8,
            max_requests: None,
            hold_ms: 0,
            deadline_ms: None,
            read_timeout_ms: 10_000,
            write_timeout_ms: 10_000,
            max_connections: 64,
            fault_plan: None,
        }
    }
}

/// State shared by every connection handler thread.
struct Shared {
    cache: ResultCache,
    admission: Admission,
    telemetry: Telemetry,
    logger: Logger,
    progress: Progress,
    trail: RequestTrail,
    cancel: CancelFlag,
    cfg: ServeConfig,
}

/// A bound (but not yet serving) campaign server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listen socket and opens (warm-loading) the result cache.
    /// `telemetry` should be enabled — `/metrics` exports its snapshot.
    /// `logger` receives structured request and campaign events (pass
    /// [`Logger::disabled`] to opt out; `GET /requests` works either way).
    /// `cancel` stops the accept loop; a cancelled server returns
    /// [`ReproError::Interrupted`] (exit 130) after draining in-flight
    /// handlers. Cache persistence runs on real host I/O unless the config
    /// carries a fault plan ([`ServeConfig::fault_plan`]).
    pub fn bind(
        cfg: &ServeConfig,
        telemetry: Telemetry,
        logger: Logger,
        cancel: CancelFlag,
    ) -> Result<Server, ReproError> {
        let io: Arc<dyn HostIo> = match &cfg.fault_plan {
            Some(plan) => Arc::new(ChaosIo::new(plan.clone(), &cfg.cache_dir)),
            None => Arc::new(RealIo),
        };
        Server::bind_with_io(cfg, telemetry, logger, cancel, io, RetryPolicy::standard())
    }

    /// [`Server::bind`] with an explicit [`HostIo`] + retry policy for the
    /// cache-persistence writes — the seam `repro chaos serve` uses to
    /// crash-exhaust the service's disk writes with a shared [`ChaosIo`]
    /// it can interrogate.
    pub fn bind_with_io(
        cfg: &ServeConfig,
        telemetry: Telemetry,
        logger: Logger,
        cancel: CancelFlag,
        io: Arc<dyn HostIo>,
        retry: RetryPolicy,
    ) -> Result<Server, ReproError> {
        let cache = ResultCache::open_with_io(&cfg.cache_dir, io, retry)
            .map_err(|e| ReproError::io(format!("{}: {e}", cfg.cache_dir.display())))?;
        if cache.quarantined() > 0 {
            telemetry.counter_add("serve.cache_quarantined", cache.quarantined());
        }
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| ReproError::io(format!("bind {}: {e}", cfg.addr)))?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                cache,
                admission: Admission::new(cfg.workers, cfg.queue_depth)
                    .with_telemetry(telemetry.clone()),
                telemetry,
                logger,
                progress: Progress::new(),
                trail: RequestTrail::default(),
                cancel,
                cfg: cfg.clone(),
            }),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("listener has a local address")
    }

    /// Serves until cancelled (→ [`ReproError::Interrupted`], exit 130) or
    /// until `max_requests` connections were handled (→ `Ok`, exit 0).
    /// Each connection is handled on its own thread, bounded by
    /// `max_connections` — beyond that the accept loop sheds with an
    /// immediate 503 instead of accumulating handler threads. In-flight
    /// handlers are drained before returning.
    pub fn run(self) -> Result<(), ReproError> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| ReproError::io(format!("listener: {e}")))?;
        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut handled: u64 = 0;
        let cfg = &self.shared.cfg;
        let outcome = loop {
            if self.shared.cancel.is_cancelled() {
                break Err(ReproError::Interrupted { resume_dir: None });
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    handles.retain(|h| !h.is_finished());
                    if handles.len() >= cfg.max_connections.max(1) {
                        // Shed on the accept thread without reading the
                        // request: the bound exists to protect the server
                        // from connection floods, so the answer must not
                        // cost a handler thread.
                        self.shared.telemetry.counter_inc("serve.connections_shed");
                        let mut stream = stream;
                        let _ = stream.set_nonblocking(false);
                        let _ = stream.set_write_timeout(Some(Duration::from_millis(1000)));
                        let retry = self.shared.admission.retry_after_secs();
                        let _ = http::write_response(&mut stream, &overloaded_response(retry));
                        continue;
                    }
                    handled += 1;
                    let shared = Arc::clone(&self.shared);
                    handles.push(std::thread::spawn(move || handle_connection(stream, &shared)));
                    if cfg.max_requests.is_some_and(|n| handled >= n) {
                        break Ok(());
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => break Err(ReproError::io(format!("accept: {e}"))),
            }
        };
        for h in handles {
            let _ = h.join();
        }
        outcome
    }
}

/// Converts a configured timeout to the socket API's representation
/// (0 = disabled = `None`).
fn socket_timeout(ms: u64) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms))
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let mut stream = stream;
    // Blocking I/O per connection; the accept loop is the only nonblocking
    // socket. A stuck client can neither stall reads past the read timeout
    // nor wedge the response write past the write timeout.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(socket_timeout(shared.cfg.read_timeout_ms));
    let _ = stream.set_write_timeout(socket_timeout(shared.cfg.write_timeout_ms));
    let response = match http::read_request(&stream) {
        Ok(request) => {
            shared.telemetry.counter_inc("serve.requests");
            route(&request, shared)
        }
        Err(e) => error_response(&ReproError::usage(format!("malformed HTTP request: {e}"))),
    };
    let _ = http::write_response(&mut stream, &response);
}

fn route(request: &Request, shared: &Shared) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::new(200, "OK", "text/plain", "ok\n"),
        ("GET", "/readyz") => readyz_response(shared),
        ("GET", "/metrics") => Response::new(
            200,
            "OK",
            "text/plain; version=0.0.4",
            to_prometheus_text(&shared.telemetry.snapshot()),
        ),
        ("GET", "/metrics.json") => {
            Response::new(200, "OK", "application/json", shared.telemetry.snapshot().to_json())
        }
        ("GET", "/progress") => {
            let p = shared.progress.snapshot();
            let body = Value::Object(vec![
                ("cell".into(), Value::String(p.label.clone())),
                ("done".into(), Value::U64(p.done)),
                ("total".into(), Value::U64(p.total)),
                ("elapsed_s".into(), Value::F64(p.elapsed_s)),
                ("eta_s".into(), p.eta_s.map_or(Value::Null, Value::F64)),
            ]);
            Response::new(
                200,
                "OK",
                "application/json",
                serde_json::to_string(&body).expect("progress body serialization"),
            )
        }
        ("GET", "/requests") => {
            Response::new(200, "OK", "application/json", shared.trail.to_json())
        }
        ("POST", "/run") => handle_run(request, shared),
        (_, "/run")
        | (_, "/metrics")
        | (_, "/metrics.json")
        | (_, "/healthz")
        | (_, "/readyz")
        | (_, "/progress")
        | (_, "/requests") => error_response(&ReproError::usage(format!(
            "method {} not allowed on {}",
            request.method, request.path
        ))),
        _ => {
            let body = Value::Object(vec![
                ("error".into(), Value::String(format!("no such endpoint: {}", request.path))),
                ("class".into(), Value::String("not-found".into())),
            ]);
            Response::new(
                404,
                "Not Found",
                "application/json",
                serde_json::to_string(&body).expect("not-found body serialization"),
            )
        }
    }
}

/// Readiness: ready only while the server is accepting new work *and* the
/// cache tier is healthy. Flips not-ready during SIGINT drain and when
/// cache persistence has degraded (warm restarts would be incomplete) —
/// a load balancer steers new traffic away while in-flight work finishes.
fn readyz_response(shared: &Shared) -> Response {
    let reason = if shared.cancel.is_cancelled() {
        Some("draining")
    } else if !shared.cache.degraded().is_empty() {
        Some("cache-degraded")
    } else {
        None
    };
    match reason {
        None => {
            let body = Value::Object(vec![("ready".into(), Value::Bool(true))]);
            Response::new(
                200,
                "OK",
                "application/json",
                serde_json::to_string(&body).expect("readyz body serialization"),
            )
        }
        Some(reason) => {
            let body = Value::Object(vec![
                ("ready".into(), Value::Bool(false)),
                ("reason".into(), Value::String(reason.into())),
            ]);
            Response::new(
                503,
                "Service Unavailable",
                "application/json",
                serde_json::to_string(&body).expect("readyz body serialization"),
            )
        }
    }
}

fn handle_run(request: &Request, shared: &Shared) -> Response {
    let id = shared.trail.next_id();
    let mut spans = RequestSpans::start();

    // Per-request deadline: the client header overrides the server default.
    let deadline_ms = match request.header("x-deadline-ms") {
        Some(raw) => match raw.trim().parse::<u64>() {
            Ok(ms) if ms >= 1 => Some(ms),
            _ => {
                shared.telemetry.counter_inc("serve.bad_requests");
                let response = error_response(&ReproError::usage(format!(
                    "X-Deadline-Ms must be a positive integer of milliseconds, got `{raw}`"
                )));
                finish_request(shared, id, String::new(), "bad-request", response.status, spans);
                return response;
            }
        },
        None => shared.cfg.deadline_ms,
    };
    let deadline = deadline_ms.map(|ms| (Instant::now() + Duration::from_millis(ms), ms));

    let (fig, cfg) = match spans.record("parse", || parse_run_request(&request.body)) {
        Ok(parsed) => parsed,
        Err(e) => {
            shared.telemetry.counter_inc("serve.bad_requests");
            let response = error_response(&e);
            finish_request(shared, id, String::new(), "bad-request", response.status, spans);
            return response;
        }
    };
    let meta = JournalMeta::new(&fig, cfg.fingerprint(), cfg.seed);
    let key = meta.cache_key();

    // `cache.begin` is where a follower of an in-flight computation blocks,
    // so this span covers both the lookup and any coalescing wait.
    match spans.record("cache_lookup", || shared.cache.begin(&key)) {
        Begin::Hit(cached) => {
            let warm = Instant::now();
            shared.telemetry.counter_inc("serve.cache_hits");
            let response = spans.record("serialize", || csv_response(&cached, true));
            shared.telemetry.observe_secs("serve.warm_s", warm.elapsed().as_secs_f64());
            finish_request(shared, id, key, "hit", response.status, spans);
            response
        }
        Begin::LeaderFailed(message) => {
            shared.telemetry.counter_inc("serve.coalesced_failures");
            let response =
                error_response(&ReproError::io(format!("coalesced computation failed: {message}")));
            finish_request(shared, id, key, "coalesced-failure", response.status, spans);
            response
        }
        Begin::Lead => {
            let admit = spans.record("admission_wait", || {
                shared.admission.admit(&shared.cancel, deadline.map(|(at, _)| at))
            });
            record_occupancy(shared);
            match admit {
                Admit::Shed => {
                    shared.telemetry.counter_inc("serve.admission_shed");
                    shared.cache.fail(&key, "request was shed: server at capacity".into());
                    let response = shed_response(shared.admission.retry_after_secs());
                    finish_request(shared, id, key, "shed", response.status, spans);
                    response
                }
                Admit::Cancelled => {
                    shared.cache.fail(&key, "server is shutting down".into());
                    let response = error_response(&ReproError::Interrupted { resume_dir: None });
                    finish_request(shared, id, key, "cancelled", response.status, spans);
                    response
                }
                Admit::Expired => {
                    shared.telemetry.counter_inc("serve.deadline_expired");
                    shared.cache.fail(&key, "deadline expired while queued".into());
                    let response = deadline_response(
                        "deadline expired while queued for a worker slot",
                        shared.admission.retry_after_secs(),
                    );
                    finish_request(shared, id, key, "deadline", response.status, spans);
                    response
                }
                Admit::Granted => {
                    shared.telemetry.counter_inc("serve.admission_granted");
                    let response = {
                        // The guard releases the slot and refreshes the
                        // occupancy gauges on *every* exit path — normal
                        // return, error response, or a panic unwinding
                        // this handler thread.
                        let _slot = SlotGuard { shared };
                        compute_and_publish(&key, &cfg, shared, &mut spans, deadline)
                    };
                    let outcome = match response.status {
                        200 => "miss",
                        504 => "deadline",
                        _ => "error",
                    };
                    finish_request(shared, id, key, outcome, response.status, spans);
                    response
                }
            }
        }
    }
}

/// Closes a request's span collector into the trail and the structured log.
fn finish_request(
    shared: &Shared,
    id: u64,
    key: String,
    outcome: &'static str,
    status: u16,
    spans: RequestSpans,
) {
    let record = spans.finish(id, key, outcome, status);
    if shared.logger.is_enabled() {
        shared.logger.info(
            "serve",
            "request",
            &[
                ("id", Value::U64(record.id)),
                ("key", Value::String(record.key.clone())),
                ("outcome", Value::String(outcome.into())),
                ("status", Value::U64(u64::from(status))),
                ("total_s", Value::F64(record.total_s)),
            ],
        );
    }
    shared.trail.push(record);
}

/// Holds one granted admission slot; dropping it — however the holder
/// exits, including by panic — releases the slot and refreshes the
/// occupancy gauges, so `serve.workers_busy`/`serve.queue_depth` always
/// return to the true depth.
struct SlotGuard<'a> {
    shared: &'a Shared,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.shared.admission.release();
        record_occupancy(self.shared);
    }
}

/// Deadline enforcement for one granted computation.
///
/// The campaign runs with a *request-scoped* [`CancelFlag`]; the watchdog
/// thread cancels it when the deadline passes (the runner's cooperative
/// cancellation seam then stops between runs — HTTP 504, slot freed, no
/// thread leak), propagates server-wide shutdown into the same flag, and
/// logs warn-level heartbeats for computations overrunning **2×** their
/// deadline, then once per further deadline interval. [`Watchdog::finish`]
/// joins the thread — the watchdog never outlives its request.
struct Watchdog {
    done: Arc<AtomicBool>,
    expired: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    fn spawn(
        deadline: Instant,
        deadline_ms: u64,
        request_cancel: CancelFlag,
        server_cancel: CancelFlag,
        logger: Logger,
        key: String,
    ) -> Watchdog {
        let done = Arc::new(AtomicBool::new(false));
        let expired = Arc::new(AtomicBool::new(false));
        let (done_w, expired_w) = (Arc::clone(&done), Arc::clone(&expired));
        let interval = Duration::from_millis(deadline_ms.max(1));
        let handle = std::thread::spawn(move || {
            // First heartbeat at 2× the deadline (measured from request
            // start, i.e. one full interval past expiry).
            let mut next_warn = deadline + interval;
            while !done_w.load(Ordering::Relaxed) {
                if server_cancel.is_cancelled() {
                    request_cancel.cancel();
                }
                let now = Instant::now();
                if now >= deadline {
                    if !expired_w.swap(true, Ordering::Relaxed) {
                        request_cancel.cancel();
                    }
                    if now >= next_warn {
                        logger.warn(
                            "serve",
                            "deadline-overrun",
                            &[
                                ("key", Value::String(key.clone())),
                                ("deadline_ms", Value::U64(deadline_ms)),
                                (
                                    "overrun_ms",
                                    Value::U64(now.duration_since(deadline).as_millis() as u64),
                                ),
                            ],
                        );
                        next_warn = now + interval;
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        Watchdog { done, expired, handle: Some(handle) }
    }

    /// Stops and joins the watchdog thread; returns whether the deadline
    /// expired while the computation ran.
    fn finish(mut self) -> bool {
        self.done.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        self.expired.load(Ordering::Relaxed)
    }
}

/// Runs the campaign for `key`, publishes the result (or failure) to the
/// cache, and renders the response. Caller holds a worker slot. With a
/// deadline, the computation runs under a [`Watchdog`]; an expired request
/// answers 504, but a result that *did* complete is still published to the
/// cache — the work is not wasted, and an identical retry hits.
fn compute_and_publish(
    key: &str,
    cfg: &HagerupConfig,
    shared: &Shared,
    spans: &mut RequestSpans,
    deadline: Option<(Instant, u64)>,
) -> Response {
    let cold = Instant::now();
    shared.telemetry.counter_inc("serve.computations");
    shared.telemetry.counter_inc("serve.cache_misses");
    let (cancel, watchdog) = match deadline {
        Some((at, ms)) => {
            let request_cancel = CancelFlag::new();
            let watchdog = Watchdog::spawn(
                at,
                ms,
                request_cancel.clone(),
                shared.cancel.clone(),
                shared.logger.clone(),
                key.to_string(),
            );
            (request_cancel, Some(watchdog))
        }
        None => (shared.cancel.clone(), None),
    };
    let ctx = ExecContext::transient()
        .with_cancel_flag(cancel)
        .with_logger(shared.logger.clone())
        .with_progress(shared.progress.clone());
    let result = spans.record("compute", || run_figure_resilient(cfg, &shared.telemetry, &ctx));
    if shared.cfg.hold_ms > 0 {
        // Latency-injection knob: keep the slot busy so admission behavior
        // (queueing, shedding, deadline expiry) can be exercised
        // deterministically.
        std::thread::sleep(Duration::from_millis(shared.cfg.hold_ms));
    }
    let expired = watchdog.is_some_and(Watchdog::finish);
    match result {
        Ok(rows) => {
            let response = spans.record("serialize", || {
                let (headers, table) = wasted_rows(&rows);
                let csv = format_csv(&headers, &table);
                let published = shared.cache.complete(key, csv);
                csv_response(&published, false)
            });
            shared.telemetry.observe_secs("serve.cold_s", cold.elapsed().as_secs_f64());
            if expired {
                // The result landed in the cache (an identical retry will
                // hit), but this request's budget is spent: answer 504.
                shared.telemetry.counter_inc("serve.deadline_expired");
                return deadline_response(
                    "deadline expired before the computation completed",
                    shared.admission.retry_after_secs(),
                );
            }
            response
        }
        Err(ReproError::Interrupted { .. }) if expired => {
            shared.telemetry.counter_inc("serve.deadline_expired");
            shared.cache.fail(key, "deadline expired mid-computation".into());
            deadline_response(
                "deadline expired before the computation completed",
                shared.admission.retry_after_secs(),
            )
        }
        Err(e) => {
            shared.cache.fail(key, e.to_string());
            error_response(&e)
        }
    }
}

fn record_occupancy(shared: &Shared) {
    let (running, queued) = shared.admission.depth();
    shared.telemetry.gauge_set("serve.workers_busy", running as f64);
    shared.telemetry.gauge_set("serve.queue_depth", queued as f64);
}

fn csv_response(body: &str, hit: bool) -> Response {
    Response::new(200, "OK", "text/csv", body.as_bytes().to_vec())
        .with_header("X-Cache", if hit { "hit" } else { "miss" })
}

/// Renders a typed [`ReproError`] as an HTTP response whose JSON body
/// carries the error class and the CLI exit code the same failure would
/// produce, so scripted clients map failures exactly like scripted CLI use.
pub fn error_response(e: &ReproError) -> Response {
    const INTERNAL: &str = "Internal Server Error";
    let (status, reason, class) = match e {
        ReproError::Usage(_) => (400, "Bad Request", "usage"),
        ReproError::InvalidSpec(_) => (422, "Unprocessable Entity", "invalid-spec"),
        ReproError::Interrupted { .. } => (503, "Service Unavailable", "interrupted"),
        ReproError::Io(_) => (500, INTERNAL, "io"),
        ReproError::Regression(_) => (500, INTERNAL, "regression"),
        ReproError::RunPanicked(_) => (500, INTERNAL, "run-panicked"),
        ReproError::Degraded(_) => (500, INTERNAL, "degraded"),
        ReproError::StdoutClosed => (500, INTERNAL, "stdout-closed"),
    };
    let body = Value::Object(vec![
        ("error".into(), Value::String(e.to_string())),
        ("class".into(), Value::String(class.into())),
        ("exit_code".into(), Value::U64(u64::from(e.exit_code()))),
    ]);
    Response::new(
        status,
        reason,
        "application/json",
        serde_json::to_string(&body).expect("error body serialization"),
    )
}

/// The 429 shed response; its body mirrors the error-body shape with the
/// dedicated `shed` class (there is no CLI analog, so no exit code). The
/// `Retry-After` is computed from the live queue depth.
fn shed_response(retry_after_secs: u64) -> Response {
    let body = Value::Object(vec![
        ("error".into(), Value::String("server at capacity: request was shed".into())),
        ("class".into(), Value::String("shed".into())),
    ]);
    Response::new(
        429,
        "Too Many Requests",
        "application/json",
        serde_json::to_string(&body).expect("shed body serialization"),
    )
    .with_header("Retry-After", retry_after_secs.to_string())
}

/// The 504 deadline response (class `deadline`, no CLI exit-code analog);
/// `Retry-After` is computed from the live queue depth like a shed.
fn deadline_response(message: &str, retry_after_secs: u64) -> Response {
    let body = Value::Object(vec![
        ("error".into(), Value::String(message.to_string())),
        ("class".into(), Value::String("deadline".into())),
    ]);
    Response::new(
        504,
        "Gateway Timeout",
        "application/json",
        serde_json::to_string(&body).expect("deadline body serialization"),
    )
    .with_header("Retry-After", retry_after_secs.to_string())
}

/// The accept-loop overload response (class `overloaded`): the connection
/// bound was hit, so the request was never read — shed before parse.
fn overloaded_response(retry_after_secs: u64) -> Response {
    let body = Value::Object(vec![
        (
            "error".into(),
            Value::String("server at connection capacity: connection was shed".into()),
        ),
        ("class".into(), Value::String("overloaded".into())),
    ]);
    Response::new(
        503,
        "Service Unavailable",
        "application/json",
        serde_json::to_string(&body).expect("overloaded body serialization"),
    )
    .with_header("Retry-After", retry_after_secs.to_string())
}

fn spec_err(msg: impl Into<String>) -> ReproError {
    ReproError::invalid_spec(msg.into())
}

fn value_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        Value::I64(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

/// Validates a `POST /run` body into `(fig, HagerupConfig)`.
///
/// Accepted fields: `fig` (required: `fig5`…`fig8`), `runs` (required,
/// `1..=`[`MAX_RUNS`]), `seed`, `pes`, `techniques`, `threads`. Unknown
/// fields are rejected — silently ignoring a typo'd `seeed` would hand the
/// client a result for a different campaign than it asked for.
fn parse_run_request(body: &[u8]) -> Result<(String, HagerupConfig), ReproError> {
    let text = std::str::from_utf8(body).map_err(|_| spec_err("request body is not UTF-8"))?;
    let value: Value =
        serde_json::from_str(text).map_err(|e| spec_err(format!("request is not JSON: {e}")))?;
    if value.as_object().is_none() {
        return Err(spec_err("request must be a JSON object"));
    }

    const KNOWN: [&str; 6] = ["fig", "runs", "seed", "pes", "techniques", "threads"];
    crate::spec::reject_unknown_fields(&value, &KNOWN).map_err(spec_err)?;

    let fig = value
        .get("fig")
        .and_then(Value::as_str)
        .ok_or_else(|| spec_err("`fig` is required: one of fig5, fig6, fig7, fig8"))?
        .to_string();
    let n =
        figure_n(&fig).ok_or_else(|| spec_err(format!("`fig` must be fig5…fig8, got `{fig}`")))?;
    let runs = value
        .get("runs")
        .and_then(value_u64)
        .ok_or_else(|| spec_err("`runs` is required: a positive integer"))?;
    if runs == 0 || runs > u64::from(MAX_RUNS) {
        return Err(spec_err(format!("`runs` must be in 1..={MAX_RUNS}, got {runs}")));
    }

    let mut cfg = HagerupConfig::paper(n, runs as u32);
    cfg.threads = 1;
    if let Some(v) = value.get("seed") {
        cfg.seed = value_u64(v).ok_or_else(|| spec_err("`seed` must be a non-negative integer"))?;
    }
    if let Some(v) = value.get("threads") {
        let t = value_u64(v).ok_or_else(|| spec_err("`threads` must be a positive integer"))?;
        if t == 0 || t > 64 {
            return Err(spec_err(format!("`threads` must be in 1..=64, got {t}")));
        }
        cfg.threads = t as usize;
    }
    if let Some(v) = value.get("pes") {
        let list = v.as_array().ok_or_else(|| spec_err("`pes` must be an array of integers"))?;
        let mut pes = Vec::with_capacity(list.len());
        for p in list {
            let p = value_u64(p)
                .filter(|&p| p >= 1)
                .ok_or_else(|| spec_err("`pes` entries must be integers >= 1"))?;
            pes.push(p as usize);
        }
        if pes.is_empty() {
            return Err(spec_err("`pes` must not be empty"));
        }
        cfg.pes = pes;
    }
    if let Some(v) = value.get("techniques") {
        let list =
            v.as_array().ok_or_else(|| spec_err("`techniques` must be an array of names"))?;
        let mut techniques = Vec::with_capacity(list.len());
        for t in list {
            let name =
                t.as_str().ok_or_else(|| spec_err("`techniques` entries must be strings"))?;
            let technique: Technique =
                name.parse().map_err(|e| spec_err(format!("technique `{name}`: {e}")))?;
            techniques.push(technique);
        }
        if techniques.is_empty() {
            return Err(spec_err("`techniques` must not be empty"));
        }
        cfg.techniques = techniques;
    }
    Ok((fig, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_request_into_the_paper_config() {
        let (fig, cfg) = parse_run_request(br#"{"fig":"fig5","runs":4}"#).unwrap();
        assert_eq!(fig, "fig5");
        assert_eq!(cfg.n, 1024);
        assert_eq!(cfg.runs, 4);
        assert_eq!(cfg.seed, 0x20170529 ^ 1024, "paper seed by default");
        assert_eq!(cfg.threads, 1, "service default is single-threaded");
    }

    #[test]
    fn overrides_apply_and_are_validated() {
        let (_, cfg) = parse_run_request(
            br#"{"fig":"fig6","runs":2,"seed":9,"pes":[2,8],"techniques":["SS","FAC"],"threads":2}"#,
        )
        .unwrap();
        assert_eq!(cfg.n, 8192);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.pes, vec![2, 8]);
        assert_eq!(cfg.techniques.len(), 2);
        assert_eq!(cfg.threads, 2);
    }

    #[test]
    fn rejections_are_typed_invalid_spec() {
        for (body, needle) in [
            (&b"not json"[..], "not JSON"),
            (br#"[1,2]"#, "JSON object"),
            (br#"{"runs":4}"#, "`fig` is required"),
            (br#"{"fig":"fig12","runs":4}"#, "must be fig5"),
            (br#"{"fig":"fig5"}"#, "`runs` is required"),
            (br#"{"fig":"fig5","runs":0}"#, "`runs` must be in"),
            (br#"{"fig":"fig5","runs":4,"seeed":1}"#, "unknown field `seeed`"),
            (br#"{"fig":"fig5","runs":4,"pes":[]}"#, "`pes` must not be empty"),
            (br#"{"fig":"fig5","runs":4,"pes":[0]}"#, ">= 1"),
            (br#"{"fig":"fig5","runs":4,"techniques":["XYZ"]}"#, "technique `XYZ`"),
            (br#"{"fig":"fig5","runs":4,"threads":0}"#, "`threads` must be in"),
        ] {
            let err = parse_run_request(body).unwrap_err();
            assert_eq!(
                err.exit_code(),
                crate::error::EXIT_INVALID_SPEC,
                "class for {}",
                String::from_utf8_lossy(body)
            );
            assert!(err.to_string().contains(needle), "{err} ~ {needle}");
        }
    }

    #[test]
    fn error_responses_map_classes_to_statuses() {
        assert_eq!(error_response(&ReproError::usage("x")).status, 400);
        assert_eq!(error_response(&ReproError::invalid_spec("x")).status, 422);
        assert_eq!(error_response(&ReproError::io("x")).status, 500);
        assert_eq!(error_response(&ReproError::Interrupted { resume_dir: None }).status, 503);
        let body = error_response(&ReproError::invalid_spec("bad spec")).body;
        let v: Value = serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(v.get("class").and_then(Value::as_str), Some("invalid-spec"));
        assert_eq!(
            v.get("exit_code").and_then(|e| match e {
                Value::U64(n) => Some(*n),
                _ => None,
            }),
            Some(4)
        );
        let shed = shed_response(1);
        assert_eq!(shed.status, 429);
        assert!(String::from_utf8_lossy(&shed.body).contains(r#""class":"shed""#));
        let deadline = deadline_response("expired", 3);
        assert_eq!(deadline.status, 504);
        assert!(deadline.headers.iter().any(|(n, v)| *n == "Retry-After" && v == "3"));
        let overloaded = overloaded_response(1);
        assert_eq!(overloaded.status, 503);
        assert!(String::from_utf8_lossy(&overloaded.body).contains(r#""class":"overloaded""#));
    }

    fn test_shared(tag: &str, workers: usize, queue: usize) -> Shared {
        let dir = std::env::temp_dir().join(format!("dls-slotguard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Shared {
            cache: ResultCache::open(&dir).unwrap(),
            admission: Admission::new(workers, queue),
            telemetry: Telemetry::enabled(),
            logger: Logger::disabled(),
            progress: Progress::new(),
            trail: RequestTrail::default(),
            cancel: CancelFlag::new(),
            cfg: ServeConfig::default(),
        }
    }

    fn get(path: &str) -> Request {
        Request { method: "GET".into(), path: path.into(), headers: Vec::new(), body: Vec::new() }
    }

    /// The occupancy-gauge contract: a slot is released and the gauges
    /// refreshed even when the holder panics mid-computation.
    #[test]
    fn slot_guard_releases_on_panic() {
        let shared = test_shared("panic", 1, 1);
        assert!(matches!(shared.admission.admit(&shared.cancel, None), Admit::Granted));
        record_occupancy(&shared);
        assert_eq!(shared.telemetry.snapshot().gauge("serve.workers_busy"), Some(1.0));

        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _slot = SlotGuard { shared: &shared };
            panic!("handler died mid-compute");
        }));
        assert!(caught.is_err());

        assert_eq!(shared.admission.depth(), (0, 0));
        let snap = shared.telemetry.snapshot();
        assert_eq!(snap.gauge("serve.workers_busy"), Some(0.0));
        assert_eq!(snap.gauge("serve.queue_depth"), Some(0.0));
    }

    #[test]
    fn readyz_flips_not_ready_during_drain() {
        let shared = test_shared("readyz-drain", 1, 1);
        assert_eq!(route(&get("/readyz"), &shared).status, 200);
        shared.cancel.cancel();
        let resp = route(&get("/readyz"), &shared);
        assert_eq!(resp.status, 503);
        assert!(String::from_utf8_lossy(&resp.body).contains("draining"), "names the reason");
        // Liveness stays up during drain — only readiness flips.
        assert_eq!(route(&get("/healthz"), &shared).status, 200);
    }

    #[test]
    fn readyz_flips_not_ready_when_cache_tier_degrades() {
        let dir = std::env::temp_dir().join(format!("dls-readyz-degraded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Every persistence write fails: the entry serves from memory but
        // the cache tier is degraded (warm restart would lose it).
        let io = Arc::new(ChaosIo::new(HostFaultPlan::none().with_seed(7).with_errors(1.0), &dir));
        let cache = ResultCache::open_with_io(&dir, io, RetryPolicy::no_delay(2)).unwrap();
        assert!(matches!(cache.begin("k"), Begin::Lead));
        cache.complete("k", "body".into());
        assert!(!cache.degraded().is_empty(), "persistence must have degraded");

        let shared = Shared { cache, ..test_shared("readyz-degraded", 1, 1) };
        let resp = route(&get("/readyz"), &shared);
        assert_eq!(resp.status, 503);
        assert!(String::from_utf8_lossy(&resp.body).contains("cache-degraded"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watchdog_cancels_at_deadline_and_reports_expiry() {
        let request_cancel = CancelFlag::new();
        let logger = Logger::enabled();
        let watchdog = Watchdog::spawn(
            Instant::now() + Duration::from_millis(30),
            30,
            request_cancel.clone(),
            CancelFlag::new(),
            logger.clone(),
            "k".into(),
        );
        // Simulate a computation overrunning well past 2× the deadline.
        std::thread::sleep(Duration::from_millis(120));
        assert!(request_cancel.is_cancelled(), "watchdog cancelled the request flag");
        assert!(watchdog.finish(), "expiry is reported");
        let warned = logger.recent().iter().any(|r| r.message == "deadline-overrun");
        assert!(warned, "overrunning 2x the deadline logs a warn heartbeat");
    }

    #[test]
    fn watchdog_propagates_server_shutdown_into_the_request_flag() {
        let request_cancel = CancelFlag::new();
        let server_cancel = CancelFlag::new();
        let watchdog = Watchdog::spawn(
            Instant::now() + Duration::from_secs(3600),
            3_600_000,
            request_cancel.clone(),
            server_cancel.clone(),
            Logger::disabled(),
            "k".into(),
        );
        server_cancel.cancel();
        while !request_cancel.is_cancelled() {
            std::thread::yield_now();
        }
        assert!(!watchdog.finish(), "shutdown is not a deadline expiry");
    }

    #[test]
    fn fingerprint_matches_the_cli_rendering() {
        // A request and the CLI's `fig5 --runs 8` name the same campaign,
        // so the cache key and a `--resume` journal must carry the same
        // fingerprint — whatever thread count either side runs with.
        let (fig, cfg) = parse_run_request(br#"{"fig":"fig5","runs":8,"threads":2}"#).unwrap();
        assert_eq!(fig, "fig5");
        assert_eq!(cfg.fingerprint(), HagerupConfig::paper(1024, 8).fingerprint());
    }
}
