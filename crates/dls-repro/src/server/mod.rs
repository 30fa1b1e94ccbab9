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
//! granted one carries it in its [`ExecContext`], where the campaign
//! runner's cancel check treats a passed deadline like a raised
//! [`CancelFlag`]: no run is claimed after it (504, slot freed, no extra
//! thread). A computation that returns at or past 2× its deadline logs one
//! warn-level `deadline-overrun`.
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
//! * `GET /progress` reports the runs completed / total, elapsed time and
//!   ETA of the most recently started computation, each of which has its
//!   own tracker;
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
use std::io::ErrorKind;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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
    /// The tracker of the most recently started computation; each
    /// computation gets a fresh one, so `GET /progress` reports that
    /// campaign alone.
    progress: Mutex<Progress>,
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
                progress: Mutex::default(),
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
    /// Accepted connections go to a pool of handler threads that live
    /// until shutdown and answer one connection at a time; the pool grows
    /// only while every handler is busy, so it never holds more than
    /// `max_connections` threads. Beyond that many in-flight connections
    /// the accept loop sheds with an immediate 503. In-flight connections
    /// are drained before returning.
    ///
    /// The loop blocks in `accept`, so a connection is picked up the
    /// moment it arrives. Cancellation wakes it: a watcher thread connects
    /// to the listener once the flag is raised, and any connection
    /// accepted after that ends the loop unanswered.
    pub fn run(self) -> Result<(), ReproError> {
        let stop = AtomicBool::new(false);
        let wake_addr = loopback(self.local_addr());
        std::thread::scope(|s| {
            let waker = s.spawn(|| wake_on_cancel(&self.shared.cancel, wake_addr, &stop));
            // The watcher is stopped however the loop ends: a panic (say, a
            // failed thread spawn) must not leave the scope waiting on it.
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| self.accept_loop()));
            stop.store(true, Ordering::Relaxed);
            waker.thread().unpark();
            outcome.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        })
    }

    fn accept_loop(&self) -> Result<(), ReproError> {
        let mut pool = HandlerPool::new(Arc::clone(&self.shared));
        let mut handled: u64 = 0;
        let cfg = &self.shared.cfg;
        let outcome = loop {
            let stream = match self.listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) => match e.kind() {
                    // A signal interrupted the wait, or the peer reset before
                    // its connection was taken: the listener itself is fine.
                    ErrorKind::Interrupted | ErrorKind::ConnectionAborted => continue,
                    _ => break Err(ReproError::io(format!("accept: {e}"))),
                },
            };
            if self.shared.cancel.is_cancelled() {
                break Err(ReproError::Interrupted { resume_dir: None });
            }
            if pool.in_flight() >= cfg.max_connections.max(1) {
                // Shed on the accept thread without reading the request:
                // the bound exists to protect the server from connection
                // floods, so the answer must not cost a handler.
                self.shared.telemetry.counter_inc("serve.connections_shed");
                let mut stream = stream;
                let _ = stream.set_write_timeout(Some(Duration::from_millis(1000)));
                let message = "server at connection capacity: connection was shed";
                let response = refusal(503, message, "overloaded", &self.shared.admission);
                let _ = http::write_response(&mut stream, &response);
                continue;
            }
            handled += 1;
            pool.dispatch(stream);
            if cfg.max_requests.is_some_and(|n| handled >= n) {
                break Ok(());
            }
        };
        pool.drain();
        outcome
    }
}

/// The connection handlers: threads that each answer one accepted
/// connection at a time and live until the server drains. A thread is
/// spawned only when a connection arrives while every live handler is
/// busy, so a stream of sequential requests is served by one thread and
/// the pool never exceeds the in-flight bound, `max_connections`.
struct HandlerPool {
    shared: Arc<Shared>,
    /// Dropped on drain: handlers answer what is queued, then exit.
    queue: mpsc::Sender<TcpStream>,
    inbox: Arc<Inbox>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

/// What the accept thread shares with the handler threads.
struct Inbox {
    streams: Mutex<mpsc::Receiver<TcpStream>>,
    /// Connections dispatched and not yet answered, queued or in a handler:
    /// the accept loop's shed test.
    in_flight: AtomicUsize,
    /// Handler threads that have not exited. `dispatch` keeps it at or
    /// above `in_flight`, so every queued connection has a handler to take
    /// it.
    live: AtomicUsize,
}

impl HandlerPool {
    fn new(shared: Arc<Shared>) -> Self {
        let (queue, streams) = mpsc::channel();
        let inbox = Arc::new(Inbox {
            streams: Mutex::new(streams),
            in_flight: AtomicUsize::new(0),
            live: AtomicUsize::new(0),
        });
        HandlerPool { shared, queue, inbox, threads: Vec::new() }
    }

    fn in_flight(&self) -> usize {
        self.inbox.in_flight.load(Ordering::SeqCst)
    }

    /// Queues `stream` for a handler, first spawning one if every live
    /// handler is busy — including to replace one that panicked.
    fn dispatch(&mut self, stream: TcpStream) {
        let in_flight = self.inbox.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        if in_flight > self.inbox.live.load(Ordering::SeqCst) {
            self.shared.telemetry.counter_inc("serve.handler_spawns");
            self.threads.retain(|t| !t.is_finished());
            self.inbox.live.fetch_add(1, Ordering::SeqCst);
            let (shared, inbox) = (Arc::clone(&self.shared), Arc::clone(&self.inbox));
            self.threads.push(std::thread::spawn(move || serve_connections(&shared, &inbox)));
        }
        // The pool's own inbox holds the receiver, so the send cannot fail.
        let _ = self.queue.send(stream);
    }

    /// Closes the queue and waits until every accepted connection has been
    /// answered and every handler has exited.
    fn drain(self) {
        drop(self.queue);
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// A handler thread's loop: answers queued connections until the queue is
/// closed and empty.
fn serve_connections(shared: &Shared, inbox: &Inbox) {
    let _live = Held(&inbox.live);
    loop {
        let next = inbox.streams.lock().unwrap_or_else(|e| e.into_inner()).recv();
        let Ok(mut stream) = next else { return };
        // Declared after the stream, so dropped before it: the slot is free
        // by the time the client sees the connection close, and a client's
        // next connection is never shed for its previous one.
        let _slot = Held(&inbox.in_flight);
        handle_connection(&mut stream, shared);
    }
}

/// Takes one off its counter when dropped, on every exit path — a panic
/// included, so a handler that dies mid-request frees its connection slot
/// and its place in the live count.
struct Held<'a>(&'a AtomicUsize);

impl Drop for Held<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// How often the cancel watcher looks at the flag. A SIGINT handler can
/// only store to an atomic, so the flag is polled; the watcher sits off
/// the request path, and this bounds how long a cancelled server keeps
/// blocking in `accept`.
const CANCEL_POLL: Duration = Duration::from_millis(10);

/// Watches `cancel` until `stop` is set; once the flag is raised,
/// connects to the listener at `addr` to wake the blocked `accept`.
fn wake_on_cancel(cancel: &CancelFlag, addr: SocketAddr, stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        if cancel.is_cancelled()
            && TcpStream::connect_timeout(&addr, Duration::from_secs(1)).is_ok()
        {
            return;
        }
        std::thread::park_timeout(CANCEL_POLL);
    }
}

/// The address a local client reaches a listener bound at `addr` on: an
/// unspecified bind address (`0.0.0.0`, `::`) maps to loopback.
fn loopback(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Converts a configured timeout to the socket API's representation
/// (0 = disabled = `None`).
fn socket_timeout(ms: u64) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms))
}

fn handle_connection(stream: &mut TcpStream, shared: &Shared) {
    // Blocking I/O per connection: a stuck client can neither stall reads
    // past the read timeout nor wedge the response write past the write
    // timeout.
    let _ = stream.set_read_timeout(socket_timeout(shared.cfg.read_timeout_ms));
    let _ = stream.set_write_timeout(socket_timeout(shared.cfg.write_timeout_ms));
    let response = match http::read_request(stream) {
        Ok(request) => {
            shared.telemetry.counter_inc("serve.requests");
            route(&request, shared)
        }
        Err(e) => error_response(&ReproError::usage(format!("malformed HTTP request: {e}"))),
    };
    let _ = http::write_response(stream, &response);
}

/// Dispatches a request. Each endpoint is listed once with the one method
/// it answers; any other method on it is a usage error (400).
fn route(request: &Request, shared: &Shared) -> Response {
    type Handler = fn(&Request, &Shared) -> Response;
    let (method, handler): (&str, Handler) = match request.path.as_str() {
        "/healthz" => ("GET", |_, _| Response::new(200, "text/plain", "ok\n")),
        "/readyz" => ("GET", |_, shared| readyz_response(shared)),
        "/metrics" => ("GET", |_, shared| {
            let text = to_prometheus_text(&shared.telemetry.snapshot());
            Response::new(200, "text/plain; version=0.0.4", text)
        }),
        "/metrics.json" => ("GET", |_, shared| {
            Response::new(200, "application/json", shared.telemetry.snapshot().to_json())
        }),
        "/progress" => ("GET", |_, shared| {
            let p = shared.progress.lock().unwrap_or_else(|e| e.into_inner()).snapshot();
            json_response(
                200,
                vec![
                    ("cell", Value::String(p.label)),
                    ("done", Value::U64(p.done)),
                    ("total", Value::U64(p.total)),
                    ("elapsed_s", Value::F64(p.elapsed_s)),
                    ("eta_s", p.eta_s.map_or(Value::Null, Value::F64)),
                ],
            )
        }),
        "/requests" => {
            ("GET", |_, shared| Response::new(200, "application/json", shared.trail.to_json()))
        }
        "/run" => ("POST", handle_run),
        path => {
            return json_response(
                404,
                vec![
                    ("error", Value::String(format!("no such endpoint: {path}"))),
                    ("class", Value::String("not-found".into())),
                ],
            )
        }
    };
    if request.method != method {
        return error_response(&ReproError::usage(format!(
            "method {} not allowed on {}",
            request.method, request.path
        )));
    }
    handler(request, shared)
}

/// Readiness: ready only while the server is accepting new work *and* the
/// cache tier is healthy. Flips not-ready during SIGINT drain and when
/// cache persistence has degraded (warm restarts would be incomplete) —
/// a load balancer steers new traffic away while in-flight work finishes.
fn readyz_response(shared: &Shared) -> Response {
    let reason = if shared.cancel.is_cancelled() {
        "draining"
    } else if !shared.cache.degraded().is_empty() {
        "cache-degraded"
    } else {
        return json_response(200, vec![("ready", Value::Bool(true))]);
    };
    json_response(
        503,
        vec![("ready", Value::Bool(false)), ("reason", Value::String(reason.into()))],
    )
}

/// A request's deadline: the instant it passes and its budget in ms.
type Deadline = Option<(Instant, u64)>;

/// `POST /run`: answers the request, then closes its span record once,
/// whatever the outcome.
fn handle_run(request: &Request, shared: &Shared) -> Response {
    let id = shared.trail.next_id();
    let mut spans = RequestSpans::start();
    let (key, outcome, response) = match parse_run(request, shared, &mut spans) {
        Ok((key, cfg, deadline)) => {
            let (outcome, response) = answer_run(&key, &cfg, deadline, shared, &mut spans);
            (key, outcome, response)
        }
        Err(e) => {
            shared.telemetry.counter_inc("serve.bad_requests");
            (String::new(), "bad-request", error_response(&e))
        }
    };
    finish_request(shared, id, key, outcome, response.status, spans);
    response
}

/// Reads a run request's deadline (an `X-Deadline-Ms` header overrides the
/// server default) and body into its cache key, config and deadline.
fn parse_run(
    request: &Request,
    shared: &Shared,
    spans: &mut RequestSpans,
) -> Result<(String, HagerupConfig, Deadline), ReproError> {
    let header_ms = request.header("x-deadline-ms").map(|raw| {
        raw.trim().parse::<u64>().ok().filter(|&ms| ms >= 1).ok_or_else(|| {
            ReproError::usage(format!(
                "X-Deadline-Ms must be a positive integer of milliseconds, got `{raw}`"
            ))
        })
    });
    let deadline_ms = header_ms.transpose()?.or(shared.cfg.deadline_ms);
    let deadline = deadline_ms.map(|ms| (Instant::now() + Duration::from_millis(ms), ms));
    let (fig, cfg) = spans.record("parse", || parse_run_request(&request.body))?;
    let key = JournalMeta::new(&fig, cfg.fingerprint(), cfg.seed).cache_key();
    Ok((key, cfg, deadline))
}

/// Answers a parsed run request from the cache, from the computation it
/// coalesces onto, or by computing it; returns the outcome label and the
/// response.
fn answer_run(
    key: &str,
    cfg: &HagerupConfig,
    deadline: Deadline,
    shared: &Shared,
    spans: &mut RequestSpans,
) -> (&'static str, Response) {
    // `cache.begin` is where a follower of an in-flight computation blocks,
    // so this span covers both the lookup and any coalescing wait.
    match spans.record("cache_lookup", || shared.cache.begin(key)) {
        Begin::Hit(cached) => {
            let warm = Instant::now();
            shared.telemetry.counter_inc("serve.cache_hits");
            let response = spans.record("serialize", || csv_response(&cached, true));
            shared.telemetry.observe_secs("serve.warm_s", warm.elapsed().as_secs_f64());
            return ("hit", response);
        }
        Begin::LeaderFailed(message) => {
            shared.telemetry.counter_inc("serve.coalesced_failures");
            let e = ReproError::io(format!("coalesced computation failed: {message}"));
            return ("coalesced-failure", error_response(&e));
        }
        Begin::Lead => {}
    }
    let admit = spans.record("admission_wait", || {
        shared.admission.admit(&shared.cancel, deadline.map(|(at, _)| at))
    });
    record_occupancy(shared);
    let (outcome, failure, response) = match admit {
        Admit::Granted => {
            shared.telemetry.counter_inc("serve.admission_granted");
            // The guard releases the slot and refreshes the occupancy
            // gauges on *every* exit path — normal return, error response,
            // or a panic unwinding this handler thread.
            let _slot = SlotGuard { shared };
            let response = compute_and_publish(key, cfg, shared, spans, deadline);
            let outcome = match response.status {
                200 => "miss",
                504 => "deadline",
                _ => "error",
            };
            return (outcome, response);
        }
        Admit::Shed => {
            shared.telemetry.counter_inc("serve.admission_shed");
            let message = "server at capacity: request was shed";
            let response = refusal(429, message, "shed", &shared.admission);
            ("shed", "request was shed: server at capacity", response)
        }
        Admit::Cancelled => {
            let response = error_response(&ReproError::Interrupted { resume_dir: None });
            ("cancelled", "server is shutting down", response)
        }
        Admit::Expired => {
            shared.telemetry.counter_inc("serve.deadline_expired");
            let message = "deadline expired while queued for a worker slot";
            let response = refusal(504, message, "deadline", &shared.admission);
            ("deadline", "deadline expired while queued", response)
        }
    };
    shared.cache.fail(key, failure.into());
    (outcome, response)
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

/// Runs the campaign for `key`, publishes the result (or failure) to the
/// cache, and renders the response. Caller holds a worker slot. A deadline
/// rides in the campaign's [`ExecContext`] beside the server's cancel
/// flag: the runner claims no block once it has passed, as on shutdown.
/// An expired request answers 504, but a result that *did* complete is
/// still published to the cache — the work is not wasted, and an
/// identical retry hits.
fn compute_and_publish(
    key: &str,
    cfg: &HagerupConfig,
    shared: &Shared,
    spans: &mut RequestSpans,
    deadline: Deadline,
) -> Response {
    let cold = Instant::now();
    shared.telemetry.counter_inc("serve.computations");
    shared.telemetry.counter_inc("serve.cache_misses");
    let progress = Progress::new();
    *shared.progress.lock().unwrap_or_else(|e| e.into_inner()) = progress.clone();
    let mut ctx = ExecContext::transient()
        .with_cancel_flag(shared.cancel.clone())
        .with_logger(shared.logger.clone())
        .with_progress(progress);
    if let Some((at, _)) = deadline {
        ctx = ctx.with_deadline(at);
    }
    let result = spans.record("compute", || run_figure_resilient(cfg, &shared.telemetry, &ctx));
    if shared.cfg.hold_ms > 0 {
        // Latency-injection knob: keep the slot busy so admission behavior
        // (queueing, shedding, deadline expiry) can be exercised
        // deterministically.
        std::thread::sleep(Duration::from_millis(shared.cfg.hold_ms));
    }
    let expired = deadline.is_some_and(|(at, ms)| past_deadline(at, ms, key, &shared.logger));
    match result {
        Ok(rows) => {
            let response = spans.record("serialize", || {
                let (headers, table) = wasted_rows(&rows);
                let csv = format_csv(&headers, &table);
                let published = shared.cache.complete(key, csv);
                csv_response(&published, false)
            });
            shared.telemetry.observe_secs("serve.cold_s", cold.elapsed().as_secs_f64());
            if !expired {
                return response;
            }
        }
        Err(ReproError::Interrupted { .. }) if expired => {
            shared.cache.fail(key, "deadline expired mid-computation".into());
        }
        Err(e) => {
            shared.cache.fail(key, e.to_string());
            return error_response(&e);
        }
    }
    // This request's budget is spent; a completed result is still cached.
    shared.telemetry.counter_inc("serve.deadline_expired");
    let message = "deadline expired before the computation completed";
    refusal(504, message, "deadline", &shared.admission)
}

/// Whether a computation returning now has run past its deadline `at`, a
/// budget of `ms`. One returning at or past twice its budget logs one
/// warn-level `deadline-overrun`.
fn past_deadline(at: Instant, ms: u64, key: &str, logger: &Logger) -> bool {
    let now = Instant::now();
    if now >= at + Duration::from_millis(ms) {
        logger.warn(
            "serve",
            "deadline-overrun",
            &[
                ("key", Value::String(key.to_string())),
                ("deadline_ms", Value::U64(ms)),
                ("overrun_ms", Value::U64(now.duration_since(at).as_millis() as u64)),
            ],
        );
    }
    now >= at
}

fn record_occupancy(shared: &Shared) {
    let (running, queued) = shared.admission.depth();
    shared.telemetry.gauge_set("serve.workers_busy", running as f64);
    shared.telemetry.gauge_set("serve.queue_depth", queued as f64);
}

fn csv_response(body: &str, hit: bool) -> Response {
    Response::new(200, "text/csv", body.as_bytes().to_vec())
        .with_header("X-Cache", if hit { "hit" } else { "miss" })
}

/// A JSON object body of `fields`, in order: every JSON response the
/// server sends is built here.
fn json_response(status: u16, fields: Vec<(&str, Value)>) -> Response {
    let body = Value::Object(fields.into_iter().map(|(name, v)| (name.to_string(), v)).collect());
    let text = serde_json::to_string(&body).expect("a JSON body serializes");
    Response::new(status, "application/json", text)
}

/// Renders a typed [`ReproError`] as an HTTP response whose JSON body
/// carries the error class and the CLI exit code the same failure would
/// produce, so scripted clients map failures exactly like scripted CLI use.
pub fn error_response(e: &ReproError) -> Response {
    let (status, class) = match e {
        ReproError::Usage(_) => (400, "usage"),
        ReproError::InvalidSpec(_) => (422, "invalid-spec"),
        ReproError::Interrupted { .. } => (503, "interrupted"),
        ReproError::Io(_) => (500, "io"),
        ReproError::Regression(_) => (500, "regression"),
        ReproError::RunPanicked(_) => (500, "run-panicked"),
        ReproError::Degraded(_) => (500, "degraded"),
        ReproError::StdoutClosed => (500, "stdout-closed"),
    };
    json_response(
        status,
        vec![
            ("error", Value::String(e.to_string())),
            ("class", Value::String(class.into())),
            ("exit_code", Value::U64(u64::from(e.exit_code()))),
        ],
    )
}

/// A refusal the client should retry later: the 429 shed (class `shed`),
/// the 504 deadline (`deadline`) and the accept loop's 503 connection shed
/// (`overloaded`, the request was never read). Its body mirrors the error
/// body without an exit code (no CLI analog); `Retry-After` comes from the
/// live queue depth.
fn refusal(status: u16, message: &str, class: &str, admission: &Admission) -> Response {
    let fields =
        vec![("error", Value::String(message.into())), ("class", Value::String(class.into()))];
    json_response(status, fields)
        .with_header("Retry-After", admission.retry_after_secs().to_string())
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
        let shed = refusal(429, "shed", "shed", &Admission::new(1, 1));
        assert_eq!(shed.status, 429);
        assert!(String::from_utf8_lossy(&shed.body).contains(r#""class":"shed""#));
        assert!(shed.headers.iter().any(|(n, v)| *n == "Retry-After" && v == "1"));
    }

    fn test_shared(tag: &str, workers: usize, queue: usize) -> Shared {
        let dir = std::env::temp_dir().join(format!("dls-slotguard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Shared {
            cache: ResultCache::open(&dir).unwrap(),
            admission: Admission::new(workers, queue),
            telemetry: Telemetry::enabled(),
            logger: Logger::disabled(),
            progress: Mutex::default(),
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

    /// A handler that dies mid-connection frees its slot and its place in
    /// the live count; the next connection spawns a replacement that
    /// answers it, and the drain joins it.
    #[test]
    fn a_dead_handler_is_replaced_and_its_slot_released() {
        use std::io::{Read, Write};
        let shared = Arc::new(test_shared("pool-replace", 1, 1));
        let mut pool = HandlerPool::new(Arc::clone(&shared));
        // Stand-in for a live handler that panics while answering.
        pool.inbox.live.fetch_add(1, Ordering::SeqCst);
        pool.inbox.in_flight.fetch_add(1, Ordering::SeqCst);
        let inbox = Arc::clone(&pool.inbox);
        let died = std::thread::spawn(move || {
            let _live = Held(&inbox.live);
            let _slot = Held(&inbox.in_flight);
            panic!("handler died mid-connection");
        })
        .join();
        assert!(died.is_err());
        assert_eq!(pool.in_flight(), 0, "the dead handler's slot is free");

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            let mut reply = String::new();
            stream.read_to_string(&mut reply).unwrap();
            reply
        });
        pool.dispatch(listener.accept().unwrap().0);
        assert!(client.join().unwrap().ends_with("\r\n\r\nok\n"));
        assert_eq!(shared.telemetry.snapshot().counter("serve.handler_spawns"), Some(1));
        let inbox = Arc::clone(&pool.inbox);
        pool.drain();
        assert_eq!(inbox.live.load(Ordering::SeqCst), 0, "every handler exited");
        assert_eq!(inbox.in_flight.load(Ordering::SeqCst), 0);
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

    /// A small cold computation under a deadline of `deadline_ms`; the
    /// server's `hold_ms` keeps it busy past its return.
    fn compute_with_deadline(shared: &Shared, deadline_ms: u64) -> Response {
        let (_, cfg) =
            parse_run_request(br#"{"fig":"fig5","runs":2,"pes":[2],"techniques":["SS"]}"#).unwrap();
        let at = Instant::now() + Duration::from_millis(deadline_ms);
        let key = format!("k{deadline_ms}");
        assert!(matches!(shared.cache.begin(&key), Begin::Lead));
        let mut spans = RequestSpans::start();
        compute_and_publish(&key, &cfg, shared, &mut spans, Some((at, deadline_ms)))
    }

    fn overrun_warnings(logger: &Logger) -> Vec<dls_telemetry::LogRecord> {
        logger.recent().into_iter().filter(|r| r.message == "deadline-overrun").collect()
    }

    #[test]
    fn shutdown_interrupts_a_computation_that_has_a_deadline() {
        let shared = test_shared("deadline-shutdown", 1, 1);
        shared.cancel.cancel();
        let response = compute_with_deadline(&shared, 3_600_000);
        assert_eq!(response.status, 503, "shutdown is not a deadline expiry");
        assert!(String::from_utf8_lossy(&response.body).contains(r#""class":"interrupted""#));
        assert_eq!(shared.telemetry.snapshot().counter("serve.deadline_expired"), None);
    }

    #[test]
    fn an_overrun_past_twice_the_deadline_warns_once() {
        let shared = |tag, hold_ms| Shared {
            logger: Logger::enabled(),
            cfg: ServeConfig { hold_ms, ..ServeConfig::default() },
            ..test_shared(tag, 1, 1)
        };
        // Expired, but back before twice its budget: a 504 and no warning.
        let late = shared("deadline-late", 300);
        assert_eq!(compute_with_deadline(&late, 200).status, 504);
        assert!(overrun_warnings(&late.logger).is_empty());

        // Back after 5x its budget: one warning, not one per interval.
        let overrun = shared("deadline-overrun", 100);
        assert_eq!(compute_with_deadline(&overrun, 20).status, 504);
        let warnings = overrun_warnings(&overrun.logger);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        let field = |name| warnings[0].fields.iter().find(|(n, _)| *n == name).map(|(_, v)| v);
        assert_eq!(warnings[0].target, "serve");
        assert_eq!(field("key"), Some(&Value::String("k20".into())));
        assert_eq!(field("deadline_ms"), Some(&Value::U64(20)));
        assert!(matches!(field("overrun_ms"), Some(&Value::U64(ms)) if ms >= 80), "{warnings:?}");
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
