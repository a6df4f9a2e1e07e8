//! The HTTP server: bounded admission, router threads, one job queue
//! drained by a worker pool through one process-lifetime artifact cache
//! (a memory tier over an optional, size-budgeted disk tier), Prometheus
//! metrics, request tracing (`x-zatel-request-id` + `zatel-log-v1` JSONL
//! lines + the `/v1/debug/slow` ring) and graceful drain.
//!
//! ## Topology
//!
//! ```text
//! accept → admission slot (429 + computed Retry-After when full)
//!        → router threads: parse → admin routes answered inline
//!        → predict/sweep: one job channel
//!        → worker pool: deadline check (504) → execute through the
//!          shared cache (a panic answers 500) → respond
//! ```
//!
//! Each connection travels as one `Exchange`; every response leaves
//! through `Exchange::answer`, and its admission slot leaves the
//! `queue_depth` gauge when dropped.

use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use minijson::{FromJson, Map, ToJson, Value};
use obs::{LogLevel, Logger, MetricKind, MetricsRegistry, SpanRecord};
use zatel::{ArtifactCache, DiskTier, StageCacheRecord};
use zatel_proto::{
    DebugSlowResponse, ErrorKind, ErrorResponse, PredictRequest, ScenesResponse, SlowRequestEntry,
    SweepRequest, API_SCHEMA,
};

use crate::http::{self, HttpError, Request};
use crate::service;
use crate::signal;

/// How long the accept loop sleeps between polls of the (non-blocking)
/// listener and the shutdown flags.
const ACCEPT_POLL: Duration = Duration::from_millis(25);
/// Per-connection socket read timeout: a stalled client may not pin a
/// router forever.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Completed requests retained for `GET /v1/debug/slow` (newest win;
/// older entries are evicted from the front of the ring).
const SLOW_RING_CAPACITY: usize = 32;
/// How many recent service wall times feed the `Retry-After` estimate.
const SERVICE_RING_CAPACITY: usize = 64;
/// Threads that read sockets, answer admin routes inline and queue
/// predictions/sweeps for the workers. Two is enough because routing is
/// parse-only; a stalled client can pin a router for at most
/// [`READ_TIMEOUT`].
const ROUTER_THREADS: usize = 2;

/// Server configuration (all fields have serviceable defaults).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878`. Port 0 picks an ephemeral
    /// port (see [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads executing predictions and sweeps. They pull from
    /// one job queue and share one artifact cache, so the worker count
    /// never changes any response's deterministic subset.
    pub workers: usize,
    /// Bounded admission depth; requests beyond it are refused with 429
    /// and a computed `Retry-After`.
    pub queue: usize,
    /// Default worker-thread cap for each request's group simulation,
    /// applied when the request itself does not set `options.jobs`.
    /// `None` lets each request size itself to the host; `Some(0)` is
    /// refused by [`Server::bind`].
    pub sim_jobs: Option<usize>,
    /// Default request deadline, applied when a request carries no
    /// `deadline_ms` of its own. `None` means queued requests never
    /// expire.
    pub default_deadline_ms: Option<u64>,
    /// Persist stage artifacts on disk, surviving restarts, as the disk
    /// tier under the shared cache's memory tier.
    pub cache_dir: Option<String>,
    /// Size budget for the disk tier in MiB; least-recently-used entries
    /// are evicted once the tier outgrows it. `None` means unbounded.
    /// Ignored without [`ServeConfig::cache_dir`].
    pub cache_budget_mb: Option<u64>,
    /// Where the `zatel-log-v1` JSONL event log goes: `None`, `"-"` or
    /// `"stderr"` mean standard error, anything else is a file path
    /// (appended, created if absent).
    pub log_out: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            workers: 2,
            queue: 64,
            sim_jobs: None,
            default_deadline_ms: None,
            cache_dir: None,
            cache_budget_mb: None,
            log_out: None,
        }
    }
}

/// What a completed [`Server::run`] observed, for the caller's log line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Connections admitted into the queue.
    pub admitted: u64,
    /// Connections refused with 429 (admission full).
    pub refused: u64,
    /// Requests still queued when the drain began — all of them were
    /// served before shutdown completed.
    pub drained_in_flight: u64,
    /// Always 0: every request runs its own execution, none is answered
    /// from another's. Kept only so existing readers of the field compile.
    pub coalesced: u64,
    /// Responses answered with a 2xx status.
    pub responses_2xx: u64,
    /// Responses answered with a 4xx status (including queue refusals).
    pub responses_4xx: u64,
    /// Responses answered with a 5xx status.
    pub responses_5xx: u64,
    /// The deepest the admission queue ever got.
    pub peak_queue_depth: u64,
}

/// Shared mutable server state (behind one `Arc`).
struct ServerState {
    /// The process-lifetime cache every worker executes through.
    cache: Arc<ArtifactCache>,
    registry: Mutex<MetricsRegistry>,
    /// Admitted requests not yet picked up for execution (spans the
    /// router channel and the job channel).
    queue_depth: AtomicUsize,
    peak_queue_depth: AtomicUsize,
    refused: AtomicU64,
    draining: AtomicBool,
    sim_jobs: Option<usize>,
    default_deadline_ms: Option<u64>,
    /// Recent request service times feeding `Retry-After` estimates.
    service_ring: ServiceRing,
    /// The `zatel-log-v1` event sink every worker writes request lines to.
    logger: Logger,
    /// The `GET /v1/debug/slow` ring: the most recent completed requests,
    /// oldest first.
    slow: Mutex<VecDeque<SlowRequestEntry>>,
}

impl ServerState {
    fn with_registry(&self, f: impl FnOnce(&mut MetricsRegistry)) {
        let mut registry = self
            .registry
            .lock()
            // Poison recovery: metrics writes are single insertions; a
            // panicking holder cannot leave a half-written registry.
            .unwrap_or_else(PoisonError::into_inner);
        f(&mut registry);
    }

    /// A point-in-time snapshot for `/metrics`: the accumulated request
    /// metrics plus the scrape-time queue gauge and the shared cache's
    /// counters (its disk-tier counters read zero without a disk tier).
    fn prometheus_snapshot(&self) -> String {
        let mut snapshot = self
            .registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        snapshot.gauge_set(
            "queue_depth",
            self.queue_depth.load(Ordering::SeqCst) as f64,
        );
        let stats = self.cache.stats();
        snapshot.counter_add("cache_memory_hits", stats.memory_hits);
        snapshot.counter_add("cache_disk_hits", stats.disk_hits);
        snapshot.counter_add("cache_misses", stats.misses);
        snapshot.counter_add("cache_disk_evictions", stats.disk_evictions);
        snapshot.counter_add("cache_disk_corrupt", stats.disk_corrupt);
        snapshot.gauge_set("cache_disk_bytes", stats.disk_bytes as f64);
        snapshot.gauge_set("cache_disk_entries", stats.disk_entries as f64);
        snapshot.to_prometheus("zatel_serve")
    }

    /// Sums the accumulated `http_responses_{status}` counters into
    /// status classes, so the shutdown summary is self-contained.
    fn status_classes(&self) -> (u64, u64, u64) {
        let registry = self.registry.lock().unwrap_or_else(PoisonError::into_inner);
        let (mut c2, mut c4, mut c5) = (0u64, 0u64, 0u64);
        for (name, kind) in registry.iter() {
            let Some(code) = name
                .strip_prefix("http_responses_")
                .and_then(|s| s.parse::<u16>().ok())
            else {
                continue;
            };
            if let MetricKind::Counter(n) = kind {
                match code / 100 {
                    2 => c2 += n,
                    4 => c4 += n,
                    5 => c5 += n,
                    _ => {}
                }
            }
        }
        (c2, c4, c5)
    }
}

/// Observational artifacts a route hands back for the request's log line
/// and debug-ring entry. Never part of the HTTP response body.
#[derive(Default)]
struct RouteArtifacts {
    /// The run's span sheet (request span first), when the route ran one.
    spans: Vec<SpanRecord>,
    /// Per-stage cache-outcome records, when the route produced them.
    cache: Vec<StageCacheRecord>,
    /// Deadline budget left when execution started, when one applied.
    deadline_slack_ms: Option<i64>,
}

/// A place in the admission queue, taken at accept (raising the
/// `queue_depth` gauge) and given back exactly once, when dropped.
struct AdmissionSlot(Arc<ServerState>);

impl AdmissionSlot {
    /// Takes a slot; returns it with the depth it raised the gauge to.
    fn take(state: &Arc<ServerState>) -> (AdmissionSlot, usize) {
        let depth = state.queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
        (AdmissionSlot(Arc::clone(state)), depth)
    }
}

impl Drop for AdmissionSlot {
    fn drop(&mut self) {
        self.0.queue_depth.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One admitted connection from accept to its one answer.
struct Exchange {
    stream: TcpStream,
    /// Admission instant — the deadline clock starts here, not at parse.
    admitted: Instant,
    /// When the thread now holding the exchange picked it up: the request
    /// line's `queue_wait_ms` ends and its `wall_ms` starts here.
    picked: Instant,
    /// The request's trace ID, once parsed (or minted).
    request_id: String,
    /// `"METHOD /path"` for the request log line (`-` when unparseable).
    route: String,
    /// Held while the exchange is queued for a router or a worker; an
    /// exchange dropped unanswered gives its slot back too.
    slot: Option<AdmissionSlot>,
}

impl Exchange {
    /// A just-accepted connection holding `slot`; its router fills in the
    /// request ID and route.
    fn admit(stream: TcpStream, slot: AdmissionSlot) -> Exchange {
        let now = Instant::now();
        Exchange {
            stream,
            admitted: now,
            picked: now,
            request_id: String::new(),
            route: "-".into(),
            slot: Some(slot),
        }
    }

    /// The one exit path for every answered request: gives back the
    /// admission slot if still held, writes the response, counts
    /// `http_responses_{status}`, logs the `zatel-log-v1` request line
    /// (leveled by status class) and pushes the `/v1/debug/slow` entry.
    fn answer(mut self, state: &ServerState, routed: Routed, artifacts: RouteArtifacts) {
        self.slot = None;
        let (status, content_type, body) = routed.render();
        state.with_registry(|r| r.counter_add(&format!("http_responses_{status}"), 1));
        let headers = [("x-zatel-request-id", self.request_id.clone())];
        let _ = http::write_response(
            &mut self.stream,
            status,
            content_type,
            &headers,
            body.as_bytes(),
        );
        let wall_ms = self.picked.elapsed().as_secs_f64() * 1000.0;
        let queue_wait_ms = millis(self.picked.duration_since(self.admitted));

        let level = match status {
            500.. => LogLevel::Error,
            400.. => LogLevel::Warn,
            _ => LogLevel::Info,
        };
        let mut fields = Map::new();
        fields.insert("request_id".into(), Value::from(self.request_id.as_str()));
        fields.insert("route".into(), Value::from(self.route.as_str()));
        fields.insert("status".into(), Value::from(u64::from(status)));
        fields.insert("queue_wait_ms".into(), Value::from(queue_wait_ms));
        fields.insert("wall_ms".into(), Value::from(wall_ms));
        if let Some(slack) = artifacts.deadline_slack_ms {
            fields.insert("deadline_slack_ms".into(), Value::from(slack));
        }
        if !artifacts.cache.is_empty() {
            let hits = StageCacheRecord::hits(&artifacts.cache);
            fields.insert("cache_hits".into(), Value::from(hits));
            let stages = artifacts.cache.len() as u64;
            fields.insert("cache_stages".into(), Value::from(stages));
        }
        let line = obs::log::event_line(level, "request", fields);
        state.logger.log_line(&line);

        let entry = SlowRequestEntry {
            request_id: self.request_id,
            route: self.route,
            status,
            queue_wait_ms,
            wall_ms,
            deadline_slack_ms: artifacts.deadline_slack_ms,
            spans: artifacts.spans,
            cache: artifacts.cache,
            log: line,
        };
        let mut slow = state.slow.lock().unwrap_or_else(PoisonError::into_inner);
        if slow.len() == SLOW_RING_CAPACITY {
            slow.pop_front();
        }
        slow.push_back(entry);
    }
}

/// A parsed request body awaiting execution on a worker.
enum Payload {
    /// `POST /v1/predict`.
    Predict(PredictRequest),
    /// `POST /v1/sweep`.
    Sweep(SweepRequest),
}

impl Payload {
    /// Parses a predict or sweep body into its typed payload.
    fn parse(request: &Request) -> Result<Payload, Routed> {
        let bad = |message: String| error_json(ErrorKind::BadRequest, message);
        let text =
            std::str::from_utf8(&request.body).map_err(|_| bad("body is not UTF-8".into()))?;
        let body = Value::parse(text).map_err(|e| bad(format!("body: {e}")))?;
        let payload = match request.path.as_str() {
            "/v1/predict" => PredictRequest::from_json(&body).map(Payload::Predict),
            _ => SweepRequest::from_json(&body).map(Payload::Sweep),
        };
        payload.map_err(|e| bad(e.to_string()))
    }

    /// The route stem naming the payload's counters: `{stem}_requests`,
    /// `{stem}_errors` and the `{stem}_latency_ms` histogram.
    fn stem(&self) -> &'static str {
        match self {
            Payload::Predict(_) => "predict",
            Payload::Sweep(_) => "sweep",
        }
    }

    /// The request's own queue deadline, if it carries one.
    fn deadline_ms(&self) -> Option<u64> {
        let hints = match self {
            Payload::Predict(req) => &req.hints,
            Payload::Sweep(req) => &req.hints,
        };
        hints.as_ref().and_then(|h| h.deadline_ms)
    }

    /// Fills the job cap the request runs its group simulations with.
    /// Precedence: an explicit `options.jobs` wins, then the server's
    /// `--sim-jobs` default. The cap is execution-only, so applying it
    /// never changes what the request computes.
    fn apply_default_jobs(&mut self, default_jobs: Option<usize>) {
        let options = match self {
            Payload::Predict(req) => &mut req.options,
            Payload::Sweep(req) => &mut req.options,
        };
        if default_jobs.is_some() {
            let options = options.get_or_insert_with(zatel::ZatelOptions::default);
            options.jobs = options.jobs.or(default_jobs);
        }
    }

    /// Runs the request through the shared cache and accumulates its
    /// request metrics.
    fn run(&self, state: &ServerState, request_id: &str) -> (Routed, RouteArtifacts) {
        let mut artifacts = RouteArtifacts::default();
        let started = Instant::now();
        let executed = match self {
            Payload::Predict(req) => {
                service::execute_predict_traced(req, &state.cache, Some(request_id)).map(|out| {
                    let body = out.response.to_json();
                    (artifacts.spans, artifacts.cache) = (out.response.spans, out.response.cache);
                    body
                })
            }
            Payload::Sweep(req) => service::execute_sweep(req, &state.cache).map(|r| r.to_json()),
        };
        let stem = self.stem();
        let routed = match executed {
            Ok(body) => {
                state.with_registry(|r| {
                    r.counter_add(&format!("{stem}_requests"), 1);
                    r.observe(&format!("{stem}_latency_ms"), millis(started.elapsed()));
                });
                Routed::Json(200, body)
            }
            Err(err) => {
                state.with_registry(|r| r.counter_add(&format!("{stem}_errors"), 1));
                error_json(err.kind(), err.to_string())
            }
        };
        (routed, artifacts)
    }
}

/// A bound, not-yet-running server. Binding and running are split so
/// callers (and tests) can learn the ephemeral port before the first
/// request races in.
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listen socket and builds the process-lifetime cache.
    ///
    /// # Errors
    ///
    /// Returns a message when the worker count, queue depth or job cap is
    /// zero, the address cannot be bound or the cache directory cannot be
    /// created.
    pub fn bind(config: ServeConfig) -> Result<Server, String> {
        if config.workers == 0 {
            return Err("serve needs at least one worker".into());
        }
        if config.queue == 0 {
            return Err("serve needs a queue depth of at least 1".into());
        }
        if config.sim_jobs == Some(0) {
            return Err("serve needs --sim-jobs of at least 1".into());
        }
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("binding {}: {e}", config.addr))?;
        let cache = match &config.cache_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("creating cache dir '{dir}': {e}"))?;
                ArtifactCache::with_disk_tier(Arc::new(match config.cache_budget_mb {
                    Some(mb) => DiskTier::with_budget(dir, mb.saturating_mul(1024 * 1024)),
                    None => DiskTier::new(dir),
                }))
            }
            None => ArtifactCache::in_memory(),
        };
        let logger = Logger::for_destination(config.log_out.as_deref())
            .map_err(|e| format!("opening log destination: {e}"))?;
        let state = Arc::new(ServerState {
            cache: Arc::new(cache),
            registry: Mutex::new(MetricsRegistry::new()),
            queue_depth: AtomicUsize::new(0),
            peak_queue_depth: AtomicUsize::new(0),
            refused: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            sim_jobs: config.sim_jobs,
            default_deadline_ms: config.default_deadline_ms,
            service_ring: ServiceRing::default(),
            logger,
            slow: Mutex::new(VecDeque::with_capacity(SLOW_RING_CAPACITY)),
        });
        Ok(Server {
            listener,
            config,
            state,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    ///
    /// # Errors
    ///
    /// Returns a message if the socket cannot report its address.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, String> {
        self.listener
            .local_addr()
            .map_err(|e| format!("reading bound address: {e}"))
    }

    /// Runs the accept loop until SIGINT/SIGTERM or `POST /v1/shutdown`,
    /// then drains: stops accepting, serves every queued request, joins
    /// the routers and workers, and waits for every 429 to be written.
    ///
    /// # Errors
    ///
    /// Returns a message only for listener-level failures; per-connection
    /// errors are answered over HTTP and never stop the server.
    #[expect(
        clippy::disallowed_methods,
        reason = "the serve topology seam: the accept loop, router threads, admission-refusal \
                  writers and the worker pool all live here; each request executes once on one \
                  worker through the shared cache, so thread count never reaches a response's \
                  deterministic subset — pinned by the 1-vs-4-worker identity test"
    )]
    pub fn run(self) -> Result<ServeReport, String> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| format!("configuring listener: {e}"))?;
        // Routers pull admitted connections from this channel; the global
        // admission bound is the queue_depth gauge, checked at accept.
        let (tx, rx) = std::sync::mpsc::channel::<Exchange>();
        let rx = Arc::new(Mutex::new(rx));
        // The one job channel. Only the routers hold its senders, so once
        // they have joined the workers drain it and exit.
        let (jobs, job_rx) = std::sync::mpsc::channel::<(Exchange, Payload)>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let mut workers = Vec::with_capacity(self.config.workers);
        for _ in 0..self.config.workers {
            let job_rx = Arc::clone(&job_rx);
            let state = Arc::clone(&self.state);
            workers.push(std::thread::spawn(move || {
                for_each_received(&job_rx, |job| execute(job, &state));
            }));
        }
        let mut routers = Vec::with_capacity(ROUTER_THREADS);
        for _ in 0..ROUTER_THREADS {
            let rx = Arc::clone(&rx);
            let jobs = jobs.clone();
            let state = Arc::clone(&self.state);
            routers.push(std::thread::spawn(move || {
                for_each_received(&rx, |exchange| route(exchange, &jobs, &state));
            }));
        }
        drop(jobs);

        let mut admitted = 0u64;
        // Refusal writers still running; the drain waits for them, so a
        // 429 is on its client's socket before `run` returns.
        let mut refusals: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if signal::requested() || self.state.draining.load(Ordering::SeqCst) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // The slot is taken before the handoff publishes the
                    // connection, so no router can give it back first.
                    let (slot, depth) = AdmissionSlot::take(&self.state);
                    if depth > self.config.queue {
                        drop(slot);
                        self.state.refused.fetch_add(1, Ordering::SeqCst);
                        self.state
                            .with_registry(|r| r.counter_add("http_responses_429", 1));
                        // Refusing drains the request off the socket
                        // first, which can wait on a slow client — do it
                        // off the accept loop so admission stays live.
                        let avg_ms = self.state.service_ring.average_ms();
                        let refusal = std::thread::spawn(move || {
                            refuse_overloaded(stream, depth - 1, avg_ms)
                        });
                        refusals.retain(|writer| !writer.is_finished());
                        refusals.push(refusal);
                        continue;
                    }
                    self.state
                        .peak_queue_depth
                        .fetch_max(depth, Ordering::SeqCst);
                    // An unsent exchange drops, giving its slot back.
                    if tx.send(Exchange::admit(stream, slot)).is_err() {
                        break;
                    }
                    admitted += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("accept failed: {e}")),
            }
        }

        // Graceful drain, in dependency order: dropping the sender lets
        // the routers finish parsing and queueing every admitted
        // connection; the routers held the only job senders, so once they
        // have joined the workers serve the remaining jobs and exit.
        let drained_in_flight = self.state.queue_depth.load(Ordering::SeqCst) as u64;
        drop(tx);
        for router in routers {
            // A router that panicked already lost its connection; there
            // is nothing useful to add by propagating.
            let _ = router.join();
        }
        for worker in workers {
            let _ = worker.join();
        }
        // A refusal writer waits at most its read timeout for the request
        // it drains before answering.
        for refusal in refusals {
            let _ = refusal.join();
        }
        let (responses_2xx, responses_4xx, responses_5xx) = self.state.status_classes();
        let report = ServeReport {
            admitted,
            refused: self.state.refused.load(Ordering::SeqCst),
            drained_in_flight,
            coalesced: 0,
            responses_2xx,
            responses_4xx,
            responses_5xx,
            peak_queue_depth: self.state.peak_queue_depth.load(Ordering::SeqCst) as u64,
        };
        let mut fields = Map::new();
        fields.insert("admitted".into(), Value::from(report.admitted));
        fields.insert("refused".into(), Value::from(report.refused));
        fields.insert(
            "drained_in_flight".into(),
            Value::from(report.drained_in_flight),
        );
        fields.insert("responses_2xx".into(), Value::from(report.responses_2xx));
        fields.insert("responses_4xx".into(), Value::from(report.responses_4xx));
        fields.insert("responses_5xx".into(), Value::from(report.responses_5xx));
        fields.insert(
            "peak_queue_depth".into(),
            Value::from(report.peak_queue_depth),
        );
        self.state
            .logger
            .log(LogLevel::Info, "serve_drained", fields);
        Ok(report)
    }

    /// Signals a graceful drain programmatically (same effect as
    /// SIGTERM). Exposed for tests and embedding callers.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            state: Arc::clone(&self.state),
        }
    }
}

/// A cheap clone-free trigger for a running server's drain flag.
pub struct ServeHandle {
    state: Arc<ServerState>,
}

impl ServeHandle {
    /// Begins a graceful drain.
    pub fn shutdown(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
    }
}

/// Handles items off a shared channel until every sender is gone and the
/// channel is empty. The lock is held only while waiting for the next
/// item, never while handling one.
fn for_each_received<T>(rx: &Mutex<Receiver<T>>, mut handle: impl FnMut(T)) {
    loop {
        let next = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
        match next {
            Ok(item) => handle(item),
            Err(_) => return,
        }
    }
}

/// Answers a connection the server could not admit. `Retry-After` is
/// computed from the queue's depth and the recent average service time.
fn refuse_overloaded(mut stream: TcpStream, queued: usize, avg_service_ms: Option<u64>) {
    // Drain the request first (best effort, bounded by a short timeout):
    // closing a socket with unread bytes in its receive buffer resets the
    // connection, which can destroy the 429 before the client reads it.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = Request::read_from(&mut stream);
    let retry_after = retry_after_secs(queued, avg_service_ms);
    // The refusal is machine-readable end to end: the same estimate
    // rides the Retry-After header (seconds, for generic HTTP clients)
    // and the envelope's retry_after_ms field (for zatel-api-v1 ones).
    let body = ErrorResponse::new(
        ErrorKind::Overloaded,
        "request queue is full; retry shortly",
    )
    .with_retry_after_ms(retry_after.saturating_mul(1000))
    .to_json()
    .to_string();
    let _ = http::write_response(
        &mut stream,
        429,
        "application/json",
        &[("Retry-After", retry_after.to_string())],
        body.as_bytes(),
    );
}

/// The routed outcome of one request: status + JSON (or Prometheus text).
enum Routed {
    Json(u16, Value),
    Text(u16, &'static str, String),
}

impl Routed {
    /// Renders into `(status, content_type, body)`.
    fn render(self) -> (u16, &'static str, String) {
        match self {
            Routed::Json(status, value) => (status, "application/json", value.to_string()),
            Routed::Text(status, content_type, text) => (status, content_type, text),
        }
    }
}

/// One router step: parse an admitted connection, answer admin routes
/// and unparseable bodies inline, and queue predictions/sweeps as jobs.
fn route(mut exchange: Exchange, jobs: &Sender<(Exchange, Payload)>, state: &ServerState) {
    exchange.picked = Instant::now();
    let _ = exchange.stream.set_read_timeout(Some(READ_TIMEOUT));
    let request = match Request::read_from(&mut exchange.stream) {
        Ok(request) => request,
        Err(err) => {
            let (status, message) = match err {
                HttpError::TooLarge => (413, "request exceeds size limits".to_owned()),
                other => (400, other.to_string()),
            };
            exchange.request_id = obs::log::request_id();
            let envelope = ErrorResponse::new(ErrorKind::BadRequest, message).to_json();
            let routed = Routed::Json(status, envelope);
            return exchange.answer(state, routed, RouteArtifacts::default());
        }
    };

    // The caller's x-zatel-request-id is accepted and echoed; otherwise
    // a process-unique ID is minted. Either way the same ID lands in the
    // response header, the JSONL request line, the run's span sheet and
    // the /v1/debug/slow ring.
    exchange.request_id = request
        .header("x-zatel-request-id")
        .map(str::to_owned)
        .unwrap_or_else(obs::log::request_id);
    exchange.route = format!("{} {}", request.method, request.path);
    state.with_registry(|r| r.counter_add("http_requests_total", 1));

    let routed = match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/predict" | "/v1/sweep") => match Payload::parse(&request) {
            Ok(payload) => {
                // Workers hold the receiver until every router's sender
                // is gone, so this fails only if every worker died outside
                // its unwind guard; the exchange then drops unanswered.
                let _ = jobs.send((exchange, payload));
                return;
            }
            Err(routed) => routed,
        },
        _ => route_admin(&request, state),
    };
    exchange.answer(state, routed, RouteArtifacts::default());
}

/// Answers every route the routers serve inline (no execution, no
/// deadline handling).
fn route_admin(request: &Request, state: &ServerState) -> Routed {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let mut m = Map::new();
            m.insert("schema".into(), Value::from(API_SCHEMA));
            m.insert("status".into(), Value::from("ok"));
            m.insert(
                "draining".into(),
                Value::from(state.draining.load(Ordering::SeqCst)),
            );
            Routed::Json(200, Value::Object(m))
        }
        ("GET", "/v1/scenes") => Routed::Json(200, ScenesResponse::current().to_json()),
        ("GET", "/metrics") => Routed::Text(
            200,
            "text/plain; version=0.0.4",
            state.prometheus_snapshot(),
        ),
        ("GET", "/v1/debug/slow") => {
            let entries = {
                let slow = state.slow.lock().unwrap_or_else(PoisonError::into_inner);
                slow.iter().cloned().collect()
            };
            Routed::Json(200, DebugSlowResponse { entries }.to_json())
        }
        ("POST", "/v1/shutdown") => {
            state.draining.store(true, Ordering::SeqCst);
            let mut m = Map::new();
            m.insert("schema".into(), Value::from(API_SCHEMA));
            m.insert("status".into(), Value::from("draining"));
            Routed::Json(202, Value::Object(m))
        }
        ("GET" | "POST", _) => error_json(
            ErrorKind::BadRequest,
            format!("no route for {} {}", request.method, request.path),
        ),
        (method, _) => error_json(
            ErrorKind::BadRequest,
            format!("unsupported method {method}"),
        ),
    }
}

/// Whole milliseconds of `d`, saturating.
fn millis(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// One worker step: answer 504 if the job out-waited its deadline,
/// otherwise execute it through the shared cache. A panic inside the
/// execution answers `500 internal` under the request's ID, is counted in
/// `predict_errors`/`sweep_errors`, and leaves the worker serving.
fn execute((mut exchange, mut payload): (Exchange, Payload), state: &ServerState) {
    exchange.slot = None;
    exchange.picked = Instant::now();
    let deadline = check_deadline(payload.deadline_ms(), exchange.admitted, state);
    let (routed, artifacts) = match deadline {
        Err(routed) => (routed, RouteArtifacts::default()),
        Ok(slack) => {
            payload.apply_default_jobs(state.sim_jobs);
            let started = Instant::now();
            let id = &exchange.request_id;
            let (routed, mut artifacts) =
                contain_panic(state, payload.stem(), id, || payload.run(state, id));
            state.service_ring.record(millis(started.elapsed()));
            artifacts.deadline_slack_ms = slack;
            (routed, artifacts)
        }
    };
    exchange.answer(state, routed, artifacts);
}

/// Runs one execution of request `id`. A panic inside it answers `500
/// internal` under that ID, counts in `{stem}_errors` and returns here, so
/// the worker goes on serving.
fn contain_panic(
    state: &ServerState,
    stem: &str,
    id: &str,
    run: impl FnOnce() -> (Routed, RouteArtifacts),
) -> (Routed, RouteArtifacts) {
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| {
        state.with_registry(|r| r.counter_add(&format!("{stem}_errors"), 1));
        let message = format!("request {id} panicked during execution");
        (error_json(ErrorKind::Internal, message), Default::default())
    })
}

/// Maps a [`ServiceError`] (or a deadline expiry) onto the wire.
fn error_json(kind: ErrorKind, message: impl Into<String>) -> Routed {
    Routed::Json(
        kind.http_status(),
        ErrorResponse::new(kind, message).to_json(),
    )
}

/// Enforces the request's (or the server's default) deadline against the
/// time already spent in the admission queue. On success returns the
/// remaining budget in milliseconds (`None` when no deadline applies),
/// which the request line reports as `deadline_slack_ms`.
fn check_deadline(
    deadline_ms: Option<u64>,
    admitted: Instant,
    state: &ServerState,
) -> Result<Option<i64>, Routed> {
    let Some(budget) = deadline_ms.or(state.default_deadline_ms) else {
        return Ok(None);
    };
    let waited = admitted.elapsed();
    let waited_ms = i64::try_from(waited.as_millis()).unwrap_or(i64::MAX);
    let slack = i64::try_from(budget).unwrap_or(i64::MAX) - waited_ms;
    if waited > Duration::from_millis(budget) {
        // The 504 envelope mirrors the 429's machine-readable shape:
        // deadline_slack_ms reports how far past the budget the request
        // was when dropped (always negative here).
        let body = ErrorResponse::new(
            ErrorKind::DeadlineExceeded,
            format!(
                "deadline of {budget} ms elapsed after {} ms in queue",
                waited.as_millis()
            ),
        )
        .with_deadline_slack_ms(slack.min(-1));
        return Err(Routed::Json(
            ErrorKind::DeadlineExceeded.http_status(),
            body.to_json(),
        ));
    }
    Ok(Some(slack))
}

/// Estimates a `Retry-After` (seconds) for a 429 from the queue's depth
/// and the recent average service time: roughly how long until the
/// backlog ahead of a retry has been served, clamped to `1..=60`.
fn retry_after_secs(queued: usize, avg_service_ms: Option<u64>) -> u64 {
    let per_request_ms = avg_service_ms.unwrap_or(1000).max(1);
    let backlog_ms = (queued as u64)
        .saturating_add(1)
        .saturating_mul(per_request_ms);
    backlog_ms.div_ceil(1000).clamp(1, 60)
}

/// A fixed-size ring of recent request service wall times, feeding the
/// [`retry_after_secs`] estimate.
#[derive(Debug, Default)]
struct ServiceRing {
    recent_ms: Mutex<VecDeque<u64>>,
}

impl ServiceRing {
    /// Records one completed request's service time.
    fn record(&self, service_ms: u64) {
        let mut ring = self
            .recent_ms
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if ring.len() == SERVICE_RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(service_ms);
    }

    /// The average of the recorded service times, `None` before the
    /// first completion.
    fn average_ms(&self) -> Option<u64> {
        let ring = self
            .recent_ms
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if ring.is_empty() {
            return None;
        }
        Some(ring.iter().sum::<u64>() / ring.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_after_scales_with_backlog_and_service_rate() {
        // No history: assume ~1s per queued request.
        assert_eq!(retry_after_secs(0, None), 1);
        assert_eq!(retry_after_secs(4, None), 5);
        // Fast service rates shrink the estimate to the 1s floor.
        assert_eq!(retry_after_secs(4, Some(50)), 1);
        // Slow rates grow it, clamped to a minute.
        assert_eq!(retry_after_secs(9, Some(2000)), 20);
        assert_eq!(retry_after_secs(1000, Some(60_000)), 60);
    }

    #[test]
    fn bind_refuses_a_zero_job_cap() {
        // A zero cap would boot, then answer every request without its
        // own `options.jobs` with 400 for the server's mistake.
        let config = |sim_jobs| ServeConfig {
            addr: "127.0.0.1:0".into(),
            sim_jobs,
            ..ServeConfig::default()
        };
        let Err(err) = Server::bind(config(Some(0))) else {
            panic!("zero job cap accepted");
        };
        assert!(err.contains("--sim-jobs"), "{err}");
        Server::bind(config(Some(1))).expect("a cap of one binds");
        Server::bind(config(None)).expect("no cap binds");
    }

    #[test]
    fn a_panicking_execution_answers_500_and_is_counted() {
        let config = ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        };
        let server = Server::bind(config).expect("bind");
        let state = &server.state;
        let panics = || -> (Routed, RouteArtifacts) { panic!("a request that panics") };
        let (routed, _) = contain_panic(state, "predict", "boom-1", panics);
        let (status, _, body) = routed.render();
        assert_eq!(status, 500, "{body}");
        let envelope = ErrorResponse::from_json(&Value::parse(&body).unwrap()).unwrap();
        assert_eq!(envelope.kind, ErrorKind::Internal);
        assert!(envelope.error.contains("boom-1"), "{}", envelope.error);
        let mut errors = None;
        state.with_registry(|r| errors = r.get("predict_errors").cloned());
        assert_eq!(errors, Some(MetricKind::Counter(1)));
    }

    #[test]
    fn every_exit_gives_the_admission_slot_back() {
        // One slot: a slot any exit kept would refuse the next request.
        let config = ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue: 1,
            ..ServeConfig::default()
        };
        let server = Server::bind(config).expect("bind");
        let addr = server.local_addr().expect("addr");
        let (state, handle) = (Arc::clone(&server.state), server.handle());
        let run = std::thread::spawn(move || server.run());
        let client = crate::HttpClient::new(&format!("http://{addr}")).expect("client");
        let unknown_scene = PredictRequest::new("NOPE", zatel_proto::ConfigRef::preset("mobile"));
        for _ in 0..2 {
            // Unparseable head, admin route, bad payload: the router answers.
            let mut raw = TcpStream::connect(addr).expect("connect");
            std::io::Write::write_all(&mut raw, b"NONSENSE\r\n\r\n").expect("send");
            let mut answer = String::new();
            std::io::Read::read_to_string(&mut raw, &mut answer).expect("read");
            assert!(answer.starts_with("HTTP/1.1 400"), "{answer}");
            assert_eq!(client.get("/healthz").expect("healthz").status, 200);
            let bad = client.post_json("/v1/predict", &Value::from("x"));
            assert_eq!(bad.expect("bad payload").status, 400);
            // A worker answers.
            let predict = client.post_json("/v1/predict", &unknown_scene.to_json());
            assert_eq!(predict.expect("predict").status, 422);
        }
        handle.shutdown();
        let report = run.join().expect("server thread").expect("run");
        assert_eq!((report.refused, report.responses_4xx), (0, 6));
        assert_eq!(state.queue_depth.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn service_ring_averages_recent_times() {
        let ring = ServiceRing::default();
        assert_eq!(ring.average_ms(), None);
        ring.record(100);
        ring.record(300);
        assert_eq!(ring.average_ms(), Some(200));
        for _ in 0..SERVICE_RING_CAPACITY {
            ring.record(500);
        }
        assert_eq!(ring.average_ms(), Some(500));
    }
}
