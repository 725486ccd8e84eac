//! An in-process fake of the Prometheus + Kubernetes pair, for testing
//! [`LiveBackend`] without a cluster.
//!
//! `FakeCluster` binds a real `TcpListener` on a loopback port and
//! speaks actual HTTP/1.1, so the backend under test exercises its
//! production wire path byte for byte. Behind the socket sits the
//! analytic [`FluidEvaluator`]: every `query_range` evaluates the
//! current allocation under the configured constant workload and
//! serializes the matching Prometheus matrix, and every deployments
//! PATCH updates that allocation (and is recorded for assertions). The
//! fluid model is deterministic, so a FakeCluster-driven run is exactly
//! reproducible — which is what lets the record→replay loop assert
//! *zero* divergence.
//!
//! The server speaks keep-alive HTTP/1.1. Each accepted connection gets
//! its own thread, which serves requests until EOF, an error, an idle
//! timeout, or shutdown, so the Prometheus and Kubernetes clients can
//! each hold a connection open at once. Dropping the last
//! [`FakeCluster`] handle closes every connection and ends its thread.
//! Reads are bounded by the client's caps
//! ([`MAX_HEADER_BYTES`](crate::http::MAX_HEADER_BYTES),
//! [`MAX_BODY_BYTES`](crate::http::MAX_BODY_BYTES)); an oversize or
//! unparseable request gets a `400` and loses its connection.
//!
//! Fault injection is a FIFO of [`Fault`]s consumed one per incoming
//! request: drop the connection, delay past the client's timeout,
//! answer 500, or answer garbage. Each request is read in full before
//! its fault is taken, so one request == one fault, whatever the
//! connection: a single injected fault maps to exactly one failed
//! attempt, and an injected 500 is never turned into a connection reset
//! by unread request bytes.

use crate::backend::{LiveBackend, LiveConfig};
use crate::clock::FakeClock;
use crate::http::{read_body, read_head, urldecode, Endpoint, Framing, HttpClient, HttpError};
use crate::kube::{KubeClient, KubeConfigLite};
use crate::prom::PromClient;
use pema_control::{ClusterBackend, WindowPoll, WindowRequest};
use pema_sim::{Allocation, AppSpec, Evaluator as _, FluidEvaluator, WindowStats};
use pema_trace::{json, prom};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::time::Duration;

/// How long a connection may sit idle (or stall mid-request) before the
/// server closes it, as a real server's keep-alive timeout would.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// How long the server keeps draining a rejected request's bytes after
/// its `400`, so the close does not reset the connection before the
/// client reads the answer.
const LINGER: Duration = Duration::from_secs(1);

/// One injected failure, consumed by the next incoming request.
#[derive(Debug, Clone)]
pub enum Fault {
    /// Read the request, then close the connection without responding.
    DropConnection,
    /// Read the request, then stall before answering it (drive client
    /// timeouts).
    Delay(Duration),
    /// Answer `500 Internal Server Error`; the connection stays open.
    Http500,
    /// Answer `200 OK` with a body that is not JSON; the connection
    /// stays open.
    GarbageBody,
}

/// A recorded deployments PATCH.
#[derive(Debug, Clone, PartialEq)]
pub struct PatchEvent {
    /// Deployment/container name.
    pub service: String,
    /// The CPU limit set, cores.
    pub cores: f64,
}

/// Ground truth of the server's fault injection, for asserting client
/// retry behavior (and the live backend's retry *telemetry*) against
/// what the cluster actually did: connections accepted, requests
/// served, and faults fired, by kind. Queryable via
/// [`FakeCluster::fault_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// TCP connections accepted.
    pub connections: u64,
    /// Requests read in full and served, faulted ones included.
    pub requests: u64,
    /// [`Fault::DropConnection`]s fired.
    pub dropped: u64,
    /// [`Fault::Delay`]s fired.
    pub delayed: u64,
    /// [`Fault::Http500`]s fired.
    pub http500: u64,
    /// [`Fault::GarbageBody`]s fired.
    pub garbage: u64,
}

impl FaultStats {
    /// Faults fired across all kinds.
    pub fn total_faults(&self) -> u64 {
        self.dropped + self.delayed + self.http500 + self.garbage
    }
}

struct State {
    app: AppSpec,
    eval: FluidEvaluator,
    alloc: Allocation,
    rps: f64,
    token: Option<String>,
    patches: Vec<PatchEvent>,
    scrapes: Vec<(f64, f64)>,
    faults: VecDeque<Fault>,
    stats: FaultStats,
}

struct Inner {
    state: Mutex<State>,
    addr: SocketAddr,
    /// Open connections by id, so shutdown can close them.
    conns: Mutex<Vec<(u64, TcpStream)>>,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("fake cluster poisoned")
    }

    fn conns(&self) -> MutexGuard<'_, Vec<(u64, TcpStream)>> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Close every open connection, which ends its thread's blocking
        // read, and wake the accept loop. Both hold only a Weak to us,
        // so they exit as soon as they fail to upgrade.
        let conns = self.conns.get_mut().unwrap_or_else(PoisonError::into_inner);
        for (_, conn) in conns.drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let _ = TcpStream::connect(self.addr);
    }
}

/// Handle to a running fake cluster. Clones share the server; the
/// server stops when the last handle drops.
#[derive(Clone)]
pub struct FakeCluster {
    inner: Arc<Inner>,
}

impl FakeCluster {
    /// Boots the server for `app` under a constant `rps` workload.
    pub fn start(app: &AppSpec, rps: f64) -> FakeCluster {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                app: app.clone(),
                eval: FluidEvaluator::new(app),
                alloc: Allocation::new(app.generous_alloc.clone()),
                rps,
                token: None,
                patches: Vec::new(),
                scrapes: Vec::new(),
                faults: VecDeque::new(),
                stats: FaultStats::default(),
            }),
            addr,
            conns: Mutex::new(Vec::new()),
        });
        let weak: Weak<Inner> = Arc::downgrade(&inner);
        std::thread::Builder::new()
            .name("fake-cluster".into())
            .spawn(move || accept_loop(listener, weak))
            .expect("spawn fake-cluster thread");
        FakeCluster { inner }
    }

    /// The server's HTTP endpoint.
    pub fn endpoint(&self) -> Endpoint {
        Endpoint {
            host: "127.0.0.1".into(),
            port: self.inner.addr.port(),
        }
    }

    /// Requires `Bearer token` on PATCHes (scrapes stay open, matching
    /// a Prometheus without auth in front of it).
    pub fn set_token(&self, token: &str) {
        self.lock().token = Some(token.to_string());
    }

    /// Queues a fault for the next incoming request.
    pub fn inject_fault(&self, fault: Fault) {
        self.lock().faults.push_back(fault);
    }

    /// PATCHes received so far.
    pub fn patches(&self) -> Vec<PatchEvent> {
        self.lock().patches.clone()
    }

    /// `(start, end)` of every `query_range` served so far — lets tests
    /// pin the absolute timestamps the client put on the wire (real
    /// Prometheus interprets them as unix time).
    pub fn scrape_ranges(&self) -> Vec<(f64, f64)> {
        self.lock().scrapes.clone()
    }

    /// The allocation currently in force on the fake cluster.
    pub fn allocation(&self) -> Allocation {
        self.lock().alloc.clone()
    }

    /// Changes the constant workload.
    pub fn set_rps(&self, rps: f64) {
        self.lock().rps = rps;
    }

    /// Requests served (faulted ones included).
    pub fn requests_served(&self) -> u64 {
        self.lock().stats.requests
    }

    /// Connections accepted, requests served and faults fired so far,
    /// by kind — the ground truth retry counters are asserted against.
    pub fn fault_stats(&self) -> FaultStats {
        self.lock().stats.clone()
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.inner.lock()
    }
}

fn accept_loop(listener: TcpListener, weak: Weak<Inner>) {
    for stream in listener.incoming() {
        let Some(inner) = weak.upgrade() else { return };
        let Ok(stream) = stream else { continue };
        let Ok(handle) = stream.try_clone() else {
            continue;
        };
        let id = {
            let mut st = inner.lock();
            st.stats.connections += 1;
            st.stats.connections
        };
        inner.conns().push((id, handle));
        drop(inner);
        let conn_weak = weak.clone();
        let spawned = std::thread::Builder::new()
            .name("fake-cluster-conn".into())
            .spawn(move || {
                serve_requests(&stream, &conn_weak);
                forget_conn(&conn_weak, id);
            });
        if spawned.is_err() {
            forget_conn(&weak, id);
        }
    }
}

fn forget_conn(weak: &Weak<Inner>, id: u64) {
    if let Some(inner) = weak.upgrade() {
        inner.conns().retain(|(i, _)| *i != id);
    }
}

/// Serves requests on one connection until EOF, an error, a dropped
/// connection, or shutdown.
fn serve_requests(stream: &TcpStream, weak: &Weak<Inner>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_TIMEOUT));
    let mut reader = BufReader::new(stream);
    loop {
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Err(HttpError::Malformed(e)) => {
                let _ = respond(stream, 400, &e, false);
                linger_close(stream);
                return;
            }
            Ok(None) | Err(_) => return,
        };
        let Some((status, body)) = answer(&req, weak) else {
            return;
        };
        if respond(stream, status, &body, req.keep_alive).is_err() || !req.keep_alive {
            return;
        }
    }
}

/// Takes the next fault off the FIFO for `req`, which has been read in
/// full, and answers it. `None` drops the connection.
fn answer(req: &Request, weak: &Weak<Inner>) -> Option<(u16, String)> {
    let inner = weak.upgrade()?;
    let mut st = inner.lock();
    st.stats.requests += 1;
    match st.faults.pop_front() {
        None => Some(route(&mut st, req)),
        Some(Fault::DropConnection) => {
            st.stats.dropped += 1;
            None
        }
        Some(Fault::Http500) => {
            st.stats.http500 += 1;
            Some((500, "injected failure".into()))
        }
        Some(Fault::GarbageBody) => {
            st.stats.garbage += 1;
            Some((200, "}{ this is not json".into()))
        }
        Some(Fault::Delay(d)) => {
            st.stats.delayed += 1;
            drop(st);
            drop(inner);
            std::thread::sleep(d);
            let inner = weak.upgrade()?;
            let reply = route(&mut inner.lock(), req);
            Some(reply)
        }
    }
}

/// After a `400`: stop sending, then drain what the client already sent
/// (bounded), so closing does not reset the connection and destroy the
/// answer before the client reads it.
fn linger_close(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(LINGER));
    let _ = std::io::copy(
        &mut stream.take(crate::http::MAX_BODY_BYTES as u64),
        &mut std::io::sink(),
    );
}

struct Request {
    method: String,
    path: String,
    authorization: Option<String>,
    body: String,
    /// The client lets the connection carry another request.
    keep_alive: bool,
}

/// Reads one request in full, within the client's read caps. `Ok(None)`
/// is the client closing an idle connection.
fn read_request<R: BufRead>(r: &mut R) -> Result<Option<Request>, HttpError> {
    let Some(head) = read_head(r, "request head")? else {
        return Ok(None);
    };
    let mut line = head.start.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (line.next(), line.next(), line.next()) else {
        return Err(HttpError::Malformed(format!(
            "bad request line \"{}\"",
            head.start
        )));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version \"{version}\""
        )));
    }
    // A request without framing headers has no body.
    let framing = match head.body_framing()? {
        Framing::UntilEof => Framing::Length(0),
        framing => framing,
    };
    let body = String::from_utf8(read_body(r, framing)?)
        .map_err(|_| HttpError::Malformed("request body is not UTF-8".into()))?;
    Ok(Some(Request {
        method: method.to_string(),
        path: path.to_string(),
        authorization: head.field("authorization").map(str::to_string),
        body,
        keep_alive: head.keeps_alive(version),
    }))
}

fn respond(
    mut stream: &TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        _ => "Internal Server Error",
    };
    let close = if keep_alive {
        ""
    } else {
        "Connection: close\r\n"
    };
    let resp = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Length: {}\r\n{close}\r\n{body}",
        body.len()
    );
    stream.write_all(resp.as_bytes())
}

fn route(st: &mut State, req: &Request) -> (u16, String) {
    if req.method == "GET" {
        if let Some(qs) = req.path.strip_prefix("/api/v1/query_range?") {
            return query_range(st, qs);
        }
    }
    if req.method == "PATCH" {
        if let Some(rest) = req.path.strip_prefix("/apis/apps/v1/namespaces/") {
            if let Some((_ns, name)) = rest.split_once("/deployments/") {
                return patch_deployment(st, name, req);
            }
        }
    }
    (404, format!("no route for {} {}", req.method, req.path))
}

fn query_range(st: &mut State, query_string: &str) -> (u16, String) {
    let mut query = None;
    let mut start = None;
    let mut end = None;
    let mut step = None;
    for pair in query_string.split('&') {
        let Some((k, v)) = pair.split_once('=') else {
            continue;
        };
        let v = urldecode(v);
        match k {
            "query" => query = Some(v),
            "start" => start = v.parse::<f64>().ok(),
            "end" => end = v.parse::<f64>().ok(),
            "step" => step = v.parse::<f64>().ok(),
            _ => {}
        }
    }
    let (Some(query), Some(start), Some(end), Some(step)) = (query, start, end, step) else {
        return (400, "missing query/start/end/step".into());
    };
    if end <= start || step <= 0.0 {
        return (400, "bad range".into());
    }
    st.scrapes.push((start, end));
    // Evaluate the current allocation under the constant workload over
    // the requested window — the fluid model is the "cluster".
    st.eval.window_s = end - start;
    let rps = st.rps;
    let alloc = st.alloc.clone();
    let stats = st.eval.evaluate(&alloc, rps);
    let series = match classify(&query) {
        Some(QueryKind::P95) => vec![(String::new(), stats.p95_ms / 1e3)],
        Some(QueryKind::MeanLatency) => vec![(String::new(), stats.mean_ms / 1e3)],
        Some(QueryKind::RequestRate) => vec![(String::new(), stats.offered_rps)],
        Some(QueryKind::CpuLimit) => per_service(st, &stats, |_, alloc| alloc),
        Some(QueryKind::CpuUsageRate) => {
            per_service(st, &stats, |s, _| s.cpu_used_s / (end - start))
        }
        Some(QueryKind::CpuThrottled) => per_service(st, &stats, |s, _| s.throttled_s),
        None => return (400, format!("unrecognized query: {query}")),
    };
    (200, matrix_json(&series, start, end, step))
}

enum QueryKind {
    P95,
    MeanLatency,
    RequestRate,
    CpuLimit,
    CpuUsageRate,
    CpuThrottled,
}

/// Dispatches a PromQL expression by the metric it wraps — the same
/// names [`pema_trace::prom`] builds queries from.
fn classify(query: &str) -> Option<QueryKind> {
    if query.contains(prom::METRIC_LATENCY_BUCKET) {
        Some(QueryKind::P95)
    } else if query.contains(prom::METRIC_LATENCY_SUM) {
        Some(QueryKind::MeanLatency)
    } else if query.contains(prom::METRIC_REQUESTS) {
        Some(QueryKind::RequestRate)
    } else if query.contains(prom::METRIC_CPU_LIMIT) {
        Some(QueryKind::CpuLimit)
    } else if query.contains(prom::METRIC_CPU_THROTTLED) {
        Some(QueryKind::CpuThrottled)
    } else if query.contains(prom::METRIC_CPU_USAGE) {
        Some(QueryKind::CpuUsageRate)
    } else {
        None
    }
}

fn per_service(
    st: &State,
    stats: &WindowStats,
    value: impl Fn(&pema_sim::ServiceWindowStats, f64) -> f64,
) -> Vec<(String, f64)> {
    st.app
        .services
        .iter()
        .zip(&stats.per_service)
        .enumerate()
        .map(|(i, (svc, s))| (svc.name.clone(), value(s, st.alloc.get(i))))
        .collect()
}

/// Serializes series as a Prometheus matrix: one sample per `step`
/// from `start` to `end`, constant value (the fluid window has no
/// intra-window dynamics). Non-finite values use Prometheus' spellings
/// (`+Inf`, `-Inf`, `NaN`); finite ones use Rust's shortest
/// round-trip formatting so the client reads back the exact f64.
fn matrix_json(series: &[(String, f64)], start: f64, end: f64, step: f64) -> String {
    let mut out = String::from(r#"{"status":"success","data":{"resultType":"matrix","result":["#);
    for (i, (container, value)) in series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(r#"{"metric":{"#);
        if !container.is_empty() {
            out.push_str(&format!(r#""container":{}"#, json::quote(container)));
        }
        out.push_str(r#"},"values":["#);
        let mut t = start;
        let mut first = true;
        while t <= end {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("[{t},\"{}\"]", sample_value(*value)));
            t += step;
        }
        out.push_str("]}");
    }
    out.push_str("]}}");
    out
}

fn sample_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

fn patch_deployment(st: &mut State, name: &str, req: &Request) -> (u16, String) {
    if let Some(token) = &st.token {
        let want = format!("Bearer {token}");
        if req.authorization.as_deref() != Some(want.as_str()) {
            return (401, r#"{"kind":"Status","reason":"Unauthorized"}"#.into());
        }
    }
    let Some(i) = st.app.services.iter().position(|s| s.name == name) else {
        return (404, format!("no deployment {name}"));
    };
    let cores = match parse_patch_cores(&req.body, name) {
        Ok(c) => c,
        Err(e) => return (400, e),
    };
    st.alloc.set(i, cores);
    st.patches.push(PatchEvent {
        service: name.to_string(),
        cores,
    });
    (200, r#"{"kind":"Deployment"}"#.into())
}

/// Extracts `spec.template.spec.containers[name].resources.limits.cpu`
/// from a strategic-merge-patch body.
fn parse_patch_cores(body: &str, name: &str) -> Result<f64, String> {
    let root = json::parse(body)?;
    let mut v = root;
    for key in ["spec", "template", "spec", "containers"] {
        let json::Value::Obj(fields) = v else {
            return Err(format!("expected object around \"{key}\""));
        };
        v = fields
            .into_iter()
            .find(|(k, _)| k == key)
            .ok_or_else(|| format!("missing \"{key}\""))?
            .1;
    }
    let json::Value::Arr(containers) = v else {
        return Err("containers is not an array".into());
    };
    for c in containers {
        let json::Value::Obj(fields) = c else {
            continue;
        };
        let is_target = fields
            .iter()
            .any(|(k, v)| k == "name" && v.as_str() == Some(name));
        if !is_target {
            continue;
        }
        let mut v = json::Value::Obj(fields);
        for key in ["resources", "limits", "cpu"] {
            let json::Value::Obj(fields) = v else {
                return Err(format!("expected object around \"{key}\""));
            };
            v = fields
                .into_iter()
                .find(|(k, _)| k == key)
                .ok_or_else(|| format!("missing \"{key}\""))?
                .1;
        }
        let cpu = v.as_str().ok_or("cpu quantity is not a string")?;
        return cpu
            .parse()
            .map_err(|_| format!("bad cpu quantity \"{cpu}\""));
    }
    Err(format!("no container named \"{name}\" in patch"))
}

/// A [`LiveBackend`] wired to a [`FakeCluster`], as one value: the
/// backend, the cluster handle (for fault injection and patch
/// assertions), and the shared virtual clock. Implements
/// [`ClusterBackend`] by delegation so the conformance suite can box
/// it while the cluster stays alive.
pub struct FakeLive {
    /// The cluster handle.
    pub cluster: FakeCluster,
    /// The shared virtual clock (cloned into the backend).
    pub clock: FakeClock,
    /// The backend under test.
    pub backend: LiveBackend,
}

/// Boots a [`FakeCluster`] for `app` at constant `rps` and wires a
/// [`LiveBackend`] to it over a [`FakeClock`], with near-zero retry
/// backoff (tests replay the retry schedule instantly anyway).
pub fn live_over_fake(app: &AppSpec, rps: f64) -> FakeLive {
    live_over_fake_with(app, rps, LiveConfig::default())
}

/// [`live_over_fake`] with explicit [`LiveConfig`] (dry-run, retry
/// schedule, …).
pub fn live_over_fake_with(app: &AppSpec, rps: f64, cfg: LiveConfig) -> FakeLive {
    let cluster = FakeCluster::start(app, rps);
    let clock = FakeClock::new();
    // Two clients, so two kept-alive connections: a clone starts with an
    // empty connection cache.
    let http = HttpClient::new(Duration::from_secs(2), Duration::from_secs(2));
    let prom = PromClient {
        endpoint: cluster.endpoint(),
        http: http.clone(),
    };
    let kube = KubeClient {
        config: KubeConfigLite {
            server: cluster.endpoint(),
            token: None,
            namespace: "pema".into(),
        },
        http,
    };
    let backend = LiveBackend::new(app, prom, kube, Box::new(clock.clone()), cfg);
    FakeLive {
        cluster,
        clock,
        backend,
    }
}

impl ClusterBackend for FakeLive {
    fn apply(&mut self, alloc: &Allocation) {
        self.backend.apply(alloc)
    }

    fn allocation(&self) -> Allocation {
        self.backend.allocation()
    }

    fn now_s(&self) -> f64 {
        self.backend.now_s()
    }

    fn begin_window(&mut self, req: &WindowRequest) {
        self.backend.begin_window(req)
    }

    fn poll_window(&mut self, req: &WindowRequest) -> WindowPoll {
        self.backend.poll_window(req)
    }

    fn cancel_window(&mut self) {
        self.backend.cancel_window()
    }
}
