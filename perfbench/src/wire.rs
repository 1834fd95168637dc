//! `hot_wire`: a real `tgp serve` child driven over loopback.
//!
//! One benchmark thread on one connection cycles a small set of cached
//! bodies and keeps a few requests pipelined (a closed loop of fixed
//! depth), so the server is never idle waiting for the client.
//! The child and the client are pinned to different CPUs, latency
//! samples are exact, and the headline is the child's own CPU per
//! request, read from `/proc/<pid>/stat`.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tgp_net::framer::{frame, FrameLimits, FrameStatus};
use tgp_service::api::handle;
use tgp_service::http::{read_request, MAX_HEAD_BYTES};
use tgp_service::{AppState, CacheConfig, ResultCache, ServerConfig};

use crate::check;
use crate::gen::{self, Graph, Rng, REGIMES};
use crate::inproc::{request, Replay};
use crate::{sys, timed_setup, Args, Outcome, Timed};

/// The fixed server flags (the address is chosen by the kernel).
pub const SERVE_FLAGS: &[&str] = &[
    "--io",
    "epoll",
    "--loops",
    "1",
    "--workers",
    "1",
    "--queue-depth",
    "64",
    "--cache-bytes",
    "33554432",
];
/// Nodes per graph: small bodies, so the transport dominates.
const WIRE_N: usize = 48;
/// Servers set up and dropped after every window, besides the one that
/// serves the timed phase.
const SETUPS_PER_WINDOW: usize = 3;
/// In-process replay rounds over the body cycle in the traced run.
const REPLAY_ROUNDS: usize = 400;
/// Length of one measurement window of the timed phase.
const WINDOW: Duration = Duration::from_millis(500);
/// `peak_rss_mb` is the server's `VmHWM` after this many cycles of the
/// timed phase, so it does not depend on how fast the run went: the
/// server's memory grows with the requests it has served. The timed
/// phase runs on until it has been read.
const RSS_AT_CYCLES: u64 = 3000;
/// Requests kept in flight on the connection in the timed phase: the
/// server always has the next request buffered, so it does not sleep
/// between requests, and its wall throughput follows its own work
/// rather than how fast the host wakes an idle CPU. Deeper pipelines
/// let one stall of the host delay more samples.
const DEPTH: usize = 4;
/// How long the client waits for a response before giving up.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// One distinct request of the cycle.
struct Body {
    objective: &'static str,
    graph: Graph,
    bound: u64,
    text: String,
    /// The full HTTP request bytes.
    wire: Vec<u8>,
    /// `handle`'s answer on a fresh in-process state.
    expected: String,
}

/// The cycle: three chains and three trees (one per bound regime), each
/// under every objective of its kind; the medium-regime bodies put the
/// graph first.
fn bodies(seed: u64) -> Vec<Body> {
    let mut out = Vec::new();
    for chain in [true, false] {
        for (regime, &(_, divisor)) in REGIMES.iter().enumerate() {
            let mut rng = Rng::stream(seed, &[2, regime as u64, chain as u64]);
            let graph = if chain {
                gen::chain(&mut rng, WIRE_N, 1000)
            } else {
                gen::tree(&mut rng, WIRE_N)
            };
            let bound = gen::bound(&graph, divisor);
            let objectives = if chain {
                ["bandwidth", "lexicographic", "nicol"]
            } else {
                ["bottleneck", "procmin", "compose"]
            };
            for objective in objectives {
                let text = gen::partition_body(objective, bound, &graph, regime == 1);
                let mut wire = format!(
                    "POST /v1/partition HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
                    text.len()
                )
                .into_bytes();
                wire.extend_from_slice(text.as_bytes());
                out.push(Body {
                    objective,
                    graph: graph.clone(),
                    bound,
                    text,
                    wire,
                    expected: String::new(),
                });
            }
        }
    }
    out
}

/// A keep-alive HTTP/1.1 client connection. Requests may be pipelined:
/// responses come back in order and are read one at a time.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// End of the response `receive` returned last; the bytes after it
    /// belong to later responses.
    start: usize,
    len: usize,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // The client spins instead of sleeping in the kernel: its own
        // wake-up then adds no scheduler delay to the measured latency.
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buf: vec![0; 1 << 16],
            start: 0,
            len: 0,
        })
    }

    /// Sends one request and reads its response: status and body.
    fn exchange(&mut self, request: &[u8]) -> std::io::Result<(u16, &[u8])> {
        self.send(request)?;
        self.receive()
    }

    /// Sends one request without waiting for its response.
    fn send(&mut self, request: &[u8]) -> std::io::Result<()> {
        let started = Instant::now();
        let mut sent = 0;
        while sent < request.len() {
            match self.stream.write(&request[sent..]) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => spin(started)?,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads the next response: status and body.
    fn receive(&mut self) -> std::io::Result<(u16, &[u8])> {
        self.buf.copy_within(self.start..self.len, 0);
        self.len -= self.start;
        self.start = 0;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let (head_end, status, body_len) = loop {
            if let Some(end) = self.buf[..self.len]
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
            {
                let head =
                    std::str::from_utf8(&self.buf[..end]).map_err(|_| bad("head is not UTF-8"))?;
                let status = head
                    .get(9..12)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("no status"))?;
                let body_len = head
                    .lines()
                    .find_map(|l| {
                        let (name, value) = l.split_once(':')?;
                        name.eq_ignore_ascii_case("content-length")
                            .then(|| value.trim().parse::<usize>().ok())?
                    })
                    .ok_or_else(|| bad("no content-length"))?;
                break (end + 4, status, body_len);
            }
            self.fill()?;
        };
        while self.len < head_end + body_len {
            self.fill()?;
        }
        self.start = head_end + body_len;
        Ok((status, &self.buf[head_end..self.start]))
    }

    fn fill(&mut self) -> std::io::Result<()> {
        if self.len == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        let started = Instant::now();
        loop {
            match self.stream.read(&mut self.buf[self.len..]) {
                Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.len += n;
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => spin(started)?,
                Err(e) => return Err(e),
            }
        }
    }

    fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        let request = format!("GET {path} HTTP/1.1\r\nhost: perfbench\r\n\r\n");
        let (status, body) = self.exchange(request.as_bytes())?;
        Ok((status, String::from_utf8_lossy(body).into_owned()))
    }
}

/// One busy-wait step; fails once the server has been silent too long.
fn spin(since: Instant) -> std::io::Result<()> {
    std::hint::spin_loop();
    if since.elapsed() > RESPONSE_TIMEOUT {
        return Err(std::io::ErrorKind::TimedOut.into());
    }
    Ok(())
}

/// A running `tgp serve` child; dropping it kills and reaps it.
struct Server {
    child: Child,
    drain: Option<JoinHandle<()>>,
    addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Server {
    /// Starts the server (pinned to `cpu`) and waits for its listening
    /// line on stderr.
    fn start(tgp: &std::path::Path, cpu: Option<usize>) -> Result<Server, String> {
        let mut command = Command::new(tgp);
        command
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(SERVE_FLAGS)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(cpu) = cpu {
            // SAFETY: the hook only calls sched_setaffinity, which is
            // async-signal-safe, and allocates nothing.
            unsafe {
                command.pre_exec(move || sys::pin_current_thread(cpu));
            }
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", tgp.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let read = stderr.read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        // Keep draining stderr so the child can never block on it.
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut stderr, &mut std::io::sink());
        });
        let server = Server {
            child,
            drain: Some(drain),
            addr: addr.clone().unwrap_or_default(),
        };
        match (read, addr) {
            (Ok(_), Some(_)) => Ok(server),
            _ => Err(format!("tgp serve did not report its address: {line:?}")),
        }
    }
}

/// Starts a server, waits for `/healthz` and warms the cache with one
/// pass over the bodies. Returns the server and an open connection.
fn set_up(
    args: &Args,
    cpu: Option<usize>,
    bodies: &[Body],
    out: &mut Outcome,
) -> Result<(Server, Conn), String> {
    let server = Server::start(&args.tgp, cpu)?;
    let mut conn = Conn::open(&server.addr).map_err(|e| format!("connect: {e}"))?;
    match conn.get("/healthz") {
        Ok((200, _)) => {}
        other => return Err(format!("/healthz answered {other:?}")),
    }
    for body in bodies {
        match conn.exchange(&body.wire) {
            Ok((200, got)) if got == body.expected.as_bytes() => {}
            Ok((status, got)) => out.wrong(format!(
                "warm-up {}: status {status}, body differs from handle's: {}",
                body.objective,
                String::from_utf8_lossy(got).trim_end()
            )),
            Err(e) => return Err(format!("warm-up request: {e}")),
        }
    }
    Ok((server, conn))
}

/// Sums of the `/metrics` series the traced run reads.
fn scrape(conn: &mut Conn) -> Result<Vec<(String, f64)>, String> {
    let (status, text) = conn.get("/metrics").map_err(|e| format!("/metrics: {e}"))?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

fn series(scraped: &[(String, f64)], name: &str) -> f64 {
    scraped
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// Per-stage µs per op from two scrapes: delta sum over delta count.
fn stage_metrics(
    before: &[(String, f64)],
    after: &[(String, f64)],
    requests: u64,
    out: &mut Outcome,
) {
    let delta = |name: &str| series(after, name) - series(before, name);
    for stage in ["queue", "parse", "ingest", "cache", "serialize", "write"] {
        let sum = delta(&format!(
            "tgp_stage_latency_seconds_sum{{stage=\"{stage}\"}}"
        ));
        let count = delta(&format!(
            "tgp_stage_latency_seconds_count{{stage=\"{stage}\"}}"
        ));
        let per_op = if count > 0.0 { sum * 1e6 / count } else { 0.0 };
        out.metric(&format!("server.{stage}_us_per_op"), per_op, "us");
    }
    let hits = delta("tgp_cache_hits_total");
    let misses = delta("tgp_cache_misses_total");
    out.metric("cache.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    out.metric(
        "net.wakeups_per_op",
        delta("tgp_readiness_wakeups_total") / requests.max(1) as f64,
        "count",
    );
}

/// The traced run's in-process half: the layers a cache hit passes
/// through, timed on the cycle's own request bytes. The partition
/// pipeline is `cold_solve`'s replay, run against a cache warmed by one
/// untimed replay of every body.
fn replay_layers(bodies: &[Body], out: &mut Outcome) {
    let max_body = ServerConfig::default().max_body_bytes;
    let limits = FrameLimits {
        max_head_bytes: MAX_HEAD_BYTES,
        max_body_bytes: max_body as u64,
    };
    let cache = ResultCache::new(CacheConfig::default());
    let mut warm = Replay::default();
    for body in bodies {
        match warm.partition(&cache, body.text.as_bytes()).0 {
            Ok(rendered) if rendered == body.expected => {}
            Ok(_) => out.wrong(format!(
                "replayed {} differs from handle's",
                body.objective
            )),
            Err(e) => out.wrong(format!("replayed {}: {e}", body.objective)),
        }
    }
    let mut replay = Replay::default();
    for _ in 0..REPLAY_ROUNDS {
        for body in bodies {
            let layers = &mut replay.layers;
            let framed = layers.time("net.frame", || frame(&body.wire, &limits));
            if framed
                != (FrameStatus::Complete {
                    len: body.wire.len(),
                })
            {
                out.wrong(format!(
                    "framer: {framed:?} for a {} byte request",
                    body.wire.len()
                ));
            }
            let parsed = layers.time("http.read_request", || {
                read_request(&mut &body.wire[..], max_body)
            });
            if !parsed.is_ok_and(|r| *r.body == *body.text.as_bytes()) {
                out.wrong("read_request did not return the body".into());
            }
            match replay.solve(&cache, body.text.as_bytes()) {
                Ok((_, hit, _)) if hit == body.expected.trim_end() => {}
                Ok(_) => out.wrong(format!(
                    "cached {} differs from handle's",
                    body.objective
                )),
                Err(e) => out.wrong(format!("replayed {}: {e}", body.objective)),
            }
        }
    }
    if replay.hits != (REPLAY_ROUNDS * bodies.len()) as u64 {
        out.wrong(format!(
            "warmed cache answered {} of {} replays",
            replay.hits,
            REPLAY_ROUNDS * bodies.len()
        ));
    }
    replay.report(out);
}

pub fn hot_wire(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut bodies = bodies(args.seed);
    // The reference answers: `handle` on a fresh in-process state, each
    // also checked by the independent checker.
    let reference = AppState::new(CacheConfig::default());
    for body in &mut bodies {
        let req = request("POST", "/v1/partition", body.text.clone().into_bytes());
        let response = handle(&reference, &req);
        if response.status != 200 {
            out.wrong(format!(
                "reference {}: status {}",
                body.objective, response.status
            ));
        }
        if let Err(e) =
            check::check_response(body.objective, &body.graph, body.bound, &response.body)
        {
            out.wrong(format!(
                "{} n={} K={}: {e}",
                body.objective, WIRE_N, body.bound
            ));
        }
        body.expected = response.body;
    }
    drop(reference);
    let cpus = sys::allowed_cpus();
    let (client_cpu, server_cpu) = match cpus.as_slice() {
        [first, .., last] => (Some(*first), Some(*last)),
        _ => (None, None),
    };
    if let Some(cpu) = client_cpu {
        if let Err(e) = sys::pin_current_thread(cpu) {
            eprintln!("perfbench: could not pin the client to CPU {cpu}: {e}");
        }
    }
    let mut setups = Vec::new();
    let (server, mut conn) =
        match timed_setup(&mut setups, || set_up(args, server_cpu, &bodies, &mut out)) {
            Ok(up) => up,
            Err(e) => {
                out.attempted = 1;
                out.failed = 1;
                out.wrong(format!("server set-up: {e}"));
                return out;
            }
        };
    if args.trace {
        replay_layers(&bodies, &mut out);
    }
    timed_phase(args, &bodies, &server, &mut conn, &mut out, &mut setups, server_cpu);
    drop(conn);
    drop(server);
    out
}

/// The timed phase over the wire, then its metrics.
fn timed_phase(
    args: &Args,
    bodies: &[Body],
    server: &Server,
    conn: &mut Conn,
    out: &mut Outcome,
    setups: &mut Vec<f64>,
    server_cpu: Option<usize>,
) {
    let before = if args.trace {
        scrape(conn)
    } else {
        Ok(Vec::new())
    };
    let pid = server.child.id();
    let mut timed = Timed::default();
    let (mut cycles, mut peak) = (0u64, None);
    let mut stopped = false;
    // Whole windows of whole cycles until the time is up and the peak
    // memory has been read; each window reads the server's CPU time
    // before and after. A failed exchange ends the run after closing
    // its window.
    while !stopped && (timed.busy().as_secs_f64() < args.seconds || peak.is_none()) {
        let (window_start, cpu_start) = (Instant::now(), sys::child_cpu(pid));
        let mut ops = 0usize;
        // Requests sent and not yet answered: body index and send time.
        let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(DEPTH);
        loop {
            // Keep DEPTH requests in flight; once the window is over, start
            // no new cycle and drain the pipeline.
            while !stopped
                && in_flight.len() < DEPTH
                && (ops % bodies.len() != 0 || window_start.elapsed() < WINDOW)
            {
                let i = ops % bodies.len();
                out.attempted += 1;
                ops += 1;
                in_flight.push_back((i, Instant::now()));
                if let Err(e) = conn.send(&bodies[i].wire) {
                    out.wrong(format!("{} over the wire: {e}", bodies[i].objective));
                    stopped = true;
                }
            }
            let Some(&(i, sent)) = in_flight.front() else {
                break;
            };
            if stopped {
                out.failed += in_flight.len() as u64;
                break;
            }
            let result = conn.receive();
            let latency = sent.elapsed();
            match result {
                Ok((200, got)) if got == bodies[i].expected.as_bytes() => timed.sample(latency),
                Ok((status, _)) => {
                    out.failed += 1;
                    out.wrong(format!(
                        "{} over the wire: status {status} or body differs from handle's",
                        bodies[i].objective
                    ));
                }
                Err(e) => {
                    out.wrong(format!("{} over the wire: {e}", bodies[i].objective));
                    stopped = true;
                    continue;
                }
            }
            in_flight.pop_front();
            if i + 1 == bodies.len() {
                cycles += 1;
                if cycles == RSS_AT_CYCLES {
                    peak = Some(sys::peak_rss_mb(&pid.to_string()));
                }
            }
        }
        let busy = window_start.elapsed();
        match (cpu_start, sys::child_cpu(pid)) {
            (Ok(a), Ok(b)) => timed.close_window(ops as u64, busy, b.saturating_sub(a)),
            _ => {
                out.wrong("cannot read the server's /proc stat".into());
                break;
            }
        }
        for _ in 0..SETUPS_PER_WINDOW {
            if let Err(e) = timed_setup(setups, || set_up(args, server_cpu, bodies, out)) {
                out.wrong(format!("server set-up: {e}"));
            }
        }
    }
    if args.trace {
        match (before, scrape(conn)) {
            (Ok(before), Ok(after)) => stage_metrics(&before, &after, out.attempted, out),
            (Err(e), _) | (_, Err(e)) => out.wrong(e),
        }
    } else {
        timed.report(out, setups, peak.unwrap_or(0.0));
    }
}

/// Prints the make-up of the `hot_wire` cycle.
pub fn describe(seed: u64) {
    println!(
        "\nhot_wire cycle (`tgp serve {}`):\n",
        SERVE_FLAGS.join(" ")
    );
    println!("| objective | graph | n | K | body bytes | graph first |");
    println!("|---|---|---|---|---|---|");
    for body in bodies(seed) {
        println!(
            "| {} | {} | {} | {} | {} | {} |",
            body.objective,
            if body.graph.chain { "chain" } else { "tree" },
            body.graph.n(),
            body.bound,
            body.text.len(),
            if body.text.starts_with("{\"graph\"") {
                "yes"
            } else {
                "no"
            }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Responses that arrive together are returned one at a time, in
    /// order, each with its own status and body.
    #[test]
    fn pipelined_responses_are_read_in_order() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut conn = Conn::open(&listener.local_addr().unwrap().to_string()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server
            .write_all(
                b"HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\none\
                  HTTP/1.1 404 Not Found\r\ncontent-length: 3\r\n\r\ntwo",
            )
            .unwrap();
        assert_eq!(conn.receive().unwrap(), (200, &b"one"[..]));
        assert_eq!(conn.receive().unwrap(), (404, &b"two"[..]));
    }
}
