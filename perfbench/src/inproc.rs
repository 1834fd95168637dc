//! The in-process workloads, `cold_solve` and `session_tune`: requests
//! go through the public `tgp_service::api::handle` with no transport.
//!
//! A traced run replays every request a second time by calling the
//! layers `handle` goes through in order, each timed, on a second
//! state. The replayed response must equal `handle`'s byte for byte;
//! what `handle` spends beyond the replayed layers is
//! `api.self_us_per_op`. The two alternate which runs first, so cache
//! warmth from the first favours neither side.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tgp_graph::json::Value;
use tgp_service::api::{handle, ApiResponse};
use tgp_service::http::Request;
use tgp_service::{AppState, CacheConfig, ResultCache};
use tgp_session::{Edit, SessionStore, DEFAULT_SESSION_BUDGET};
use tgp_solvers::{ingest_flat, Budget, IngestBacking, KeyBuilder, Registry};

use crate::check;
use crate::gen::{self, Graph, Rng, REGIMES};
use crate::json::J;
use crate::layers::Layers;
use crate::{sys, timed_setup, Args, Outcome, Timed};

/// Chain and tree sizes of `cold_solve`, log-spaced over 10⁴–10⁵.
const SIZES: [usize; 3] = [10_000, 31_623, 100_000];
/// Objectives run on every chain (nicol on the same chains as
/// bandwidth, so the two are timed on identical inputs) and tree.
const CHAIN_OBJECTIVES: [&str; 3] = ["bandwidth", "nicol", "lexicographic"];
const TREE_OBJECTIVES: [&str; 3] = ["bottleneck", "procmin", "compose"];
/// Set-ups timed after every `cold_solve` round (about 4 ms each).
const COLD_SETUPS_PER_ROUND: usize = 3;

/// `session_tune`: one resident chain, edited and re-solved.
const SESSION_N: usize = 100_000;
const SESSION_EDGE_MAX: u64 = 1_000_000;
const EDITS_PER_BATCH: usize = 16;
/// Largest change one edit makes to an edge weight.
const EDIT_DELTA: u64 = 50;
/// Cycles per measurement window.
const SESSION_WINDOW: u64 = 32;

pub fn request(method: &str, path: &str, body: Vec<u8>) -> Request {
    Request {
        method: method.into(),
        path: path.into(),
        headers: Vec::new(),
        body: body.into(),
        keep_alive: true,
    }
}

/// Runs `handle`, returning its wall and CPU time.
fn timed_handle(state: &AppState, req: &Request) -> (ApiResponse, Duration, Duration) {
    let cpu = sys::process_cpu();
    let started = Instant::now();
    let response = handle(state, req);
    let wall = started.elapsed();
    (response, wall, sys::process_cpu() - cpu)
}

fn graph_first(size: usize, regime: usize) -> bool {
    (size + regime) % 2 == 1
}

fn class_graph(seed: u64, round: u64, size: usize, regime: usize, chain: bool) -> Graph {
    let mut rng = Rng::stream(seed, &[1, round, size as u64, regime as u64, chain as u64]);
    if chain {
        gen::chain(&mut rng, SIZES[size], 1000)
    } else {
        gen::tree(&mut rng, SIZES[size])
    }
}

fn objectives(chain: bool) -> [&'static str; 3] {
    if chain {
        CHAIN_OBJECTIVES
    } else {
        TREE_OBJECTIVES
    }
}

/// The solver layer an objective's time belongs to.
fn solve_layer(objective: &str) -> &'static str {
    match objective {
        "bandwidth" => "core.bandwidth",
        "lexicographic" => "core.lexicographic",
        "bottleneck" => "core.bottleneck",
        "procmin" => "core.procmin",
        "compose" => "core.compose",
        "nicol" => "baselines.nicol",
        _ => "core.other",
    }
}

/// One request per objective on graphs of this many nodes warms a
/// fresh state before timing.
const WARM_N: usize = 1000;

/// The warm-up bodies: fixed, whatever the seed.
fn warm_bodies() -> Vec<Vec<u8>> {
    let mut rng = Rng::stream(0, &[5]);
    let mut bodies = Vec::new();
    for chain in [true, false] {
        let g = if chain {
            gen::chain(&mut rng, WARM_N, 1000)
        } else {
            gen::tree(&mut rng, WARM_N)
        };
        for objective in objectives(chain) {
            bodies.push(gen::partition_body(objective, gen::bound(&g, 20), &g, false).into_bytes());
        }
    }
    bodies
}

/// Builds the `cold_solve` state: an empty cache, warmed by one solve
/// per objective so that lazily built tables exist before timing.
fn cold_state(warm: &[Vec<u8>]) -> AppState {
    let state = AppState::new(CacheConfig::default());
    for body in warm {
        handle(&state, &request("POST", "/v1/partition", body.clone()));
    }
    state
}

/// Per-run counters of the replayed partition pipeline.
#[derive(Default)]
pub struct Replay {
    pub layers: Layers,
    accepted: u64,
    offered: u64,
    /// Requests the cache answered.
    pub hits: u64,
    rendered_bytes: u64,
    renders: u64,
    api_self: f64,
    ops: u64,
}

impl Replay {
    /// Replays `POST /v1/partition` layer by layer: flat ingest, and on
    /// a decline the registry path (parse, validate); then key, cache
    /// probe, solve, render, cache insert. Returns the response body
    /// and the time the replayed layers took.
    pub fn partition(
        &mut self,
        cache: &ResultCache,
        body: &[u8],
    ) -> (Result<String, String>, Duration) {
        let before = self.layers.total();
        let result = self.solve(cache, body).map(|(key, rendered, cost)| {
            self.rendered_bytes += rendered.len() as u64;
            self.renders += 1;
            self.layers.time("cache.insert", || {
                cache.insert(&key, rendered.clone(), cost)
            });
            format!("{rendered}\n")
        });
        (result, self.layers.total() - before)
    }

    /// The replayed pipeline up to the cache insert: the key, the
    /// rendered response (the cached one on a hit) and the cost the
    /// insert is charged with.
    pub fn solve(
        &mut self,
        cache: &ResultCache,
        body: &[u8],
    ) -> Result<(Vec<u8>, String, u64), String> {
        let layers = &mut self.layers;
        let started = Instant::now();
        let flat = ingest_flat(body, &IngestBacking::Ram, &Budget::unlimited());
        let ingest = started.elapsed();
        self.offered += 1;
        if let Some(request) = flat.map_err(|e| format!("flat ingest failed: {e}"))? {
            layers.add("ingest.flat", ingest);
            self.accepted += 1;
            let key = layers.time("solvers.key", || request.canonical_key());
            let cost = request.cost_estimate();
            if let Some(hit) = layers.time("cache.get", || cache.get(&key)) {
                self.hits += 1;
                return Ok((key, hit, cost));
            }
            let response = layers
                .time(solve_layer(request.objective.name()), || request.run())
                .map_err(|e| e.to_string())?;
            let rendered = layers.time("json.render", || response.value.to_string());
            return Ok((key, rendered, cost));
        }
        layers.add("ingest.fallback", ingest);
        let text = std::str::from_utf8(body).expect("bodies are ASCII");
        let value = layers
            .time("json.parse", || Value::parse(text))
            .map_err(|e| format!("parse: {e}"))?;
        let (solver, request) = layers
            .time("solvers.validate", || {
                let name = value.get("objective").and_then(Value::as_str)?;
                let (_, solver) = Registry::shared().get(name)?;
                Some((solver, solver.parse(&value)))
            })
            .ok_or("objective did not resolve")?;
        let request = request.map_err(|e| e.to_string())?;
        let key = layers.time("solvers.key", || solver.canonical_key(&request));
        let cost = solver.cost_estimate(&request);
        if let Some(hit) = layers.time("cache.get", || cache.get(&key)) {
            self.hits += 1;
            return Ok((key, hit, cost));
        }
        let response = layers
            .time(solve_layer(solver.name()), || solver.run(&request))
            .map_err(|e| e.to_string())?;
        let rendered = layers.time("json.render", || solver.to_json(&response).to_string());
        Ok((key, rendered, cost))
    }

    /// Compares a replayed response with `handle`'s and books the
    /// difference in time as `handle`'s own.
    fn settle(
        &mut self,
        out: &mut Outcome,
        what: &str,
        replayed: (Result<String, String>, Duration),
        got: &str,
        handle_time: Duration,
    ) {
        match replayed.0 {
            Ok(body) if body == got => {}
            Ok(_) => out.wrong(format!(
                "{what}: replayed pipeline response differs from handle's"
            )),
            Err(e) => out.wrong(format!("{what}: replayed pipeline failed: {e}")),
        }
        self.api_self += handle_time.as_secs_f64() - replayed.1.as_secs_f64();
        self.ops += 1;
    }

    pub fn report(&self, out: &mut Outcome) {
        self.layers.report(out);
        if self.offered > 0 {
            out.metric(
                "ingest.accept_ratio",
                self.accepted as f64 / self.offered as f64,
                "ratio",
            );
        }
        if self.renders > 0 {
            out.metric(
                "json.render_bytes_per_op",
                self.rendered_bytes as f64 / self.renders as f64,
                "B",
            );
        }
        if self.ops > 0 {
            out.metric(
                "api.self_us_per_op",
                self.api_self * 1e6 / self.ops as f64,
                "us",
            );
        }
    }
}

pub fn cold_solve(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let warm = warm_bodies();
    let mut setups = Vec::new();
    let state = timed_setup(&mut setups, || cold_state(&warm));
    let replay_cache = ResultCache::new(CacheConfig::default());
    let mut replay = Replay::default();
    let mut timed = Timed::default();
    let mut round = 0u64;
    // Whole rounds: every run attempts the same mix of classes. A
    // traced run counts its replays against the time too.
    while (timed.busy() + replay.layers.total()).as_secs_f64() < args.seconds {
        for size in 0..SIZES.len() {
            for (regime, &(_, divisor)) in REGIMES.iter().enumerate() {
                for chain in [true, false] {
                    let g = class_graph(args.seed, round, size, regime, chain);
                    let bound = gen::bound(&g, divisor);
                    for objective in objectives(chain) {
                        let body =
                            gen::partition_body(objective, bound, &g, graph_first(size, regime));
                        let req = request("POST", "/v1/partition", body.into_bytes());
                        out.attempted += 1;
                        let replay_first = args.trace && round % 2 == 1;
                        let early =
                            replay_first.then(|| replay.partition(&replay_cache, &req.body));
                        let (response, wall, cpu) = timed_handle(&state, &req);
                        let late = (args.trace && !replay_first)
                            .then(|| replay.partition(&replay_cache, &req.body));
                        timed.op(wall, cpu);
                        let what = format!("{objective} n={} K={bound} round {round}", g.n());
                        if response.status != 200 {
                            out.failed += 1;
                            out.wrong(format!(
                                "{what}: status {}: {}",
                                response.status,
                                response.body.trim_end()
                            ));
                            continue;
                        }
                        if let Err(e) = check::check_response(objective, &g, bound, &response.body)
                        {
                            out.wrong(format!("{what}: {e}"));
                        }
                        if let Some(replayed) = early.or(late) {
                            replay.settle(&mut out, &what, replayed, &response.body, wall);
                        }
                    }
                }
            }
        }
        timed.close_window(0, Duration::ZERO, Duration::ZERO);
        for _ in 0..COLD_SETUPS_PER_ROUND {
            drop(timed_setup(&mut setups, || cold_state(&warm)));
        }
        round += 1;
    }
    if args.trace {
        replay.report(&mut out);
    } else {
        timed.report(&mut out, &setups, sys::peak_rss_mb("self"));
    }
    out
}

/// A state whose sessions journal to `path`, holding the registered
/// graph and its first (cold) solve. Returns the state, the graph id
/// and the first solve's body.
fn session_state(
    path: &Path,
    register: &[u8],
    solve: &[u8],
) -> Result<(AppState, String, String), String> {
    let _ = std::fs::remove_file(path);
    let store = SessionStore::with_journal(path, DEFAULT_SESSION_BUDGET)
        .map_err(|e| format!("journal: {e}"))?;
    let state = AppState::new(CacheConfig::default()).with_sessions(Arc::new(store));
    let registered = handle(&state, &request("POST", "/v1/graphs", register.to_vec()));
    let id = J::parse(registered.body.trim_end())
        .ok()
        .and_then(|v| v.get("id").and_then(J::as_str).map(str::to_string))
        .ok_or_else(|| format!("register: status {} {}", registered.status, registered.body))?;
    let first = handle(
        &state,
        &request(
            "POST",
            &format!("/v1/graphs/{id}/partition"),
            solve.to_vec(),
        ),
    );
    if first.status != 200 {
        return Err(format!(
            "first solve: status {} {}",
            first.status, first.body
        ));
    }
    Ok((state, id, first.body))
}

fn is_warm(response: &ApiResponse) -> bool {
    response
        .headers
        .iter()
        .any(|(name, value)| *name == "x-tgp-solve" && value == "warm")
}

/// Replays `PATCH /v1/graphs/<id>`: parse, decode edits, apply.
fn replay_patch(
    store: &SessionStore,
    id: &str,
    body: &[u8],
    layers: &mut Layers,
) -> Result<String, String> {
    let text = std::str::from_utf8(body).expect("bodies are ASCII");
    let value = layers
        .time("json.parse", || Value::parse(text))
        .map_err(|e| e.to_string())?;
    let edits =
        Edit::batch_from_json(value.get("edits").ok_or("no edits")?).map_err(|e| e.to_string())?;
    let version = value
        .get("version")
        .and_then(Value::as_u64)
        .ok_or("no version")?;
    let new_version = layers
        .time("session.apply", || store.apply(id, version, &edits))
        .map_err(|e| e.to_string())?;
    let rendered = tgp_graph::json!({
        "id": id,
        "version": new_version,
        "applied": edits.len() as u64,
    });
    Ok(format!("{rendered}\n"))
}

/// Replays `POST /v1/graphs/<id>/partition`: parse, validate with the
/// resident graph spliced in, key, warm solve inside the remembered
/// window (cold when it declines), render. Returns the body and
/// whether the warm path answered.
fn replay_session_solve(
    store: &SessionStore,
    id: &str,
    body: &[u8],
    layers: &mut Layers,
) -> Result<(String, bool), String> {
    let text = std::str::from_utf8(body).expect("bodies are ASCII");
    let mut value = layers
        .time("json.parse", || Value::parse(text))
        .map_err(|e| e.to_string())?;
    let arc = store.resident(id).map_err(|e| e.to_string())?;
    let mut resident = arc.lock().expect("resident graph lock");
    let parsed = layers.time("solvers.validate", || {
        let graph = std::mem::replace(&mut resident.graph, Value::Null);
        if let Value::Object(entries) = &mut value {
            entries.push(("graph".to_string(), graph));
        }
        let parsed = value
            .get("objective")
            .and_then(Value::as_str)
            .and_then(|name| Registry::shared().get(name))
            .map(|(_, solver)| (solver, solver.parse(&value)));
        if let Value::Object(entries) = &mut value {
            if let Some((_, graph)) = entries.pop() {
                resident.graph = graph;
            }
        }
        parsed
    });
    let (solver, request) = match parsed {
        None => return Err("objective did not resolve".into()),
        Some((solver, request)) => (solver, request.map_err(|e| e.to_string())?),
    };
    let key = layers.time("solvers.key", || {
        let mut builder = KeyBuilder::default();
        builder.write_str(solver.name());
        request.params.write_key(&mut builder);
        builder.finish()
    });
    let warm = resident.warm_window(&key).and_then(|(lo, hi)| {
        layers.time("core.lexicographic_warm", || {
            solver.run_warm(&request, lo, hi)
        })
    });
    let (response, warm) = match warm {
        Some(response) => (response, true),
        None => (
            layers.time("core.lexicographic", || solver.run(&request)),
            false,
        ),
    };
    let response = response.map_err(|e| e.to_string())?;
    let (rendered, bottleneck) = layers.time("json.render", || {
        let value = solver.to_json(&response);
        (value.to_string(), value["bottleneck"].as_u64())
    });
    if let Some(bottleneck) = bottleneck {
        resident.note_solve(&key, bottleneck);
    }
    drop(resident);
    store.record_solve(warm);
    Ok((format!("{rendered}\n"), warm))
}

fn session_graph(seed: u64) -> Graph {
    gen::chain(&mut Rng::stream(seed, &[3]), SESSION_N, SESSION_EDGE_MAX)
}

fn journal_path(dir: &Path, tag: &str) -> PathBuf {
    dir.join(format!("perfbench-{}-{tag}.journal", std::process::id()))
}

pub fn session_tune(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut mirror = session_graph(args.seed);
    let bound = gen::bound(&mirror, 20);
    let mut register = String::from("{\"graph\":");
    mirror.render(&mut register);
    register.push('}');
    let solve = format!("{{\"objective\":\"lexicographic\",\"bound\":{bound}}}").into_bytes();
    let path = journal_path(&args.work_dir, "session");
    // Later set-ups are timed on a state of their own, journaling
    // elsewhere, and dropped.
    let probe_path = journal_path(&args.work_dir, "probe");
    let mut setups = Vec::new();
    let built = timed_setup(&mut setups, || {
        session_state(&path, register.as_bytes(), &solve)
    });
    let (state, id, first) = match built {
        Ok(ready) => ready,
        Err(e) => {
            out.attempted = 1;
            out.failed = 1;
            out.wrong(format!("session set-up: {e}"));
            return out;
        }
    };
    if let Err(e) = check::check_response("lexicographic", &mirror, bound, &first) {
        out.wrong(format!("first session solve: {e}"));
    }
    // The traced run replays on a second state holding the same graph.
    let replay_path = journal_path(&args.work_dir, "replay");
    let replay_state = if args.trace {
        match session_state(&replay_path, register.as_bytes(), &solve) {
            Ok((state, _, _)) => Some(state),
            Err(e) => {
                out.wrong(format!("replay set-up: {e}"));
                None
            }
        }
    } else {
        None
    };
    let mut layers = Layers::default();
    let mut api_self = 0.0f64;
    let journal_start = std::fs::metadata(&path).map_or(0, |m| m.len());
    let patch_path = format!("/v1/graphs/{id}");
    let solve_path = format!("/v1/graphs/{id}/partition");
    let mut rng = Rng::stream(args.seed, &[4]);
    let mut version = 1u64;
    let mut warm = 0u64;
    let mut timed = Timed::default();
    // Whole windows of SESSION_WINDOW cycles; a traced run counts its
    // replays against the time too. A failed cycle ends the run after
    // closing its window, so the cycles before it are still reported.
    let mut stopped = false;
    while !stopped && (timed.busy() + layers.total()).as_secs_f64() < args.seconds {
        for _ in 0..SESSION_WINDOW {
            let mut edits = Vec::with_capacity(EDITS_PER_BATCH);
            for _ in 0..EDITS_PER_BATCH {
                let index = (rng.next() % mirror.edges.len() as u64) as usize;
                let delta = rng.range(1, EDIT_DELTA);
                let weight = &mut mirror.edges[index].2;
                *weight = if rng.next() & 1 == 1 {
                    *weight + delta
                } else {
                    weight.saturating_sub(delta).max(1)
                };
                edits.push(format!(
                    "{{\"op\":\"edge_weight\",\"index\":{index},\"weight\":{weight}}}"
                ));
            }
            let patch =
                format!("{{\"version\":{version},\"edits\":[{}]}}", edits.join(",")).into_bytes();
            let patch_req = request("PATCH", &patch_path, patch);
            let solve_req = request("POST", &solve_path, solve.clone());
            out.attempted += 1;
            let replay_first = out.attempted % 2 == 0;
            let mut replayed = None;
            let replay = |layers: &mut Layers| {
                replay_state.as_ref().map(|rs| {
                    let before = layers.total();
                    let patched = replay_patch(&rs.sessions, &id, &patch_req.body, layers);
                    let solved = replay_session_solve(&rs.sessions, &id, &solve_req.body, layers);
                    (patched, solved, layers.total() - before)
                })
            };
            if replay_first {
                replayed = replay(&mut layers);
            }
            let (patched, patch_wall, patch_cpu) = timed_handle(&state, &patch_req);
            let (solved, solve_wall, solve_cpu) = timed_handle(&state, &solve_req);
            if !replay_first {
                replayed = replay(&mut layers);
            }
            let wall = patch_wall + solve_wall;
            timed.op(wall, patch_cpu + solve_cpu);
            let what = format!("session cycle {}", out.attempted);
            if patched.status != 200 || solved.status != 200 {
                out.failed += 1;
                out.wrong(format!(
                    "{what}: status {} / {}: {}{}",
                    patched.status, solved.status, patched.body, solved.body
                ));
                stopped = true;
                break;
            }
            version += 1;
            let acked = J::parse(patched.body.trim_end())
                .ok()
                .and_then(|v| v.u64("version"));
            if acked != Some(version) {
                out.wrong(format!(
                    "{what}: PATCH acked version {acked:?}, expected {version}"
                ));
            }
            if let Err(e) = check::check_response("lexicographic", &mirror, bound, &solved.body) {
                out.wrong(format!("{what}: {e}"));
            }
            warm += u64::from(is_warm(&solved));
            if let Some((replay_patched, replay_solved, spent)) = replayed {
                match (replay_patched, replay_solved) {
                    (Ok(p), Ok((s, replay_warm)))
                        if p == patched.body
                            && s == solved.body
                            && replay_warm == is_warm(&solved) => {}
                    (Err(e), _) | (_, Err(e)) => out.wrong(format!("{what}: replay failed: {e}")),
                    _ => out.wrong(format!(
                        "{what}: replayed pipeline response differs from handle's"
                    )),
                }
                api_self += wall.as_secs_f64() - spent.as_secs_f64();
            }
        }
        timed.close_window(0, Duration::ZERO, Duration::ZERO);
        let probe = timed_setup(&mut setups, || {
            session_state(&probe_path, register.as_bytes(), &solve)
        });
        if let Err(e) = probe {
            out.wrong(format!("session set-up: {e}"));
        }
    }
    let cycles = out.attempted.max(1) as f64;
    let journal_growth = std::fs::metadata(&path).map_or(0, |m| m.len()) - journal_start;
    if args.trace {
        layers.report(&mut out);
        out.metric("api.self_us_per_op", api_self * 1e6 / cycles, "us");
        out.metric(
            "session.journal_bytes_per_op",
            journal_growth as f64 / cycles,
            "B",
        );
        out.metric("session.warm_ratio", warm as f64 / cycles, "ratio");
    } else {
        timed.report(&mut out, &setups, sys::peak_rss_mb("self"));
    }
    drop(state);
    drop(replay_state);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&replay_path);
    let _ = std::fs::remove_file(&probe_path);
    out
}

/// Prints the make-up of the inputs for `seed`: the `cold_solve`
/// classes with their bounds, body sizes, field orders and, for every
/// chain, the paper's `n`, `p`, `q` and `p·log q`.
pub fn describe(seed: u64) {
    use tgp_core::bandwidth::analyze_bandwidth;
    println!("cold_solve, round 0 of seed {seed} (every round has the same classes):\n");
    println!("| n | regime | graph | K | objectives | body bytes | graph first | p | q | p·log q | n·log n |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    for size in 0..SIZES.len() {
        for (regime, &(name, divisor)) in REGIMES.iter().enumerate() {
            for chain in [true, false] {
                let g = class_graph(seed, 0, size, regime, chain);
                let bound = gen::bound(&g, divisor);
                let bytes = gen::partition_body("bandwidth", bound, &g, false).len();
                let paper = if chain {
                    let path = tgp_graph::PathGraph::from_raw(
                        &g.nodes,
                        &g.edges.iter().map(|e| e.2).collect::<Vec<_>>(),
                    )
                    .expect("generated chains are valid");
                    let (_, s) = analyze_bandwidth(&path, tgp_graph::Weight::new(bound))
                        .expect("K is at least the heaviest task");
                    format!(
                        "{} | {:.2} | {:.0} | {:.0}",
                        s.p, s.q_bar, s.p_log_q, s.n_log_n
                    )
                } else {
                    "– | – | – | –".to_string()
                };
                println!(
                    "| {} | {name} | {} | {bound} | {} | ~{} k | {} | {paper} |",
                    g.n(),
                    if chain { "chain" } else { "tree" },
                    objectives(chain).join(", "),
                    bytes / 1000,
                    if graph_first(size, regime) {
                        "yes"
                    } else {
                        "no"
                    },
                );
            }
        }
    }
    let g = session_graph(seed);
    println!(
        "\nsession_tune: chain n={}, edge weights on [1, {SESSION_EDGE_MAX}], K={}, {EDITS_PER_BATCH} edge-weight edits of at most ±{EDIT_DELTA} per batch",
        g.n(),
        gen::bound(&g, 20)
    );
    crate::wire::describe(seed);
}
