//! `serve-warm`: the control path.
//!
//! An open-loop generator offers a fixed request rate over two
//! `sh-server` connections: 70/20/10 range/kNN/join Pigeon statements
//! with tiny ranges and 1-NN queries over text STR+ indexes that fit the
//! default block cache. The cache is hot and answers are small, so job
//! setup, scheduling, Pigeon parse/plan and server framing dominate.
//! Latency runs from each request's due time, so a stalled connection
//! shows up as lateness rather than as missing load.
//!
//! Pigeon leaves each statement's output under `/pigeon/`, and a DFS
//! listing walks the whole namespace, so the generator deletes those
//! outputs every [`GC_EVERY`] while no request is in flight. Without it
//! every operation slows as the run goes on, and a run's figures depend
//! on its length.
//!
//! The server notices a finished statement on a 1 ms poll, so latencies
//! come in ~1 ms steps. Ranges (0.001% of the universe) and kNN (`k` = 1)
//! are sized to finish inside the first step; a percentile that sat on a
//! step edge would flip between runs.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::RwLock;
use std::time::{Duration, Instant};

use sh_core::storage::{delete_dir, BlockFormat};
use sh_core::SpatialFile;
use sh_dfs::Dfs;
use sh_geom::{Point, Rect};
use sh_index::PartitionKind;
use sh_pigeon::ast::RecordType;
use sh_pigeon::{Pigeon, SessionCtx, Value};
use sh_server::{Server, ServerConfig};
use sh_trace::Span;
use sh_workload::{default_universe, points, rects, Distribution};

use super::{stream_seed, touch_all, Workload};
use crate::bench::{
    self, Build, JoinSet, Kind, OpRecord, Phase, PointSet, Query, QueryGen, ServerCounts, SharedAcc,
};
use crate::layers::micros;
use crate::oracle::PointOracle;
use crate::stats::Status;
use crate::wire::{Conn, Reply};

const BLOCK: u64 = 32 * 1024;
const POINTS: usize = 60_000;
const RECTS: usize = 3_000;
const RECT_SIDE: f64 = 4_000.0;
/// Neighbours per kNN query.
const K: usize = 1;
const RANGE_AREA: f64 = 1e-5;
/// Connections, one client thread each (no thread per arrival).
const CONNS: usize = 2;
/// Offered load, requests per second: under a quarter of the ~660 req/s
/// two back-to-back connections sustain on a 2-core host. At half, the
/// queueing behind joins made even the medians flip between runs, and a
/// shared host's capacity dips must not push the rate into queueing.
const RATE: f64 = 150.0;
/// Every n-th traced request is replayed in-process and layer by layer.
const REPLAY_EVERY: usize = 3;
/// How often the generator deletes finished statements' outputs.
const GC_EVERY: Duration = Duration::from_millis(500);

/// Indexes the server builds for itself from the uploaded heap files.
const INIT_SCRIPT: &str = "\
    p = LOAD '/sw/p' AS POINT; ip = INDEX p AS str+ INTO '/sw/srv/ip';\n\
    a = LOAD '/sw/a' AS RECTANGLE; ia = INDEX a AS str+ INTO '/sw/srv/ia';\n\
    b = LOAD '/sw/b' AS RECTANGLE; ib = INDEX b AS str+ INTO '/sw/srv/ib';\n";

pub struct ServeWarm;

pub struct World {
    seed: u64,
    dfs: Dfs,
    server: Server,
    /// In-process copies of the server's indexes (same inputs, same
    /// technique): the direct-op and in-process Pigeon baselines.
    points: PointSet,
    joins: JoinSet,
    requests: AtomicU64,
    bytes: AtomicU64,
    input_bytes: u64,
    working_set: u64,
}

impl Workload for ServeWarm {
    type World = World;

    fn name(&self) -> &'static str {
        "serve-warm"
    }

    fn setup(&self, seed: u64) -> Result<(World, Vec<Build>), String> {
        let dfs = bench::new_dfs(BLOCK, 1);
        let uni = default_universe();
        let pts = points(POINTS, Distribution::Uniform, &uni, seed);
        let ra = rects(RECTS, &uni, RECT_SIDE, seed ^ 0xA11CE);
        let rb = rects(RECTS, &uni, RECT_SIDE, seed ^ 0xB0B);
        let text = BlockFormat::Text;
        let (pfile, b1) =
            bench::ingest(&dfs, "/sw/p", "/sw/ip", &pts, PartitionKind::StrPlus, text)?;
        let (fa, b2) = bench::ingest(&dfs, "/sw/a", "/sw/ia", &ra, PartitionKind::StrPlus, text)?;
        let (fb, b3) = bench::ingest(&dfs, "/sw/b", "/sw/ib", &rb, PartitionKind::StrPlus, text)?;
        let reference = bench::join_reference(&dfs, "/sw/a", "/sw/b", &uni, "/sw/sjmr")?;
        let server = Server::start(
            &dfs,
            ServerConfig {
                init_script: Some(INIT_SCRIPT.to_string()),
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("server: {e}"))?;

        // Warm the cache with every partition either copy can open.
        for dir in ["/sw/ip", "/sw/srv/ip"] {
            let f = SpatialFile::open(&dfs, dir).map_err(|e| e.to_string())?;
            touch_all::<Point>(&dfs, &f)?;
        }
        for dir in ["/sw/ia", "/sw/ib", "/sw/srv/ia", "/sw/srv/ib"] {
            let f = SpatialFile::open(&dfs, dir).map_err(|e| e.to_string())?;
            touch_all::<Rect>(&dfs, &f)?;
        }
        let working_set = dfs.cache().stats().resident_bytes;
        let world = World {
            seed,
            server,
            points: PointSet {
                file: pfile,
                oracle: PointOracle::new(&pts),
            },
            joins: JoinSet {
                a: fa,
                b: fb,
                reference,
            },
            dfs,
            requests: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            input_bytes: b1.input_bytes + b2.input_bytes + b3.input_bytes,
            working_set,
        };
        // Build figures come from the point index, the one every set-up
        // repeats at full size.
        Ok((world, vec![b1]))
    }

    fn measure(&self, w: &World, window: Duration, acc: Option<&SharedAcc>, phase: u64) -> Phase {
        let n = (RATE * window.as_secs_f64()).ceil() as usize;
        let mut gen = QueryGen::new(
            stream_seed(w.seed, phase, 0),
            default_universe(),
            RANGE_AREA,
            K,
        );
        let queries: Vec<Query> = (0..n)
            .map(|i| Query::draw(Kind::nth(i), &mut gen))
            .collect();
        let next = AtomicUsize::new(0);
        // Requests hold it shared; the output clean-up holds it alone.
        let gc = RwLock::new(());
        let gc_due_ms = AtomicU64::new(GC_EVERY.as_millis() as u64);
        let addr = w.server.addr();
        let start = Instant::now();
        let per_conn: Vec<Vec<OpRecord>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CONNS)
                .map(|_| {
                    let (queries, next, gc, gc_due_ms) = (&queries, &next, &gc, &gc_due_ms);
                    s.spawn(move || {
                        let mut client = Client::new(w, addr, acc);
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let due = start + Duration::from_secs_f64(i as f64 / RATE);
                            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            let now_ms = start.elapsed().as_millis() as u64;
                            let gc_at = gc_due_ms.load(Ordering::Relaxed);
                            if now_ms >= gc_at
                                && gc_due_ms
                                    .compare_exchange(
                                        gc_at,
                                        now_ms + GC_EVERY.as_millis() as u64,
                                        Ordering::Relaxed,
                                        Ordering::Relaxed,
                                    )
                                    .is_ok()
                            {
                                let _alone = gc.write().expect("gc lock");
                                delete_dir(&w.dfs, "/pigeon");
                            }
                            let _shared = gc.read().expect("gc lock");
                            let mut rec =
                                client.request(queries[i], due, &format!("{phase}-{i}"), i);
                            rec.done_s = start.elapsed().as_secs_f64();
                            out.push(rec);
                        }
                        client.close();
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connection thread panicked"))
                .collect()
        });
        Phase {
            ops: per_conn.into_iter().flatten().collect(),
            window_s: start.elapsed().as_secs_f64(),
            builds: Vec::new(),
        }
    }

    fn dfs<'a>(&self, w: &'a World) -> &'a Dfs {
        &w.dfs
    }

    fn limit_ms(&self) -> f64 {
        50.0
    }

    fn provenance(&self, w: &World) -> Vec<(String, String)> {
        let budget = w.dfs.cache().budget();
        vec![
            (
                "clients".into(),
                format!("{CONNS} sh-server connections, open loop"),
            ),
            ("offered_rate".into(), format!("{RATE} req/s")),
            ("points".into(), POINTS.to_string()),
            ("rects_per_side".into(), RECTS.to_string()),
            ("input_bytes".into(), w.input_bytes.to_string()),
            ("index".into(), "str+ text".into()),
            ("range_area_frac".into(), RANGE_AREA.to_string()),
            ("knn_k".into(), K.to_string()),
            ("cache_budget_bytes".into(), budget.to_string()),
            ("working_set_bytes".into(), w.working_set.to_string()),
            (
                "working_set_over_cache".into(),
                format!("{:.2}", w.working_set as f64 / budget.max(1) as f64),
            ),
        ]
    }

    /// Two. Every statement runs on a fresh scheduler thread, and which
    /// of glibc's default arenas those threads land in varied from run
    /// to run; runs that spread over more arenas kept ~15 MB more freed
    /// heap, so `peak_rss_mb` read 55 or 70 MB at random. With two it
    /// reads the same in every run, and the latencies do not move.
    fn malloc_arenas(&self) -> Option<i32> {
        Some(2)
    }

    fn server_counts(&self, w: &World) -> ServerCounts {
        ServerCounts {
            requests: w.requests.load(Ordering::Relaxed),
            bytes: w.bytes.load(Ordering::Relaxed),
        }
    }
}

/// One connection's client: the wire connection plus, when traced, an
/// in-process Pigeon engine over the same datasets.
struct Client<'a> {
    w: &'a World,
    addr: std::net::SocketAddr,
    conn: Option<Conn>,
    acc: Option<&'a SharedAcc>,
    engine: Pigeon,
    session: SessionCtx,
}

impl<'a> Client<'a> {
    fn new(w: &'a World, addr: std::net::SocketAddr, acc: Option<&'a SharedAcc>) -> Client<'a> {
        let mut session = SessionCtx::new();
        let bind = |file: &SpatialFile, rtype| Value::Indexed {
            file: file.clone(),
            rtype,
        };
        session
            .vars
            .insert("ip".into(), bind(&w.points.file, RecordType::Point));
        session
            .vars
            .insert("ia".into(), bind(&w.joins.a, RecordType::Rectangle));
        session
            .vars
            .insert("ib".into(), bind(&w.joins.b, RecordType::Rectangle));
        Client {
            w,
            addr,
            conn: Conn::connect(&addr).ok(),
            acc,
            engine: Pigeon::new(&w.dfs),
            session,
        }
    }

    /// Sends one request due at `due`, checks the answer, and (traced)
    /// records its spans and, for sampled requests, the replays.
    fn request(&mut self, query: Query, due: Instant, id: &str, i: usize) -> OpRecord {
        let line = query.pigeon();
        let req = self.acc.map(|_| {
            let s = Span::root(format!("request {id}"));
            s.attr("request_id", id);
            s.attr("op", query.kind().name());
            s
        });
        let sent = Instant::now();
        let late_ms = sent.duration_since(due).as_secs_f64() * 1e3;
        let rt_span = req.as_ref().map(|r| r.child("server.round_trip"));
        let reply = match self.conn.as_mut() {
            Some(c) => c.request(&line),
            None => Err(std::io::Error::other("not connected")),
        };
        let answered = Instant::now();
        if let Some(s) = rt_span {
            s.finish();
        }
        let latency_ms = answered.duration_since(due).as_secs_f64() * 1e3;
        let rtt_ms = answered.duration_since(sent).as_secs_f64() * 1e3;
        self.w.requests.fetch_add(1, Ordering::Relaxed);
        let (status, results) = match reply {
            Ok((reply, bytes)) => {
                self.w.bytes.fetch_add(bytes, Ordering::Relaxed);
                match reply {
                    Reply::Rows(rows) => {
                        let status = query.check(&self.w.points, &self.w.joins, &rows);
                        if status != Status::Ok {
                            eprintln!(
                                "perfbench: {} answer differs from the oracle",
                                query.kind().name()
                            );
                        }
                        (status, rows.len() as u64)
                    }
                    Reply::Err(msg) => {
                        eprintln!("perfbench: request {id} failed: {msg}");
                        (Status::Failed, 0)
                    }
                    Reply::Busy => (Status::Refused, 0),
                }
            }
            Err(e) => {
                eprintln!("perfbench: request {id}: {e}");
                self.conn = Conn::connect(&self.addr).ok();
                (Status::Failed, 0)
            }
        };
        let record = OpRecord {
            kind: query.kind(),
            status,
            latency_ms,
            late_ms,
            service_ms: rtt_ms,
            done_s: 0.0,
            results,
        };
        if let (Some(acc), Some(req)) = (self.acc, req) {
            if status == Status::Ok && i.is_multiple_of(REPLAY_EVERY) {
                self.battery(query, &line, rtt_ms, id, &req);
            }
            req.finish();
            let mut a = acc.lock().expect("layer accumulator");
            a.traced_service_ms.push(rtt_ms);
            a.spans.push(req.record());
        }
        record
    }

    /// The same query three more ways — Pigeon parse + in-process
    /// execute, direct op call, layer-by-layer replay — to split the
    /// round trip into server, Pigeon, job and data-path shares.
    fn battery(&mut self, query: Query, line: &str, rtt_ms: f64, id: &str, req: &Span) {
        let acc = self.acc.expect("battery runs traced");
        let parse_span = req.child("pigeon.parse");
        let (script, parse_us) = micros(|| sh_pigeon::parser::parse(line));
        parse_span.finish();
        let Ok(script) = script else {
            eprintln!("perfbench: {id}: statement does not parse");
            return;
        };
        let exec_span = req.child("pigeon.execute");
        let (rows, exec_us) = micros(|| self.engine.execute_with(&mut self.session, &script));
        exec_span.finish();
        if rows.is_err() {
            eprintln!("perfbench: {id}: in-process execute failed");
            return;
        }
        let out = format!("/sw/out/{id}");
        let done = bench::run_direct(
            &self.w.dfs,
            &self.w.points,
            &self.w.joins,
            query,
            &out,
            Some(req),
        );
        let Some(jobs) = done.jobs else { return };
        let span = req.child("replay");
        let r = bench::replay(
            &self.w.dfs,
            &self.w.points,
            &self.w.joins,
            query,
            &done.answer,
            &format!("{out}-replay"),
            &span,
        );
        span.finish();
        let mut a = acc.lock().expect("layer accumulator");
        a.parse_us.push(parse_us);
        a.exec_overhead_ms
            .push(exec_us / 1e3 - done.record.latency_ms);
        a.server_overhead_ms.push(rtt_ms - exec_us / 1e3);
        match r {
            Ok(stats) => a.add_replay(
                &span.record(),
                stats,
                done.record.latency_ms,
                jobs.miss_frac(),
            ),
            Err(e) => eprintln!("perfbench: replay of {id} failed: {e}"),
        }
        a.jobs.push(jobs);
    }

    fn close(self) {
        if let Some(c) = self.conn {
            c.quit();
        }
    }
}
