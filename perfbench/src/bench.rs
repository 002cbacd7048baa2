//! Machinery shared by the workloads: the cluster, query streams, timed
//! and oracle-checked operations, closed-loop clients, counter
//! snapshots, and the end-to-end and per-layer metric arithmetic.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sh_core::ops::{join, knn, range};
use sh_core::storage::{build_index_fmt, upload, BlockFormat};
use sh_core::{OpResult, SpatialFile};
use sh_dfs::{CacheStats, ClusterConfig, Dfs};
use sh_geom::{Point, Record, Rect};
use sh_index::PartitionKind;
use sh_trace::{Histogram, RegistrySnapshot, Span, SpanRecord};

use crate::layers::{self, ReplayStats};
use crate::oracle::{self, PointOracle};
use crate::stats::{self, Invalid, Status};

/// Set-ups per run (`setup_s` is their median).
pub const SETUP_REPS: usize = 9;

/// A fresh DFS over [`cluster`] whose jobs share `slots` task slots
/// (`worker_threads`). The workloads' clients supply the parallelism and
/// each workload keeps its total demand under the host's two cores:
/// oversubscribed cores were the largest source of run-to-run noise.
pub fn new_dfs(block: u64, slots: usize) -> Dfs {
    let dfs = Dfs::new(cluster(block));
    dfs.update_ft_options(|ft| ft.worker_threads = Some(slots));
    dfs
}

/// The paper-shaped 25-node cluster with `block` byte blocks; disk and
/// network bandwidths scale with the block so simulated costs keep the
/// paper's ratios.
pub fn cluster(block: u64) -> ClusterConfig {
    let scale = block as f64 / (64.0 * 1024.0 * 1024.0);
    let base = ClusterConfig::default();
    ClusterConfig {
        block_size: block,
        disk_bandwidth: base.disk_bandwidth * scale,
        network_bandwidth: base.network_bandwidth * scale,
        ..base
    }
}

/// Operation kinds: queries in the 70/20/10 range/kNN/join mix, and
/// ingest cycles (upload + index build).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Range,
    Knn,
    Join,
    Build,
}

impl Kind {
    /// The `i`-th operation of a stream: 7 ranges, 2 kNN, 1 join per 10.
    pub fn nth(i: usize) -> Kind {
        match i % 10 {
            0 | 1 | 2 | 4 | 5 | 6 | 8 => Kind::Range,
            3 | 7 => Kind::Knn,
            _ => Kind::Join,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Range => "range",
            Kind::Knn => "knn",
            Kind::Join => "join",
            Kind::Build => "build",
        }
    }
}

/// One measured request.
#[derive(Clone, Debug)]
pub struct OpRecord {
    pub kind: Kind,
    pub status: Status,
    /// From the request's due time to its answer.
    pub latency_ms: f64,
    /// From the due time to the moment the request was sent.
    pub late_ms: f64,
    /// From sending the request to its answer (the service time; equal
    /// to `latency_ms` in a closed loop).
    pub service_ms: f64,
    /// When the request finished, in seconds since the window opened.
    pub done_s: f64,
    /// Result rows returned.
    pub results: u64,
}

/// A measured window.
#[derive(Default)]
pub struct Phase {
    pub ops: Vec<OpRecord>,
    pub window_s: f64,
    /// Index builds made inside the window (the ingest workload).
    pub builds: Vec<Build>,
}

/// Seeded query stream over a universe.
pub struct QueryGen {
    rng: StdRng,
    uni: Rect,
    side: f64,
    k: usize,
}

impl QueryGen {
    /// Ranges are squares covering `area_frac` of the universe; kNN
    /// queries ask for `k` neighbours.
    pub fn new(seed: u64, uni: Rect, area_frac: f64, k: usize) -> QueryGen {
        QueryGen {
            rng: StdRng::seed_from_u64(seed),
            uni,
            side: uni.width().min(uni.height()) * area_frac.sqrt(),
            k,
        }
    }

    pub fn range(&mut self) -> Rect {
        let x = self.uni.x1 + self.rng.gen::<f64>() * (self.uni.width() - self.side);
        let y = self.uni.y1 + self.rng.gen::<f64>() * (self.uni.height() - self.side);
        Rect::new(x, y, x + self.side, y + self.side)
    }

    pub fn point(&mut self) -> Point {
        Point::new(
            self.uni.x1 + self.rng.gen::<f64>() * self.uni.width(),
            self.uni.y1 + self.rng.gen::<f64>() * self.uni.height(),
        )
    }
}

/// One upload + index build.
#[derive(Clone, Debug)]
pub struct Build {
    pub upload_s: f64,
    pub build_s: f64,
    pub records: u64,
    pub input_bytes: u64,
    pub stored_bytes: u64,
    pub sample_ms: f64,
    pub partition_ms: f64,
}

/// One line carrying a set-up's time and its builds, as a
/// `--setup-only` child prints it for [`parse_setup_record`].
pub fn setup_record(setup_s: f64, builds: &[Build]) -> String {
    let mut line = format!("setup {setup_s}");
    for b in builds {
        line.push_str(&format!(
            " build {} {} {} {} {} {} {}",
            b.upload_s,
            b.build_s,
            b.records,
            b.input_bytes,
            b.stored_bytes,
            b.sample_ms,
            b.partition_ms
        ));
    }
    line
}

/// Reads a [`setup_record`] line back.
pub fn parse_setup_record(line: &str) -> Result<(f64, Vec<Build>), String> {
    let bad = || format!("unreadable set-up record {line:?}");
    let words: Vec<&str> = line.split_whitespace().collect();
    if words.len() < 2 || words[0] != "setup" || !(words.len() - 2).is_multiple_of(8) {
        return Err(bad());
    }
    let num = |w: &str| w.parse::<f64>().map_err(|_| bad());
    let int = |w: &str| w.parse::<u64>().map_err(|_| bad());
    let builds = words[2..]
        .chunks(8)
        .map(|b| {
            if b[0] != "build" {
                return Err(bad());
            }
            Ok(Build {
                upload_s: num(b[1])?,
                build_s: num(b[2])?,
                records: int(b[3])?,
                input_bytes: int(b[4])?,
                stored_bytes: int(b[5])?,
                sample_ms: num(b[6])?,
                partition_ms: num(b[7])?,
            })
        })
        .collect::<Result<Vec<Build>, String>>()?;
    Ok((num(words[1])?, builds))
}

/// Text bytes of a generated record set: the input size.
pub fn input_bytes<R: Record>(records: &[R]) -> u64 {
    let mut line = String::new();
    records
        .iter()
        .map(|r| {
            line.clear();
            r.write_line(&mut line);
            line.len() as u64 + 1
        })
        .sum()
}

/// Logical bytes stored under `path` (a file or a directory).
pub fn stored_bytes(dfs: &Dfs, path: &str) -> u64 {
    let mut files = dfs.list(&format!("{path}/"));
    if dfs.exists(path) {
        files.push(path.to_string());
    }
    files
        .iter()
        .filter_map(|f| dfs.stat(f).ok())
        .map(|s| s.len)
        .sum()
}

/// Uploads `records` as a heap file and indexes it, timing both.
pub fn ingest<R: Record>(
    dfs: &Dfs,
    heap: &str,
    dir: &str,
    records: &[R],
    kind: PartitionKind,
    format: BlockFormat,
) -> Result<(SpatialFile, Build), String> {
    let t0 = Instant::now();
    upload(dfs, heap, records).map_err(|e| format!("upload {heap}: {e}"))?;
    let upload_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let built = build_index_fmt::<R>(dfs, heap, dir, kind, format)
        .map_err(|e| format!("index {heap}: {e}"))?;
    let build_s = t1.elapsed().as_secs_f64();
    let job_ms =
        |j: Option<&sh_mapreduce::JobOutcome>| j.map(|j| j.wall.as_secs_f64() * 1e3).unwrap_or(0.0);
    let b = Build {
        upload_s,
        build_s,
        records: records.len() as u64,
        input_bytes: input_bytes(records),
        stored_bytes: stored_bytes(dfs, heap) + stored_bytes(dfs, dir),
        sample_ms: job_ms(built.jobs.first()),
        partition_ms: job_ms(built.jobs.last()),
    };
    Ok((built.value, b))
}

/// A point dataset with its index and brute-force oracle.
pub struct PointSet {
    pub file: SpatialFile,
    pub oracle: PointOracle,
}

/// Two rectangle datasets with their indexes and the `sjmr` answer.
pub struct JoinSet {
    pub a: SpatialFile,
    pub b: SpatialFile,
    pub reference: Vec<String>,
}

/// Reference join answer: SJMR over the two heap files.
pub fn join_reference(
    dfs: &Dfs,
    a: &str,
    b: &str,
    uni: &Rect,
    out: &str,
) -> Result<Vec<String>, String> {
    let r = join::sjmr(dfs, a, b, uni, 16, out).map_err(|e| format!("sjmr: {e}"))?;
    sh_core::storage::delete_dir(dfs, out);
    Ok(oracle::sorted_pairs(&r.value))
}

/// What an executed, checked operation hands back to the caller.
pub struct Done {
    pub record: OpRecord,
    /// Job statistics of the op (for the per-layer figures).
    pub jobs: Option<OpJobs>,
    /// Sorted answer lines, kept for the replay's output layers.
    pub answer: Vec<String>,
}

/// Job-level figures of one operation.
#[derive(Clone, Debug, Default)]
pub struct OpJobs {
    pub job_walls_ms: Vec<f64>,
    pub map_task_micros: Histogram,
    pub map_tasks: usize,
    pub shuffle_bytes: u64,
    pub retries: u64,
    pub partitions_scanned: u64,
    pub partitions_total: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl OpJobs {
    pub fn of<T>(r: &OpResult<T>) -> OpJobs {
        let mut o = OpJobs::default();
        for j in &r.jobs {
            o.job_walls_ms.push(j.wall.as_secs_f64() * 1e3);
            if let Some(m) = j.profile.phase("map") {
                o.map_task_micros.merge(&m.task_micros);
            }
            o.shuffle_bytes += j.profile.shuffle_bytes;
            o.retries += j.profile.task_retries;
        }
        o.map_tasks = r.map_tasks();
        let sel = r.selectivity();
        o.partitions_scanned = sel.partitions_scanned;
        o.partitions_total = sel.partitions_total;
        o.cache_hits = r.counter("cache.hits");
        o.cache_misses = r.counter("cache.misses");
        o
    }

    /// Fraction of partition opens that missed the block cache.
    pub fn miss_frac(&self) -> f64 {
        let opens = self.cache_hits + self.cache_misses;
        if opens == 0 {
            1.0
        } else {
            self.cache_misses as f64 / opens as f64
        }
    }
}

/// A query against a point index and a join set, with its arguments.
#[derive(Clone, Copy, Debug)]
pub enum Query {
    Range(Rect),
    Knn(Point, usize),
    Join,
}

impl Query {
    pub fn kind(&self) -> Kind {
        match self {
            Query::Range(_) => Kind::Range,
            Query::Knn(..) => Kind::Knn,
            Query::Join => Kind::Join,
        }
    }

    pub fn draw(kind: Kind, gen: &mut QueryGen) -> Query {
        match kind {
            Kind::Range => Query::Range(gen.range()),
            Kind::Knn => Query::Knn(gen.point(), gen.k),
            Kind::Join => Query::Join,
            Kind::Build => unreachable!("ingest cycles are not queries"),
        }
    }

    /// The same query as one Pigeon statement line over the variables
    /// `ip` (points) and `ia`/`ib` (rectangles). Coordinates print in
    /// shortest round-trip form, so the engine sees the same `f64`s.
    pub fn pigeon(&self) -> String {
        match self {
            Query::Range(q) => format!(
                "q = FILTER ip BY Overlaps(RECTANGLE({}, {}, {}, {})); DUMP q;",
                q.x1, q.y1, q.x2, q.y2
            ),
            Query::Knn(p, k) => format!("q = KNN ip POINT({}, {}) K {k}; DUMP q;", p.x, p.y),
            Query::Join => "q = JOIN ia, ib PREDICATE Overlaps; DUMP q;".to_string(),
        }
    }

    /// Checks result rows (text lines, any order) against the oracle.
    pub fn check(&self, points: &PointSet, joins: &JoinSet, rows: &[String]) -> Status {
        let ok = match self {
            Query::Range(q) => {
                let mut got = rows.to_vec();
                got.sort();
                got == points.oracle.range(q)
            }
            Query::Knn(p, k) => match sh_core::codec::parse_output_records::<Point>(rows) {
                Ok(pts) => oracle::distances(p, &pts) == points.oracle.knn_distances(p, *k),
                Err(_) => false,
            },
            Query::Join => {
                // Pigeon prints a pair as `a | b`; ops as `a b`.
                let mut got: Vec<String> = rows.iter().map(|r| r.replace(" | ", " ")).collect();
                got.sort();
                got == joins.reference
            }
        };
        if ok {
            Status::Ok
        } else {
            Status::Mismatch
        }
    }
}

/// Runs `query` as a direct op call, checks it, and deletes its output.
/// `latency_ms` covers the op call only; under `parent` the call runs in
/// an `op.<kind>` span and the check in a `check` span.
pub fn run_direct(
    dfs: &Dfs,
    points: &PointSet,
    joins: &JoinSet,
    query: Query,
    out: &str,
    parent: Option<&Span>,
) -> Done {
    let op_span = parent.map(|p| p.child(format!("op.{}", query.kind().name())));
    let t0 = Instant::now();
    let result: Result<(Vec<String>, OpJobs), String> = match query {
        Query::Range(q) => range::range_spatial::<Point>(dfs, &points.file, &q, out)
            .map(|r| (oracle::sorted_lines(&r.value), OpJobs::of(&r))),
        Query::Knn(p, k) => knn::knn_spatial(dfs, &points.file, &p, k, out)
            .map(|r| (oracle::sorted_lines(&r.value), OpJobs::of(&r))),
        Query::Join => join::distributed_join(dfs, &joins.a, &joins.b, out)
            .map(|r| (oracle::sorted_pairs(&r.value), OpJobs::of(&r))),
    }
    .map_err(|e| e.to_string());
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Some(s) = op_span {
        s.finish();
    }
    let check_span = parent.map(|p| p.child("check"));
    sh_core::storage::delete_dir(dfs, out);
    let (status, jobs, answer) = match result {
        Ok((answer, jobs)) => {
            let status = query.check(points, joins, &answer);
            if status != Status::Ok {
                eprintln!(
                    "perfbench: {} answer differs from the oracle",
                    query.kind().name()
                );
            }
            (status, Some(jobs), answer)
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", query.kind().name());
            (Status::Failed, None, Vec::new())
        }
    };
    if let Some(s) = check_span {
        s.finish();
    }
    Done {
        record: OpRecord {
            kind: query.kind(),
            status,
            latency_ms,
            late_ms: 0.0,
            service_ms: latency_ms,
            done_s: 0.0,
            results: answer.len() as u64,
        },
        jobs,
        answer,
    }
}

/// Replays `query`'s partition path under `parent`.
pub fn replay(
    dfs: &Dfs,
    points: &PointSet,
    joins: &JoinSet,
    query: Query,
    answer: &[String],
    scratch: &str,
    parent: &Span,
) -> Result<ReplayStats, String> {
    match query {
        Query::Range(q) => {
            layers::replay_range::<Point>(dfs, &points.file, &q, answer, scratch, parent)
        }
        Query::Knn(p, k) => layers::replay_knn(dfs, &points.file, &p, k, answer, scratch, parent),
        Query::Join => layers::replay_join(dfs, &joins.a, &joins.b, answer, scratch, parent),
    }
}

/// Runs one closed-loop client per entry of `think` for `window`: each
/// request of client `c` is due a pause after the client's previous one
/// was answered and checked, and is sent then. The pause is drawn
/// uniformly from ½ to 1½ × `think[c]` (seeded by `seed`), so the
/// clients cannot lock into one phase for a whole run: with fixed pauses
/// a run could settle where one client's jobs always met the other's,
/// and the same seed read slow in one run and fast in the next. Returns
/// every record, in per-client order.
pub fn closed_loop<F>(think: &[Duration], seed: u64, window: Duration, op: F) -> Phase
where
    F: Fn(usize, usize) -> OpRecord + Sync,
{
    let start = Instant::now();
    let op = &op;
    let per_client: Vec<Vec<OpRecord>> = std::thread::scope(|s| {
        let handles: Vec<_> = think
            .iter()
            .enumerate()
            .map(|(c, &think)| {
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (c as u64 + 1));
                    let mut out = Vec::new();
                    let mut due = Instant::now();
                    let mut i = 0;
                    while start.elapsed() < window {
                        let late_ms = due.elapsed().as_secs_f64() * 1e3;
                        let mut rec = op(c, i);
                        rec.late_ms = late_ms;
                        rec.done_s = start.elapsed().as_secs_f64();
                        out.push(rec);
                        std::thread::sleep(think.mul_f64(rng.gen_range(0.5..1.5)));
                        due = Instant::now();
                        i += 1;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Phase {
        ops: per_client.into_iter().flatten().collect(),
        window_s: start.elapsed().as_secs_f64(),
        builds: Vec::new(),
    }
}

/// The `Dfs` I/O counters this benchmark reads.
#[derive(Clone, Copy, Default)]
pub struct DfsCounts {
    pub local_bytes_read: u64,
    pub remote_bytes_read: u64,
    pub bytes_written: u64,
    pub blocks_read: u64,
    pub corrupt_replicas: u64,
    pub repaired_replicas: u64,
}

impl DfsCounts {
    fn since(&self, e: &DfsCounts) -> DfsCounts {
        DfsCounts {
            local_bytes_read: self.local_bytes_read - e.local_bytes_read,
            remote_bytes_read: self.remote_bytes_read - e.remote_bytes_read,
            bytes_written: self.bytes_written - e.bytes_written,
            blocks_read: self.blocks_read - e.blocks_read,
            corrupt_replicas: self.corrupt_replicas - e.corrupt_replicas,
            repaired_replicas: self.repaired_replicas - e.repaired_replicas,
        }
    }
}

/// Counter state at one instant.
pub struct Snapshot {
    pub dfs: DfsCounts,
    pub cache: CacheStats,
    pub reg: RegistrySnapshot,
}

impl Snapshot {
    pub fn take(dfs: &Dfs) -> Snapshot {
        let m = dfs.metrics().snapshot();
        Snapshot {
            dfs: DfsCounts {
                local_bytes_read: m.local_bytes_read,
                remote_bytes_read: m.remote_bytes_read,
                bytes_written: m.bytes_written,
                blocks_read: m.blocks_read,
                corrupt_replicas: m.corrupt_replicas,
                repaired_replicas: m.repaired_replicas,
            },
            cache: dfs.cache().stats(),
            reg: sh_trace::global().snapshot(),
        }
    }
}

/// The observations of an untraced window between two snapshots.
pub struct Window<'a> {
    pub phase: &'a Phase,
    pub before: &'a Snapshot,
    pub after: &'a Snapshot,
}

impl Window<'_> {
    fn counter(&self, key: &str) -> u64 {
        self.after
            .reg
            .counter(key)
            .saturating_sub(self.before.reg.counter(key))
    }

    /// Histogram observations made inside the window.
    fn histogram(&self, key: &str) -> Histogram {
        let empty = Histogram::new();
        let after = self.after.reg.histograms.get(key).unwrap_or(&empty);
        let before = self.before.reg.histograms.get(key).unwrap_or(&empty);
        let b: BTreeMap<usize, u64> = before.nonzero_buckets().into_iter().collect();
        let pairs: Vec<(usize, u64)> = after
            .nonzero_buckets()
            .into_iter()
            .map(|(i, n)| (i, n - b.get(&i).copied().unwrap_or(0)))
            .filter(|&(_, n)| n > 0)
            .collect();
        Histogram::from_parts(&pairs, after.sum() - before.sum(), 0, after.max())
    }
}

/// Traced-phase observations, filled by the clients.
#[derive(Default)]
pub struct LayerAcc {
    /// Per-layer milliseconds summed over replays.
    pub layers: BTreeMap<String, f64>,
    pub replays: usize,
    pub replay: ReplayStats,
    /// Per replayed op: wall time minus its charged data path.
    pub overhead_ms: Vec<f64>,
    /// Job figures of the traced phase's direct op calls.
    pub jobs: Vec<OpJobs>,
    /// Query service times under tracing (for `trace.overhead_frac`).
    pub traced_service_ms: Vec<f64>,
    /// Control path (serve-warm): Pigeon parse, in-process execute
    /// minus direct op, round trip minus in-process execute.
    pub parse_us: Vec<f64>,
    pub exec_overhead_ms: Vec<f64>,
    pub server_overhead_ms: Vec<f64>,
    /// Finished request span trees.
    pub spans: Vec<SpanRecord>,
}

impl LayerAcc {
    /// Folds in one replay of an op that took `op_ms` with `miss_frac`
    /// of its partition opens missing the cache.
    pub fn add_replay(&mut self, rec: &SpanRecord, stats: ReplayStats, op_ms: f64, miss_frac: f64) {
        for (k, v) in layers::layer_ms(rec) {
            *self.layers.entry(k).or_insert(0.0) += v;
        }
        self.replays += 1;
        self.replay.filter_candidates += stats.filter_candidates;
        self.replay.filter_records += stats.filter_records;
        self.overhead_ms
            .push(op_ms - layers::charged_ms(rec, miss_frac));
    }

    fn per_replay(&self, layer: &str) -> f64 {
        if self.replays == 0 {
            0.0
        } else {
            self.layers.get(layer).copied().unwrap_or(0.0) / self.replays as f64
        }
    }
}

/// Shared, lockable accumulator handed to client threads.
pub type SharedAcc = Arc<Mutex<LayerAcc>>;

/// Holds the C allocator to `arenas` heap arenas; call it before any
/// thread starts. By default glibc hands a new arena to a thread that
/// finds the others locked, up to eight per core, and each arena keeps
/// the memory freed into it.
pub fn limit_malloc_arenas(arenas: i32) {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_ARENA_MAX: i32 = -8;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: `mallopt` only changes an allocator tuning parameter;
        // it is called before any other thread exists.
        unsafe {
            mallopt(M_ARENA_MAX, arenas);
        }
    }
}

/// Peak resident set of this process, in MB (VmHWM).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Consecutive sample groups per percentile and time slices per rate
/// (see [`stats::grouped_percentile`] and [`stats::sliced_rate`]).
pub const GROUPS: usize = 5;

/// End-to-end metrics of an untraced window, in catalogue order.
pub fn end_to_end(
    phase: &Phase,
    setup_s: &[f64],
    builds: &[Build],
    limit_ms: f64,
    peak_rss_mb: f64,
) -> Result<Vec<(&'static str, f64)>, Invalid> {
    let ops = in_completion_order(phase);
    let (r, n, j) = (
        latencies(&ops, Kind::Range),
        latencies(&ops, Kind::Knn),
        latencies(&ops, Kind::Join),
    );
    let pct = |name: &str, v: &[f64], p: f64| stats::grouped_percentile(name, v, p, GROUPS);
    let queries: Vec<&&OpRecord> = ops.iter().filter(|o| o.kind != Kind::Build).collect();
    let completed: Vec<f64> = queries
        .iter()
        .filter(|o| o.status == Status::Ok)
        .map(|o| o.done_s)
        .collect();
    // Goodput counts every request; failed, refused or late ones miss.
    let good: Vec<f64> = queries
        .iter()
        .filter(|o| stats::meets_limit(o.status, o.latency_ms, limit_ms))
        .map(|o| o.done_s)
        .collect();
    let sum = |f: fn(&Build) -> f64| builds.iter().map(f).sum::<f64>();
    let build_s: Vec<f64> = builds.iter().map(|b| b.build_s).collect();
    // A median, like `build_p50_s`: the first build in a fresh process
    // runs cold and would pull a ratio of sums.
    let records_per_s: Vec<f64> = builds
        .iter()
        .map(|b| b.records as f64 / (b.upload_s + b.build_s))
        .collect();
    Ok(vec![
        ("setup_s", stats::median(setup_s)),
        ("range_p50_ms", pct("range_p50_ms", &r, 50.0)?),
        ("knn_p50_ms", pct("knn_p50_ms", &n, 50.0)?),
        ("join_p50_ms", pct("join_p50_ms", &j, 50.0)?),
        (
            "queries_per_s",
            stats::sliced_rate(&completed, phase.window_s, GROUPS),
        ),
        (
            "goodput_qps",
            stats::sliced_rate(&good, phase.window_s, GROUPS),
        ),
        ("build_p50_s", stats::median(&build_s)),
        ("ingest_records_per_s", stats::median(&records_per_s)),
        (
            "stored_bytes_per_input_byte",
            sum(|b| b.stored_bytes as f64) / sum(|b| b.input_bytes as f64),
        ),
        ("peak_rss_mb", peak_rss_mb),
    ])
}

fn in_completion_order(phase: &Phase) -> Vec<&OpRecord> {
    let mut ops: Vec<&OpRecord> = phase.ops.iter().collect();
    ops.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    ops
}

/// Latencies of the correctly answered `kind` requests, in order.
fn latencies(ops: &[&OpRecord], kind: Kind) -> Vec<f64> {
    ops.iter()
        .filter(|o| o.kind == kind && o.status == Status::Ok)
        .map(|o| o.latency_ms)
        .collect()
}

/// Outcome figures of a window that are not gated end to end: the error
/// rate and the tail latencies. On a shared 2-core host the tails of
/// ten same-code runs spread by 40-90% of their median, more than any
/// end-to-end bound allows, so they ride with the per-layer metrics.
pub fn outcome_figures(phase: &Phase) -> Result<Vec<(&'static str, f64)>, Invalid> {
    let ops = in_completion_order(phase);
    let failed = ops.iter().filter(|o| o.status != Status::Ok).count() as f64;
    let pct = |name: &str, k: Kind, p: f64| {
        stats::grouped_percentile(name, &latencies(&ops, k), p, GROUPS)
    };
    Ok(vec![
        ("error_rate", failed / ops.len().max(1) as f64),
        ("range_p99_ms", pct("range_p99_ms", Kind::Range, 99.0)?),
        ("knn_p95_ms", pct("knn_p95_ms", Kind::Knn, 95.0)?),
        ("join_p90_ms", pct("join_p90_ms", Kind::Join, 90.0)?),
    ])
}

/// Control-path figures measured outside the replay accumulator.
#[derive(Default)]
pub struct ServerCounts {
    pub requests: u64,
    pub bytes: u64,
}

/// Per-layer metrics, in catalogue order: counters from the untraced
/// window, span self-times and job figures from the traced phase, build
/// phases from `builds`.
pub fn per_layer(
    w: &Window<'_>,
    acc: &LayerAcc,
    builds: &[Build],
    server: &ServerCounts,
) -> Result<Vec<(&'static str, f64)>, Invalid> {
    // Counter-based figures are whole-window totals per query (ingest
    // cycles in the window add their own reads and writes).
    let ops = w
        .phase
        .ops
        .iter()
        .filter(|o| o.kind != Kind::Build)
        .count()
        .max(1) as f64;
    let results: u64 = w.phase.ops.iter().map(|o| o.results).sum();
    let d = w.after.dfs.since(&w.before.dfs);
    let (c0, c1) = (&w.before.cache, &w.after.cache);
    let (hits, misses) = (c1.hits - c0.hits, c1.misses - c0.misses);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let jobs = &acc.jobs;
    let njobs = jobs.len().max(1) as f64;
    let mut map_hist = Histogram::new();
    for j in jobs {
        map_hist.merge(&j.map_task_micros);
    }
    let map_p50 = if map_hist.count() == 0 {
        0.0
    } else if (map_hist.count() as usize) < stats::samples_needed(50.0) {
        return Err(Invalid {
            metric: "mr.map_task_p50_us".into(),
            percentile: 50.0,
            samples: map_hist.count() as usize,
        });
    } else {
        map_hist.quantile(0.5) as f64
    };
    let sched_wait = w.histogram("sched.wait.micros");
    let sched_p99 = if sched_wait.count() == 0 {
        0.0
    } else if (sched_wait.count() as usize) < stats::samples_needed(99.0) {
        return Err(Invalid {
            metric: "sched.wait_ms_p99".into(),
            percentile: 99.0,
            samples: sched_wait.count() as usize,
        });
    } else {
        sched_wait.quantile(0.99) as f64 / 1e3
    };
    let late: Vec<f64> = w.phase.ops.iter().map(|o| o.late_ms).collect();
    let scanned: u64 = jobs.iter().map(|j| j.partitions_scanned).sum();
    let total: u64 = jobs.iter().map(|j| j.partitions_total).sum();
    let untraced_mean = stats::mean(
        &w.phase
            .ops
            .iter()
            .filter(|o| o.status == Status::Ok && o.kind != Kind::Build)
            .map(|o| o.service_ms)
            .collect::<Vec<_>>(),
    );
    let bsum =
        |f: fn(&Build) -> f64| builds.iter().map(f).sum::<f64>() / builds.len().max(1) as f64;
    let mut out = outcome_figures(w.phase)?;
    out.extend([
        ("dfs.read_ms", acc.per_replay("dfs.read")),
        ("dfs.verify_ms", acc.per_replay("dfs.verify")),
        ("dfs.blocks_read_per_query", d.blocks_read as f64 / ops),
        (
            "dfs.bytes_read_per_result",
            ratio(
                (d.local_bytes_read + d.remote_bytes_read) as f64,
                results as f64,
            ),
        ),
        (
            "dfs.remote_read_frac",
            ratio(
                d.remote_bytes_read as f64,
                (d.local_bytes_read + d.remote_bytes_read) as f64,
            ),
        ),
        ("dfs.write_ms", acc.per_replay("dfs.write")),
        ("dfs.bytes_written", d.bytes_written as f64 / ops),
        ("dfs.corrupt_replicas", d.corrupt_replicas as f64),
        ("dfs.repaired_replicas", d.repaired_replicas as f64),
        ("cache.hit_rate", ratio(hits as f64, (hits + misses) as f64)),
        ("cache.evictions", (c1.evictions - c0.evictions) as f64),
        (
            "cache.resident_mb",
            c1.resident_bytes as f64 / (1024.0 * 1024.0),
        ),
        (
            "splitter.partitions_opened_per_query",
            scanned as f64 / njobs,
        ),
        ("splitter.selectivity", ratio(scanned as f64, total as f64)),
        ("colblock.decode_ms", acc.per_replay("colblock.decode")),
        ("colblock.filter_ms", acc.per_replay("colblock.filter")),
        (
            "colblock.filter_hit_frac",
            ratio(
                acc.replay.filter_candidates as f64,
                acc.replay.filter_records as f64,
            ),
        ),
        ("codec.parse_ms", acc.per_replay("codec.parse")),
        ("index.lidx_load_ms", acc.per_replay("index.lidx_load")),
        ("index.query_ms", acc.per_replay("index.query")),
        ("index.knn_ms", acc.per_replay("index.knn")),
        ("index.build_sample_ms", bsum(|b| b.sample_ms)),
        ("index.build_partition_ms", bsum(|b| b.partition_ms)),
        ("join.sweep_ms", acc.per_replay("join.sweep")),
        (
            "mr.job_wall_ms",
            stats::mean(
                &jobs
                    .iter()
                    .flat_map(|j| j.job_walls_ms.clone())
                    .collect::<Vec<_>>(),
            ),
        ),
        ("mr.map_task_p50_us", map_p50),
        (
            "mr.map_tasks_per_query",
            jobs.iter().map(|j| j.map_tasks as f64).sum::<f64>() / njobs,
        ),
        (
            "mr.shuffle_bytes_per_query",
            jobs.iter().map(|j| j.shuffle_bytes as f64).sum::<f64>() / njobs,
        ),
        (
            "mr.task_retries",
            jobs.iter().map(|j| j.retries as f64).sum(),
        ),
        ("mr.overhead_ms", stats::mean(&acc.overhead_ms)),
        ("sched.wait_ms_p99", sched_p99),
        ("sched.rejected", w.counter("sched.rejected") as f64),
        ("pigeon.parse_us", stats::mean(&acc.parse_us)),
        (
            "pigeon.exec_overhead_ms",
            stats::mean(&acc.exec_overhead_ms),
        ),
        ("server.overhead_ms", stats::mean(&acc.server_overhead_ms)),
        (
            "server.frames_per_request",
            ratio(
                w.counter("server.frames.sent") as f64,
                server.requests as f64,
            ),
        ),
        (
            "server.bytes_per_request",
            ratio(server.bytes as f64, server.requests as f64),
        ),
        (
            "client.late_ms_p99",
            stats::layer_percentile("client.late_ms_p99", &late, 99.0)?,
        ),
        (
            "trace.overhead_frac",
            ratio(stats::mean(&acc.traced_service_ms), untraced_mean) - 1.0,
        ),
    ]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_record_round_trips() {
        let builds = vec![
            Build {
                upload_s: 0.061493307,
                build_s: 0.366409141,
                records: 100_000,
                input_bytes: 3_601_234,
                stored_bytes: 9_075_000,
                sample_ms: 12.5,
                partition_ms: 301.25,
            },
            Build {
                upload_s: 1e-3,
                build_s: 2.0,
                records: 3,
                input_bytes: 4,
                stored_bytes: 5,
                sample_ms: 0.0,
                partition_ms: 7.0,
            },
        ];
        let line = setup_record(0.823_456_789, &builds);
        let (s, back) = parse_setup_record(&line).expect("round trip");
        assert_eq!(s, 0.823_456_789);
        assert_eq!(format!("{back:?}"), format!("{builds:?}"));
        assert_eq!(
            parse_setup_record("setup 1.5").expect("no builds").1.len(),
            0
        );
        assert!(parse_setup_record("").is_err());
        assert!(parse_setup_record("setup x").is_err());
        assert!(parse_setup_record("setup 1 build 1 2 3").is_err());
        assert!(parse_setup_record(&line.replace("build", "built")).is_err());
    }

    #[test]
    fn closed_loop_pauses_stay_within_half_and_one_and_a_half() {
        let think = Duration::from_millis(4);
        let phase = closed_loop(&[think], 7, Duration::from_millis(200), |_, _| OpRecord {
            kind: Kind::Range,
            status: Status::Ok,
            latency_ms: 0.0,
            late_ms: 0.0,
            service_ms: 0.0,
            done_s: 0.0,
            results: 0,
        });
        // Each request follows the previous one by a 2-6 ms pause: never
        // more than 101 in 200 ms (a loaded host may stretch the pauses,
        // so the lower bound is loose).
        let n = phase.ops.len();
        assert!((10..=101).contains(&n), "{n} requests in 200 ms");
    }
}
