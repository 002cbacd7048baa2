//! `ingest`: the write path alongside reads.
//!
//! One client loops upload → `build_index_fmt` → delete, cycling
//! through STR+/grid × text/binary, and checks each build by record
//! count and one range query. A second client runs the 70/20/10 query
//! mix against a separate, stable binary index at the same time, so a
//! change that speeds reads by taxing writes — or holds the namespace
//! lock longer — shows here.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use sh_core::ops::range;
use sh_core::storage::{delete_dir, BlockFormat};
use sh_core::SpatialFile;
use sh_dfs::Dfs;
use sh_geom::{Point, Rect};
use sh_index::PartitionKind;
use sh_workload::{default_universe, points, rects, Distribution};

use super::{direct_op, stream_seed, touch_all, Workload};
use crate::bench::{
    self, Build, JoinSet, Kind, OpRecord, Phase, PointSet, Query, QueryGen, SharedAcc,
};
use crate::oracle::{self, PointOracle};
use crate::stats::Status;

const BLOCK: u64 = 8 * 1024;
const STABLE_POINTS: usize = 60_000;
const RECTS: usize = 2_000;
const RECT_SIDE: f64 = 4_000.0;
/// Neighbours per kNN query and range size: the reader's queries are
/// sized to take milliseconds, since sub-millisecond ones spread widely
/// between runs on a shared host.
const K: usize = 30;
const RANGE_AREA: f64 = 1e-2;
/// Records per ingest cycle.
const BATCH: usize = 5_000;
/// Technique and layout of successive ingest cycles.
const CYCLE: [(PartitionKind, BlockFormat); 4] = [
    (PartitionKind::StrPlus, BlockFormat::Text),
    (PartitionKind::Grid, BlockFormat::Binary),
    (PartitionKind::StrPlus, BlockFormat::Binary),
    (PartitionKind::Grid, BlockFormat::Text),
];
/// Pause after each ingest cycle and after each reader answer. With
/// them the two clients together keep about one of the host's two
/// cores busy, so both clients' figures measure the write and read
/// paths rather than the clients crowding each other out of the cores.
const WRITER_THINK: Duration = Duration::from_millis(30);
const READER_THINK: Duration = Duration::from_millis(8);
/// Task slots, one per client: with a single slot the reader's tasks
/// queue behind the writer's, and how long depends on which thread wins
/// the slot, which made the reader's latencies swing several-fold.
const SLOTS: usize = 2;
/// Every n-th traced reader query is replayed layer by layer.
const REPLAY_EVERY: usize = 3;

pub struct Ingest;

pub struct World {
    seed: u64,
    dfs: Dfs,
    points: PointSet,
    joins: JoinSet,
    /// One generated batch per cycle slot, with its oracle.
    batches: Vec<(Vec<Point>, PointOracle)>,
    input_bytes: u64,
}

impl Workload for Ingest {
    type World = World;

    fn name(&self) -> &'static str {
        "ingest"
    }

    fn setup(&self, seed: u64) -> Result<(World, Vec<Build>), String> {
        let dfs = bench::new_dfs(BLOCK, SLOTS);
        let uni = default_universe();
        let pts = points(STABLE_POINTS, Distribution::Uniform, &uni, seed);
        let bin = BlockFormat::Binary;
        let (pfile, b1) =
            bench::ingest(&dfs, "/in/p", "/in/ip", &pts, PartitionKind::StrPlus, bin)?;
        let ra = rects(RECTS, &uni, RECT_SIDE, seed ^ 0xA11CE);
        let rb = rects(RECTS, &uni, RECT_SIDE, seed ^ 0xB0B);
        let (fa, _) = bench::ingest(&dfs, "/in/a", "/in/ia", &ra, PartitionKind::StrPlus, bin)?;
        let (fb, _) = bench::ingest(&dfs, "/in/b", "/in/ib", &rb, PartitionKind::StrPlus, bin)?;
        let reference = bench::join_reference(&dfs, "/in/a", "/in/b", &uni, "/in/sjmr")?;
        touch_all::<Point>(&dfs, &pfile)?;
        touch_all::<Rect>(&dfs, &fa)?;
        touch_all::<Rect>(&dfs, &fb)?;
        let batches: Vec<(Vec<Point>, PointOracle)> = (0..CYCLE.len() as u64)
            .map(|slot| {
                let batch = points(BATCH, Distribution::Uniform, &uni, seed ^ (0x1_0000 + slot));
                let oracle = PointOracle::new(&batch);
                (batch, oracle)
            })
            .collect();
        let input_bytes = batches.iter().map(|(b, _)| bench::input_bytes(b)).sum();
        let world = World {
            seed,
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
            batches,
            input_bytes,
        };
        // Build figures come from the point index, the one every set-up
        // repeats at full size.
        Ok((world, vec![b1]))
    }

    fn measure(&self, w: &World, window: Duration, acc: Option<&SharedAcc>, phase: u64) -> Phase {
        let uni = default_universe();
        let gen = Mutex::new(QueryGen::new(
            stream_seed(w.seed, phase, 1),
            uni,
            RANGE_AREA,
            K,
        ));
        let checks = Mutex::new(QueryGen::new(
            stream_seed(w.seed, phase, 0),
            uni,
            RANGE_AREA,
            K,
        ));
        let builds = Mutex::new(Vec::new());
        let think = [WRITER_THINK, READER_THINK];
        let pauses = stream_seed(w.seed, phase, 2);
        let mut p = bench::closed_loop(&think, pauses, window, |c, i| {
            let id = format!("{phase}-{c}-{i}");
            if c == 0 {
                let (record, build) = cycle(w, i, &format!("/in/w/{id}"), &checks);
                if let Some(b) = build {
                    builds.lock().expect("builds").push(b);
                }
                return record;
            }
            let query = Query::draw(Kind::nth(i), &mut gen.lock().expect("query stream"));
            direct_op(
                &w.dfs,
                &w.points,
                &w.joins,
                query,
                &format!("/in/out/{id}"),
                acc,
                &id,
                i.is_multiple_of(REPLAY_EVERY),
            )
        });
        p.builds = builds.into_inner().expect("builds");
        p
    }

    fn dfs<'a>(&self, w: &'a World) -> &'a Dfs {
        &w.dfs
    }

    fn limit_ms(&self) -> f64 {
        250.0
    }

    fn provenance(&self, w: &World) -> Vec<(String, String)> {
        vec![
            (
                "clients".into(),
                format!(
                    "1 ingest loop + 1 closed-loop reader, in-process, {} / {} ms think time",
                    WRITER_THINK.as_millis(),
                    READER_THINK.as_millis()
                ),
            ),
            ("offered_rate".into(), "closed loop (no fixed rate)".into()),
            ("batch_records".into(), BATCH.to_string()),
            (
                "batch_input_bytes".into(),
                (w.input_bytes / CYCLE.len() as u64).to_string(),
            ),
            (
                "cycle".into(),
                "str+/text, grid/binary, str+/binary, grid/text".into(),
            ),
            ("stable_points".into(), STABLE_POINTS.to_string()),
            ("rects_per_side".into(), RECTS.to_string()),
            ("stable_index".into(), "str+ binary (SHCB)".into()),
            (
                "point_partitions".into(),
                w.points.file.partitions.len().to_string(),
            ),
            ("range_area_frac".into(), RANGE_AREA.to_string()),
            ("knn_k".into(), K.to_string()),
            (
                "cache_budget_bytes".into(),
                w.dfs.cache().budget().to_string(),
            ),
        ]
    }
}

/// One ingest cycle: upload + index the `i`-th batch under `dir`, check
/// it (a full-universe range must return every record once; one random
/// range must match the brute-force answer), then delete it.
fn cycle(w: &World, i: usize, dir: &str, gen: &Mutex<QueryGen>) -> (OpRecord, Option<Build>) {
    let slot = i % CYCLE.len();
    let (kind, format) = CYCLE[slot];
    let (batch, oracle) = &w.batches[slot];
    let t0 = Instant::now();
    let built = bench::ingest(
        &w.dfs,
        &format!("{dir}/heap"),
        &format!("{dir}/idx"),
        batch,
        kind,
        format,
    );
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (status, build) = match built {
        Ok((file, b)) => {
            let q = gen.lock().expect("query stream").range();
            let status = if check(&w.dfs, &file, oracle, &q, &format!("{dir}/check")) {
                Status::Ok
            } else {
                eprintln!(
                    "perfbench: ingest cycle {i} ({}/{}) failed its check",
                    kind.name(),
                    format.name()
                );
                Status::Mismatch
            };
            (status, Some(b))
        }
        Err(e) => {
            eprintln!("perfbench: ingest cycle {i}: {e}");
            (Status::Failed, None)
        }
    };
    delete_dir(&w.dfs, dir);
    let record = OpRecord {
        kind: Kind::Build,
        status,
        latency_ms,
        late_ms: 0.0,
        service_ms: latency_ms,
        done_s: 0.0,
        results: 0,
    };
    (record, build)
}

fn check(dfs: &Dfs, file: &SpatialFile, oracle: &PointOracle, q: &Rect, out: &str) -> bool {
    let all = range::range_spatial::<Point>(dfs, file, &file.universe, out);
    delete_dir(dfs, out);
    let one = range::range_spatial::<Point>(dfs, file, q, out);
    delete_dir(dfs, out);
    match (all, one) {
        (Ok(all), Ok(one)) => {
            all.value.len() == BATCH && oracle::sorted_lines(&one.value) == oracle.range(q)
        }
        _ => false,
    }
}
