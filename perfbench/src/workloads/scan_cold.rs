//! `scan-cold`: the data path.
//!
//! Two closed-loop in-process clients issue range (1% of the universe,
//! so several partitions open per query), kNN and distributed-join
//! operations against binary (`SHCB`) STR+ indexes. The block cache is
//! held to a quarter of the working set, so most partition opens miss:
//! DFS read and CRC verify, columnar decode and validation, the sidecar
//! load and the query kernels dominate.

use std::sync::Mutex;
use std::time::Duration;

use sh_core::storage::BlockFormat;
use sh_dfs::Dfs;
use sh_geom::{Point, Rect};
use sh_index::PartitionKind;
use sh_workload::{default_universe, points, rects, Distribution};

use super::{direct_op, stream_seed, touch_all, Workload};
use crate::bench::{self, Build, JoinSet, Kind, Phase, PointSet, Query, QueryGen, SharedAcc};
use crate::oracle::PointOracle;

const BLOCK: u64 = 8 * 1024;
const POINTS: usize = 100_000;
const RECTS: usize = 3_000;
const RECT_SIDE: f64 = 4_000.0;
/// Neighbours per kNN query.
const K: usize = 10;
const RANGE_AREA: f64 = 0.01;
const CLIENTS: usize = 2;
/// Task slots: the two clients' jobs take turns on one, so the data path
/// runs on one core at a time.
const SLOTS: usize = 1;
/// Cache budget as a fraction of the working set.
const CACHE_FRACTION: f64 = 0.25;
/// Pause between a client's answer and its next request. It keeps the
/// two clients at about half the host's two cores, so the latencies
/// measure the data path rather than the clients crowding each other.
const THINK: Duration = Duration::from_millis(3);
/// Every n-th traced query per client is replayed layer by layer.
const REPLAY_EVERY: usize = 3;

pub struct ScanCold;

pub struct World {
    seed: u64,
    dfs: Dfs,
    points: PointSet,
    joins: JoinSet,
    working_set: u64,
    budget: u64,
    input_bytes: u64,
}

impl Workload for ScanCold {
    type World = World;

    fn name(&self) -> &'static str {
        "scan-cold"
    }

    fn setup(&self, seed: u64) -> Result<(World, Vec<Build>), String> {
        let dfs = bench::new_dfs(BLOCK, SLOTS);
        let uni = default_universe();
        let pts = points(POINTS, Distribution::Uniform, &uni, seed);
        let (pfile, b1) = bench::ingest(
            &dfs,
            "/sc/points",
            "/sc/ip",
            &pts,
            PartitionKind::StrPlus,
            BlockFormat::Binary,
        )?;
        let ra = rects(RECTS, &uni, RECT_SIDE, seed ^ 0xA11CE);
        let rb = rects(RECTS, &uni, RECT_SIDE, seed ^ 0xB0B);
        let (fa, b2) = bench::ingest(
            &dfs,
            "/sc/ra",
            "/sc/ia",
            &ra,
            PartitionKind::StrPlus,
            BlockFormat::Binary,
        )?;
        let (fb, b3) = bench::ingest(
            &dfs,
            "/sc/rb",
            "/sc/ib",
            &rb,
            PartitionKind::StrPlus,
            BlockFormat::Binary,
        )?;
        let reference = bench::join_reference(&dfs, "/sc/ra", "/sc/rb", &uni, "/sc/sjmr")?;
        let input_bytes = b1.input_bytes + b2.input_bytes + b3.input_bytes;

        // Working set: everything the queries can open, resident at once.
        let cache = dfs.cache();
        cache.set_budget(u64::MAX / 4);
        cache.clear();
        touch_all::<Point>(&dfs, &pfile)?;
        touch_all::<Rect>(&dfs, &fa)?;
        touch_all::<Rect>(&dfs, &fb)?;
        let working_set = cache.stats().resident_bytes;
        let budget = (working_set as f64 * CACHE_FRACTION) as u64;
        cache.set_budget(budget);

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
            working_set,
            budget,
            input_bytes,
        };
        // Build figures come from the point index, the one every set-up
        // repeats at full size.
        Ok((world, vec![b1]))
    }

    fn measure(&self, w: &World, window: Duration, acc: Option<&SharedAcc>, phase: u64) -> Phase {
        let uni = default_universe();
        let gens: Vec<Mutex<QueryGen>> = (0..CLIENTS)
            .map(|c| {
                Mutex::new(QueryGen::new(
                    stream_seed(w.seed, phase, c),
                    uni,
                    RANGE_AREA,
                    K,
                ))
            })
            .collect();
        let pauses = stream_seed(w.seed, phase, CLIENTS);
        bench::closed_loop(&[THINK; CLIENTS], pauses, window, |c, i| {
            // Offset the clients' streams so their joins do not align.
            let kind = Kind::nth(i + 5 * c);
            let query = Query::draw(kind, &mut gens[c].lock().expect("query stream"));
            let id = format!("{phase}-{c}-{i}");
            direct_op(
                &w.dfs,
                &w.points,
                &w.joins,
                query,
                &format!("/sc/out/{id}"),
                acc,
                &id,
                i.is_multiple_of(REPLAY_EVERY),
            )
        })
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
                    "{CLIENTS} closed-loop, in-process, {} ms think time",
                    THINK.as_millis()
                ),
            ),
            ("offered_rate".into(), "closed loop (no fixed rate)".into()),
            ("points".into(), POINTS.to_string()),
            ("rects_per_side".into(), RECTS.to_string()),
            ("input_bytes".into(), w.input_bytes.to_string()),
            ("index".into(), "str+ binary (SHCB)".into()),
            (
                "point_partitions".into(),
                w.points.file.partitions.len().to_string(),
            ),
            ("range_area_frac".into(), RANGE_AREA.to_string()),
            ("knn_k".into(), K.to_string()),
            ("cache_budget_bytes".into(), w.budget.to_string()),
            ("working_set_bytes".into(), w.working_set.to_string()),
            (
                "working_set_over_cache".into(),
                format!("{:.2}", w.working_set as f64 / w.budget.max(1) as f64),
            ),
        ]
    }
}
