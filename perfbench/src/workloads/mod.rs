//! The three workloads and what they share.

pub mod ingest;
pub mod scan_cold;
pub mod serve_warm;

use std::time::Duration;

use sh_core::mrlayer::SpatialRecordReader;
use sh_core::SpatialFile;
use sh_dfs::Dfs;
use sh_geom::Record;
use sh_trace::Span;

use crate::bench::{
    self, Build, JoinSet, OpRecord, Phase, PointSet, Query, ServerCounts, SharedAcc,
};
use crate::stats::Status;

/// One workload: how to set it up and how to measure it.
pub trait Workload {
    type World;

    fn name(&self) -> &'static str;

    /// Builds the inputs from `seed` and returns the world plus the index
    /// builds it made.
    fn setup(&self, seed: u64) -> Result<(Self::World, Vec<Build>), String>;

    /// Runs the workload's clients for `window`. With `acc`, every call
    /// is traced and sampled queries are replayed layer by layer.
    /// `phase` keeps the query streams and output paths of successive
    /// windows apart.
    fn measure(
        &self,
        world: &Self::World,
        window: Duration,
        acc: Option<&SharedAcc>,
        phase: u64,
    ) -> Phase;

    fn dfs<'a>(&self, world: &'a Self::World) -> &'a Dfs;

    /// Latency limit for `goodput_qps`.
    fn limit_ms(&self) -> f64;

    /// Run provenance: input sizes, cache budget, offered rate, ...
    fn provenance(&self, world: &Self::World) -> Vec<(String, String)>;

    /// Heap arenas the C allocator may use, when the workload needs a
    /// limit (see [`bench::limit_malloc_arenas`]).
    fn malloc_arenas(&self) -> Option<i32> {
        None
    }

    /// Requests and response bytes seen by the wire client so far.
    fn server_counts(&self, _world: &Self::World) -> ServerCounts {
        ServerCounts::default()
    }
}

/// Seed of client `client`'s query stream in window `phase`.
pub fn stream_seed(seed: u64, phase: u64, client: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (phase << 32) ^ (client as u64 + 1)
}

/// One direct, oracle-checked op from a closed-loop client. Traced
/// (`acc` given), the request runs under its own root span and, when
/// `replay` is set, its partition path is replayed layer by layer.
#[allow(clippy::too_many_arguments)]
pub fn direct_op(
    dfs: &Dfs,
    points: &PointSet,
    joins: &JoinSet,
    query: Query,
    out: &str,
    acc: Option<&SharedAcc>,
    request_id: &str,
    replay: bool,
) -> OpRecord {
    let Some(acc) = acc else {
        return bench::run_direct(dfs, points, joins, query, out, None).record;
    };
    let req = Span::root(format!("request {request_id}"));
    req.attr("request_id", request_id);
    req.attr("op", query.kind().name());
    let done = bench::run_direct(dfs, points, joins, query, out, Some(&req));
    let mut replayed = None;
    if replay && done.record.status == Status::Ok {
        let span = req.child("replay");
        let scratch = format!("{out}-replay");
        let r = bench::replay(dfs, points, joins, query, &done.answer, &scratch, &span);
        span.finish();
        match r {
            Ok(stats) => replayed = Some((span.record(), stats)),
            Err(e) => eprintln!("perfbench: replay of {request_id} failed: {e}"),
        }
    }
    req.finish();
    let mut a = acc.lock().expect("layer accumulator");
    a.traced_service_ms.push(done.record.service_ms);
    if let Some(jobs) = &done.jobs {
        if let Some((rec, stats)) = &replayed {
            a.add_replay(rec, *stats, done.record.latency_ms, jobs.miss_frac());
        }
        a.jobs.push(jobs.clone());
    }
    a.spans.push(req.record());
    done.record
}

/// Opens every partition of `file` through the block cache, as a map
/// task would.
pub fn touch_all<R: Record>(dfs: &Dfs, file: &SpatialFile) -> Result<(), String> {
    for p in &file.partitions {
        let data = dfs.read_bytes(&p.path).map_err(|e| e.to_string())?;
        SpatialRecordReader::open_indexed_bytes::<R>(dfs, &p.path, &data)
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}
