//! Layer-by-layer replay of an operation's partition path, timed from
//! outside through each layer's public functions.
//!
//! The replay opens exactly the partitions the operation's splitter
//! keeps and walks them the way the map tasks do: `Dfs::read_bytes` →
//! `crc64` over the same bytes → `colblock::decode` or the text codec →
//! the `_lidx` sidecar (`LocalRTree::from_bytes`/`from_text`) → the
//! filter/query kernel. Each call runs under its own [`Span`]; per-layer
//! figures are span self-times.
//!
//! Attribution back to the operation follows what a map task actually
//! pays: the block read (which verifies the CRC inside it) and the
//! query kernel run on every open, while decode/parse and the sidecar
//! load only run on a block-cache miss, so they are charged by the op's
//! miss fraction. `colblock.filter` is the columnar scan kernel, timed
//! for comparison but not charged (indexed ops search the local tree).
//! Whatever the op's wall time does not cover is `mr.overhead_ms`.

use std::collections::BTreeMap;
use std::time::Instant;

use sh_core::colblock;
use sh_core::mrlayer::{local_index_path, SpatialFileSplitter, SpatialRecordReader};
use sh_core::SpatialFile;
use sh_dfs::Dfs;
use sh_geom::{Point, Record, Rect};
use sh_index::LocalRTree;
use sh_trace::{Span, SpanRecord};

/// Spans charged only when the op missed the block cache.
const MISS_ONLY: [&str; 2] = ["colblock.decode", "index.lidx_load"];
/// Spans timed for comparison but not on the op's own path.
const NOT_CHARGED: [&str; 2] = ["colblock.filter", "dfs.verify"];

/// Runs `f` under a child span of `parent` named `name`.
pub fn timed<T>(parent: &Span, name: &str, f: impl FnOnce() -> T) -> T {
    let span = parent.child(name);
    let out = f();
    span.finish();
    out
}

/// Sum of self-times (duration minus children, never negative), in
/// milliseconds, by span name over `rec`'s subtree excluding `rec`.
pub fn self_times(rec: &SpanRecord) -> BTreeMap<String, f64> {
    fn walk(r: &SpanRecord, out: &mut BTreeMap<String, f64>) {
        for c in &r.children {
            let kids: f64 = c.children.iter().map(|k| k.duration.as_secs_f64()).sum();
            let own = (c.duration.as_secs_f64() - kids).max(0.0) * 1e3;
            *out.entry(c.name.clone()).or_insert(0.0) += own;
            walk(c, out);
        }
    }
    let mut out = BTreeMap::new();
    walk(rec, &mut out);
    out
}

/// Per-layer milliseconds of one replay: span self-times with the CRC
/// charged inside the read. `Dfs::read_bytes` verifies every block it
/// serves, so the standalone `crc64` over the same bytes (`dfs.verify`)
/// is reported as its own share and taken out of `dfs.read`.
pub fn layer_ms(rec: &SpanRecord) -> BTreeMap<String, f64> {
    let mut t = self_times(rec);
    let verify = t.get("dfs.verify").copied().unwrap_or(0.0);
    if let Some(read) = t.get_mut("dfs.read") {
        *read = (*read - verify).max(0.0);
    }
    t
}

/// Milliseconds of the replay charged to the op: always-paid layers in
/// full, cache-miss-only layers (and their subtrees) scaled by
/// `miss_frac`, comparison-only layers not at all.
pub fn charged_ms(rec: &SpanRecord, miss_frac: f64) -> f64 {
    fn walk(r: &SpanRecord, factor: f64, miss_frac: f64) -> f64 {
        let mut total = 0.0;
        for c in &r.children {
            if NOT_CHARGED.contains(&c.name.as_str()) {
                continue;
            }
            let f = if MISS_ONLY.contains(&c.name.as_str()) {
                miss_frac
            } else {
                factor
            };
            let kids: f64 = c.children.iter().map(|k| k.duration.as_secs_f64()).sum();
            total += (c.duration.as_secs_f64() - kids).max(0.0) * 1e3 * f;
            total += walk(c, f, miss_frac);
        }
        total
    }
    // Partition text parse sits under `partition` and is miss-only too;
    // the output parse sits under `output` and is always paid.
    fn text_parse_under_partitions(r: &SpanRecord) -> f64 {
        let mut t = 0.0;
        for c in &r.children {
            if c.name == "partition" {
                t += c
                    .children
                    .iter()
                    .filter(|k| k.name == "codec.parse")
                    .map(|k| k.duration.as_secs_f64() * 1e3)
                    .sum::<f64>();
            } else {
                t += text_parse_under_partitions(c);
            }
        }
        t
    }
    walk(rec, 1.0, miss_frac) - (1.0 - miss_frac) * text_parse_under_partitions(rec)
}

/// A partition opened by the replay.
struct Opened<R> {
    records: Option<Vec<R>>,
    block: Option<colblock::ColumnarBlock>,
    tree: LocalRTree,
}

impl<R: Record> Opened<R> {
    fn mbrs(&self) -> Vec<Rect> {
        match (&self.block, &self.records) {
            (Some(b), _) => (0..b.count).map(|i| b.mbr(i)).collect(),
            (None, Some(r)) => r.iter().map(Record::mbr).collect(),
            _ => Vec::new(),
        }
    }

    fn records(&self) -> Vec<R> {
        match (&self.block, &self.records) {
            (Some(b), _) => b.records::<R>(),
            (None, Some(r)) => r.clone(),
            _ => Vec::new(),
        }
    }
}

/// Read → verify → decode/parse → sidecar load, under one `partition`
/// span.
fn open<R: Record>(dfs: &Dfs, path: &str, parent: &Span) -> Result<Opened<R>, String> {
    let span = parent.child("partition");
    span.attr("path", path);
    let bytes = timed(&span, "dfs.read", || dfs.read_bytes(path)).map_err(|e| e.to_string())?;
    timed(&span, "dfs.verify", || sh_dfs::crc64(&bytes));
    let (records, block, count) = if colblock::is_binary(&bytes) {
        let block = timed(&span, "colblock.decode", || colblock::decode(&bytes))
            .map_err(|e| e.to_string())?;
        let n = block.count;
        (None, Some(block), n)
    } else {
        let recs = timed(&span, "codec.parse", || {
            SpatialRecordReader::records_bytes::<R>(&bytes)
        })
        .map_err(|e| e.to_string())?;
        let n = recs.len();
        (Some(recs), None, n)
    };
    let load = span.child("index.lidx_load");
    let sidecar = local_index_path(path).filter(|p| dfs.exists(p));
    let tree = match sidecar {
        Some(p) => {
            let raw = timed(&load, "dfs.read", || dfs.read_bytes(&p)).map_err(|e| e.to_string())?;
            timed(&load, "dfs.verify", || sh_dfs::crc64(&raw));
            if LocalRTree::is_binary_sidecar(&raw) {
                LocalRTree::from_bytes(&raw)?
            } else {
                LocalRTree::from_text(std::str::from_utf8(&raw).map_err(|e| e.to_string())?)?
            }
        }
        None => LocalRTree::build(Vec::new()),
    };
    load.finish();
    let mut opened = Opened {
        records,
        block,
        tree,
    };
    if opened.tree.len() != count {
        // Missing or stale sidecar: the reader rebuilds, so does the replay.
        let rebuild = span.child("index.lidx_load");
        opened.tree = LocalRTree::build(opened.mbrs());
        rebuild.finish();
    }
    span.finish();
    Ok(opened)
}

/// What a replay observed beyond its spans: the columnar filter's
/// candidates out of the records it scanned.
#[derive(Default, Clone, Copy)]
pub struct ReplayStats {
    pub filter_candidates: u64,
    pub filter_records: u64,
}

/// Times parsing the op's result lines and rewriting them through the
/// DFS writer — the text the job wrote and the master read back.
fn output_layers<R: Record>(
    dfs: &Dfs,
    scratch: &str,
    lines: &[String],
    parent: &Span,
) -> Result<(), String> {
    let out = parent.child("output");
    timed(&out, "codec.parse", || {
        sh_core::codec::parse_output_records::<R>(lines)
    })
    .map_err(|e| e.to_string())?;
    write_lines(dfs, scratch, lines, &out)?;
    out.finish();
    Ok(())
}

fn write_lines(dfs: &Dfs, scratch: &str, lines: &[String], parent: &Span) -> Result<(), String> {
    timed(parent, "dfs.write", || -> Result<(), String> {
        let mut w = dfs.create(scratch).map_err(|e| e.to_string())?;
        for l in lines {
            w.write_line(l);
        }
        w.close().map_err(|e| e.to_string())
    })?;
    dfs.delete(scratch);
    Ok(())
}

/// Replays a range query's partition path.
pub fn replay_range<R: Record>(
    dfs: &Dfs,
    file: &SpatialFile,
    q: &Rect,
    answer_lines: &[String],
    scratch: &str,
    parent: &Span,
) -> Result<ReplayStats, String> {
    let splits = timed(parent, "splitter", || {
        SpatialFileSplitter::splits(dfs, file, |m| m.mbr_rect().intersects(q))
    })
    .map_err(|e| e.to_string())?;
    let mut stats = ReplayStats::default();
    for split in &splits {
        let part = open::<R>(dfs, &split.path, parent)?;
        if let Some(block) = &part.block {
            let hits = timed(parent, "colblock.filter", || block.mbr_filter(q));
            stats.filter_candidates += hits.len() as u64;
            stats.filter_records += block.count as u64;
        }
        timed(parent, "index.query", || part.tree.query(q));
    }
    output_layers::<R>(dfs, scratch, answer_lines, parent)?;
    Ok(stats)
}

/// Replays an indexed kNN: partitions in order of distance from `q`,
/// each searched through its local tree, until the k-th best distance
/// is covered — the partitions the op's rounds end up opening.
pub fn replay_knn(
    dfs: &Dfs,
    file: &SpatialFile,
    q: &Point,
    k: usize,
    answer_lines: &[String],
    scratch: &str,
    parent: &Span,
) -> Result<ReplayStats, String> {
    let order = timed(parent, "splitter", || {
        let mut metas: Vec<&sh_index::PartitionMeta> = file.partitions.iter().collect();
        metas.sort_by(|a, b| {
            a.mbr_rect()
                .min_distance(q)
                .total_cmp(&b.mbr_rect().min_distance(q))
        });
        metas
    });
    let mut best: Vec<f64> = Vec::new();
    for meta in order {
        if best.len() >= k && meta.mbr_rect().min_distance(q) >= best[k - 1] {
            break;
        }
        let part = open::<Point>(dfs, &meta.path, parent)?;
        let found = timed(parent, "index.knn", || part.tree.knn(q, k));
        best.extend(found.into_iter().map(|(_, d)| d));
        best.sort_by(f64::total_cmp);
        best.truncate(k);
    }
    output_layers::<Point>(dfs, scratch, answer_lines, parent)?;
    Ok(ReplayStats::default())
}

/// Replays a distributed join: every partition of both inputs opened
/// once, then one plane sweep per pair of overlapping cells.
pub fn replay_join(
    dfs: &Dfs,
    a: &SpatialFile,
    b: &SpatialFile,
    answer_lines: &[String],
    scratch: &str,
    parent: &Span,
) -> Result<ReplayStats, String> {
    let pairs = timed(parent, "splitter", || {
        let cells_a: Vec<Rect> = a.partitions.iter().map(|m| m.cell_rect()).collect();
        let cells_b: Vec<Rect> = b.partitions.iter().map(|m| m.cell_rect()).collect();
        let mut pairs = sh_geom::algorithms::plane_sweep::plane_sweep_join(&cells_a, &cells_b);
        pairs.retain(|&(i, j)| {
            cells_a[i]
                .intersection(&cells_b[j])
                .is_some_and(|x| x.area() > 0.0)
        });
        pairs
    });
    let mut left = Vec::with_capacity(a.partitions.len());
    for m in &a.partitions {
        left.push(open::<Rect>(dfs, &m.path, parent)?.records());
    }
    let mut right = Vec::with_capacity(b.partitions.len());
    for m in &b.partitions {
        right.push(open::<Rect>(dfs, &m.path, parent)?.records());
    }
    let sweep = parent.child("join.sweep");
    let mut found = 0u64;
    for (i, j) in pairs {
        sh_geom::algorithms::plane_sweep::plane_sweep_join_into(&left[i], &right[j], |_, _| {
            found += 1
        });
    }
    sweep.attr("overlaps", found);
    sweep.finish();
    let out = parent.child("output");
    timed(&out, "codec.parse", || -> Result<(), String> {
        for l in answer_lines {
            sh_core::codec::decode_pair(l).map_err(|e| e.to_string())?;
        }
        Ok(())
    })?;
    write_lines(dfs, scratch, answer_lines, &out)?;
    out.finish();
    Ok(ReplayStats::default())
}

/// Microseconds `f` takes.
pub fn micros<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64() * 1e6)
}

/// One span tree as a JSON object (durations in microseconds).
pub fn span_json(r: &SpanRecord) -> String {
    let mut s = String::new();
    s.push_str("{\"name\":");
    s.push_str(&crate::report::json_str(&r.name));
    s.push_str(&format!(
        ",\"start_us\":{:.1},\"dur_us\":{:.1},\"attrs\":{{",
        r.start.as_secs_f64() * 1e6,
        r.duration.as_secs_f64() * 1e6
    ));
    for (i, (k, v)) in r.attrs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&crate::report::json_str(k));
        s.push(':');
        s.push_str(&crate::report::json_str(v));
    }
    s.push_str("},\"children\":[");
    for (i, c) in r.children.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&span_json(c));
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(name: &str, ms: u64, children: Vec<SpanRecord>) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            start: Duration::ZERO,
            duration: Duration::from_millis(ms),
            attrs: Vec::new(),
            children,
        }
    }

    fn replay_tree() -> SpanRecord {
        span(
            "replay",
            100,
            vec![
                span("splitter", 1, vec![]),
                span(
                    "partition",
                    40,
                    vec![
                        span("dfs.read", 10, vec![]),
                        span("dfs.verify", 4, vec![]),
                        span("colblock.decode", 6, vec![]),
                        span("index.lidx_load", 12, vec![span("dfs.read", 2, vec![])]),
                    ],
                ),
                span("colblock.filter", 3, vec![]),
                span("index.query", 5, vec![]),
                span(
                    "output",
                    9,
                    vec![span("codec.parse", 2, vec![]), span("dfs.write", 7, vec![])],
                ),
            ],
        )
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = self_times(&replay_tree());
        // partition: 40 - (10 + 4 + 6 + 12) = 8
        assert!((t["partition"] - 8.0).abs() < 1e-9);
        // lidx_load: 12 - 2 (its sidecar read)
        assert!((t["index.lidx_load"] - 10.0).abs() < 1e-9);
        // both reads: 10 + 2
        assert!((t["dfs.read"] - 12.0).abs() < 1e-9);
        assert!((t["output"] - 0.0).abs() < 1e-9);
        assert!(!t.contains_key("replay"));
    }

    #[test]
    fn self_time_never_negative() {
        let r = span("root", 5, vec![span("a", 1, vec![span("b", 3, vec![])])]);
        let t = self_times(&r);
        assert_eq!(t["a"], 0.0);
        assert!((t["b"] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn verify_is_charged_inside_read() {
        let t = layer_ms(&replay_tree());
        assert!((t["dfs.verify"] - 4.0).abs() < 1e-9);
        assert!((t["dfs.read"] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn charged_time_scales_miss_only_layers() {
        let tree = replay_tree();
        // All misses: everything but the filter and the verify (already
        // inside the read): 1 + 8 + 10 + 6 + 12 + 5 + 2 + 7 = 51.
        assert!((charged_ms(&tree, 1.0) - 51.0).abs() < 1e-9);
        // All hits: decode and the whole sidecar load (with its read)
        // drop out: 51 - 6 - 12 = 33.
        assert!((charged_ms(&tree, 0.0) - 33.0).abs() < 1e-9);
        let half = charged_ms(&tree, 0.5);
        assert!((half - 42.0).abs() < 1e-9);
    }

    #[test]
    fn partition_text_parse_is_miss_only_output_parse_is_not() {
        let tree = span(
            "replay",
            50,
            vec![
                span("partition", 20, vec![span("codec.parse", 8, vec![])]),
                span("output", 5, vec![span("codec.parse", 5, vec![])]),
            ],
        );
        assert!((charged_ms(&tree, 1.0) - 25.0).abs() < 1e-9);
        assert!((charged_ms(&tree, 0.0) - 17.0).abs() < 1e-9);
    }

    #[test]
    fn span_json_is_nested() {
        let j = span_json(&span("a\"b", 1, vec![span("c", 1, vec![])]));
        assert!(j.starts_with("{\"name\":\"a\\\"b\""));
        assert!(j.contains("\"children\":[{\"name\":\"c\""));
    }
}
