//! Metric catalogue and the result line.
//!
//! The names, units and directions here are the ones `BENCHMARK.json`
//! declares (a test keeps the two in step). Untraced runs print every
//! end-to-end metric; traced runs print every per-layer metric.

/// `(name, unit, better)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("range_p50_ms", "ms", "lower"),
    ("knn_p50_ms", "ms", "lower"),
    ("join_p50_ms", "ms", "lower"),
    ("queries_per_s", "1/s", "higher"),
    ("goodput_qps", "1/s", "higher"),
    ("build_p50_s", "s", "lower"),
    ("ingest_records_per_s", "1/s", "higher"),
    ("stored_bytes_per_input_byte", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("error_rate", "frac", "lower"),
    ("range_p99_ms", "ms", "lower"),
    ("knn_p95_ms", "ms", "lower"),
    ("join_p90_ms", "ms", "lower"),
    ("dfs.read_ms", "ms", "lower"),
    ("dfs.verify_ms", "ms", "lower"),
    ("dfs.blocks_read_per_query", "count", "lower"),
    ("dfs.bytes_read_per_result", "B", "lower"),
    ("dfs.remote_read_frac", "frac", "lower"),
    ("dfs.write_ms", "ms", "lower"),
    ("dfs.bytes_written", "B", "lower"),
    ("dfs.corrupt_replicas", "count", "lower"),
    ("dfs.repaired_replicas", "count", "lower"),
    ("cache.hit_rate", "frac", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.resident_mb", "MB", "lower"),
    ("splitter.partitions_opened_per_query", "count", "lower"),
    ("splitter.selectivity", "frac", "lower"),
    ("colblock.decode_ms", "ms", "lower"),
    ("colblock.filter_ms", "ms", "lower"),
    ("colblock.filter_hit_frac", "frac", "higher"),
    ("codec.parse_ms", "ms", "lower"),
    ("index.lidx_load_ms", "ms", "lower"),
    ("index.query_ms", "ms", "lower"),
    ("index.knn_ms", "ms", "lower"),
    ("index.build_sample_ms", "ms", "lower"),
    ("index.build_partition_ms", "ms", "lower"),
    ("join.sweep_ms", "ms", "lower"),
    ("mr.job_wall_ms", "ms", "lower"),
    ("mr.map_task_p50_us", "us", "lower"),
    ("mr.map_tasks_per_query", "count", "lower"),
    ("mr.shuffle_bytes_per_query", "B", "lower"),
    ("mr.task_retries", "count", "lower"),
    ("mr.overhead_ms", "ms", "lower"),
    ("sched.wait_ms_p99", "ms", "lower"),
    ("sched.rejected", "count", "lower"),
    ("pigeon.parse_us", "us", "lower"),
    ("pigeon.exec_overhead_ms", "ms", "lower"),
    ("server.overhead_ms", "ms", "lower"),
    ("server.frames_per_request", "count", "lower"),
    ("server.bytes_per_request", "B", "lower"),
    ("client.late_ms_p99", "ms", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
];

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _, _)| *n == name)
        .map(|(_, u, _)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not catalogued"))
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number; non-finite values (which would not parse) become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics in
/// catalogue order.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit_of(name))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory")
    }

    /// Each `{"name": ..., "unit": ..., "better": ...}` entry of a list
    /// in BENCHMARK.json, in file order.
    fn declared(json: &str, list: &str) -> Vec<(String, String, String)> {
        let start = json.find(&format!("\"{list}\"")).expect("list present");
        let rest = &json[start..];
        let end = rest.find(']').expect("list closed");
        let field = |entry: &str, key: &str| -> String {
            let k = entry.find(&format!("\"{key}\"")).expect("key present");
            let v = &entry[k + key.len() + 2..];
            let open = v.find('"').expect("string value") + 1;
            let close = v[open..].find('"').expect("string closed") + open;
            v[open..close].to_string()
        };
        rest[..end]
            .split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = benchmark_json();
        let own = |list: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            list.iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(declared(&json, "end_to_end"), own(END_TO_END));
        assert_eq!(declared(&json, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 3, 0, &[("setup_s", 1.5), ("range_p50_ms", 2.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"range_p50_ms\": {\"value\": 2.25, \"unit\": \"ms\"}}}"
        );
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_str("a\"\n"), "\"a\\\"\\n\"");
    }
}
