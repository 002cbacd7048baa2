//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scan-cold --seed 1 --seconds 8 --trace 0
//! ```
//!
//! One run sets its workload up [`bench::SETUP_REPS`] times (reporting
//! the median as `setup_s`), measures it for `--seconds`, checks every
//! answer against an oracle, and prints one JSON result line last on
//! stdout. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! measures the same untraced window for the counter-based layer
//! figures, then runs a traced phase of half the length that wraps every
//! call in spans and replays sampled queries layer by layer, and reports
//! the per-layer metrics. Span trees go to `.perfbench/`. See
//! `perfbench/README.md` for the metric → layer mapping.

mod bench;
mod layers;
mod oracle;
mod report;
mod stats;
mod wire;
mod workloads;

use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bench::{LayerAcc, ServerCounts, Snapshot, Window};
use stats::Status;
use workloads::Workload;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set up this many times in a row, print each set-up's timing and
    /// builds, and exit: the timed set-ups other than the measured one
    /// run this way, in a process of their own.
    setups_only: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 8.0,
        trace: false,
        setups_only: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--setups-only" => {
                args.setups_only = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--setups-only: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn run<W: Workload>(wl: &W, args: &Args) -> Result<ExitCode, String> {
    if let Some(n) = args.setups_only {
        let mut world = None;
        for _ in 0..n {
            drop(world.take());
            let t0 = Instant::now();
            let (w, builds) = wl.setup(args.seed)?;
            let s = t0.elapsed().as_secs_f64();
            println!("{}", bench::setup_record(s, &builds));
            world = Some(w);
        }
        return Ok(ExitCode::SUCCESS);
    }
    // The arena limit serves `peak_rss_mb`, so the set-up child, which
    // only times set-ups, keeps glibc's default: capped, the build
    // threads sometimes shared an arena and every build slowed.
    if let Some(arenas) = wl.malloc_arenas() {
        bench::limit_malloc_arenas(arenas);
    }
    // `setup_s` is the median of several timed set-ups. All but the
    // measured one run first, one after another in a child process, so
    // `peak_rss_mb` covers one world rather than the heap that earlier
    // set-ups leave behind.
    let mut setup_s = Vec::new();
    let mut builds = Vec::new();
    for (s, b) in setups_in_child(wl.name(), args.seed, bench::SETUP_REPS - 1)? {
        setup_s.push(s);
        builds.extend(b);
    }
    let t0 = Instant::now();
    let (world, b) = wl.setup(args.seed)?;
    setup_s.push(t0.elapsed().as_secs_f64());
    builds.extend(b);

    let window = Duration::from_secs_f64(args.seconds);
    let before = Snapshot::take(wl.dfs(&world));
    let server_before = wl.server_counts(&world);
    let phase = wl.measure(&world, window, None, 0);
    let after = Snapshot::take(wl.dfs(&world));
    let server_after = wl.server_counts(&world);
    let peak_rss_mb = bench::peak_rss_mb();

    let mut provenance = vec![
        ("workload".to_string(), wl.name().to_string()),
        ("seed".into(), args.seed.to_string()),
        ("git_rev".into(), git_rev()),
        (
            "cores".into(),
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .to_string(),
        ),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), (args.trace as u8).to_string()),
        ("setup_reps".into(), bench::SETUP_REPS.to_string()),
        ("setup_s_each".into(), format!("{setup_s:.3?}")),
        (
            "setup_build_s_each".into(),
            format!(
                "{:.3?}",
                builds.iter().map(|b| b.build_s).collect::<Vec<_>>()
            ),
        ),
        ("latency_limit_ms".into(), wl.limit_ms().to_string()),
        (
            "task_slots".into(),
            wl.dfs(&world).slots().total().to_string(),
        ),
        (
            "malloc_arenas".into(),
            wl.malloc_arenas()
                .map_or("glibc default".into(), |n| n.to_string()),
        ),
        (
            "evictions_in_window".into(),
            (after.cache.evictions - before.cache.evictions).to_string(),
        ),
    ];
    provenance.extend(wl.provenance(&world));

    for kind in [
        bench::Kind::Range,
        bench::Kind::Knn,
        bench::Kind::Join,
        bench::Kind::Build,
    ] {
        let lat: Vec<f64> = phase
            .ops
            .iter()
            .filter(|o| o.kind == kind && o.status == Status::Ok)
            .map(|o| o.latency_ms)
            .collect();
        if lat.is_empty() {
            continue;
        }
        let supports = stats::highest_supported(lat.len())
            .map(|p| format!("p{p:.1}"))
            .unwrap_or_else(|| "no percentile".into());
        provenance.push((
            format!("{}_samples", kind.name()),
            format!(
                "{} (median {:.3} ms, supports up to {supports})",
                lat.len(),
                stats::median(&lat)
            ),
        ));
    }

    let traced = args.trace.then(|| {
        let acc = Arc::new(Mutex::new(LayerAcc::default()));
        (wl.measure(&world, window / 2, Some(&acc), 1), acc)
    });
    let builds = if phase.builds.is_empty() {
        builds
    } else {
        phase.builds.clone()
    };

    let mut all_ops: Vec<&bench::OpRecord> = phase.ops.iter().collect();
    let metrics = if let Some((traced, acc)) = &traced {
        all_ops.extend(traced.ops.iter());
        let acc = acc.lock().expect("layer accumulator");
        let server = ServerCounts {
            requests: server_after.requests - server_before.requests,
            bytes: server_after.bytes - server_before.bytes,
        };
        let w = Window {
            phase: &phase,
            before: &before,
            after: &after,
        };
        let m = bench::per_layer(&w, &acc, &builds, &server);
        let path = write_trace(wl.name(), args.seed, &acc)?;
        provenance.push(("trace_file".into(), path));
        provenance.push(("replays".into(), acc.replays.to_string()));
        m
    } else {
        // Printed for people (stderr), not part of the result line; an
        // ungated figure the samples cannot support is named, not printed.
        match bench::outcome_figures(&phase) {
            Ok(ungated) => {
                for (name, v) in &ungated {
                    eprintln!("{name:<40} {v:>14.4} {} (not gated)", report::unit_of(name));
                }
            }
            Err(invalid) => eprintln!("perfbench: invalid, not gated: {invalid}"),
        }
        bench::end_to_end(&phase, &setup_s, &builds, wl.limit_ms(), peak_rss_mb)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(invalid) => {
            for (k, v) in &provenance {
                eprintln!("{k}: {v}");
            }
            eprintln!("perfbench: INVALID metric, run rejected: {invalid}");
            return Ok(ExitCode::from(3));
        }
    };

    let attempted = all_ops.len() as u64;
    let count = |s: Status| all_ops.iter().filter(|o| o.status == s).count() as u64;
    let (failed_hard, refused, mismatched) = (
        count(Status::Failed),
        count(Status::Refused),
        count(Status::Mismatch),
    );
    provenance.push(("refused".into(), refused.to_string()));
    provenance.push(("mismatched".into(), mismatched.to_string()));

    for (name, v) in &metrics {
        eprintln!("{name:<40} {v:>14.4} {}", report::unit_of(name));
    }
    let prov: Vec<String> = provenance
        .iter()
        .map(|(k, v)| format!("{}: {}", report::json_str(k), report::json_str(v)))
        .collect();
    println!("{{\"provenance\": {{{}}}}}", prov.join(", "));
    println!(
        "{}",
        report::result_line(
            failed_hard == 0 && mismatched == 0,
            attempted.max(1),
            failed_hard + refused + mismatched,
            &metrics,
        )
    );
    Ok(ExitCode::SUCCESS)
}

/// `n` timed set-ups of `workload` in a child process (`--setups-only`).
fn setups_in_child(
    workload: &str,
    seed: u64,
    n: usize,
) -> Result<Vec<(f64, Vec<bench::Build>)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--setups-only", &n.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up process: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up process failed: {}", out.status));
    }
    let records: Vec<_> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(bench::parse_setup_record)
        .collect::<Result<_, String>>()?;
    if records.len() != n {
        return Err(format!(
            "set-up process reported {} of {n} set-ups",
            records.len()
        ));
    }
    Ok(records)
}

/// Writes the traced phase's request span trees, one JSON object per
/// line, under `.perfbench/` in the working directory.
fn write_trace(workload: &str, seed: u64, acc: &LayerAcc) -> Result<String, String> {
    let dir = ".perfbench";
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/trace-{workload}-seed{seed}.jsonl");
    let mut text = String::new();
    for s in &acc.spans {
        text.push_str(&layers::span_json(s));
        text.push('\n');
    }
    std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

const WORKLOADS: [&str; 3] = ["scan-cold", "serve-warm", "ingest"];

/// `--workload all`: runs every workload in its own process (so each
/// gets its own `peak_rss_mb`) with the same arguments; each prints its
/// metric table on stderr, and the result lines follow on stdout.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut rows: Vec<(String, String)> = Vec::new();
    let mut ok = true;
    for w in WORKLOADS {
        eprintln!("== {w}");
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("").to_string();
        ok &= out.status.success() && last.starts_with("{\"correct\": true");
        rows.push((w.to_string(), last));
    }
    println!("{:<12} result", "workload");
    for (w, line) in &rows {
        println!("{w:<12} {line}");
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload scan-cold|serve-warm|ingest|all --seed N --seconds S --trace 0|1 [--setups-only N]"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "all" => run_all(&args),
        "scan-cold" => run(&workloads::scan_cold::ScanCold, &args),
        "serve-warm" => run(&workloads::serve_warm::ServeWarm, &args),
        "ingest" => run(&workloads::ingest::Ingest, &args),
        other => Err(format!("unknown workload {other}")),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
