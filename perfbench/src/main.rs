//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! prcc-perfbench --workload <serve-hot|serve-partial|replicate-tcp>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` makes [`REPEATS`] untraced passes of `s / REPEATS` seconds'
//! work each and prints every end-to-end metric as the median over them.
//! `--trace 1` alternates [`TRACED_PAIRS`] untraced and traced passes and
//! prints the per-layer metrics (medians over the traced passes), with the
//! tracing overhead and the share of load-thread time no layer accounts for.
//! Every pass is verified. The last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; the exit code is
//! 1 if any verification or counter identity failed, 2 on bad arguments.

use prcc_perfbench::spans::{Layer, NoTrace, SpanBuf};
use prcc_perfbench::{median, replicate, serve, Params, Pass};
use std::time::Instant;

/// Set-ups timed per pass for `setup_s`.
const SETUP_REPS: usize = 5;
/// Untraced passes per run, each on a fresh cluster for `seconds / REPEATS`;
/// every end-to-end metric is the median over them, so one unlucky
/// cluster instance moves it less.
const REPEATS: usize = 7;
/// Untraced/traced pass pairs of a `--trace 1` run; each per-layer metric
/// is the median over the traced passes.
const TRACED_PAIRS: usize = 3;
/// Span capacity per load thread per second of window.
const SPANS_PER_SECOND: f64 = 400_000.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = a.next() {
        let val = a.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 600"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn check_workload(workload: &str) -> Result<(), String> {
    match workload {
        "serve-hot" | "serve-partial" | "replicate-tcp" => Ok(()),
        _ => Err(format!(
            "unknown workload {workload} (serve-hot, serve-partial, replicate-tcp)"
        )),
    }
}

/// One pass of `workload` (already checked), traced or not.
fn pass(workload: &str, params: &Params, traced: bool) -> (Pass, Option<SpanBuf>) {
    let spec = match workload {
        "serve-hot" => Some(serve::serve_hot()),
        "serve-partial" => Some(serve::serve_partial()),
        _ => None,
    };
    let threads = if spec.is_some() {
        serve::LOAD_THREADS
    } else {
        replicate::LOAD_THREADS
    };
    if !traced {
        let tracers = vec![NoTrace; threads + 1];
        let (p, _) = match &spec {
            Some(spec) => serve::run(spec, params, tracers),
            None => replicate::run(params, tracers),
        };
        return (p, None);
    }
    let epoch = Instant::now();
    let cap = (SPANS_PER_SECOND * params.seconds) as usize;
    let mut tracers: Vec<SpanBuf> = (0..threads).map(|_| SpanBuf::new(epoch, cap)).collect();
    tracers.push(SpanBuf::new(epoch, 1024));
    let (p, tracers) = match &spec {
        Some(spec) => serve::run(spec, params, tracers),
        None => replicate::run(params, tracers),
    };
    let mut all = SpanBuf::new(epoch, 0);
    for t in tracers {
        all.absorb(t);
    }
    (p, Some(all))
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Metrics as `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The end-to-end metrics of one untraced pass.
fn end_to_end(p: &Pass) -> Metrics {
    vec![
        ("setup_s", p.setup_s, "s"),
        ("ops_per_s", p.served as f64 / p.window_s, "1/s"),
        ("read_p50_us", us(p.read_lat.quantile(0.5)), "us"),
        ("read_p90_us", us(p.read_lat.quantile(0.9)), "us"),
        ("write_p50_us", us(p.write_q[0]), "us"),
        ("write_p90_us", us(p.write_q[1]), "us"),
        ("updates_per_s", p.writes as f64 / p.until_settled_s, "1/s"),
        ("visible_p50_us", us(p.visible.quantile(0.5)), "us"),
        ("visible_p90_us", us(p.visible.quantile(0.9)), "us"),
        ("meta_bytes_per_msg", p.meta_bytes_per_msg, "B"),
        ("peak_rss_mb", p.peak_rss_mb, "MiB"),
    ]
}

/// Tails and sample counts printed beside the p90s.
fn tails(p: &Pass) -> Vec<String> {
    let h = |name: &str, h: &prcc_perfbench::hist::Histogram| {
        format!(
            "{name}: n={} p99={:.1}us ({} beyond) p999={:.1}us ({} beyond) max={:.1}us",
            h.count(),
            us(h.quantile(0.99)),
            h.beyond(0.99),
            us(h.quantile(0.999)),
            h.beyond(0.999),
            us(h.max() as f64)
        )
    };
    vec![
        h("read", &p.read_lat),
        format!(
            "write: n={} p99={:.1}us p999={:.1}us",
            p.write_q[4],
            us(p.write_q[2]),
            us(p.write_q[3])
        ),
        h("visible", &p.visible),
        format!(
            "ops attempted={} failed={} failed_frac={} | measured: served={} writes={} window={:.3}s ({:.0} ops/s) until_settled={:.3}s peak_rss={:.1}MiB",
            p.attempted,
            p.failed,
            p.failed as f64 / p.attempted.max(1) as f64,
            p.served,
            p.writes,
            p.window_s,
            p.served as f64 / p.window_s,
            p.until_settled_s,
            p.peak_rss_mb
        ),
    ]
}

/// The per-layer metrics of a traced pass, with `base` the untraced pass
/// of the same seed (for the tracing overhead).
fn per_layer(p: &mut Pass, spans: &SpanBuf, base: &Pass) -> (Metrics, Vec<String>) {
    let sum = spans.summarize();
    let by = |l: Layer| &sum[l as usize];
    let mut notes = Vec::new();

    // Span counts must equal the calls the load threads counted.
    if spans.dropped > 0 {
        p.violations.push(format!(
            "span buffer overflowed: {} spans dropped",
            spans.dropped
        ));
    }
    for s in &sum {
        let calls = p.calls.get(s.layer.name()).copied().unwrap_or(0);
        if s.calls != calls {
            p.violations.push(format!(
                "identity broken: {} spans {} != calls {}",
                s.layer.name(),
                s.calls,
                calls
            ));
        }
    }

    // Reconciliation: the load threads' time split into layer self times.
    let window = by(Layer::LoadWindow);
    let total = window.total_ns.max(1) as f64;
    notes.push(format!(
        "load-thread time {:.3}s over {} threads, by layer self time:",
        window.total_ns as f64 / 1e9,
        window.calls
    ));
    let mut attributed = 0u64;
    for s in &sum {
        let l = s.layer;
        if s.calls == 0 || !matches!(by_parent(spans, l), Some(Layer::LoadWindow)) {
            continue;
        }
        attributed += s.self_ns;
        notes.push(format!(
            "  {:<22} calls={:<9} self={:>9.3}ms ({:5.1}%) p50={:.2}us p99={:.2}us",
            l.name(),
            s.calls,
            s.self_ns as f64 / 1e6,
            100.0 * s.self_ns as f64 / total,
            us(s.hist.quantile(0.5)),
            us(s.hist.quantile(0.99))
        ));
    }
    notes.push(format!(
        "  {:<22} self={:>9.3}ms ({:5.1}%)",
        "unattributed",
        window.self_ns as f64 / 1e6,
        100.0 * window.self_ns as f64 / total
    ));
    p.identity(
        "layer self times + unattributed == load-thread time",
        attributed + window.self_ns,
        window.total_ns,
    );
    for s in &sum {
        if s.calls > 0 && !matches!(by_parent(spans, s.layer), Some(Layer::LoadWindow)) {
            notes.push(format!(
                "  main thread: {:<20} calls={} total={:.3}ms",
                s.layer.name(),
                s.calls,
                s.total_ns as f64 / 1e6
            ));
        }
    }

    let per_op = |q: &Pass| q.busy_ns as f64 / q.attempted.max(1) as f64;
    let overhead = per_op(p) / per_op(base) - 1.0;
    notes.push(format!(
        "tracing overhead: {:.1} ns/op traced vs {:.1} ns/op untraced of load-thread busy time",
        per_op(p),
        per_op(base)
    ));

    let q = |l: Layer, x: f64| us(by(l).hist.quantile(x));
    let lv = |name: &str| p.layer.get(name).copied().unwrap_or(0.0);
    let metrics = vec![
        ("sharegraph.tsgraph_ms", lv("sharegraph.tsgraph_ms"), "ms"),
        ("timestamp.registry_ms", lv("timestamp.registry_ms"), "ms"),
        ("runtime.construct_ms", lv("runtime.construct_ms"), "ms"),
        (
            "serving.write_call_us_p50",
            q(Layer::ServingWrite, 0.5),
            "us",
        ),
        (
            "serving.write_call_us_p99",
            q(Layer::ServingWrite, 0.99),
            "us",
        ),
        ("serving.flush_us_p50", q(Layer::ServingFlush, 0.5), "us"),
        (
            "serving.flush_busy_frac",
            by(Layer::ServingFlush).total_ns as f64 / total,
            "fraction",
        ),
        ("serving.poll_us_p50", q(Layer::ServingPoll, 0.5), "us"),
        (
            "serving.forwarded_frac",
            lv("serving.forwarded_frac"),
            "fraction",
        ),
        ("serving.block_frac", lv("serving.block_frac"), "fraction"),
        ("serving.shed", lv("serving.shed"), "count"),
        ("serving.timeouts", lv("serving.timeouts"), "count"),
        (
            "serving.dep_evictions",
            lv("serving.dep_evictions"),
            "count",
        ),
        ("load.late_p90_us", lv("load.late_p90_us"), "us"),
        (
            "runtime.applies_per_publish",
            lv("runtime.applies_per_publish"),
            "ratio",
        ),
        (
            "runtime.write_burst_us_p50",
            q(Layer::RuntimeWriteBurst, 0.5),
            "us",
        ),
        ("runtime.settle_ms", lv("runtime.settle_ms"), "ms"),
        ("runtime.trace_merge_ms", lv("runtime.trace_merge_ms"), "ms"),
        ("codec.demotions", lv("codec.demotions"), "count"),
        ("net.wire_bytes_per_msg", lv("net.wire_bytes_per_msg"), "B"),
        ("net.syscalls_per_msg", lv("net.syscalls_per_msg"), "ratio"),
        (
            "net.frames_per_syscall",
            lv("net.frames_per_syscall"),
            "ratio",
        ),
        (
            "net.retransmits_per_msg",
            lv("net.retransmits_per_msg"),
            "ratio",
        ),
        ("net.reconnects", lv("net.reconnects"), "count"),
        ("net.shed", lv("net.shed"), "count"),
        ("net.decode_errors", lv("net.decode_errors"), "count"),
        ("verify.s", lv("verify.s"), "s"),
        (
            "trace.unattributed_frac",
            window.self_ns as f64 / total,
            "fraction",
        ),
        ("trace.overhead_frac", overhead, "fraction"),
    ];
    (metrics, notes)
}

/// The layer of the parent of `layer`'s first span, if it has one.
fn by_parent(spans: &SpanBuf, layer: Layer) -> Option<Layer> {
    let all = spans.spans();
    let s = all.iter().find(|s| s.layer == layer)?;
    all.get(s.parent as usize).map(|p| p.layer)
}

/// Each metric's median over `sets` (all listing the same metrics in the
/// same order); `first_only` takes its value from the first set instead.
fn medians(sets: &[Metrics], first_only: Option<&str>) -> Metrics {
    sets[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, first, unit))| {
            let v = if Some(name) == first_only {
                first
            } else {
                median(&sets.iter().map(|m| m[i].1).collect::<Vec<_>>())
            };
            (name, v, unit)
        })
        .collect()
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn write_spans(workload: &str, spans: &SpanBuf) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{workload}.tsv"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    spans.write_tsv(&mut f)?;
    std::io::Write::flush(&mut f)?;
    Ok(path.display().to_string())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("prcc-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let params = Params {
        seed: args.seed,
        seconds: args.seconds / REPEATS as f64,
        setup_reps: SETUP_REPS,
        keep_evidence: false,
    };
    if let Err(e) = check_workload(&args.workload) {
        eprintln!("prcc-perfbench: {e}");
        std::process::exit(2);
    }
    println!(
        "workload {} seed {} seconds {}",
        args.workload, args.seed, args.seconds
    );
    let (mut attempted, mut failed) = (0, 0);
    let mut violations = Vec::new();
    let mut run = |traced: bool| {
        let (mut p, spans) = pass(&args.workload, &params, traced);
        println!("{} pass:", if traced { "traced" } else { "untraced" });
        for line in tails(&p).iter().chain(&p.notes) {
            println!("  {line}");
        }
        attempted += p.attempted;
        failed += p.failed;
        violations.append(&mut p.violations);
        (p, spans)
    };
    let mut extra = Vec::new();
    let metrics = if args.trace {
        // Untraced and traced passes alternate, so host drift hits both.
        let mut sets = Vec::new();
        let mut last = None;
        for _ in 0..TRACED_PAIRS {
            let (base, _) = run(false);
            let (mut traced, spans) = run(true);
            let spans = spans.expect("traced pass records spans");
            let (metrics, notes) = per_layer(&mut traced, &spans, &base);
            for line in &notes {
                println!("  {line}");
            }
            extra.append(&mut traced.violations);
            sets.push(metrics);
            last = Some(spans);
        }
        if let Some(spans) = last {
            match write_spans(&args.workload, &spans) {
                Ok(path) => println!("  last traced pass's spans written to {path}"),
                Err(e) => extra.push(format!("writing spans: {e}")),
            }
        }
        medians(&sets, None)
    } else {
        // Only the first pass runs in a fresh process, so only its peak
        // resident set is the workload's own.
        let sets: Vec<_> = (0..REPEATS).map(|_| end_to_end(&run(false).0)).collect();
        medians(&sets, Some("peak_rss_mb"))
    };
    violations.append(&mut extra);
    for (name, v, unit) in &metrics {
        println!("  {name:<28} {v:>14.4} {unit}");
    }
    for v in &violations {
        println!("VIOLATION: {v}");
    }
    let correct = violations.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
