//! The stack's benchmark: one named workload from a seed, its outputs
//! checked, every metric printed by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload put_small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with spans around every call into a layer and prints the
//! per-layer metrics instead. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. A run
//! whose outputs fail a check prints no metrics and exits with code 1;
//! `--corrupt 1` flips one byte of the first checked payload to show it.
//! `perfbench/README.md` describes the workloads and metrics.

mod check;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use workloads::{Ctl, Outcome};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// End-to-end metrics: name and unit. Every workload reports each.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("call_p50_us", "us"),
    ("call_p99_us", "us"),
    ("sim_p50_us", "us"),
    ("sim_p99_us", "us"),
    ("sim_gbps", "GB/s"),
    ("model_err_pct", "%"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: name and unit. A workload that never reaches a
/// layer reports its metrics as 0 and lists them under `not_applicable`.
const PER_LAYER: [(&str, &str); 36] = [
    ("ucx.plan_for.hit_ns", "ns"),
    ("ucx.plan_for.miss_us", "us"),
    ("ucx.plan_for.first_touch_us", "us"),
    ("ucx.plan.hit_ratio", "ratio"),
    ("ucx.plan.misses", "count"),
    ("ucx.put.self_us", "us"),
    ("gpu.graph.captures", "count"),
    ("gpu.graph.replay_ratio", "ratio"),
    ("sim.drain_us", "us"),
    ("sim.ns_per_event", "ns"),
    ("sim.events_processed", "count"),
    ("sim.events_scheduled", "count"),
    ("sim.stale_ratio", "ratio"),
    ("sim.flows_completed", "count"),
    ("sim.faults_fired", "count"),
    ("sim.flows_stalled", "count"),
    ("broker.submit_p50_us", "us"),
    ("broker.submit_p99_us", "us"),
    ("broker.admit_ratio", "ratio"),
    ("broker.shed_deadline", "count"),
    ("broker.shed_queue_full", "count"),
    ("broker.shed_regime", "count"),
    ("broker.dispatches", "count"),
    ("broker.coalesced", "count"),
    ("broker.queue_peak", "count"),
    ("ucx.put_resilient.call_us", "us"),
    ("ucx.put_hedged.call_us", "us"),
    ("ucx.recover.retries", "count"),
    ("ucx.recover.replans", "count"),
    ("ucx.recover.timeouts", "count"),
    ("ucx.health.trips", "count"),
    ("ucx.health.hedges", "count"),
    ("ucx.health.hedge_wins", "count"),
    ("obs.residual_coverage", "ratio"),
    ("obs.trace_overhead_pct", "%"),
    ("host.os_threads", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        corrupt: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let [key, val] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        let num = || val.parse::<u64>().map_err(|e| format!("{key} {val}: {e}"));
        match key.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?.max(1),
            "--trace" => a.trace = num()? != 0,
            "--corrupt" => a.corrupt = num()? != 0,
            _ => return Err(format!("unknown flag {key}")),
        }
    }
    if !workloads::NAMES.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            workloads::NAMES,
            a.workload
        ));
    }
    Ok(a)
}

fn main() {
    let process_start = Instant::now();
    // Read before any workload narrows this process's CPU affinity.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    match run(&args, process_start, nproc) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {} seed {}: {e}", args.workload, args.seed);
            std::process::exit(1);
        }
    }
}

/// Sets up, runs, checks, and renders the result line.
fn run(args: &Args, process_start: Instant, nproc: u64) -> Result<String, String> {
    // Set up several times and keep the last; the first set-up is timed
    // from process start.
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut bench = None;
    for i in 0..SETUPS {
        drop(bench.take());
        let t0 = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        bench = Some(workloads::setup(&args.workload, args.seed));
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    let bench = bench.expect("SETUPS > 0");
    let ctl = Ctl {
        run_for: Duration::from_secs(args.seconds),
        trace: args.trace,
        corrupt: args.corrupt,
    };
    let mut out: Outcome = bench.run(&ctl)?;
    let peak_rss = stats::peak_rss_mb();

    let bad = check::violations(&out.ledger);
    if !bad.is_empty() {
        return Err(format!("output check failed: {}", bad.join("; ")));
    }
    let sample = out
        .payload_sample
        .as_ref()
        .ok_or("no real-payload sample retained for the checker self-test")?;
    check::self_test(&out.ledger, sample)?;

    let threads = out.os_threads;
    println!(
        "{{\"host\": {{\"workload\": \"{}\", \"seed\": {}, \"run_seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"os_threads\": {threads}, \"oversubscribed\": {}, \"git_rev\": \"{}\", \
         \"setups\": {:?}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        threads > nproc,
        stats::git_rev(),
        setup_secs,
    );
    for (k, v) in &out.detail {
        println!("{{\"{k}\": {v}}}");
    }

    let mut metrics = String::new();
    if args.trace {
        out.layer.push(("host.os_threads", threads as f64));
        let mut missing = Vec::new();
        for (name, unit) in PER_LAYER {
            let v = match out.layer.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) => v,
                None => {
                    missing.push(name);
                    0.0
                }
            };
            if !v.is_finite() {
                return Err(format!("{name} measured {v}: a broken measurement"));
            }
            push_metric(&mut metrics, name, v, unit);
        }
        println!("{{\"not_applicable\": {missing:?}}}");
    } else {
        out.e2e.push(("setup_s", stats::median(&mut setup_secs)));
        out.e2e.push(("peak_rss_mb", peak_rss));
        for (name, unit) in END_TO_END {
            let &(_, v) = out
                .e2e
                .iter()
                .find(|(n, _)| *n == name)
                .ok_or_else(|| format!("workload did not report {name}"))?;
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{name} measured {v}: a broken measurement"));
            }
            push_metric(&mut metrics, name, v, unit);
        }
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.ledger.attempted, out.ledger.failed
    ))
}

fn push_metric(buf: &mut String, name: &str, v: f64, unit: &str) {
    if !buf.is_empty() {
        buf.push_str(", ");
    }
    let _ = write!(buf, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
}
