//! Engine throughput tracker: events/sec for batches of contending flows
//! on the paper's three machine presets, plus serial-vs-parallel cells
//! for the component-partitioned scenario runner on cluster-scale
//! workloads (25k/100k flows over 32 disconnected nodes). Writes
//! `results/BENCH_sim.json` so the simulator's perf trajectory is
//! visible PR over PR.
//!
//! Usage:
//!   bench_sim                 # measure, write BENCH_sim.json
//!   bench_sim --quick         # CI gate: no artifact write; asserts the
//!                             # parallel engine at 8 workers beats the
//!                             # serial engine on the 100k-flow cell and
//!                             # that a smoke scenario is bit-identical
//!   MPX_BENCH_SAVE_BASELINE=1 bench_sim
//!                             # additionally snapshot the numbers as
//!                             # BENCH_sim_baseline.json ("before")
//!
//! If `results/BENCH_sim_baseline.json` exists, its runs are embedded in
//! BENCH_sim.json under `"before"` with per-cell speedups, so a single
//! artifact records the before/after comparison.

use mpx_obs::FlightRecorder;
use mpx_sim::{equivalence_diff, Engine, FaultPlan, FlowSpec, JitterModel, OnComplete, Scenario};
use mpx_topo::presets;
use mpx_topo::{LinkId, Topology};
use serde_json::{json, Value};
use std::sync::Arc;
use std::time::Instant;

const FLOW_COUNTS: [usize; 3] = [8, 64, 512];
const REPEATS: usize = 3;
/// Engines run back to back per timed sample of the flight-recorder
/// cell, so a sample lasts ~10 ms — the scale its best-of-N estimate
/// was sized for. One 512-flow engine takes ~2 ms (2-vCPU VM), and a
/// shared host's speed can shift by tens of percent within a few ms.
const RECORDER_BATCHES: usize = 5;

/// Cluster shape for the parallel cells: 32 disconnected 4-GPU nodes.
const CLUSTER_NODES: usize = 32;
/// Links per 4-GPU node (6 GPU pairs × 2 + 4 PCIe × 2 + 1 DRAM).
const NODE_LINKS: usize = 21;
/// Flow counts for the serial-vs-parallel cells.
const PARALLEL_FLOW_COUNTS: [usize; 2] = [25_000, 100_000];
/// Worker counts swept in the parallel cells.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    if std::env::args().any(|a| a == "--quick") {
        quick_gate();
        return;
    }

    let machines: Vec<(&str, Arc<Topology>)> = vec![
        ("beluga", Arc::new(presets::beluga())),
        ("narval", Arc::new(presets::narval())),
        ("dgx1", Arc::new(presets::dgx1())),
    ];

    println!(
        "{:>8} {:>8} {:>12} {:>12} {:>14}",
        "preset", "flows", "events", "ms", "events/s"
    );
    let mut runs: Vec<Value> = Vec::new();
    for (name, topo) in &machines {
        for &flows in &FLOW_COUNTS {
            let (events, secs) = measure(topo, flows, false, REPEATS, 1);
            let rate = events as f64 / secs;
            println!(
                "{name:>8} {flows:>8} {events:>12} {:>12.2} {rate:>14.0}",
                secs * 1e3
            );
            runs.push(json!({
                "preset": *name,
                "flows": flows,
                "events": events,
                "seconds": secs,
                "events_per_sec": rate
            }));
        }
    }

    let parallel_runs = measure_parallel_cells();
    let flight_cell = flight_recorder_overhead_cell(REPEATS);

    let baseline = read_baseline();
    let report = match &baseline {
        Some(before) => {
            print_speedups(before, &runs);
            json!({
                "flow_counts": FLOW_COUNTS.to_vec(),
                "before": before.clone(),
                "after": runs,
                "parallel": parallel_runs,
                "flight_recorder": flight_cell
            })
        }
        None => json!({
            "flow_counts": FLOW_COUNTS.to_vec(),
            "after": runs,
            "parallel": parallel_runs,
            "flight_recorder": flight_cell
        }),
    };
    mpx_bench::emit_json("BENCH_sim", &report);

    if std::env::var("MPX_BENCH_SAVE_BASELINE").is_ok_and(|v| v == "1") {
        let after = &report["after"];
        mpx_bench::emit_json("BENCH_sim_baseline", after);
    }
}

/// Times `batches` engines of `flows` contending flows each, run back to
/// back, optionally with an always-on flight-recorder ring installed on
/// every engine; returns (events processed per engine, best-of-`reps`
/// wall seconds for the whole sample).
fn measure(
    topo: &Arc<Topology>,
    flows: usize,
    flight: bool,
    reps: usize,
    batches: usize,
) -> (u64, f64) {
    // Spread flows round-robin over every directly linked GPU pair so
    // the fairness core sees real contention, and stagger sizes so each
    // completion triggers a recompute while many flows are still live.
    let gpus = topo.gpus();
    let mut pairs = Vec::new();
    for (i, &a) in gpus.iter().enumerate() {
        for &b in &gpus[i + 1..] {
            if let Ok(l) = topo.link_between(a, b) {
                pairs.push(l.id);
            }
        }
    }
    assert!(!pairs.is_empty(), "preset has no linked GPU pair");

    let mut best = f64::INFINITY;
    let mut events = 0;
    for rep in 0..=reps {
        let engines: Vec<Engine> = (0..batches)
            .map(|_| {
                let eng = Engine::new(topo.clone());
                if flight {
                    eng.set_recorder(FlightRecorder::default().recorder());
                }
                for i in 0..flows {
                    let link = pairs[i % pairs.len()];
                    let bytes = (1 << 20) + 4096 * i;
                    eng.start_flow(FlowSpec::new(vec![link], bytes), OnComplete::Nothing);
                }
                eng
            })
            .collect();
        let start = Instant::now();
        for eng in &engines {
            eng.run_until_idle();
        }
        let secs = start.elapsed().as_secs_f64();
        events = engines[0].stats().events_processed;
        // First pass is warm-up.
        if rep > 0 && secs < best {
            best = secs;
        }
    }
    (events, best)
}

/// The multi-component scale workload the partitioned runner targets:
/// `flows` transfers spread over a `CLUSTER_NODES`-node cluster, issued
/// in 16-flow waves per node over that node's 12 GPU-pair links (so
/// waves contend pairwise), sizes staggered so completions cascade
/// reschedules. Every node is an isolated component, so partition count
/// equals node count and the serial engine is the only thing serializing
/// them.
fn cluster_scenario(topo: &Arc<Topology>, flows: usize, trace: bool) -> Scenario {
    let mut sc = Scenario::new(topo.clone())
        .with_trace(trace)
        .with_jitter(JitterModel {
            seed: 0x5eed,
            spread: 0.1,
        });
    let per_node = flows / CLUSTER_NODES;
    for node in 0..CLUSTER_NODES {
        for k in 0..per_node {
            // Blocks of 64 flows share one GPU-pair link (offsets 0..12)
            // so every completion recomputes a ~64-flow component and
            // reschedules its peers; waves land all 12 links at once.
            let off = (k / 64 + node) % 12;
            let wave = k / (12 * 64);
            let at = wave as f64 * 400e-6;
            let bytes = (256 << 10) + 4096 * (k % 64) + node;
            let route = vec![LinkId((node * NODE_LINKS + off) as u32)];
            sc = sc.flow_at(at, FlowSpec::new(route, bytes));
        }
    }
    sc
}

/// Serial-vs-parallel cells over the cluster workload. Each cell times
/// the *whole* scenario execution — partitioning, scheduling, event
/// processing, merge — so the comparison charges the parallel path its
/// full overhead.
fn measure_parallel_cells() -> Vec<Value> {
    let topo = Arc::new(presets::cluster(CLUSTER_NODES, 4));
    let mut out = Vec::new();
    println!(
        "\n{:>12} {:>8} {:>8} {:>12} {:>12} {:>14} {:>9}",
        "scenario", "flows", "workers", "events", "ms", "events/s", "speedup"
    );
    for &flows in &PARALLEL_FLOW_COUNTS {
        let sc = cluster_scenario(&topo, flows, false);
        let (serial_events, serial_secs) = best_of(1, || {
            let start = Instant::now();
            let rep = sc.run_serial();
            (rep.stats.events_processed, start.elapsed().as_secs_f64())
        });
        let serial_rate = serial_events as f64 / serial_secs;
        println!(
            "{:>12} {flows:>8} {:>8} {serial_events:>12} {:>12.2} {serial_rate:>14.0} {:>9}",
            "cluster32x4",
            "serial",
            serial_secs * 1e3,
            "1.00x"
        );
        out.push(json!({
            "scenario": "cluster32x4",
            "flows": flows,
            "mode": "serial",
            "events": serial_events,
            "seconds": serial_secs,
            "events_per_sec": serial_rate
        }));
        for &workers in &WORKER_COUNTS {
            let (events, secs) = best_of(1, || {
                let start = Instant::now();
                let rep = sc.run_parallel(workers);
                (rep.stats.events_processed, start.elapsed().as_secs_f64())
            });
            assert_eq!(events, serial_events, "event counts diverged");
            let rate = events as f64 / secs;
            let speedup = rate / serial_rate;
            println!(
                "{:>12} {flows:>8} {workers:>8} {events:>12} {:>12.2} {rate:>14.0} {speedup:>8.2}x",
                "cluster32x4",
                secs * 1e3
            );
            out.push(json!({
                "scenario": "cluster32x4",
                "flows": flows,
                "mode": "parallel",
                "workers": workers,
                "events": events,
                "seconds": secs,
                "events_per_sec": rate,
                "speedup_vs_serial": speedup
            }));
        }
    }
    out
}

/// Recorder-on vs recorder-off on the heaviest single-engine cell: the
/// always-on flight recorder must be cheap enough to leave installed.
/// Returns the committed overhead cell; the quick gate bounds it at 5%.
fn flight_recorder_overhead_cell(reps: usize) -> Value {
    let topo = Arc::new(presets::beluga());
    let flows = *FLOW_COUNTS.last().expect("flow counts");
    // Interleave the arms rep by rep so a slow scheduling window hits
    // both equally, and take each arm's best: the off/on gap then
    // reflects recording cost, not which arm drew the noisy window.
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    let mut events = 0;
    for _ in 0..reps.max(1) {
        let (_, o) = measure(&topo, flows, false, 1, RECORDER_BATCHES);
        off = off.min(o);
        let (e, r) = measure(&topo, flows, true, 1, RECORDER_BATCHES);
        on = on.min(r);
        events = e;
    }
    let pct = (on - off) / off * 100.0;
    println!(
        "\nflight recorder overhead (beluga, {RECORDER_BATCHES} x {flows} flows): off {:.2} ms, on {:.2} ms ({pct:+.2}%)",
        off * 1e3,
        on * 1e3
    );
    json!({
        "preset": "beluga",
        "flows": flows,
        "engines": RECORDER_BATCHES,
        "events": events,
        "recorder_off_secs": off,
        "recorder_on_secs": on,
        "overhead_pct": pct
    })
}

fn best_of<F: FnMut() -> (u64, f64)>(reps: usize, mut f: F) -> (u64, f64) {
    let mut best = f64::INFINITY;
    let mut events = 0;
    for rep in 0..=reps {
        let (e, secs) = f();
        events = e;
        if rep > 0 && secs < best {
            best = secs;
        }
    }
    (events, best)
}

/// CI gate (`--quick`): never writes artifacts. Asserts
///  1. a small cluster scenario with a fault storm is bit-identical
///     between serial and parallel execution, and
///  2. the parallel engine at 8 workers processes events at least as
///     fast as the serial engine on the 100k-flow cell.
fn quick_gate() {
    let topo = Arc::new(presets::cluster(CLUSTER_NODES, 4));

    // Equivalence smoke, faults included.
    let smoke = cluster_scenario(&topo, 2_000, true).with_faults(FaultPlan::random_soak(
        &topo,
        7,
        0.01,
        16,
        &[],
    ));
    let serial = smoke.run_serial();
    let par = smoke.run_parallel(8);
    if let Some(diff) = equivalence_diff(&serial, &par) {
        eprintln!("FAIL: parallel output diverged from serial: {diff}");
        std::process::exit(1);
    }
    println!(
        "equivalence smoke: {} flows, {} partitions, bit-identical",
        serial.stats.flows_completed, serial.stats.partitions
    );

    // Throughput gate on the 100k cell. Single cold runs: the expected
    // gap (see results/BENCH_sim.json) is far larger than warmup noise.
    let sc = cluster_scenario(&topo, 100_000, false);
    let start = Instant::now();
    let events = sc.run_serial().stats.events_processed;
    let serial_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let pevents = sc.run_parallel(8).stats.events_processed;
    let par_secs = start.elapsed().as_secs_f64();
    assert_eq!(events, pevents, "event counts diverged");
    let serial_rate = events as f64 / serial_secs;
    let par_rate = pevents as f64 / par_secs;
    println!(
        "100k-flow cell: serial {serial_rate:.0} ev/s, parallel@8 {par_rate:.0} ev/s ({:.2}x)",
        par_rate / serial_rate
    );
    if par_rate < serial_rate {
        eprintln!("FAIL: parallel engine slower than serial at 8 workers");
        std::process::exit(1);
    }

    // Always-on gate: ring-recording the heaviest single-engine cell
    // must cost at most 5% wall time vs no recorder. Best-of-5 per arm
    // absorbs scheduler noise on a ~12 ms workload.
    let cell = flight_recorder_overhead_cell(5);
    let pct = cell["overhead_pct"].as_f64().expect("overhead pct");
    if pct > 5.0 {
        eprintln!("FAIL: flight recorder costs {pct:.2}% (> 5%) on the beluga/512 cell");
        std::process::exit(1);
    }
    println!("bench_sim --quick: PASS");
}

fn read_baseline() -> Option<Vec<Value>> {
    let path = mpx_bench::results_dir().join("BENCH_sim_baseline.json");
    let text = std::fs::read_to_string(path).ok()?;
    let v: Value = serde_json::from_str(&text).ok()?;
    v.as_array().cloned()
}

fn print_speedups(before: &[Value], after: &[Value]) {
    println!("\n{:>8} {:>8} {:>10}", "preset", "flows", "speedup");
    for b in before {
        let matching = after
            .iter()
            .find(|a| a["preset"] == b["preset"] && a["flows"].as_u64() == b["flows"].as_u64());
        if let (Some(a), Some(rb), Some(ra)) = (
            matching,
            b["events_per_sec"].as_f64(),
            matching.and_then(|a| a["events_per_sec"].as_f64()),
        ) {
            let _ = a;
            println!(
                "{:>8} {:>8} {:>9.2}x",
                b["preset"].as_str().unwrap_or("?"),
                b["flows"].as_u64().unwrap_or(0),
                ra / rb
            );
        }
    }
}
