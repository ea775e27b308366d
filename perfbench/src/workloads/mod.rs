//! The four workloads and what they share: run control, the op-timing
//! helpers, and the per-layer counters read from the stack's public
//! stats at the end of each run's deterministic prefix.

mod broker_overload;
mod fault_storm;
mod put_small;
mod put_window;

use crate::check::Ledger;
use crate::stats::{HostSummary, Pct};
use crate::trace::Tracer;
use mpx_topo::{DeviceId, Topology};
use mpx_ucx::UcxContext;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 4] = ["put_small", "put_window", "broker_overload", "fault_storm"];

/// A set-up workload, ready for its timed run.
pub trait Workload {
    fn run(self: Box<Self>, ctl: &Ctl) -> Result<Outcome, String>;
}

pub fn setup(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "put_small" => Box::new(put_small::PutSmall::setup(seed)),
        "put_window" => Box::new(put_window::PutWindow::setup(seed)),
        "broker_overload" => Box::new(broker_overload::BrokerOverload::setup(seed)),
        "fault_storm" => Box::new(fault_storm::FaultStorm::setup(seed)),
        _ => unreachable!("workload names are checked at parse time"),
    }
}

pub struct Ctl {
    /// Host time the timed run lasts (at least; see each prefix).
    pub run_for: Duration,
    /// Spans on alternate blocks, per-layer metrics out.
    pub trace: bool,
    /// Flip one byte of the first real payload read back, to show that a
    /// corrupted result fails the run.
    pub corrupt: bool,
}

impl Ctl {
    /// Whether op `op` runs traced: odd blocks of `block` ops in a
    /// traced run, while the span buffer has room. Traced and untraced
    /// blocks alternate, so the tracing overhead is measured on the same
    /// state and mix.
    pub fn traced(&self, op: u64, block: u64, tracer: &Tracer) -> bool {
        self.trace && (op / block) % 2 == 1 && !tracer.full()
    }
}

/// What a run hands back for checking and printing.
#[derive(Default)]
pub struct Outcome {
    pub ledger: Ledger,
    /// One real-payload PUT's `(expected, got)` bytes for the checker's
    /// self-test.
    pub payload_sample: Option<(Vec<u8>, Vec<u8>)>,
    pub e2e: Vec<(&'static str, f64)>,
    pub layer: Vec<(&'static str, f64)>,
    /// Extra JSON lines: `(key, value)`.
    pub detail: Vec<(String, String)>,
    /// Most OS threads seen alive during the run.
    pub os_threads: u64,
}

impl Outcome {
    /// Compares a real-payload PUT's destination bytes with what was
    /// sent, files the result in the ledger, and keeps the first pair for
    /// the checker's self-test. Returns whether the bytes matched.
    pub fn check_payload(&mut self, ctl: &Ctl, expected: Vec<u8>, mut got: Vec<u8>) -> bool {
        if ctl.corrupt && self.ledger.payload_checked == 0 {
            if let Some(b) = got.first_mut() {
                *b ^= 0xFF;
            }
        }
        self.ledger.payload_checked += 1;
        let ok = crate::check::payload_ok(&expected, &got);
        if !ok {
            self.ledger.payload_mismatches += 1;
        }
        if self.payload_sample.is_none() {
            self.payload_sample = Some((expected, got));
        }
        ok
    }

    /// Files the prefix's sim-outcome digest, and the end-of-run recovery
    /// and breaker counters the checker judges.
    pub fn close_ledger(
        &mut self,
        ctx: &UcxContext,
        plans: &PlanTimes,
        prefix: &Counts,
        digest: u64,
        prefix_ops: u64,
        fault_free: bool,
    ) {
        let s = &prefix.sim;
        self.detail.push((
            "sim_digest".into(),
            format!(
                "{{\"value\": \"{digest:016x}\", \"prefix_ops\": {prefix_ops}, \"events_processed\": {}, \"flows_completed\": {}}}",
                s.events_processed, s.flows_completed
            ),
        ));
        let end = Counts::read(ctx, plans);
        self.ledger.recovery = end.recovery();
        self.ledger.breakers = end.breakers();
        self.ledger.fault_free = fault_free;
    }

    /// Sets the end-to-end metrics a workload measures (`setup_s` and
    /// `peak_rss_mb` are added by the caller) and prints the host and
    /// simulated percentiles with their sample counts; `sim_key` names
    /// what the simulated percentiles are of.
    pub fn set_e2e(
        &mut self,
        host: HostSummary,
        sim_key: &str,
        sim: Pct,
        sim_gbps: f64,
        model_err_pct: f64,
        ok_frac: f64,
    ) {
        self.detail.push(("host_timing".into(), host.json));
        self.detail.push((sim_key.into(), sim.json("us")));
        self.e2e = vec![
            ("ops_per_s", host.ops_per_s),
            ("call_p50_us", host.call_p50_us),
            ("call_p99_us", host.call_p99_us),
            ("sim_p50_us", sim.p50),
            ("sim_p99_us", sim.p99),
            ("sim_gbps", sim_gbps),
            ("model_err_pct", model_err_pct),
            ("ok_frac", ok_frac),
        ];
    }
}

/// Every ordered pair of distinct GPUs.
pub fn ordered_pairs(topo: &Topology) -> Vec<(DeviceId, DeviceId)> {
    let gpus = topo.gpus();
    let mut out = Vec::new();
    for &a in &gpus {
        for &b in &gpus {
            if a != b {
                out.push((a, b));
            }
        }
    }
    out
}

/// Host time per op split by whether the op ran traced, for
/// `obs.trace_overhead_pct`.
#[derive(Default)]
pub struct Overhead {
    ns: [u64; 2],
    ops: [u64; 2],
}

impl Overhead {
    pub fn add(&mut self, traced: bool, dur: Duration) {
        self.ns[usize::from(traced)] += dur.as_nanos() as u64;
        self.ops[usize::from(traced)] += 1;
    }

    /// Traced over untraced host time per op, minus one, in percent.
    pub fn pct(&self) -> f64 {
        let per = |i: usize| self.ns[i] as f64 / self.ops[i].max(1) as f64;
        (per(1) / per(0) - 1.0) * 100.0
    }
}

/// A `plan_for` call timed from outside and classified by the change in
/// `cache_stats` it caused.
pub struct PlanProbe {
    pub start: Instant,
    pub end: Instant,
    pub hit: bool,
}

pub fn probe_plan(ctx: &UcxContext, src: DeviceId, dst: DeviceId, n: usize) -> PlanProbe {
    let before = ctx.cache_stats().misses;
    let start = Instant::now();
    ctx.plan_for(src, dst, n)
        .expect("benchmark pairs are connected");
    let end = Instant::now();
    let hit = ctx.cache_stats().misses == before;
    PlanProbe { start, end, hit }
}

/// Host timings of `plan_for` calls made from outside, in ns: a pair's
/// first plan (path enumeration, probe, solve), other misses, and hits.
#[derive(Default)]
pub struct PlanTimes {
    pub first_touch: Vec<f64>,
    pub miss: Vec<f64>,
    pub hit: Vec<f64>,
    /// Probe calls the benchmark itself made during the timed run, which
    /// the cache counters must not credit to the workload.
    probes: (u64, u64),
}

impl PlanTimes {
    /// Files a set-up probe.
    pub fn file(&mut self, p: &PlanProbe, first_touch: bool) {
        let ns = (p.end - p.start).as_nanos() as f64;
        match (first_touch, p.hit) {
            (true, _) => self.first_touch.push(ns),
            (false, false) => self.miss.push(ns),
            (false, true) => self.hit.push(ns),
        }
    }

    /// Files a probe made during the timed run and counts it.
    pub fn file_counted(&mut self, p: &PlanProbe) {
        if p.hit {
            self.probes.0 += 1;
        } else {
            self.probes.1 += 1;
        }
        self.file(p, false);
    }

    pub fn emit(&mut self, layer: &mut Vec<(&'static str, f64)>) {
        for (name, xs, scale) in [
            ("ucx.plan_for.hit_ns", &mut self.hit, 1.0),
            ("ucx.plan_for.miss_us", &mut self.miss, 1e-3),
            ("ucx.plan_for.first_touch_us", &mut self.first_touch, 1e-3),
        ] {
            if !xs.is_empty() {
                layer.push((name, Pct::of(xs).p50 * scale));
            }
        }
    }
}

/// Writes a traced run's spans to `perfbench/out/` and names the file in
/// the output.
pub fn write_trace(tracer: &Tracer, workload: &str, seed: u64, out: &mut Outcome) {
    let path = std::path::PathBuf::from(format!("perfbench/out/spans-{workload}-{seed}.tsv"));
    let written = match tracer.write_tsv(&path) {
        Ok(()) => format!("\"{}\"", path.display()),
        Err(e) => format!("\"not written: {e}\""),
    };
    let mut self_us = Vec::new();
    for name in tracer.names() {
        let p = Pct::of(&mut tracer.self_times(name));
        self_us.push(format!("\"{name}\": {}", p.json("ns")));
    }
    out.detail.push(("spans".into(), written));
    out.detail.push((
        "span_self_time".into(),
        format!("{{{}}}", self_us.join(", ")),
    ));
}

/// Counters from the stack's public stats, read at the end of a run's
/// deterministic prefix so they repeat exactly for a seed.
pub struct Counts {
    cache: mpx_ucx::CacheStats,
    graph: mpx_ucx::GraphStats,
    sim: mpx_sim::StatsSnapshot,
    recovery: mpx_ucx::ResilienceStats,
    health: mpx_ucx::HealthStats,
    residual_obs: u64,
    /// The benchmark's own `plan_for` probes so far: `(hits, misses)`.
    probes: (u64, u64),
}

impl Counts {
    pub fn read(ctx: &UcxContext, plans: &PlanTimes) -> Counts {
        Counts {
            cache: ctx.cache_stats(),
            graph: ctx.graph_stats(),
            sim: ctx.runtime().engine().stats(),
            recovery: ctx.resilience_stats(),
            health: ctx.health_stats(),
            residual_obs: ctx.residual_report().rows.iter().map(|r| r.count).sum(),
            probes: plans.probes,
        }
    }

    /// Recovery activity in the ledger's order.
    pub fn recovery(&self) -> [u64; 5] {
        [
            self.recovery.retries,
            self.recovery.replans,
            self.recovery.timeouts,
            self.health.trips,
            self.health.hedges,
        ]
    }

    pub fn breakers(&self) -> (u64, u64, u64) {
        (
            self.health.trips,
            self.health.resets,
            self.health.breakers_open,
        )
    }

    /// Emits the count metrics; `puts` is the PUTs completed in the prefix.
    pub fn emit(&self, layer: &mut Vec<(&'static str, f64)>, puts: u64) {
        let hits = (self.cache.hits - self.probes.0) as f64;
        let misses = (self.cache.misses - self.probes.1) as f64;
        let s = &self.sim;
        let g = &self.graph;
        layer.extend([
            ("ucx.plan.hit_ratio", hits / (hits + misses).max(1.0)),
            ("ucx.plan.misses", misses),
            ("gpu.graph.captures", g.captures as f64),
            (
                "gpu.graph.replay_ratio",
                g.replays as f64 / (g.replays + g.fallbacks).max(1) as f64,
            ),
            ("sim.events_processed", s.events_processed as f64),
            ("sim.events_scheduled", s.events_scheduled as f64),
            (
                "sim.stale_ratio",
                s.events_scheduled as f64 / s.events_processed.max(1) as f64,
            ),
            ("sim.flows_completed", s.flows_completed as f64),
            ("sim.faults_fired", s.faults_fired as f64),
            ("sim.flows_stalled", s.flows_stalled as f64),
            ("ucx.recover.retries", self.recovery.retries as f64),
            ("ucx.recover.replans", self.recovery.replans as f64),
            ("ucx.recover.timeouts", self.recovery.timeouts as f64),
            ("ucx.health.trips", self.health.trips as f64),
            ("ucx.health.hedges", self.health.hedges as f64),
            ("ucx.health.hedge_wins", self.health.hedge_wins as f64),
            (
                "obs.residual_coverage",
                self.residual_obs as f64 / puts.max(1) as f64,
            ),
        ]);
    }
}

/// Mean of `|predicted − simulated| / simulated` in percent.
pub fn mean_err_pct(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for (pred, sim) in pairs {
        sum += (pred - sim).abs() / sim;
        n += 1;
    }
    sum / n.max(1) as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_flag_fails_the_first_payload_check() {
        let ctl = |corrupt| Ctl {
            run_for: Duration::ZERO,
            trace: false,
            corrupt,
        };
        let mut out = Outcome::default();
        assert!(out.check_payload(&ctl(false), vec![1, 2], vec![1, 2]));
        assert!(
            crate::check::violations(&out.ledger).len() == 1,
            "no op attempted"
        );
        let mut out = Outcome::default();
        assert!(!out.check_payload(&ctl(true), vec![1, 2], vec![1, 2]));
        assert!(out.check_payload(&ctl(true), vec![3], vec![3]));
        assert_eq!(
            (out.ledger.payload_checked, out.ledger.payload_mismatches),
            (2, 1)
        );
    }
}
