//! `put_window`: a closed loop of windows of 48 outstanding PUTs, 4 per
//! ordered narval pair (the OMB window protocol), with graph replay on.
//! Sizes come from a fixed set of 1–64 MiB, so after warm-up every plan
//! is a hit and every issue a replay. Multi-path chunk flows contend
//! across pairs, so the simulator's event loop does most of the work.

use super::{
    mean_err_pct, ordered_pairs, probe_plan, Counts, Ctl, Outcome, Overhead, PlanTimes, Workload,
};
use crate::rng::{payload, Rng};
use crate::stats::{os_threads, Digest, HostMeter, Pct};
use crate::trace::Tracer;
use mpx_gpu::{Buffer, GpuRuntime};
use mpx_sim::Engine;
use mpx_topo::{presets, DeviceId};
use mpx_ucx::{UcxConfig, UcxContext};
use std::sync::Arc;
use std::time::Instant;

const MIB: usize = 1 << 20;
const SIZES: [usize; 7] = [MIB, 2 * MIB, 4 * MIB, 8 * MIB, 16 * MIB, 32 * MIB, 64 * MIB];
/// Outstanding PUTs per ordered pair in one window.
const PER_PAIR: usize = 4;
/// Every this many windows, one 1 MiB PUT at a seeded slot carries a
/// real payload that is checked byte for byte.
const PAYLOAD_EVERY: u64 = 32;
/// Windows in the deterministic prefix.
const PREFIX: u64 = 2_000;
/// Windows are long; traced and untraced ones alternate one by one.
const TRACE_BLOCK: u64 = 1;

pub struct PutWindow {
    seed: u64,
    ctx: UcxContext,
    pairs: Vec<(DeviceId, DeviceId)>,
    /// `PER_PAIR` synthetic source/destination buffers per pair.
    bufs: Vec<Vec<(Buffer, Buffer)>>,
    plans: PlanTimes,
}

impl PutWindow {
    pub fn setup(seed: u64) -> PutWindow {
        let engine = Engine::new(Arc::new(presets::narval()));
        let cfg = UcxConfig {
            graph_replay: true,
            ..UcxConfig::default()
        };
        let ctx = UcxContext::new(GpuRuntime::new(engine), cfg);
        let pairs = ordered_pairs(ctx.runtime().engine().topology());
        let rt = ctx.runtime();
        let max = SIZES[SIZES.len() - 1];
        let bufs = pairs
            .iter()
            .map(|&(a, b)| {
                (0..PER_PAIR)
                    .map(|_| (rt.alloc(a, max), rt.alloc(b, max)))
                    .collect()
            })
            .collect();
        let mut w = PutWindow {
            seed,
            ctx,
            pairs,
            bufs,
            plans: PlanTimes::default(),
        };
        w.warm();
        w
    }

    /// One full window per size: plans every (pair, size) and captures a
    /// graph for each of a pair's outstanding slots.
    fn warm(&mut self) {
        let eng = self.ctx.runtime().engine().clone();
        for (i, &n) in SIZES.iter().enumerate() {
            let mut handles = Vec::new();
            for (p, &(a, b)) in self.pairs.iter().enumerate() {
                let probe = probe_plan(&self.ctx, a, b, n);
                self.plans.file(&probe, i == 0);
                for (src, dst) in &self.bufs[p] {
                    handles.push(self.ctx.put_async(src, dst, n).expect("warm PUT"));
                }
            }
            eng.run_until_idle();
            assert!(
                handles.iter().all(|h| h.is_complete()),
                "warm window incomplete"
            );
        }
    }
}

impl Workload for PutWindow {
    fn run(self: Box<Self>, ctl: &Ctl) -> Result<Outcome, String> {
        let PutWindow {
            seed,
            ctx,
            pairs,
            bufs,
            mut plans,
        } = *self;
        let eng = ctx.runtime().engine().clone();
        let rt = ctx.runtime();
        let mut r = Rng::new(seed, 3);
        let mut out = Outcome {
            os_threads: os_threads(),
            ..Outcome::default()
        };
        let mut tracer = Tracer::new(Instant::now());
        let mut overhead = Overhead::default();
        let mut put_ns = Vec::new();
        let mut drain_ns = Vec::new();
        let (mut drain_total_ns, mut drain_events) = (0u64, 0u64);
        // Prefix record per window: size index of each PUT, makespan, ok.
        let mut prefix: Vec<(Vec<u8>, f64, bool)> = Vec::with_capacity(PREFIX as usize);
        let mut digest = Digest::default();
        let mut counts = None;
        let slots = pairs.len() * PER_PAIR;

        let start = Instant::now();
        let deadline = start + ctl.run_for;
        let mut meter = HostMeter::new(start);
        let mut win = 0u64;
        while win < PREFIX || Instant::now() < deadline {
            let sizes: Vec<u8> = (0..slots).map(|_| r.below(SIZES.len()) as u8).collect();
            let real_slot = if win.is_multiple_of(PAYLOAD_EVERY) {
                let small: Vec<usize> = (0..slots).filter(|&s| sizes[s] == 0).collect();
                (!small.is_empty()).then(|| small[r.below(small.len())])
            } else {
                None
            };
            let traced = ctl.traced(win, TRACE_BLOCK, &tracer);
            let t_win = Instant::now();
            let root = traced.then(|| tracer.open("window", win, t_win));
            let sim0 = eng.now();
            let mut handles = Vec::with_capacity(slots);
            let mut real = None;
            for (slot, &si) in sizes.iter().enumerate() {
                let p = slot / PER_PAIR;
                let (a, b) = pairs[p];
                let n = SIZES[si as usize];
                if let Some(root) = root {
                    let probe = probe_plan(&ctx, a, b, n);
                    plans.file_counted(&probe);
                    tracer.child(root, "ucx.plan_for", probe.start, probe.end);
                }
                let is_real = real_slot == Some(slot);
                let (src, dst) = if is_real {
                    let data = payload(win, n);
                    let pair = (rt.alloc_bytes(a, data.clone()), rt.alloc_zeroed(b, n));
                    real = Some((data, pair.1.clone()));
                    pair
                } else {
                    bufs[p][slot % PER_PAIR].clone()
                };
                let t0 = Instant::now();
                let h = ctx.put_async(&src, &dst, n);
                let t1 = Instant::now();
                // Call times describe the synthetic-buffer PUTs.
                if !is_real {
                    meter.call(t1 - t0);
                }
                if let Some(root) = root {
                    tracer.child(root, "ucx.put_async", t0, t1);
                    put_ns.push((t1 - t0).as_nanos() as f64);
                }
                handles.push(h);
            }
            let events0 = traced.then(|| eng.stats().events_processed);
            let t1 = Instant::now();
            eng.run_until_idle();
            let t2 = Instant::now();
            let makespan = eng.now().secs_since(sim0);

            let mut window_ok = true;
            for h in handles {
                out.ledger.attempted += 1;
                match h {
                    Ok(h) if h.is_complete() => out.ledger.completed += 1,
                    Ok(_) => {
                        out.ledger.incomplete += 1;
                        out.ledger.failed += 1;
                        window_ok = false;
                    }
                    Err(_) => {
                        out.ledger.failed += 1;
                        window_ok = false;
                    }
                }
            }
            if let Some((data, dst)) = real {
                if !out.check_payload(ctl, data, dst.to_vec().unwrap_or_default()) {
                    // The PUT completed but its bytes are wrong.
                    out.ledger.completed -= 1;
                    out.ledger.failed += 1;
                    window_ok = false;
                }
            }
            if let (Some(root), Some(events0)) = (root, events0) {
                tracer.child(root, "sim.run_until_idle", t1, t2);
                drain_ns.push((t2 - t1).as_nanos() as f64);
                drain_total_ns += (t2 - t1).as_nanos() as u64;
                drain_events += eng.stats().events_processed - events0;
                tracer.close(root, Instant::now());
            }
            let t_end = Instant::now();
            // Windows with a real payload copy bytes; they would swamp the
            // comparison.
            if real_slot.is_none() {
                overhead.add(traced, t_end - t_win);
            }
            meter.tick((win + 1) * slots as u64, t_end);
            if win < PREFIX {
                digest.word(win);
                digest.word(eng.now().as_nanos());
                for &si in &sizes {
                    digest.word(SIZES[si as usize] as u64);
                }
                prefix.push((sizes, makespan, window_ok));
            }
            win += 1;
            if win == PREFIX {
                counts = Some(Counts::read(&ctx, &plans));
            }
        }
        let loop_secs = start.elapsed().as_secs_f64();
        let puts = win * slots as u64;

        let counts = counts.expect("the loop runs at least PREFIX windows");
        out.close_ledger(&ctx, &plans, &counts, digest.value(), PREFIX, true);

        // The model's view of a window: each pair's PUTs back to back on
        // its own paths, the slowest pair setting the makespan. Cross-pair
        // contention is outside Eq. 24, so this error measures it.
        let predicted: Vec<Vec<f64>> = pairs
            .iter()
            .map(|&(a, b)| {
                SIZES
                    .iter()
                    .map(|&n| {
                        ctx.plan_for(a, b, n)
                            .expect("planned in warm-up")
                            .predicted_time
                    })
                    .collect()
            })
            .collect();
        let err = mean_err_pct(prefix.iter().map(|(sizes, makespan, _)| {
            let pred = (0..pairs.len())
                .map(|p| {
                    sizes[p * PER_PAIR..(p + 1) * PER_PAIR]
                        .iter()
                        .map(|&si| predicted[p][si as usize])
                        .sum::<f64>()
                })
                .fold(0.0, f64::max);
            (pred, *makespan)
        }));
        let mut sims: Vec<f64> = prefix.iter().map(|x| x.1 * 1e6).collect();
        let sim_secs: f64 = prefix.iter().map(|x| x.1).sum();
        let bytes: usize = prefix
            .iter()
            .flat_map(|x| x.0.iter().map(|&si| SIZES[si as usize]))
            .sum();
        let ok = prefix.iter().filter(|x| x.2).count();
        out.set_e2e(
            meter.finish(puts, loop_secs),
            "sim_window_us",
            Pct::of(&mut sims),
            bytes as f64 / sim_secs / 1e9,
            err,
            ok as f64 / prefix.len() as f64,
        );
        out.detail.push((
            "loop".into(),
            format!(
                "{{\"windows\": {win}, \"puts\": {puts}, \"host_secs\": {loop_secs}, \"closed_loop_window\": {slots}}}"
            ),
        ));

        if ctl.trace {
            let hit_p50 = Pct::of(&mut plans.hit.clone()).p50;
            counts.emit(&mut out.layer, PREFIX * slots as u64);
            plans.emit(&mut out.layer);
            out.layer.extend([
                (
                    "ucx.put.self_us",
                    (Pct::of(&mut put_ns).p50 - hit_p50) / 1e3,
                ),
                ("sim.drain_us", Pct::of(&mut drain_ns).p50 / 1e3),
                (
                    "sim.ns_per_event",
                    drain_total_ns as f64 / drain_events.max(1) as f64,
                ),
                ("obs.trace_overhead_pct", overhead.pct()),
            ]);
            super::write_trace(&tracer, "put_window", seed, &mut out);
        }
        Ok(out)
    }
}
