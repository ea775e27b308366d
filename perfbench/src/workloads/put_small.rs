//! `put_small`: a closed loop, one caller, window 1, over all 12 ordered
//! narval pairs with the default `UcxConfig` (Dynamic + Probed,
//! interpreted pipeline). Sizes span 4 KiB–1 MiB: 95% from a hot set of
//! 16 sizes, 5% fresh sizes never planned before. Planning is the
//! largest share of a PUT here, so this workload sees the plan cache's
//! hit path (hot set) and the Eq. 24 solve (cold tail).

use super::{
    mean_err_pct, ordered_pairs, probe_plan, Counts, Ctl, Outcome, Overhead, PlanTimes, Workload,
};
use crate::rng::{align4, payload, Rng};
use crate::stats::{os_threads, Digest, HostMeter, Pct};
use crate::trace::Tracer;
use mpx_gpu::{Buffer, GpuRuntime};
use mpx_sim::Engine;
use mpx_topo::{presets, DeviceId};
use mpx_ucx::{UcxConfig, UcxContext};
use std::sync::Arc;
use std::time::Instant;

const MIN: usize = 4 << 10;
const MAX: usize = 1 << 20;
const HOT: usize = 16;
/// Share of ops drawn from the cold tail.
const COLD_SHARE: f64 = 0.05;
/// One op in this many carries a real payload that is checked byte for
/// byte; the rest use synthetic buffers so memcpy stays off the profile.
const PAYLOAD_EVERY: usize = 8192;
/// Ops in the deterministic prefix the sim metrics, digest and counts
/// are taken over.
const PREFIX: u64 = 1_000_000;
/// Traced and untraced blocks of this many ops alternate.
const TRACE_BLOCK: u64 = 256;

pub struct PutSmall {
    seed: u64,
    ctx: UcxContext,
    pairs: Vec<(DeviceId, DeviceId)>,
    bufs: Vec<(Buffer, Buffer)>,
    hot: Vec<usize>,
    plans: PlanTimes,
}

impl PutSmall {
    pub fn setup(seed: u64) -> PutSmall {
        let engine = Engine::new(Arc::new(presets::narval()));
        let ctx = UcxContext::new(GpuRuntime::new(engine), UcxConfig::default());
        let pairs = ordered_pairs(ctx.runtime().engine().topology());
        let rt = ctx.runtime();
        let bufs = pairs
            .iter()
            .map(|&(a, b)| (rt.alloc(a, MAX), rt.alloc(b, MAX)))
            .collect();
        // Hot sizes sit at 16 log-spaced anchors, each moved up to ±1% by
        // the seed: the mix, and so the work per PUT, has the same shape
        // for every seed.
        let mut r = Rng::new(seed, 1);
        let hot = (0..HOT)
            .map(|i| {
                let anchor =
                    MIN as f64 * (MAX as f64 / MIN as f64).powf(i as f64 / (HOT - 1) as f64);
                align4(anchor * (0.99 + 0.02 * r.unit())).clamp(MIN, MAX)
            })
            .collect();
        let mut w = PutSmall {
            seed,
            ctx,
            pairs,
            bufs,
            hot,
            plans: PlanTimes::default(),
        };
        w.warm();
        w
    }

    /// Plans and runs every (pair, hot size) once: first touches probe
    /// the pair, the rest solve, and the PUT warms everything downstream.
    fn warm(&mut self) {
        let eng = self.ctx.runtime().engine().clone();
        for (p, &(a, b)) in self.pairs.iter().enumerate() {
            for (i, &n) in self.hot.iter().enumerate() {
                let probe = probe_plan(&self.ctx, a, b, n);
                self.plans.file(&probe, i == 0);
                let (src, dst) = &self.bufs[p];
                let h = self.ctx.put_async(src, dst, n).expect("warm PUT");
                eng.run_until_idle();
                assert!(h.is_complete(), "warm PUT did not complete");
            }
        }
    }
}

/// Which 4-byte-aligned sizes in `[MIN, MAX]` each pair has used, in a
/// fixed-size bitmap, so a cold size is always one never planned before.
struct FreshSizes {
    used: Vec<u64>,
    slots: usize,
}

impl FreshSizes {
    fn new(pairs: usize, hot: &[usize]) -> FreshSizes {
        let slots = (MAX - MIN) / 4 + 1;
        let mut f = FreshSizes {
            used: vec![0; (pairs * slots).div_ceil(64)],
            slots,
        };
        for p in 0..pairs {
            for &n in hot {
                f.take(p, n);
            }
        }
        f
    }

    /// Marks and returns the first unused size at or above `n` for pair
    /// `p`, wrapping to `MIN`.
    fn take(&mut self, p: usize, n: usize) -> usize {
        let mut slot = (n.clamp(MIN, MAX) - MIN) / 4;
        for _ in 0..self.slots {
            let bit = p * self.slots + slot;
            let (word, mask) = (bit / 64, 1u64 << (bit % 64));
            if self.used[word] & mask == 0 {
                self.used[word] |= mask;
                return MIN + 4 * slot;
            }
            slot = (slot + 1) % self.slots;
        }
        panic!("every size of pair {p} used");
    }
}

impl Workload for PutSmall {
    fn run(self: Box<Self>, ctl: &Ctl) -> Result<Outcome, String> {
        let PutSmall {
            seed,
            ctx,
            pairs,
            bufs,
            hot,
            mut plans,
        } = *self;
        let eng = ctx.runtime().engine().clone();
        let rt = ctx.runtime();
        let mut r = Rng::new(seed, 2);
        let mut sizes = FreshSizes::new(pairs.len(), &hot);
        let mut out = Outcome {
            os_threads: os_threads(),
            ..Outcome::default()
        };
        let mut tracer = Tracer::new(Instant::now());
        let mut overhead = Overhead::default();
        let mut drain_ns = Vec::new();
        let (mut drain_total_ns, mut drain_events) = (0u64, 0u64);
        let mut put_ns = Vec::new();
        // Prefix record: (pair, bytes, simulated seconds, ok).
        let mut prefix: Vec<(usize, usize, f64, bool)> = Vec::with_capacity(PREFIX as usize);
        let mut digest = Digest::default();
        let mut counts = None;

        let start = Instant::now();
        let deadline = start + ctl.run_for;
        let mut meter = HostMeter::new(start);
        let mut op = 0u64;
        while op < PREFIX || Instant::now() < deadline {
            let p = r.below(pairs.len());
            let (a, b) = pairs[p];
            let n = if r.unit() < COLD_SHARE {
                sizes.take(p, align4(r.log_uniform(MIN as f64, MAX as f64)))
            } else {
                hot[r.below(HOT)]
            };
            let real = r.below(PAYLOAD_EVERY) == 0;
            let traced = ctl.traced(op, TRACE_BLOCK, &tracer);
            let t_op = Instant::now();
            let root = traced.then(|| tracer.open("op", op, t_op));
            if let Some(root) = root {
                let probe = probe_plan(&ctx, a, b, n);
                plans.file_counted(&probe);
                tracer.child(root, "ucx.plan_for", probe.start, probe.end);
            }
            let expected = real.then(|| payload(op, n));
            let real_bufs;
            let (src, dst) = match &expected {
                Some(data) => {
                    real_bufs = (rt.alloc_bytes(a, data.clone()), rt.alloc_zeroed(b, n));
                    (&real_bufs.0, &real_bufs.1)
                }
                None => (&bufs[p].0, &bufs[p].1),
            };
            let sim0 = eng.now();
            let t0 = Instant::now();
            let h = ctx.put_async(src, dst, n);
            let t1 = Instant::now();
            let events0 = traced.then(|| eng.stats().events_processed);
            eng.run_until_idle();
            let t2 = Instant::now();
            let sim = eng.now().secs_since(sim0);
            // Call times describe the synthetic-buffer ops.
            if !real {
                meter.call(t1 - t0);
            }

            out.ledger.attempted += 1;
            let mut ok = match h {
                Ok(h) if h.is_complete() => true,
                Ok(_) => {
                    out.ledger.incomplete += 1;
                    false
                }
                Err(_) => false,
            };
            if let Some(data) = expected {
                ok &= out.check_payload(ctl, data, dst.to_vec().unwrap_or_default());
            }
            if ok {
                out.ledger.completed += 1;
            } else {
                out.ledger.failed += 1;
            }
            if let (Some(root), Some(events0)) = (root, events0) {
                tracer.child(root, "ucx.put_async", t0, t1);
                tracer.child(root, "sim.run_until_idle", t1, t2);
                put_ns.push((t1 - t0).as_nanos() as f64);
                drain_ns.push((t2 - t1).as_nanos() as f64);
                drain_total_ns += (t2 - t1).as_nanos() as u64;
                drain_events += eng.stats().events_processed - events0;
                tracer.close(root, Instant::now());
            }
            let t_end = Instant::now();
            // Real-payload ops copy bytes; they would swamp the comparison.
            if !real {
                overhead.add(traced, t_end - t_op);
            }
            meter.tick(op + 1, t_end);
            if op < PREFIX {
                prefix.push((p, n, sim, ok));
                digest.word(op);
                digest.word(eng.now().as_nanos());
                digest.word(n as u64);
            }
            op += 1;
            if op == PREFIX {
                counts = Some(Counts::read(&ctx, &plans));
            }
        }
        let loop_secs = start.elapsed().as_secs_f64();

        let counts = counts.expect("the loop runs at least PREFIX ops");
        out.close_ledger(&ctx, &plans, &counts, digest.value(), PREFIX, true);

        // Model accuracy: Eq. 24 predictions from plan-cache hits, taken
        // off the clock after the timed loop.
        let err = mean_err_pct(prefix.iter().map(|&(p, n, sim, _)| {
            let (a, b) = pairs[p];
            let plan = ctx.plan_for(a, b, n).expect("planned during the run");
            (plan.predicted_time, sim)
        }));
        let mut sims: Vec<f64> = prefix.iter().map(|x| x.2 * 1e6).collect();
        let sim_secs: f64 = prefix.iter().map(|x| x.2).sum();
        let bytes: usize = prefix.iter().map(|x| x.1).sum();
        let ok = prefix.iter().filter(|x| x.3).count();
        out.set_e2e(
            meter.finish(op, loop_secs),
            "sim_us",
            Pct::of(&mut sims),
            bytes as f64 / sim_secs / 1e9,
            err,
            ok as f64 / prefix.len() as f64,
        );
        out.detail.push((
            "loop".into(),
            format!("{{\"ops\": {op}, \"host_secs\": {loop_secs}, \"closed_loop_window\": 1}}"),
        ));

        if ctl.trace {
            let hit_p50 = Pct::of(&mut plans.hit.clone()).p50;
            counts.emit(&mut out.layer, PREFIX);
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
            super::write_trace(&tracer, "put_small", seed, &mut out);
        }
        Ok(out)
    }
}
