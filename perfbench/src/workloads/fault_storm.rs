//! `fault_storm`: a closed loop on one sim thread alternating
//! `put_resilient` and `put_hedged` over three beluga pairs, sizes
//! 4–64 MiB, under seeded `FaultPlan::random_soak` storms. The storm is
//! laid down in epochs of `EPOCH` virtual seconds for as long as the run
//! lasts: each epoch starts from a healed fabric and draws its own soak
//! (the driven pairs' direct links protected), so faults keep coming at
//! the same density however long the timed run is. Recovery loops,
//! breakers and hedging run only here.

use super::{mean_err_pct, probe_plan, Counts, Ctl, Outcome, Overhead, PlanTimes, Workload};
use crate::rng::{align4, payload, Rng};
use crate::stats::{os_threads, Digest, HostMeter, Pct};
use crate::trace::Tracer;
use mpx_gpu::{Buffer, GpuRuntime};
use mpx_sim::{Engine, FaultInjector, FaultPlan, SimThread, SimTime};
use mpx_topo::{presets, DeviceId, LinkId};
use mpx_ucx::{HedgeConfig, RecoveryConfig, UcxConfig, UcxContext};
use std::sync::Arc;
use std::time::Instant;

const MIB: f64 = (1 << 20) as f64;
const MIN_BYTES: f64 = 4.0 * MIB;
const MAX_BYTES: f64 = 64.0 * MIB;
/// Virtual seconds per storm epoch, and the faults drawn for each.
const EPOCH: f64 = 0.02;
const FAULTS_PER_EPOCH: usize = 8;
/// Every this many ops, one carries a real payload of `PAYLOAD_BYTES`
/// (the smallest size), checked byte for byte.
const PAYLOAD_EVERY: u64 = 1024;
const PAYLOAD_BYTES: usize = 4 << 20;
/// Ops in the deterministic prefix.
const PREFIX: u64 = 60_000;
/// PUTs are long; traced and untraced pairs of ops (one resilient, one
/// hedged) alternate.
const TRACE_BLOCK: u64 = 2;

pub struct FaultStorm {
    seed: u64,
    ctx: UcxContext,
    pairs: Vec<(DeviceId, DeviceId)>,
    bufs: Vec<(Buffer, Buffer)>,
    protect: Vec<LinkId>,
    plans: PlanTimes,
}

impl FaultStorm {
    pub fn setup(seed: u64) -> FaultStorm {
        let engine = Engine::new(Arc::new(presets::beluga()));
        let ctx = UcxContext::new(GpuRuntime::new(engine), UcxConfig::default());
        let eng = ctx.runtime().engine().clone();
        let topo = eng.topology().clone();
        let g = topo.gpus();
        let pairs = vec![(g[0], g[1]), (g[2], g[3]), (g[1], g[3])];
        let protect = pairs
            .iter()
            .map(|&(a, b)| topo.link_between(a, b).expect("direct link").id)
            .collect();
        let rt = ctx.runtime();
        let max = MAX_BYTES as usize;
        let bufs: Vec<(Buffer, Buffer)> = pairs
            .iter()
            .map(|&(a, b)| (rt.alloc(a, max), rt.alloc(b, max)))
            .collect();
        // Warm each pair on the quiet fabric: first touch, then one PUT.
        let mut plans = PlanTimes::default();
        for (p, &(a, b)) in pairs.iter().enumerate() {
            let n = MIN_BYTES as usize;
            plans.file(&probe_plan(&ctx, a, b, n), true);
            plans.file(&probe_plan(&ctx, a, b, 2 * n), false);
            let h = ctx.put_async(&bufs[p].0, &bufs[p].1, n).expect("warm PUT");
            eng.run_until_idle();
            assert!(h.is_complete(), "warm PUT did not complete");
        }
        FaultStorm {
            seed,
            ctx,
            pairs,
            bufs,
            protect,
            plans,
        }
    }
}

/// Restores every link to its datasheet capacity and latency.
fn heal(eng: &Engine) {
    for l in &eng.topology().links {
        eng.set_link_capacity(l.id, l.bandwidth);
        eng.restore_link(l.id);
        eng.set_link_latency_scale(l.id, 1.0);
    }
}

/// Per-op record kept for the prefix.
struct Done {
    pair: usize,
    bytes: usize,
    sim: f64,
    ok: bool,
}

impl Workload for FaultStorm {
    fn run(self: Box<Self>, ctl: &Ctl) -> Result<Outcome, String> {
        let FaultStorm {
            seed,
            ctx,
            pairs,
            bufs,
            protect,
            mut plans,
        } = *self;
        let eng = ctx.runtime().engine().clone();
        let rt = ctx.runtime();
        let thread: SimThread = eng.register_thread("storm-caller");
        let mut r = Rng::new(seed, 5);
        let mut out = Outcome {
            os_threads: os_threads(),
            ..Outcome::default()
        };
        let rcfg = RecoveryConfig::default();
        let hcfg = HedgeConfig {
            min_trigger: 1e-5,
            max_hedges: 4,
            ..HedgeConfig::default()
        };
        let mut tracer = Tracer::new(Instant::now());
        let mut overhead = Overhead::default();
        let (mut resilient_ns, mut hedged_ns) = (Vec::new(), Vec::new());
        let mut prefix: Vec<Done> = Vec::with_capacity(PREFIX as usize);
        let mut digest = Digest::default();
        let mut counts = None;
        let (mut epoch, mut epoch_end) = (0u64, SimTime::from_secs(0.0));
        let mut escalations = 0u64;

        let start = Instant::now();
        let deadline = start + ctl.run_for;
        let mut meter = HostMeter::new(start);
        let mut op = 0u64;
        while op < PREFIX || Instant::now() < deadline {
            if thread.now() >= epoch_end {
                heal(&eng);
                let storm = FaultPlan::random_soak(
                    eng.topology(),
                    seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    EPOCH,
                    FAULTS_PER_EPOCH,
                    &protect,
                );
                FaultInjector::install(&eng, &storm);
                epoch += 1;
                epoch_end = thread.now().after(EPOCH);
            }
            let p = r.below(pairs.len());
            let (a, b) = pairs[p];
            let mut n = align4(r.log_uniform(MIN_BYTES, MAX_BYTES));
            let real = op.is_multiple_of(PAYLOAD_EVERY);
            if real {
                n = PAYLOAD_BYTES;
            }
            let hedged = op % 2 == 1;
            let traced = ctl.traced(op, TRACE_BLOCK, &tracer);
            let t_op = Instant::now();
            let root = traced.then(|| tracer.open("op", op, t_op));
            // Traced ops plan the size twice first (a miss, then a hit);
            // the call's own plan is then a hit, so call times come from
            // untraced ops only.
            if let Some(root) = root {
                for _ in 0..2 {
                    let probe = probe_plan(&ctx, a, b, n);
                    plans.file_counted(&probe);
                    tracer.child(root, "ucx.plan_for", probe.start, probe.end);
                }
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
            let sim0 = thread.now();
            let t0 = Instant::now();
            let mut ok = if hedged {
                // A hedge that runs out of rounds escalates to the
                // resilient loop, as a caller of `put_hedged` would.
                ctx.put_hedged(&thread, src, dst, n, &hcfg).is_ok() || {
                    escalations += 1;
                    ctx.put_resilient(&thread, src, dst, n, &rcfg).is_ok()
                }
            } else {
                ctx.put_resilient(&thread, src, dst, n, &rcfg).is_ok()
            };
            let t1 = Instant::now();
            let sim = thread.now().secs_since(sim0);
            let ns = (t1 - t0).as_nanos() as f64;
            let name = if hedged {
                "ucx.put_hedged"
            } else {
                "ucx.put_resilient"
            };
            match root {
                Some(root) => {
                    tracer.child(root, name, t0, t1);
                    tracer.close(root, t1);
                }
                // Real-payload PUTs copy bytes inside the call; call
                // times describe the synthetic-buffer ops.
                None if real => {}
                None if hedged => hedged_ns.push(ns),
                None => resilient_ns.push(ns),
            }
            if !real {
                meter.call(t1 - t0);
            }

            out.ledger.attempted += 1;
            if let Some(data) = expected {
                ok &= out.check_payload(ctl, data, dst.to_vec().unwrap_or_default());
            }
            if ok {
                out.ledger.completed += 1;
            } else {
                out.ledger.failed += 1;
            }
            // Real-payload ops copy bytes; they would swamp the comparison.
            if !real {
                overhead.add(traced, t_op.elapsed());
            }
            if op < PREFIX {
                digest.word(op);
                digest.word(thread.now().as_nanos());
                digest.word(n as u64);
                prefix.push(Done {
                    pair: p,
                    bytes: n,
                    sim,
                    ok,
                });
            }
            op += 1;
            meter.tick(op, Instant::now());
            if op == PREFIX {
                counts = Some(Counts::read(&ctx, &plans));
            }
        }
        let loop_secs = start.elapsed().as_secs_f64();
        let virtual_secs = thread.now().as_secs();
        drop(thread);

        let counts = counts.expect("the loop runs at least PREFIX ops");
        out.close_ledger(&ctx, &plans, &counts, digest.value(), PREFIX, false);

        // Model view: what Eq. 24 promises on the healthy fabric (a fresh
        // context), against what each PUT took in the storm.
        let quiet = UcxContext::new(
            GpuRuntime::new(Engine::new(eng.topology().clone())),
            UcxConfig::default(),
        );
        let err = mean_err_pct(prefix.iter().map(|d| {
            let (a, b) = pairs[d.pair];
            let plan = quiet.plan_for(a, b, d.bytes).expect("connected pair");
            (plan.predicted_time, d.sim)
        }));
        let mut sims: Vec<f64> = prefix.iter().map(|d| d.sim * 1e6).collect();
        let sim_secs: f64 = prefix.iter().map(|d| d.sim).sum();
        let bytes: usize = prefix.iter().map(|d| d.bytes).sum();
        let ok = prefix.iter().filter(|d| d.ok).count();
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
            format!(
                "{{\"ops\": {op}, \"host_secs\": {loop_secs}, \"closed_loop_window\": 1, \
                 \"virtual_secs\": {virtual_secs}, \"storm_epochs\": {epoch}, \"hedge_escalations\": {escalations}}}"
            ),
        ));

        if ctl.trace {
            counts.emit(&mut out.layer, PREFIX);
            plans.emit(&mut out.layer);
            out.layer.extend([
                (
                    "ucx.put_resilient.call_us",
                    Pct::of(&mut resilient_ns).p50 / 1e3,
                ),
                ("ucx.put_hedged.call_us", Pct::of(&mut hedged_ns).p50 / 1e3),
                ("obs.trace_overhead_pct", overhead.pct()),
            ]);
            super::write_trace(&tracer, "fault_storm", seed, &mut out);
        }
        Ok(out)
    }
}
