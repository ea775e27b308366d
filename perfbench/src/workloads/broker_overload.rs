//! `broker_overload`: an open loop in virtual time against the `Broker`
//! on beluga GPU 0→1. Gold, silver and bronze tenants (weights 3:2:1)
//! arrive at 2.0× the pair's modeled capacity, split by weight, plus a
//! zero-weight scavenger at 0.2×. Arrivals are Poisson, sizes bounded
//! Pareto (shape 1.5, 4 MiB mean), drawn from the seed in batches ahead
//! of the generator. One generator sim thread (this one) submits beside
//! the broker's dispatcher thread: two OS threads in all. Admission plans nearly
//! distinct sizes, so the plan layer serves misses here, and queues,
//! shedding and DRR dispatch run only in this workload.

use super::{mean_err_pct, probe_plan, Counts, Ctl, Outcome, Overhead, PlanTimes, Workload};
use crate::rng::{align4, bounded_pareto_mean, payload, Rng};
use crate::stats::{os_threads, Digest, HostMeter, Pct};
use crate::trace::Tracer;
use mpx_broker::{Broker, BrokerConfig, BrokerStats, Outcome as Done, TenantSpec, Ticket};
use mpx_gpu::GpuRuntime;
use mpx_sim::{Engine, SimTime};
use mpx_topo::{presets, DeviceId};
use mpx_ucx::{UcxConfig, UcxContext};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

const MIB: f64 = (1 << 20) as f64;
/// `(name, weight, arrival rate as a multiple of the pair's capacity)`.
const TENANTS: [(&str, f64, f64); 4] = [
    ("gold", 3.0, 1.0),
    ("silver", 2.0, 2.0 / 3.0),
    ("bronze", 1.0, 1.0 / 3.0),
    ("scavenger", 0.0, 0.2),
];
const PARETO_SHAPE: f64 = 1.5;
const MEAN_BYTES: f64 = 4.0 * MIB;
const MAX_BYTES: f64 = 64.0 * MIB;
/// A request's deadline: this many times its datasheet time over the
/// pair's direct link, and at least `DEADLINE_FLOOR` seconds.
const DEADLINE_SLACK: f64 = 4.0;
const DEADLINE_FLOOR: f64 = 1e-3;
/// Arrivals drawn per batch. Batches are drawn into one reused buffer,
/// so input memory stays the same however many a run consumes.
const BATCH: usize = 1 << 18;
/// Submissions in the deterministic prefix.
const PREFIX: u64 = 200_000;
/// Arrivals submitted after the prefix before a run may stop: about
/// 0.1 s of virtual time, far beyond the longest sojourn a prefix
/// request can see, so its outcome never depends on where the run stops.
const SETTLE: u64 = 5_000;
/// Traced and untraced blocks of this many submissions alternate.
const TRACE_BLOCK: u64 = 256;
/// Sizes planned at set-up to time plan misses (admission plans nearly
/// distinct sizes, so misses are this workload's common case).
const WARM_SIZES: usize = 64;

/// One pre-drawn request.
#[derive(Clone, Copy, Default)]
struct Arrival {
    /// Virtual seconds after the run's start.
    at: f64,
    bytes: u32,
    tenant: u8,
}

pub struct BrokerOverload {
    seed: u64,
    ctx: UcxContext,
    broker: Arc<Broker>,
    pair: (DeviceId, DeviceId),
    /// The pair's modeled bandwidth for a mean-size request.
    capacity: f64,
    plans: PlanTimes,
    payload_sample: (Vec<u8>, Vec<u8>),
}

impl BrokerOverload {
    pub fn setup(seed: u64) -> BrokerOverload {
        let engine = Engine::new(Arc::new(presets::beluga()));
        let ctx = UcxContext::new(GpuRuntime::new(engine), UcxConfig::default());
        let eng = ctx.runtime().engine().clone();
        let gpus = eng.topology().gpus();
        let (a, b) = (gpus[0], gpus[1]);
        let mut plans = PlanTimes::default();

        // The broker moves no caller buffers, so the byte check runs on
        // one real-payload PUT over the same context and pair.
        let n = MEAN_BYTES as usize;
        let data = payload(seed, n);
        let src = ctx.runtime().alloc_bytes(a, data.clone());
        let dst = ctx.runtime().alloc_zeroed(b, n);
        plans.file(&probe_plan(&ctx, a, b, n), true);
        let h = ctx.put_async(&src, &dst, n).expect("payload PUT");
        eng.run_until_idle();
        assert!(h.is_complete(), "payload PUT did not complete");
        let payload_sample = (data, dst.to_vec().unwrap_or_default());

        let mut r = Rng::new(seed, 4);
        let lo = pareto_lo();
        for _ in 0..WARM_SIZES {
            let n = align4(r.bounded_pareto(PARETO_SHAPE, lo, MAX_BYTES));
            plans.file(&probe_plan(&ctx, a, b, n), false);
        }

        // Arrival rates come from the model's capacity for a mean-size
        // request.
        let capacity = ctx
            .plan_for(a, b, n)
            .expect("connected pair")
            .predicted_bandwidth;

        let tenants = TENANTS
            .iter()
            .map(|&(name, w, _)| TenantSpec::new(name, w))
            .collect();
        let broker = Broker::new(ctx.clone(), BrokerConfig::default(), tenants);
        BrokerOverload {
            seed,
            ctx,
            broker,
            pair: (a, b),
            capacity,
            plans,
            payload_sample,
        }
    }
}

/// The tenants' Poisson streams merged into one arrival sequence, drawn
/// from the seed in batches ahead of the generator.
struct Arrivals {
    /// Per tenant: its generator, mean gap, and next arrival time.
    streams: Vec<(Rng, f64, f64)>,
    lo: f64,
    buf: Vec<Arrival>,
    pos: usize,
}

impl Arrivals {
    /// `capacity` is the pair's modeled bandwidth.
    fn new(seed: u64, capacity: f64) -> Arrivals {
        let streams = TENANTS
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut r = Rng::new(seed, 10 + i as u64);
                let gap = MEAN_BYTES / (t.2 * capacity);
                let first = r.exp(gap);
                (r, gap, first)
            })
            .collect();
        let mut a = Arrivals {
            streams,
            lo: pareto_lo(),
            buf: vec![Arrival::default(); BATCH],
            pos: 0,
        };
        a.refill();
        a
    }

    fn refill(&mut self) {
        for slot in self.buf.iter_mut() {
            let (ti, s) = self
                .streams
                .iter_mut()
                .enumerate()
                .min_by(|x, y| x.1 .2.total_cmp(&y.1 .2))
                .expect("tenants");
            let bytes = align4(s.0.bounded_pareto(PARETO_SHAPE, self.lo, MAX_BYTES));
            *slot = Arrival {
                at: s.2,
                bytes: bytes as u32,
                tenant: ti as u8,
            };
            s.2 += s.0.exp(s.1);
        }
        self.pos = 0;
    }

    fn next(&mut self) -> Arrival {
        if self.pos == self.buf.len() {
            self.refill();
        }
        self.pos += 1;
        self.buf[self.pos - 1]
    }
}

/// Lower bound of the bounded Pareto whose mean is `MEAN_BYTES`.
fn pareto_lo() -> f64 {
    let (mut lo, mut hi) = (1.0, MEAN_BYTES);
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if bounded_pareto_mean(PARETO_SHAPE, mid, MAX_BYTES) < MEAN_BYTES {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Restricts the calling thread, and threads it spawns afterwards, to
/// CPU 0. Returns whether the kernel accepted the mask.
fn pin_to_first_cpu() -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A 1024-CPU `cpu_set_t` with only CPU 0 set.
    let mut mask = [0u64; 16];
    mask[0] = 1;
    // SAFETY: `mask` is a live, aligned buffer of exactly `cpusetsize`
    // bytes that the call only reads; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// The broker's counters as a JSON object.
fn broker_json(s: &BrokerStats) -> String {
    let tenants: Vec<String> = s
        .tenants
        .iter()
        .map(|t| {
            format!(
                "\"{}\": {{\"submitted\": {}, \"shed\": {}, \"admitted_bytes\": {}, \"completed_bytes\": {}}}",
                t.name, t.submitted, t.shed, t.admitted_bytes, t.completed_bytes
            )
        })
        .collect();
    format!(
        "{{\"submitted\": {}, \"admitted\": {}, \"completed\": {}, \"failed\": {}, \"shed_queue_full\": {}, \
         \"shed_deadline\": {}, \"shed_regime\": {}, \"coalesced\": {}, \"dispatches\": {}, \
         \"regime_changes\": {}, \"queue_peak\": {}, \"tenants\": {{{}}}}}",
        s.submitted,
        s.admitted,
        s.completed,
        s.failed,
        s.shed_queue_full,
        s.shed_deadline,
        s.shed_regime,
        s.coalesced,
        s.dispatches,
        s.regime_changes,
        s.queue_peak,
        tenants.join(", ")
    )
}

/// A submitted request awaiting its outcome.
struct Pending {
    op: u64,
    ticket: Ticket,
}

/// Per-op result kept for the prefix.
struct Resolved {
    tenant: u8,
    bytes: usize,
    budget: f64,
    /// `None`: shed at admission.
    outcome: Option<Done>,
}

impl Workload for BrokerOverload {
    fn run(self: Box<Self>, ctl: &Ctl) -> Result<Outcome, String> {
        let BrokerOverload {
            seed,
            ctx,
            broker,
            pair: (a, b),
            capacity,
            mut plans,
            payload_sample,
        } = *self;
        let eng = ctx.runtime().engine().clone();
        let link = eng
            .topology()
            .link_between(a, b)
            .expect("direct link")
            .clone();
        let mut arrivals = Arrivals::new(seed, capacity);
        let mut out = Outcome::default();
        let (expected, got) = payload_sample;
        out.check_payload(ctl, expected, got);

        // Both threads share one CPU, so a submission's handoff to the
        // dispatcher costs a same-core switch rather than a cross-core
        // wake-up whose price depends on what the other CPU is doing.
        let pinned = pin_to_first_cpu();
        broker.set_producers(1);
        let generator = eng.register_thread("generator");
        let dispatcher = eng.register_thread("broker-dispatch");
        let mut tracer = Tracer::new(Instant::now());
        let mut overhead = Overhead::default();
        let mut submit_ns = Vec::new();
        let mut prefix: Vec<Resolved> = Vec::with_capacity(PREFIX as usize);
        let mut pending: VecDeque<Pending> = VecDeque::new();
        let mut prefix_end = None;
        let mut lateness_ns = 0u64;
        let origin = generator.now();
        let mut op = 0u64;
        let mut loop_secs = 0.0;
        let mut meter = HostMeter::new(Instant::now());

        let sweep = |pending: &mut VecDeque<Pending>,
                     prefix: &mut Vec<Resolved>,
                     all: bool,
                     thread: &mpx_sim::SimThread| {
            while let Some(front) = pending.front() {
                let done = match front.ticket.outcome() {
                    Some(o) => o,
                    None if all => front.ticket.wait(thread),
                    None => break,
                };
                let p = pending.pop_front().expect("front exists");
                if p.op < PREFIX {
                    prefix[p.op as usize].outcome = Some(done);
                }
            }
        };

        std::thread::scope(|s| {
            let b2 = broker.clone();
            s.spawn(move || b2.run(dispatcher));
            out.os_threads = os_threads();
            let start = Instant::now();
            let deadline = start + ctl.run_for;
            meter = HostMeter::new(start);
            // Runs at least `SETTLE` arrivals past the prefix: the prefix
            // snapshot is taken when the generator wakes for the first of
            // them, with the dispatcher parked, and the prefix's own
            // requests then finish under the same load whatever the run
            // length.
            while op < PREFIX + SETTLE || Instant::now() < deadline {
                let arr = arrivals.next();
                let bytes = arr.bytes as usize;
                // The limit comes from the datasheet link alone, so the
                // program's own predictor cannot move it.
                let budget = (DEADLINE_SLACK * link.transfer_time(bytes)).max(DEADLINE_FLOOR);
                let due = origin.after(arr.at);
                let now = generator.now();
                if due > now {
                    generator.sleep(due.secs_since(now));
                }
                lateness_ns =
                    lateness_ns.max(generator.now().as_nanos().saturating_sub(due.as_nanos()));
                if op == PREFIX {
                    prefix_end =
                        Some((Counts::read(&ctx, &plans), broker.stats(), generator.now()));
                }
                let traced = ctl.traced(op, TRACE_BLOCK, &tracer);
                let tenant = TENANTS[arr.tenant as usize].0;
                let t_op = Instant::now();
                // Traced ops plan the size twice before submitting (a miss,
                // then a hit), while the dispatcher is parked, so the
                // cache-delta classification cannot race it. Admission
                // then hits, so submit times come from untraced ops only.
                let root = traced.then(|| tracer.open("op", op, t_op));
                if let Some(root) = root {
                    for _ in 0..2 {
                        let probe = probe_plan(&ctx, a, b, bytes);
                        plans.file_counted(&probe);
                        tracer.child(root, "ucx.plan_for", probe.start, probe.end);
                    }
                }
                let t0 = Instant::now();
                let res = broker.submit_with_deadline(tenant, a, b, bytes, Some(budget));
                let t1 = Instant::now();
                meter.call(t1 - t0);
                match root {
                    Some(root) => {
                        tracer.child(root, "broker.submit_with_deadline", t0, t1);
                        tracer.close(root, t1);
                    }
                    None => submit_ns.push((t1 - t0).as_nanos() as f64),
                }
                let t_end = Instant::now();
                overhead.add(traced, t_end - t_op);
                meter.tick(op + 1, t_end);
                out.ledger.attempted += 1;
                if op < PREFIX {
                    prefix.push(Resolved {
                        tenant: arr.tenant,
                        bytes,
                        budget,
                        outcome: None,
                    });
                }
                match res {
                    Ok(ticket) => pending.push_back(Pending { op, ticket }),
                    Err(_) => out.ledger.shed += 1,
                }
                op += 1;
                if op.is_multiple_of(1024) {
                    sweep(&mut pending, &mut prefix, false, &generator);
                }
            }
            loop_secs = start.elapsed().as_secs_f64();
            broker.producer_done();
            sweep(&mut pending, &mut prefix, true, &generator);
            drop(generator);
        });

        let stats: BrokerStats = broker.stats();
        out.ledger.completed = stats.completed;
        out.ledger.failed = stats.failed;
        out.ledger.incomplete = pending.len() as u64;
        out.ledger.broker_books = Some(stats.accounting_ok() && stats.drained_ok());

        let (counts, prefix_stats, prefix_now) = prefix_end.expect("the loop runs past PREFIX");
        let mut digest = Digest::default();
        let mut sojourn_us = Vec::new();
        let (mut ok, mut bytes_done) = (0u64, 0usize);
        for (i, p) in prefix.iter().enumerate() {
            digest.word(i as u64);
            digest.word(p.bytes as u64);
            match p.outcome {
                Some(Done::Completed { latency, .. }) => {
                    digest.word(SimTime::from_secs(latency).as_nanos());
                    bytes_done += p.bytes;
                    if latency <= p.budget {
                        ok += 1;
                    }
                    if TENANTS[p.tenant as usize].1 > 0.0 {
                        sojourn_us.push(latency * 1e6);
                    }
                }
                Some(Done::Failed { .. }) => digest.word(u64::MAX),
                None => digest.word(u64::MAX - 1),
            }
        }
        out.close_ledger(&ctx, &plans, &counts, digest.value(), PREFIX, true);

        // Model view: each completed request's Eq. 24 prediction from a
        // plan-cache lookup after the run, against its sojourn.
        let err = mean_err_pct(prefix.iter().filter_map(|p| match p.outcome {
            Some(Done::Completed { latency, .. }) => {
                let plan = ctx.plan_for(a, b, p.bytes).expect("connected pair");
                Some((plan.predicted_time, latency))
            }
            _ => None,
        }));
        let window = prefix_now.secs_since(origin);
        out.set_e2e(
            meter.finish(op, loop_secs),
            "sim_sojourn_weighted_us",
            Pct::of(&mut sojourn_us),
            bytes_done as f64 / window / 1e9,
            err,
            ok as f64 / PREFIX as f64,
        );
        out.detail.push((
            "loop".into(),
            format!(
                "{{\"submissions\": {op}, \"host_secs\": {loop_secs}, \"open_loop_offered_x_capacity\": 2.2, \
                 \"prefix_virtual_secs\": {window}, \"generator_lateness_us\": {}, \"pinned_to_one_cpu\": {pinned}}}",
                lateness_ns as f64 / 1e3
            ),
        ));
        out.detail
            .push(("broker_prefix".into(), broker_json(&prefix_stats)));

        if ctl.trace {
            counts.emit(&mut out.layer, prefix_stats.completed);
            plans.emit(&mut out.layer);
            let submit = Pct::of(&mut submit_ns);
            let st = &prefix_stats;
            out.layer.extend([
                ("broker.submit_p50_us", submit.p50 / 1e3),
                ("broker.submit_p99_us", submit.p99 / 1e3),
                (
                    "broker.admit_ratio",
                    st.admitted as f64 / st.submitted.max(1) as f64,
                ),
                ("broker.shed_deadline", st.shed_deadline as f64),
                ("broker.shed_queue_full", st.shed_queue_full as f64),
                ("broker.shed_regime", st.shed_regime as f64),
                ("broker.dispatches", st.dispatches as f64),
                ("broker.coalesced", st.coalesced as f64),
                ("broker.queue_peak", st.queue_peak as f64),
                ("obs.trace_overhead_pct", overhead.pct()),
            ]);
            super::write_trace(&tracer, "broker_overload", seed, &mut out);
        }
        Ok(out)
    }
}
